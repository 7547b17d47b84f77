"""Exercise the HTTP sampling protocol against an in-process toy service.

The service advertises its weight ranges under GET /info; the client scales
weights to those ranges before POSTing to /sample. Here the "annealer" behind
the service is simply the exact enumerator.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

from qals import (
    ExactSampler,
    RemoteSampler,
    WeightMatrix,
    complete_graph,
    energy,
    estimate_argmin,
)

GRAPH = complete_graph(4)


class ToyAnnealerHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _reply(self, payload):
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._reply({"delta": 2.0, "gamma": 1.0, "topology": "complete", "max_nodes": 16})

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        n = request["n"]
        theta = np.diag([float(b) for b in request["biases"]])
        for i, j, v in request["couplings"]:
            theta[i, j] = theta[j, i] = v
        w = WeightMatrix(theta, complete_graph(n))
        samples = ExactSampler().sample(w, request["num_reads"], np.random.default_rng(0))
        self._reply(
            {
                "samples": [[int(v) for v in s] for s in samples],
                "energies": [energy(w, s) for s in samples],
            }
        )


server = HTTPServer(("127.0.0.1", 0), ToyAnnealerHandler)
threading.Thread(target=server.serve_forever, daemon=True).start()
url = "http://%s:%d" % server.server_address
print("toy service listening at", url)

client = RemoteSampler(url)
print("advertised capabilities:", client.info())

rng = np.random.default_rng(5)
a = rng.uniform(-3, 3, size=(4, 4))
weights = WeightMatrix(a + a.T, GRAPH)
best = estimate_argmin(client, weights, 5, rng)
print("best remote sample:", tuple(int(v) for v in best), "energy", round(energy(weights, best), 4))

server.shutdown()
server.server_close()
