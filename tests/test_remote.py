"""RemoteSampler against a loopback test service."""

import copy
import json
import pickle
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest
import requests

from qals import (
    CapacityError,
    ExactSampler,
    MalformedResponseError,
    MetropolisSampler,
    RandomSampler,
    RemoteSampler,
    SampleShapeError,
    TransportError,
    WeightMatrix,
    complete_graph,
)
from qals.cli import main


class _Service:
    """Configurable loopback sampler service."""

    def __init__(self, mode="echo", sample_row=(1, -1, 1)):
        self.mode = mode
        self.sample_row = list(sample_row)
        self.requests = []
        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _send(self, status, payload, raw=None):
                body = raw if raw is not None else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path != "/info":
                    self._send(404, {"error": "not found"})
                    return
                if service.mode == "bad_info":
                    self._send(200, {"delta": 2.0})
                    return
                if service.mode == "info_error":
                    self._send(503, {"error": "maintenance"})
                    return
                info = {"delta": 2.0, "gamma": 1.0, "topology": "complete", "max_nodes": 16}
                if service.mode == "nan_delta":
                    info["delta"] = float("nan")
                elif service.mode == "nan_gamma":
                    info["gamma"] = float("nan")
                elif service.mode == "infinite_max_nodes":
                    info["max_nodes"] = float("inf")
                elif service.mode == "fractional_max_nodes":
                    info["max_nodes"] = 16.7
                elif service.mode == "boolean_max_nodes":
                    info["max_nodes"] = True
                elif service.mode == "zero_max_nodes":
                    info["max_nodes"] = 0
                elif service.mode == "negative_max_nodes":
                    info["max_nodes"] = -5
                elif service.mode == "integral_float_max_nodes":
                    info["max_nodes"] = 16.0
                elif service.mode == "non_string_topology":
                    info["topology"] = ["complete"]
                elif service.mode == "string_delta":
                    info["delta"] = "2.0"
                elif service.mode == "boolean_gamma":
                    info["gamma"] = True
                elif service.mode == "oversized_ranges":
                    info["delta"] = info["gamma"] = 1e306  # 16 + 240 entries sum above the limit
                elif service.mode == "overflowing_delta":
                    info["delta"] = 10**400  # a JSON integer beyond every float
                self._send(200, info)

            def do_POST(self):
                if self.path != "/sample":
                    self._send(404, {"error": "not found"})
                    return
                length = int(self.headers["Content-Length"])
                request = json.loads(self.rfile.read(length))
                service.requests.append(request)
                k = request["num_reads"]
                if service.mode == "drop_sample":
                    return  # no response: the server closes the connection
                if service.mode == "short_rows":
                    self._send(200, {"samples": [[1, -1]] * k, "energies": [0.0] * k})
                elif service.mode == "garbage":
                    self._send(200, None, raw=b"this is not json")
                elif service.mode == "error":
                    self._send(500, {"error": "overheated"})
                elif service.mode == "wrong_count":
                    self._send(200, {"samples": [service.sample_row], "energies": [0.0]})
                elif service.mode == "fractional_spin":
                    samples = [[1.5, -1, 1]] * k
                    self._send(200, {"samples": samples, "energies": [0.0] * k})
                elif service.mode == "string_spin":
                    samples = [["1", "-1", "1"]] * k
                    self._send(200, {"samples": samples, "energies": [0.0] * k})
                elif service.mode == "infinite_spin":
                    samples = [[float("inf"), -1, 1]] * k
                    self._send(200, {"samples": samples, "energies": [0.0] * k})
                elif service.mode == "nan_energy":
                    samples = [service.sample_row] * k
                    self._send(200, {"samples": samples, "energies": [float("nan")] * k})
                elif service.mode == "string_energies":
                    samples = [service.sample_row] * k
                    self._send(200, {"samples": samples, "energies": "0" * k})
                else:  # "echo", and the modes that only change /info
                    samples = [service.sample_row] * k
                    self._send(200, {"samples": samples, "energies": [0.0] * k})

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for the next poll, so poll often to keep each test short
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


def toy_weights(n=3):
    theta = np.zeros((n, n))
    theta[0, 0] = 4.0
    theta[0, 1] = theta[1, 0] = 0.5
    return WeightMatrix(theta, complete_graph(n))


def test_echo_service_roundtrip():
    with _Service() as svc:
        sampler = RemoteSampler(svc.url)
        out = sampler.sample(toy_weights(), 4)
        assert out.shape == (4, 3)
        for row in out:
            np.testing.assert_array_equal(row, [1, -1, 1])


def test_client_scales_before_sending():
    with _Service() as svc:
        RemoteSampler(svc.url).sample(toy_weights(), 2)
        request = svc.requests[-1]
        assert request["n"] == 3
        assert request["num_reads"] == 2
        # bias 4.0 dominates: c = 4/2 = 2, so sent weights are halved
        assert request["biases"] == [2.0, 0.0, 0.0]
        assert request["couplings"] == [[0, 1, 0.25]]


def test_client_payload_divides_normal_weights_by_one_factor():
    # the payload is theta / max(max|bias| / delta, max|coupling| / gamma), bit for bit,
    # also for a subnormal entry beside normal ones
    theta = np.random.default_rng(5).uniform(-3.0, 3.0, size=(3, 3))
    theta = theta + theta.T
    theta[0, 1] = theta[1, 0] = 1e-310
    c = max(np.abs(np.diagonal(theta)).max() / 2.0, np.abs(np.triu(theta, 1)).max() / 1.0)
    with _Service() as svc:
        RemoteSampler(svc.url).sample(WeightMatrix(theta, complete_graph(3)), 2)
        request = svc.requests[-1]
    assert request["biases"] == [float(b) for b in np.diagonal(theta) / c]
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert request["couplings"] == [[i, j, float(theta[i, j] / c)] for i, j in pairs]


def test_info_capabilities():
    with _Service() as svc:
        info = RemoteSampler(svc.url).info()
        assert info == {"delta": 2.0, "gamma": 1.0, "topology": "complete", "max_nodes": 16}


def test_capacity_respected():
    with _Service() as svc:
        w = WeightMatrix(np.zeros((17, 17)), complete_graph(17))
        with pytest.raises(CapacityError):
            RemoteSampler(svc.url).sample(w, 1)


def test_wrong_vector_length():
    with _Service(mode="short_rows") as svc:
        with pytest.raises(SampleShapeError):
            RemoteSampler(svc.url).sample(toy_weights(), 2)


def test_non_json_response():
    with _Service(mode="garbage") as svc:
        with pytest.raises(MalformedResponseError):
            RemoteSampler(svc.url).sample(toy_weights(), 1)


def test_http_error_status():
    with _Service(mode="error") as svc:
        with pytest.raises(MalformedResponseError):
            RemoteSampler(svc.url).sample(toy_weights(), 1)


def test_wrong_sample_count():
    with _Service(mode="wrong_count") as svc:
        with pytest.raises(MalformedResponseError):
            RemoteSampler(svc.url).sample(toy_weights(), 3)


def test_bad_info_payload():
    with _Service(mode="bad_info") as svc:
        with pytest.raises(MalformedResponseError):
            RemoteSampler(svc.url).info()


def test_info_error_status():
    with _Service(mode="info_error") as svc:
        with pytest.raises(MalformedResponseError, match="info returned status 503"):
            RemoteSampler(svc.url).sample(toy_weights(), 1)


def test_unreachable_endpoint():
    sampler = RemoteSampler("http://127.0.0.1:1", timeout=0.5)
    with pytest.raises(TransportError):
        sampler.sample(toy_weights(), 1)


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf"), 1e10, True, "5", None])
def test_a_bad_timeout_is_rejected_by_the_constructor(timeout):
    with pytest.raises(ValueError, match="timeout"):
        RemoteSampler("http://127.0.0.1:1", timeout=timeout)


def test_a_timeout_is_kept_as_a_float():
    for timeout in (Fraction(1, 2), np.float64(0.5), threading.TIMEOUT_MAX):
        kept = RemoteSampler("http://127.0.0.1:1", timeout=timeout).timeout
        assert type(kept) is float and kept == timeout


@pytest.mark.parametrize(
    "rebuild", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)
def test_a_sampler_survives_deepcopy_and_pickle(rebuild):
    # the sampler keeps no module object: requests is imported in the constructor, not kept
    with _Service() as svc:
        twin = rebuild(RemoteSampler(svc.url + "/", timeout=2.5))
        assert (twin.endpoint, twin.timeout) == (svc.url, 2.5)
        assert twin.sample(toy_weights(), 2).tolist() == [[1, -1, 1]] * 2


def test_dropped_sample_connection_is_a_transport_error(tmp_path):
    # the service answers /info, then closes the connection on POST /sample
    path = tmp_path / "pair.qubo"
    path.write_text("qubo 3\n0 1 1.0\n")
    with _Service(mode="drop_sample") as svc:
        sampler = RemoteSampler(svc.url)
        assert sampler.info()["max_nodes"] == 16
        with pytest.raises(TransportError, match="/sample"):
            sampler.sample(toy_weights(), 1)
        assert main(["solve", str(path), "--sampler", f"remote:{svc.url}"]) == 2


@pytest.mark.parametrize("method, endpoint", [("get", "/info"), ("post", "/sample")])
def test_any_os_error_from_the_session_is_a_transport_error(method, endpoint, monkeypatch, tmp_path):
    # not only requests.RequestException, which derives from OSError: a plain
    # OSError is a transport failure too, so the CLI exits 2, not 1
    def refuse(self, url, **kwargs):
        raise OSError("no route")

    monkeypatch.setattr(requests.Session, method, refuse)
    path = tmp_path / "pair.qubo"
    path.write_text("qubo 3\n0 1 1.0\n")
    with _Service() as svc:
        with pytest.raises(TransportError, match=f"^cannot reach {svc.url}{endpoint}: no route$"):
            RemoteSampler(svc.url).sample(toy_weights(), 1)
        assert main(["solve", str(path), "--sampler", f"remote:{svc.url}"]) == 2


@pytest.mark.parametrize("make", [ExactSampler, MetropolisSampler, RandomSampler, RemoteSampler])
def test_sampler_contract(make):
    # every backend: (k, n) rows of -1/+1, and the same rows for the same rng state
    with _Service() as svc:
        sampler = make(svc.url) if make is RemoteSampler else make()
        first = sampler.sample(toy_weights(), 5, np.random.default_rng(8))
        again = sampler.sample(toy_weights(), 5, np.random.default_rng(8))
    assert first.shape == (5, 3) and first.dtype == np.int8
    assert (np.abs(first) == 1).all()
    np.testing.assert_array_equal(first, again)


def test_one_connection_per_sampler():
    # an HTTP/1.1 service keeps connections alive, so a sampler that reuses
    # its connection sends /info and every /sample from one client port
    ports = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def _send(self, payload):
            ports.append(self.client_address[1])
            body = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            self._send({"delta": 2.0, "gamma": 1.0, "topology": "complete", "max_nodes": 16})

        def do_POST(self):
            k = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["num_reads"]
            self._send({"samples": [[1, -1, 1]] * k, "energies": [0.0] * k})

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True  # shutdown must not wait on an open keep-alive connection
    serve = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    serve.start()
    try:
        host, port = server.server_address
        sampler = RemoteSampler(f"http://{host}:{port}")
        for _ in range(2):
            assert sampler.sample(toy_weights(), 2).shape == (2, 3)
    finally:
        server.shutdown()
        server.server_close()
    assert len(ports) == 3 and len(set(ports)) == 1


def test_one_shot_helper():
    with _Service() as svc:
        out = RemoteSampler(svc.url).sample(toy_weights(), 2)
        assert out.shape == (2, 3)


# json.dumps writes NaN and Infinity, which Python's json (and so requests)
# reads back as floats: each mode is a payload that parses but is not valid.
# Bad spins break the spin rule every backend keeps; bad energies are the client's own check.
@pytest.mark.parametrize(
    "mode", ["fractional_spin", "infinite_spin", "nan_energy", "string_energies", "string_spin"]
)
def test_invalid_sample_payload_rejected(mode):
    error = SampleShapeError if mode.endswith("_spin") else MalformedResponseError
    with _Service(mode=mode) as svc:
        with pytest.raises(error):
            RemoteSampler(svc.url).sample(toy_weights(), 2)


@pytest.mark.parametrize(
    "mode", ["nan_delta", "nan_gamma", "overflowing_delta", "infinite_max_nodes"]
)
def test_non_finite_info_rejected(mode):
    with _Service(mode=mode) as svc:
        with pytest.raises(MalformedResponseError):
            RemoteSampler(svc.url).info()


@pytest.mark.parametrize(
    "mode",
    [
        "fractional_max_nodes",
        "boolean_max_nodes",
        "zero_max_nodes",
        "negative_max_nodes",
        "non_string_topology",
        "string_delta",
        "boolean_gamma",
    ],
)
def test_ill_typed_info_rejected(mode):
    with _Service(mode=mode) as svc:
        with pytest.raises(MalformedResponseError):
            RemoteSampler(svc.url).info()


def test_info_whose_ranges_break_the_weight_bound_rejected():
    with _Service(mode="oversized_ranges") as svc:
        with pytest.raises(MalformedResponseError, match="admit weights on 16 nodes"):
            RemoteSampler(svc.url).info()


def test_integral_float_max_nodes_accepted():
    with _Service(mode="integral_float_max_nodes") as svc:
        info = RemoteSampler(svc.url).info()
        assert info["max_nodes"] == 16 and type(info["max_nodes"]) is int


@pytest.mark.parametrize(
    "mode",
    [
        "fractional_spin",
        "nan_delta",
        "fractional_max_nodes",
        "string_energies",
        "string_delta",
        "boolean_gamma",
        "oversized_ranges",
    ],
)
def test_invalid_payload_exits_two(mode, tmp_path):
    path = tmp_path / "pair.qubo"
    path.write_text("qubo 3\n0 1 1.0\n")
    with _Service(mode=mode) as svc:
        assert main(["solve", str(path), "--sampler", f"remote:{svc.url}"]) == 2
