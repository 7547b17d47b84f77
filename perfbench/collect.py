"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 [--workloads random-n8,exact-n16]
        [--write perfbench/baseline.json] [--against perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median, next to the metric's bound. ``--write`` merges the
summary into a JSON file under a ``trace0``/``trace1`` section; ``--against``
reports how far each median moved, in the worse direction, from such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(q2) if q2 else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--write", type=Path)
    p.add_argument("--against", type=Path, help="a summary written earlier: report each median's move")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.against.read_text())[f"trace{args.trace}"] if args.against else {}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound}" + ("  ABOVE bound/3" if s["spread"] > bound / 3 else "")
            print(f"  {workload:<16} {name:<38} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {flag}", flush=True)
            before = earlier.get(workload, {}).get(name)
            if before and before["median"]:
                worse = (s["median"] - before["median"]) / abs(before["median"])
                worse = worse if better[name] == "lower" else -worse
                over = "  WORSE than bound" if bound is not None and worse > bound else ""
                print(f"  {'':<16} {'':<38} worse than earlier median by {worse:+.4f}{over}", flush=True)

    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.is_file() else {}
        doc["env"] = environment()
        doc["run_seconds"] = spec["run_seconds"]
        doc.setdefault(f"trace{args.trace}", {}).update(summary)
        doc.setdefault("seeds", {})[f"trace{args.trace}"] = f"{args.seeds[0]}-{args.seeds[-1]}"
        args.write.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
