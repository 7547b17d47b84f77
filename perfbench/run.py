"""Benchmark of the qals solver: one client, replicas solved back to back.

    python3 perfbench/run.py --workload random-n8 --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the run fails without it. ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` alternates traced and
untraced solves and reports the per-layer split. Human-readable lines come
first, and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any correctness check failed. Each run also writes its deterministic
results (and, when traced, the spans of its first traced solve) under
``perfbench/out/``, and fails if an earlier run of the same code with the same
workload and seed recorded different ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def code_digest() -> str:
    """Hash of the package and benchmark sources: 'the same code' for the cross-run check."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def check_against_earlier(out, path: Path, digest: str) -> None:
    """Deterministic results must repeat exactly across runs of the same code."""
    if not path.is_file():
        return
    earlier = json.loads(path.read_text())
    if earlier.get("code") == digest and earlier.get("deterministic") != out.deterministic:
        out.fail(None, f"deterministic results differ from the earlier run recorded in {path.name}")


def report(w, args, out, env) -> None:
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in [*out.metrics.items(), *out.printed.items()]:
        print(f"  {name:<38} {m.value:>14.6g} {m.unit:<6} {m.note}")
    if out.split:
        print("  span                              calls   share  self share")
        for name, (calls, share, own) in sorted(out.split.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<32} {calls:>7} {share:>7.3f} {own:>11.3f}")
    failed = len(out.failed_solves)
    print(f"  {'failed_ratio':<38} {failed / max(out.attempted, 1):>14.6g} ratio  {failed}/{out.attempted} solves")
    for problem in out.problems:
        print(f"FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qals" / "__init__.py").is_file():
        print(f"perfbench: no qals package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qals.harness import make_sampler

    from measure import measure, measure_traced, set_up_pool
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    pool, setup_s = set_up_pool(w, args.seed)
    sampler = make_sampler(w.sampler)
    if args.trace:
        out = measure_traced(w, args.seed, args.seconds, pool, sampler)
    else:
        out = measure(w, args.seed, args.seconds, pool, setup_s, sampler)

    env = environment()
    digest = code_digest()
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    result = OUT / f"{stem}.json"
    check_against_earlier(out, result, digest)
    metrics = {name: {"value": m.value, "unit": m.unit} for name, m in out.metrics.items()}
    record = {"code": digest, "env": env, "deterministic": out.deterministic, "metrics": metrics, "samples": out.samples}
    result.write_text(json.dumps(record, indent=1) + "\n")
    if out.spans:
        origin = out.spans[0][2]
        rows = [[name, parent, start - origin, end - origin] for name, parent, start, end in out.spans]
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"spans": rows}) + "\n")

    report(w, args, out, env)
    correct = not out.problems
    print(
        json.dumps(
            {"correct": correct, "attempted": out.attempted, "failed": len(out.failed_solves), "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
