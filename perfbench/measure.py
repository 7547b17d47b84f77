"""Closed-loop measurement with one client: replicas solved back to back.

``measure`` is the untraced run that gives the end-to-end metrics. Its
timings are reported at the reference speed of ``calibration``: each
replica's wall time is scaled by the mean of the calibrations timed just
before and after it. Raw wall times are printed beside them.
``measure_traced`` alternates a traced and an untraced solve of each replica,
which gives the per-layer split, the tracing overhead and the deterministic
counts, and checks that tracing leaves every report unchanged.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from qals.core import QalsParams
from qals.fileio import solve_report_to_dict, solve_report_to_json
from qals.solver import solve

from calibration import at_reference, calibrate
from tracing import ROOT, SAMPLE, WRAPPED, assert_untraced, distinct_rows, fold, traced_solve
from workloads import Instance, Workload, check_report, set_up


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # the result line's metrics
    printed: dict = field(default_factory=dict)  # further metrics, printed only
    deterministic: dict = field(default_factory=dict)
    samples: dict | None = None  # untraced: raw per-replica times
    split: dict | None = None  # traced: span -> (calls, share, self share)
    spans: list | None = None  # traced: the spans of the first traced solve
    attempted: int = 0
    failed_solves: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, solve_id, message):
        """Record a failed check; ``solve_id`` is None when no one solve is at fault."""
        if solve_id is not None:
            self.failed_solves.add(solve_id)
        self.problems.append(message if solve_id is None else f"solve {solve_id}: {message}")


def set_up_pool(w: Workload, seed: int) -> tuple[list, list]:
    """The run's instances, and each one's set-up seconds at the reference speed."""
    pool, seconds = [], []
    before = calibrate(w.setup_calibration)
    for i in range(w.instances):
        inst = set_up(w, seed, i)
        after = calibrate(w.setup_calibration)
        pool.append(inst)
        seconds.append(at_reference(sum(inst.setup_ms.values()) / 1e3, (before + after) / 2))
        before = after
    return pool, seconds


def _params(w: Workload, seed: int, r: int) -> QalsParams:
    return QalsParams(i_max=w.i_max, seed=seed + r)


def _keep_going(r: int, w: Workload, started: float, seconds: float, replica_ns: list) -> bool:
    """At least one replica per instance; then only while the next one fits."""
    if r < w.instances:
        return True
    typical = statistics.median(replica_ns) / 1e9 if replica_ns else 0.0
    return time.perf_counter() - started + typical <= seconds


def _timing(label: str, values: list, unit: str) -> dict:
    """Median and tail; the tail is the highest sample with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 20:
        tail, level = ordered[n - 11], f"p{100 * (n - 10) / n:.0f}, 10 beyond"
    else:
        tail, level = float(np.median(ordered)), "p50, fewer than 21 samples"
    return {
        f"{label}.p50": Metric(float(np.median(ordered)), unit, f"n={n}"),
        f"{label}.tail": Metric(tail, unit, f"{level}, n={n}"),
    }


def _setup_median(pool: list, key: str) -> float:
    return float(np.median([inst.setup_ms[key] for inst in pool]))


def _solve_checked(out: Outcome, solve_id, r: int, w: Workload, inst: Instance, sampler, seed: int):
    """One untraced solve of replica r, timed; returns (report, ns) or None when it raised."""
    assert_untraced()
    t0 = time.perf_counter_ns()
    try:
        report = solve(inst.problem, inst.graph, sampler, _params(w, seed, r))
    except Exception:  # a failed solve is counted, and the run goes on
        out.fail(solve_id, traceback.format_exc())
        return None
    ns = time.perf_counter_ns() - t0
    for message in check_report(inst, report, w.i_max):
        out.fail(solve_id, message)
    return report, ns


def measure(w: Workload, seed: int, seconds: float, pool: list, setup_s: list, sampler) -> Outcome:
    out = Outcome()
    # The first solve pays lazy set-up and is not timed; replica 0 is solved
    # again in the loop and must give the same report bytes.
    first = solve_report_to_json(solve(pool[0].problem, pool[0].graph, sampler, _params(w, seed, 0)))
    replica_ns, iterations, calibrations, f_best = [], [], [], []
    started = time.perf_counter()
    before = calibrate(w.calibration)
    r = 0
    while _keep_going(r, w, started, seconds, replica_ns):
        inst = pool[r % len(pool)]
        done = _solve_checked(out, r, r, w, inst, sampler, seed)
        after = calibrate(w.calibration)
        if done is not None:
            report, ns = done
            replica_ns.append(ns)
            iterations.append(report.iterations)
            calibrations.append((before + after) / 2)
            if r < len(pool):
                f_best.append((report.f_best, inst))
            if r == 0 and solve_report_to_json(report) != first:
                out.fail(0, "a second solve with the same seed gave different report bytes")
        before = after
        r += 1
    out.attempted = r
    if not replica_ns:
        return out

    replica_ms = [at_reference(ns / 1e6, cal) for ns, cal in zip(replica_ns, calibrations)]
    out.metrics["setup_s"] = Metric(float(np.median(setup_s)), "s", f"median of {len(setup_s)} instance set-ups")
    out.metrics.update(_timing("iter_ms", [t / i for t, i in zip(replica_ms, iterations)], "ms"))
    out.metrics.update(_timing("replica_ms", replica_ms, "ms"))
    ratios = [f / inst.reference for f, inst in f_best]
    reference = "oracle" if pool[0].optimum is not None else "trivial bound"
    out.metrics["f_best.ratio"] = Metric(
        float(np.mean(ratios)), "ratio", f"n={len(ratios)}, f_best / {reference}"
    )
    out.metrics["peak_rss_mb"] = Metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "whole process"
    )
    out.printed.update(_timing("wall.iter_ms", [ns / 1e6 / i for ns, i in zip(replica_ns, iterations)], "ms"))
    out.printed.update(_timing("wall.replica_ms", [ns / 1e6 for ns in replica_ns], "ms"))
    out.printed["wall.calibration_ms"] = Metric(
        float(np.median(calibrations)) / 1e6, "ms", f"{w.calibration} kernel, n={len(calibrations)}"
    )
    if pool[0].optimum is not None:
        hits = [f == inst.optimum for f, inst in f_best]
        out.printed["success_rate"] = Metric(float(np.mean(hits)), "ratio", f"n={len(hits)}")
    out.printed["f_best.mean"] = Metric(
        float(np.mean([f for f, _ in f_best])), "objective", f"n={len(f_best)}"
    )
    out.deterministic = {"f_best": [repr(f) for f, _ in f_best]}
    out.samples = {"replica_ns": replica_ns, "calibration_ns": calibrations, "iterations": iterations}
    return out


def _counts(report, tracer) -> dict:
    trace = report.trace
    return {
        "samplers.sample.calls": len(tracer.samples),
        "samplers.reads": sum(rows.shape[0] for rows in tracer.samples),
        "samplers.distinct": distinct_rows(tracer.samples),
        "solver.iterations": report.iterations,
        "solver.evaluations": report.evaluations,
        "solver.improvements": sum(t["improved"] for t in trace),
        "solver.worse_accepted": sum(t["accepted"] and not t["improved"] for t in trace),
        "solver.duplicates": sum(t["f_prime"] is None for t in trace),
        "solver.tabu_m": report.tabu.m,
    }


def _without_trace(report) -> dict:
    d = solve_report_to_dict(report)
    d.pop("trace")
    return d


def measure_traced(w: Workload, seed: int, seconds: float, pool: list, sampler) -> Outcome:
    out = Outcome()
    solve(pool[0].problem, pool[0].graph, sampler, _params(w, seed, 0))  # warm-up
    totals = {}
    counts = {}
    traced_ms, plain_ms, pair_ns = [], [], []
    iterations = 0
    first_spans = None
    started = time.perf_counter()
    r = 0
    while _keep_going(r, w, started, seconds, pair_ns):
        inst = pool[r % len(pool)]
        t_pair = time.perf_counter_ns()
        traced = plain = None
        # Alternate which side goes first so drift in the machine hits both.
        for side in ("traced", "plain") if r % 2 == 0 else ("plain", "traced"):
            if side == "plain":
                plain = _solve_checked(out, (r, side), r, w, inst, sampler, seed)
                continue
            t0 = time.perf_counter_ns()
            try:
                report, tracer = traced_solve(inst.problem, inst.graph, sampler, _params(w, seed, r))
            except Exception:  # a failed solve is counted, and the run goes on
                out.fail((r, side), traceback.format_exc())
                continue
            traced = report, tracer, time.perf_counter_ns() - t0
        pair_ns.append(time.perf_counter_ns() - t_pair)
        r += 1
        if traced is None or plain is None:
            continue
        report, tracer, ns = traced
        for message in check_report(inst, report, w.i_max):
            out.fail((r - 1, "traced"), message)
        if _without_trace(report) != _without_trace(plain[0]):
            out.fail((r - 1, "traced"), "the traced report differs from the untraced one")
        traced_ms.append(ns / 1e6 / report.iterations)
        iterations += report.iterations
        plain_ms.append(plain[1] / 1e6 / plain[0].iterations)
        fold(tracer.spans, totals)
        if r - 1 < len(pool):
            for key, value in _counts(report, tracer).items():
                counts[key] = counts.get(key, 0) + value
        if first_spans is None:
            first_spans = tracer.spans
    out.attempted = 2 * r
    if not traced_ms:
        return out

    solve_ns = totals[ROOT][1]

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def total(name):
        return totals.get(name, (0, 0, 0))[1]

    def own(name):
        return totals.get(name, (0, 0, 0))[2]

    def us_per_call(name):
        return total(name) / calls(name) / 1e3 if calls(name) else 0.0

    core = [span for _, span in WRAPPED.values() if span.startswith("core.")]
    loop = [span for _, span in WRAPPED.values() if span.startswith("solver.")]
    m = out.metrics
    m["samplers.sample.calls"] = Metric(counts["samplers.sample.calls"], "count")
    m["samplers.sample.ms_per_call"] = Metric(total(SAMPLE) / calls(SAMPLE) / 1e6, "ms", f"n={calls(SAMPLE)}")
    m["samplers.sample.share"] = Metric(total(SAMPLE) / solve_ns, "ratio")
    m["samplers.reads"] = Metric(counts["samplers.reads"], "count")
    m["samplers.distinct_ratio"] = Metric(counts["samplers.distinct"] / counts["samplers.reads"], "ratio")
    m["samplers.argmin.self_us_per_call"] = Metric(
        own("samplers.argmin") / calls("samplers.argmin") / 1e3, "us", f"n={calls('samplers.argmin')}"
    )
    m["samplers.argmin.share"] = Metric(own("samplers.argmin") / solve_ns, "ratio")
    for span in core:
        m[f"{span}.us_per_call"] = Metric(us_per_call(span), "us", f"n={calls(span)}")
    m["core.share"] = Metric(sum(total(span) for span in core) / solve_ns, "ratio")
    m["solver.modify_permutation.us_per_call"] = Metric(
        us_per_call("solver.modify_permutation"), "us", f"n={calls('solver.modify_permutation')}"
    )
    m["solver.self.us_per_iter"] = Metric(own(ROOT) / iterations / 1e3, "us", f"n={iterations}")
    m["solver.share"] = Metric((own(ROOT) + sum(total(span) for span in loop)) / solve_ns, "ratio")
    for key in ("iterations", "evaluations", "improvements", "worse_accepted", "tabu_m"):
        m[f"solver.{key}"] = Metric(counts[f"solver.{key}"], "count")
    m["solver.duplicate_ratio"] = Metric(counts["solver.duplicates"] / counts["solver.iterations"], "ratio")
    for key in ("setup.reference.ms", "harness.random_qubo.ms", "topology.build.ms", "fileio.qubo_roundtrip.ms"):
        m[key] = Metric(_setup_median(pool, key), "ms", f"median of {len(pool)}")
    m["trace.overhead_ratio"] = Metric(
        float(np.median(traced_ms) / np.median(plain_ms)), "ratio", f"n={len(traced_ms)} pairs"
    )
    out.split = {name: (calls(name), total(name) / solve_ns, own(name) / solve_ns) for name in totals}
    out.spans = first_spans
    out.deterministic = counts
    return out
