"""The benchmark's workloads, their per-instance set-up and the correctness checks.

Every workload is a pool of random instances drawn from
``random_qubo(n, density=0.5, coeff_range=(-1, 1))`` with the run's seed.
Replica r solves instance ``r % instances`` with ``QalsParams(seed=seed + r)``
and default parameters apart from ``i_max``. The first ``instances`` replicas
each see a different instance; quality and the deterministic counts are taken
from them only, so those numbers are a function of the seed alone, while the
timings use every replica the run's time allows. Averaging quality over a pool
of instances rather than one keeps it steady from seed to seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from qals.core import QuboProblem, SolveReport, TopologyGraph, objective
from qals.fileio import format_qubo_file, parse_qubo_file
from qals.harness import brute_force_min, make_graph, random_qubo
from qals.samplers import ENUMERATION_LIMIT

DENSITY = 0.5
COEFF_RANGE = (-1.0, 1.0)


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    n: int
    sampler: str  # a ``make_sampler`` selector, as ``qals bench`` takes it
    graph: str  # a ``make_graph`` selector
    i_max: int
    instances: int
    calibration: str  # the calibration kernel whose speed tracks the solves'
    setup_calibration: str  # ... and the one that tracks instance set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-n8", n=8, sampler="random", graph="complete", i_max=2000, instances=16,
                 calibration="interpreter", setup_calibration="both"),
        Workload("exact-n16", n=16, sampler="exact", graph="complete", i_max=20, instances=16,
                 calibration="dense", setup_calibration="both"),
        Workload("sa-chimera4", n=128, sampler="sa", graph="chimera:4", i_max=2, instances=16,
                 calibration="interpreter", setup_calibration="interpreter"),
    )
}


@dataclass
class Instance:
    problem: QuboProblem
    graph: TopologyGraph
    optimum: float | None  # brute-force minimum where n <= ENUMERATION_LIMIT
    reference: float  # what f_best.ratio divides by: the optimum, else the trivial bound
    setup_ms: dict


def trivial_bound(problem: QuboProblem) -> float:
    """A lower bound on z^T Q z: every coupling term at its most negative."""
    q = problem.q
    diag = np.diagonal(q)
    return float(diag.sum() - (np.abs(q).sum() - np.abs(diag).sum()))


def set_up(w: Workload, seed: int, index: int) -> Instance:
    """Generate instance ``index`` of the pool and time each set-up piece.

    The instance goes through the qubo text format and back before it is
    solved, as it would between ``qals gen`` and ``qals solve``.
    """
    ms = {}
    rng = np.random.default_rng([seed, index])
    t0 = time.perf_counter_ns()
    generated = random_qubo(w.n, DENSITY, COEFF_RANGE, rng)
    t1 = time.perf_counter_ns()
    problem = parse_qubo_file(format_qubo_file(generated))
    t2 = time.perf_counter_ns()
    graph = make_graph(w.graph, w.n)
    t3 = time.perf_counter_ns()
    optimum = brute_force_min(problem)[1] if w.n <= ENUMERATION_LIMIT else None
    reference = optimum if optimum is not None else trivial_bound(problem)
    t4 = time.perf_counter_ns()
    ms["harness.random_qubo.ms"] = (t1 - t0) / 1e6
    ms["fileio.qubo_roundtrip.ms"] = (t2 - t1) / 1e6
    ms["topology.build.ms"] = (t3 - t2) / 1e6
    ms["setup.reference.ms"] = (t4 - t3) / 1e6
    if not np.array_equal(problem.q, generated.q):
        raise ValueError(f"instance {index}: the qubo file round trip changed Q")
    if not reference < 0.0:
        raise ValueError(f"instance {index}: reference value {reference} is not negative")
    return Instance(problem, graph, optimum, reference, ms)


def _spins_ok(z: np.ndarray, n: int) -> bool:
    return z.shape == (n,) and bool(np.all(np.abs(z) == 1))


def check_report(inst: Instance, report: SolveReport, i_max: int) -> list[str]:
    """Return what is wrong with one replica's report (empty when correct)."""
    n = inst.problem.n
    wrong = []
    for label, z, f in (
        ("z_best", report.z_best, report.f_best),
        ("z_returned", report.z_returned, report.f_returned),
    ):
        if not _spins_ok(np.asarray(z), n):
            wrong.append(f"{label} is not a +-1 vector of length {n}")
        elif f != objective(inst.problem, z):
            wrong.append(f"{label}'s value {f!r} differs from objective {objective(inst.problem, z)!r}")
    if inst.optimum is not None and report.f_best < inst.optimum:
        wrong.append(f"f_best {report.f_best!r} lies below the oracle {inst.optimum!r}")
    if not 1 <= report.iterations <= i_max:
        wrong.append(f"{report.iterations} iterations for i_max={i_max}")
    return wrong
