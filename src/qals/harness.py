"""Experiment infrastructure: instance generation, oracle, replicated runs."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .core import _WEIGHT_SUM_LIMIT, QalsParams, QuboProblem, objective
from .samplers import (
    ENUMERATION_LIMIT,
    ExactSampler,
    MetropolisSampler,
    RandomSampler,
    RemoteSampler,
    _check_enumerable,
    enumerate_minima,
    spins_at,
)
from .solver import reraise_with_context, solve
from .topology import TopologyGraph, _check_real, _integer, chimera_graph, complete_graph, load_edge_list


def check_instance_args(n, density: float, coeff_range: tuple) -> int:
    """The one rule for ``random_qubo``'s arguments, also applied by
    ``ExperimentSpec``; returns ``n`` as a Python int.

    ``n`` is an integer >= 1, ``density`` a real in [0, 1], and the range a
    pair of reals ``lo < hi`` with ``n**2 * max(|lo|, |hi|) <= _WEIGHT_SUM_LIMIT``,
    so that every draw is a valid ``QuboProblem`` (and the bounds and width
    ``hi - lo`` fit in a float, so the range can be sampled uniformly); else
    ``ValueError``.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    _check_real(density, "density")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    try:
        lo, hi = coeff_range
    except (TypeError, ValueError):
        raise ValueError(f"coefficient range {coeff_range!r} is not a pair of bounds") from None
    _check_real(lo, "coefficient range bound")
    _check_real(hi, "coefficient range bound")
    if not lo < hi:
        raise ValueError("coefficient range must be a nonempty interval")
    widest = max(abs(lo), abs(hi))
    # in rationals, so that neither a huge n nor a huge bound can overflow
    if not (widest <= _WEIGHT_SUM_LIMIT and n * n * Fraction(float(widest)) <= _WEIGHT_SUM_LIMIT):
        raise ValueError(
            f"coefficient range {lo}:{hi} is too wide for n = {n}: n^2 * max(|lo|, |hi|) "
            f"is above the limit {_WEIGHT_SUM_LIMIT:.3g} for finite energies"
        )
    return n


def random_qubo(
    n: int, density: float, coeff_range: tuple, rng: np.random.Generator
) -> QuboProblem:
    """Random symmetric instance: each off-diagonal pair kept with
    probability ``density``, all values uniform over ``coeff_range``.
    Arguments are checked by ``check_instance_args``."""
    n = check_instance_args(n, density, coeff_range)
    lo, hi = coeff_range
    diag = rng.uniform(lo, hi, size=n)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    vals = rng.uniform(lo, hi, size=iu.size)
    q = np.zeros((n, n))
    q[iu, ju] = np.where(keep, vals, 0.0)
    q += q.T
    np.fill_diagonal(q, diag)
    return QuboProblem(q)


def brute_force_min(problem: QuboProblem) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of the objective.

    Returns the lexicographically smallest minimizer (-1 sorts before +1)
    and its objective value, re-evaluated through ``objective`` so equality
    comparisons against solver output see the same float path. Minimizers
    are ranked by ``enumerate_minima``'s split-bits table, so a state within
    its rounding slack of the minimum counts as tied and the first one wins.
    Raises ``ValueError`` above ``ENUMERATION_LIMIT`` variables.
    """
    n = problem.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"brute force supports at most {ENUMERATION_LIMIT} variables, got {n}")
    # over spins z^T Q z = trace(Q) + 2 * (energy of the off-diagonal part)
    z = spins_at(n, enumerate_minima(problem.q - np.diag(np.diagonal(problem.q)))[:1])[0]
    return z, objective(problem, z)


@dataclass(frozen=True)
class ExperimentSpec:
    """One replicated-benchmark configuration, checked once, here, and frozen.

    A single random instance is generated from ``params.seed``; replica r
    then solves it with seed ``params.seed + r``. The instance arguments
    follow ``check_instance_args``; backend ``exact`` needs ``n <= ENUMERATION_LIMIT``.
    """

    n: int
    density: float = 0.5
    coeff_range: tuple = (-1.0, 1.0)
    replicas: int = 10
    backend: str = "sa"
    graph: str = "complete"
    params: QalsParams = field(default_factory=QalsParams)

    def __post_init__(self):
        object.__setattr__(self, "n", check_instance_args(self.n, self.density, self.coeff_range))
        if self.backend == "exact":
            _check_enumerable(self.n, ValueError)
        object.__setattr__(self, "replicas", _integer(self.replicas, "replicas"))
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")


@dataclass
class ReplicaResult:
    replica: int
    seed: int
    f_best: float
    success: bool | None
    iters_to_opt: int | None
    millis: float


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    oracle_value: float | None
    replicas: list
    success_rate: float | None
    iters_to_opt_quantiles: dict


def make_sampler(selector: str):
    """Build a sampler from a CLI-style selector string."""
    if selector == "exact":
        return ExactSampler()
    if selector == "sa":
        return MetropolisSampler()
    if selector == "random":
        return RandomSampler()
    if selector.startswith("remote:"):
        return RemoteSampler(selector.split(":", 1)[1])
    raise ValueError(f"unknown sampler selector {selector!r}")


def make_graph(selector: str, n: int) -> TopologyGraph:
    """Build a topology from a CLI-style selector string and check its node
    count against n. A Chimera grid's 8 m^2 nodes are checked before it is
    built, since ``chimera_graph`` loops over its m^2 cells in Python."""
    if selector == "complete":
        return complete_graph(n)
    if selector.startswith("chimera:"):
        size = selector.split(":", 1)[1]
        if not size.isdecimal() or int(size) == 0:
            raise ValueError(f"graph selector {selector!r}: chimera size must be a positive integer")
        graph, nodes = None, 8 * int(size) ** 2
    elif selector.startswith("file:"):
        graph = load_edge_list(selector.split(":", 1)[1])
        nodes = graph.n
    else:
        raise ValueError(f"unknown graph selector {selector!r}")
    if nodes != n:
        raise ValueError(f"graph has {nodes} nodes but the problem has {n} variables")
    return chimera_graph(int(size)) if graph is None else graph


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run ``spec.replicas`` independently seeded solves on one random instance.

    The brute-force oracle, and with it success and ``iters_to_opt``, runs
    exactly when ``spec.n <= ENUMERATION_LIMIT``; above it they are None.
    The graph and sampler are built first, so a bad selector fails before
    any enumeration. Deterministic apart from the wall-time fields.
    """
    graph = make_graph(spec.graph, spec.n)
    sampler = make_sampler(spec.backend)
    instance_rng = np.random.default_rng(spec.params.seed)
    problem = random_qubo(spec.n, spec.density, spec.coeff_range, instance_rng)

    oracle_value = None
    if spec.n <= ENUMERATION_LIMIT:
        _, oracle_value = brute_force_min(problem)

    results = []
    for r in range(spec.replicas):
        seed = spec.params.seed + r
        t0 = time.perf_counter()
        try:
            report = solve(problem, graph, sampler, replace(spec.params, seed=seed))
        except Exception as exc:
            reraise_with_context(exc, f"replica {r}")
        millis = (time.perf_counter() - t0) * 1e3
        success = None if oracle_value is None else report.f_best == oracle_value
        iters = report.best_found_at if success else None
        results.append(ReplicaResult(replica=r, seed=seed, f_best=report.f_best, success=success,
                                     iters_to_opt=iters, millis=millis))

    success_rate = None
    if oracle_value is not None:
        success_rate = sum(1 for r in results if r.success) / len(results)
    found = sorted(r.iters_to_opt for r in results if r.iters_to_opt is not None)
    quantiles = {}
    if found:
        for label, qq in (("p25", 0.25), ("p50", 0.5), ("p75", 0.75), ("p90", 0.9)):
            quantiles[label] = float(np.quantile(found, qq))
    return ExperimentReport(spec=spec, oracle_value=oracle_value, replicas=results,
                            success_rate=success_rate, iters_to_opt_quantiles=quantiles)
