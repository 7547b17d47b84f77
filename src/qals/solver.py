"""The learning search loop: permutation moves, perturbation, acceptance, tabu.

The outer loop has simulated-annealing structure. The shuffle probability p
plays the role of temperature through T = -1/ln(p): it drives both how much
the variable-to-qubit assignment changes between annealer calls and how
likely worse candidates are to be accepted.
"""

from __future__ import annotations

import math
from typing import NoReturn

import numpy as np

from .core import (
    QalsParams,
    QuboProblem,
    SolveReport,
    TabuMatrix,
    _place,
    _weight_sum,
    decode,  # unused; kept because perfbench's assert_untraced() reads it from qals.solver
    encode,  # unused; kept because perfbench's assert_untraced() reads it from qals.solver
    objective,
    tabu_init,
    tabu_update,
)
from .samplers import Sampler, SamplerError, estimate_argmin
from .topology import TopologyGraph

_STREAM_NAMES = ("permutation", "perturbation", "acceptance", "sampler")


def _named_streams(seed: int) -> dict:
    """Split one seed into independent named substreams.

    Keeping the sampler's draws on their own stream means swapping backends
    never perturbs the outer loop's shuffle/perturbation/acceptance draws.
    """
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(c) for name, c in zip(_STREAM_NAMES, children)}


def reraise_with_context(exc: Exception, context: str) -> NoReturn:
    """Raise ``exc`` again as its own type with ``(context)`` appended.

    Call it from the ``except`` block that caught ``exc``. A type that cannot
    be rebuilt from one message (``json.JSONDecodeError`` needs the document
    and a position) is re-raised unchanged rather than masked by the
    ``TypeError`` of its constructor.
    """
    try:
        wrapped = type(exc)(f"{exc} ({context})")
    except Exception:
        wrapped = None
    if wrapped is None:
        raise exc
    raise wrapped from exc


def modify_permutation(sigma: np.ndarray, pr: float, rng: np.random.Generator) -> np.ndarray:
    """Mark each index with probability pr and shuffle the marked images.

    pr = 0 returns the input unchanged; pr = 1 shuffles every image
    uniformly at random. The draws are one ``rng.random(n)`` and one
    ``rng.shuffle`` of the marked images, which consumes the rng as
    ``rng.permutation`` of their count would; the shuffle draws nothing for
    0 or 1 marked images.
    """
    sigma = np.asarray(sigma)
    marked = (rng.random(sigma.size) < pr).nonzero()[0]
    out = sigma.copy()
    moved = sigma[marked]
    rng.shuffle(moved)
    out[marked] = moved
    return out


def perturb_candidate(z: np.ndarray, pr: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each spin independently with probability pr."""
    z = np.asarray(z)
    flips = rng.random(z.size) < pr
    out = z.copy()
    out[flips] = -out[flips]
    return out


def accept_suboptimal(p: float, f_prime: float, f_star: float, rng: np.random.Generator) -> bool:
    """Accept a non-improving candidate with probability p**(f_prime - f_star)."""
    if f_prime < f_star:
        raise ValueError("acceptance rule applies only to non-improving candidates")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    return rng.random() < p ** (f_prime - f_star)


def update_p(p: float, p_delta: float, eta: float) -> float:
    """One cooling step: move p toward its floor p_delta at rate eta."""
    return p - (p - p_delta) * eta


def update_lambda(lambda0: float, i: int, e: int) -> float:
    """Shrink the tabu balancing factor as rejections accumulate."""
    rejected = 2 + i - e
    if rejected < 1:
        raise ValueError("2 + i - e must be at least 1")
    return min(lambda0, lambda0 / rejected)


def _temperature(p: float) -> float | None:
    return -1.0 / math.log(p) if 0.0 < p < 1.0 else None


def solve(
    problem: QuboProblem,
    graph: TopologyGraph,
    sampler: Sampler,
    params: QalsParams,
    record_trace: bool = False,
) -> SolveReport:
    """Minimize a QUBO by learning its encoding onto the annealer topology.

    Two randomly encoded subproblems seed the current solution and the tabu
    matrix. Each iteration then deforms the objective coefficients with the
    scaled tabu matrix, re-encodes them under a partially shuffled assignment,
    asks the sampler for a low-energy state, optionally perturbs it, and runs
    the accept/reject bookkeeping. Improvements penalize the displaced current
    solution in the tabu matrix; worse candidates are accepted with
    probability p**(f' - f*). The run stops after ``i_max`` iterations or once
    ``e + d >= N_max`` with ``d < d_min``.

    Everything is a deterministic function of (problem, graph, sampler
    backend, params.seed).

    ``QuboProblem`` checked ``problem.q`` once. ``solve`` checks only the
    graph size and that the largest weight sum the run can form
    (``sum|Q| + lambda0 * (i_max + 1) * n**2``) cannot overflow. Every
    annealer call is one step: ``_place`` the coefficients under sigma (a
    permutation; ``q + lam * S`` is finite and exactly symmetric), take
    ``estimate_argmin``'s checked best sample, read it back as ``y[sigma]``.
    """
    n = problem.n
    if graph.n != n:
        raise ValueError(f"problem has {n} variables but graph has {graph.n} nodes")
    penalty = params.lambda0 * (params.i_max + 1) * n * n  # |lam * S_ij| <= lambda0 * (i_max + 1)
    _weight_sum(problem.q, "sum|Q| + lambda0 * (i_max + 1) * n^2, the run's bound,", penalty)
    streams = _named_streams(params.seed)
    perm_rng = streams["permutation"]
    pert_rng = streams["perturbation"]
    acc_rng = streams["acceptance"]
    samp_rng = streams["sampler"]

    def anneal(coeffs, sigma, phase):
        try:
            return estimate_argmin(sampler, _place(coeffs, sigma, graph), params.k, samp_rng)[sigma]
        except SamplerError as exc:
            reraise_with_context(exc, f"during {phase}")

    ident = np.arange(n, dtype=np.int64)
    sigma1 = modify_permutation(ident, 1.0, perm_rng)
    sigma2 = modify_permutation(ident, 1.0, perm_rng)
    z1 = anneal(problem.q, sigma1, "initialization")
    z2 = anneal(problem.q, sigma2, "initialization")
    f1 = objective(problem, z1)
    f2 = objective(problem, z2)
    evaluations = 2

    if f1 < f2:
        z_star, f_star, sigma_star, z_prime = z1, f1, sigma1, z2
    else:
        z_star, f_star, sigma_star, z_prime = z2, f2, sigma2, z1
    tabu = tabu_init(z_prime) if f1 != f2 else TabuMatrix.zeros(n)

    lam = params.lambda0
    p = 1.0
    i = e = d = 0
    z_best, f_best = z_star.copy(), f_star
    best_found_at = 0
    trace = [] if record_trace else None

    while True:
        if i % params.N == 0:
            p = update_p(p, params.p_delta, params.eta)
        sigma = modify_permutation(sigma_star, p, perm_rng)
        z_prime = anneal(problem.q + lam * tabu.s, sigma, f"iteration {i}")
        if pert_rng.random() < params.q:
            z_prime = perturb_candidate(z_prime, p, pert_rng)

        f_prime = None
        accepted = improved = False
        if z_prime.tobytes() != z_star.tobytes():  # both are length-n int8 spin vectors
            f_prime = objective(problem, z_prime)
            evaluations += 1
            if f_prime < f_best:
                f_best = f_prime
                z_best = z_prime.copy()
                best_found_at = i + 1
            improved = f_prime < f_star
            d = 0 if improved else d + 1
            # the acceptance stream is drawn only for non-improving candidates
            accepted = improved or accept_suboptimal(p, f_prime, f_star, acc_rng)
            if accepted:
                z_prime, z_star = z_star, z_prime
                f_star = f_prime
                sigma_star = sigma
                e = 0
            if improved:
                tabu = tabu_update(tabu, z_prime)  # the displaced current solution
            lam = update_lambda(params.lambda0, i, e)
        else:
            e += 1

        if record_trace:
            trace.append(
                {
                    "i": i,
                    "p": p,
                    "temperature": _temperature(p),
                    "lam": lam,
                    "f_prime": f_prime,
                    "accepted": accepted,
                    "improved": improved,
                    "e": e,
                    "d": d,
                }
            )
        i += 1
        if i == params.i_max or (e + d >= params.N_max and d < params.d_min):
            break

    return SolveReport(
        z_returned=z_star.copy(),
        f_returned=f_star,
        z_best=z_best,
        f_best=f_best,
        iterations=i,
        evaluations=evaluations,
        best_found_at=best_found_at,
        tabu=tabu,
        seed=params.seed,
        trace=trace,
    )
