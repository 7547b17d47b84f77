"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.
"""

import functools
import itertools
import json
import time

import numpy as np

from qals import (
    ExactSampler,
    MetropolisSampler,
    QalsParams,
    RandomSampler,
    TabuMatrix,
    WeightMatrix,
    chimera_graph,
    complete_graph,
    energy,
    estimate_argmin,
    exact_minimizers,
    random_qubo,
    scale_to_ranges,
    solve,
    tabu_init,
    tabu_update,
)
from qals.core import _checked_spins
from qals.fileio import solve_report_to_json
from qals.harness import brute_force_min
from qals.solver import accept_suboptimal, update_p

from helpers import conjugate_tabu, degrees


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            print(f"[PASS] criterion {number}: {label}")

        return wrapper

    return deco


@criterion(1, "toy-example reproduction")
def test_criterion_01_toy_example():
    start = time.perf_counter()
    seeded = tabu_init(np.array([1, -1]))
    weights = (seeded.s[0, 0], seeded.s[1, 1], seeded.s[0, 1])
    updated = tabu_update(seeded, np.array([1, 1]))
    elapsed = time.perf_counter() - start
    assert weights == (1, -1, -1)
    assert (updated.s[0, 0], updated.s[1, 1], updated.s[0, 1]) == (2, 0, 0)
    w = WeightMatrix(seeded.s.astype(float), complete_graph(2))
    minimizers, emin = exact_minimizers(w)
    assert emin == -1.0
    assert {tuple(int(v) for v in z) for z in minimizers} == {(1, 1), (-1, 1), (-1, -1)}
    assert elapsed < 1e-3


@criterion(2, "exact backend equals full enumeration")
def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    for case in range(100):
        n = int(rng.integers(2, 11)) if case < 80 else int(rng.integers(11, 17))
        graph = complete_graph(n)
        a = rng.integers(-5, 6, size=(n, n)).astype(float)
        w = WeightMatrix(a + a.T, graph)
        z = estimate_argmin(ExactSampler(), w, 3, rng)
        if n <= 10:
            # independent oracle: explicit tuple enumeration
            emin = min(
                energy(w, np.array(c, dtype=np.int8))
                for c in itertools.product((-1, 1), repeat=n)
            )
        else:
            # independent oracle: LSB-first bit expansion, whole-matrix form
            states = 2.0 * ((np.arange(1 << n)[:, None] & (1 << np.arange(n))) > 0) - 1.0
            full = states @ w.theta
            emin = float(
                (states @ np.diagonal(w.theta) + 0.5 * ((full * states).sum(axis=1)
                 - np.diagonal(w.theta).sum())).min()
            )
        assert energy(w, z) == emin
    assert time.perf_counter() - start < 10.0


@criterion(3, "end-to-end convergence with the exact backend")
def test_criterion_03_convergence():
    start = time.perf_counter()
    problem = random_qubo(10, 0.5, (-1.0, 1.0), np.random.default_rng(1))
    graph = complete_graph(10)
    _, optimum = brute_force_min(problem)
    wins = sum(
        solve(problem, graph, ExactSampler(), QalsParams(i_max=200, seed=s)).f_best == optimum
        for s in range(50)
    )
    assert wins / 50 >= 0.90
    assert time.perf_counter() - start < 60.0


@criterion(4, "degradation to random-generation annealing still converges")
def test_criterion_04_random_sampler_degradation():
    start = time.perf_counter()
    problem = random_qubo(8, 0.5, (-1.0, 1.0), np.random.default_rng(0))
    graph = complete_graph(8)
    _, optimum = brute_force_min(problem)
    wins = sum(
        solve(problem, graph, RandomSampler(), QalsParams(i_max=2000, seed=s)).f_best == optimum
        for s in range(50)
    )
    assert wins / 50 >= 0.80
    assert time.perf_counter() - start < 60.0


@criterion(5, "tabu recursion, closed form, and conjugation identities")
def test_criterion_05_tabu_identities():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        count = int(rng.integers(1, 30))
        candidates = [_checked_spins(rng.choice([-1, 1], size=n)) for _ in range(count)]
        sigma = rng.permutation(n)
        folded = TabuMatrix.zeros(n)
        relabeled = TabuMatrix.zeros(n)
        for z in candidates:
            folded = tabu_update(folded, z)
            y = np.empty(n, dtype=np.int8)
            y[sigma] = z
            relabeled = tabu_update(relabeled, y)
        closed = sum(
            np.outer(z, z) - np.eye(n, dtype=np.int64) + np.diag(z.astype(np.int64))
            for z in candidates
        )
        np.testing.assert_array_equal(folded.s, closed)
        np.testing.assert_array_equal(conjugate_tabu(folded, sigma).s, relabeled.s)


@criterion(6, "shuffle-probability schedule closed form and floor")
def test_criterion_06_p_schedule():
    for p_delta, eta in ((0.1, 0.01), (0.3, 0.25), (0.49, 0.9), (0.02, 0.001)):
        p = 1.0
        for step in range(1, 2001):
            p = update_p(p, p_delta, eta)
            closed = p_delta + (1.0 - p_delta) * (1.0 - eta) ** step
            assert abs(p - closed) <= 1e-12 * abs(closed)
            assert p >= p_delta


@criterion(7, "acceptance-rule statistics on a (p, delta-f) grid")
def test_criterion_07_acceptance_statistics():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    trials = 100_000
    grid = ((0.3, 1.0), (0.5, 2.0), (0.8, 0.5), (0.2, 0.25), (0.9, 3.0))
    for p, delta_f in grid:
        expected = p**delta_f
        hits = sum(accept_suboptimal(p, delta_f, 0.0, rng) for _ in range(trials))
        se = np.sqrt(trials * expected * (1.0 - expected))
        assert abs(hits - trials * expected) <= 3.0 * se
    assert time.perf_counter() - start < 5.0


@criterion(8, "hardware-range scaling preserves minimizers and fills ranges")
def test_criterion_08_scaling():
    rng = np.random.default_rng(88)
    delta, gamma = 2.0, 1.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        graph = complete_graph(n)
        a = rng.uniform(-4.0, 4.0, size=(n, n))
        w = WeightMatrix(a + a.T, graph)
        scaled = scale_to_ranges(w, delta, gamma)
        before, _ = exact_minimizers(w)
        after, _ = exact_minimizers(scaled)
        np.testing.assert_array_equal(before, after)
        biases = np.abs(scaled.biases)
        couplings = np.abs(np.triu(scaled.theta, k=1))
        assert biases.max() <= delta
        assert couplings.max() <= gamma
        assert biases.max() == delta or couplings.max() == gamma


@criterion(9, "chimera grid structure")
def test_criterion_09_chimera():
    for m, edges in ((1, 16), (2, 80), (3, 192)):
        g = chimera_graph(m)
        assert g.n == 8 * m * m
        assert g.num_edges == edges
        d = degrees(g)
        assert d.max() <= 6
        if m == 1:
            assert np.all(d == 4)
        else:
            assert d.min() == 5


@criterion(10, "seeded runs serialize to byte-identical reports")
def test_criterion_10_determinism():
    problem = random_qubo(6, 0.7, (-1.0, 1.0), np.random.default_rng(10))
    graph = complete_graph(6)
    params = QalsParams(i_max=40, seed=4)
    for sampler in (ExactSampler(), MetropolisSampler(), RandomSampler()):
        first = solve_report_to_json(
            solve(problem, graph, sampler, params, record_trace=True)
        )
        second = solve_report_to_json(
            solve(problem, graph, sampler, params, record_trace=True)
        )
        assert first == second
        json.loads(first)
