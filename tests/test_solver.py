"""The learning-search loop and its helper operations."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from qals import (
    CapacityError,
    ExactSampler,
    QalsParams,
    QuboProblem,
    RandomSampler,
    SamplerError,
    TabuMatrix,
    brute_force_min,
    complete_graph,
    decode,
    objective,
    random_qubo,
    solve,
    tabu_init,
    tabu_update,
)
from qals.core import identity_permutation, is_permutation
from qals.solver import (
    _named_streams,
    accept_suboptimal,
    modify_permutation,
    perturb_candidate,
    update_lambda,
    update_p,
)


# ------------------------------------------------------- permutation moves


def test_modify_permutation_zero_probability_is_identity():
    sigma = np.array([3, 1, 0, 2])
    out = modify_permutation(sigma, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, sigma)


def test_modify_permutation_single_element():
    out = modify_permutation(np.array([0]), 1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, [0])


def test_modify_permutation_always_valid():
    rng = np.random.default_rng(4)
    sigma = identity_permutation(8)
    for _ in range(200):
        sigma = modify_permutation(sigma, float(rng.random()), rng)
        assert is_permutation(sigma)


def test_modify_permutation_full_shuffle_is_uniform():
    rng = np.random.default_rng(12)
    counts = {}
    draws = 6000
    start = np.array([0, 1, 2])
    for _ in range(draws):
        out = modify_permutation(start, 1.0, rng)
        counts[tuple(out)] = counts.get(tuple(out), 0) + 1
    assert set(counts) == set(itertools.permutations(range(3)))
    expected = draws / 6
    for c in counts.values():
        assert abs(c - expected) < 4 * np.sqrt(draws * (1 / 6) * (5 / 6))


def test_modify_permutation_unmarked_left_in_place():
    # with a tiny pr almost every index keeps its image
    rng = np.random.default_rng(3)
    sigma = np.arange(50)
    out = modify_permutation(sigma, 0.01, rng)
    assert (out == sigma).sum() >= 45


def _shuffle_by_index_permutation(sigma, pr, rng):
    """Reference: permute the marked images through rng.permutation of their count."""
    marked = np.flatnonzero(rng.random(sigma.size) < pr)
    out = sigma.copy()
    out[marked] = sigma[marked][rng.permutation(marked.size)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8])
def test_modify_permutation_consumes_the_rng_as_a_permutation_of_the_marked(n, dtype):
    for pr in (0.0, 0.05, 0.3, 1.0):
        got, ref = np.random.default_rng(n), np.random.default_rng(n)
        sigma = np.random.default_rng(0).permutation(n).astype(dtype)
        for _ in range(30):
            out = modify_permutation(sigma, pr, got)
            np.testing.assert_array_equal(out, _shuffle_by_index_permutation(sigma, pr, ref))
            assert out.dtype == dtype and out is not sigma
            assert got.bit_generator.state == ref.bit_generator.state
            sigma = out


# ------------------------------------------------------------ perturbation


def test_perturb_zero_probability():
    z = np.array([1, -1, 1], dtype=np.int8)
    np.testing.assert_array_equal(perturb_candidate(z, 0.0, np.random.default_rng(0)), z)


def test_perturb_flips_everything_at_one():
    z = np.array([1, -1, 1, 1], dtype=np.int8)
    np.testing.assert_array_equal(perturb_candidate(z, 1.0, np.random.default_rng(0)), -z)


def test_perturb_flip_fraction_concentrates():
    z = np.ones(10_000, dtype=np.int8)
    out = perturb_candidate(z, 0.3, np.random.default_rng(7))
    assert abs((out == -1).mean() - 0.3) < 0.02


def test_reachability_lower_bound():
    # probability that one perturbation draw turns z into any given target:
    # q * p^flips * (1-p)^kept, computed exactly for every target
    q = 0.2
    for n in (1, 2, 3, 4):
        for p in (0.1, 0.3, 0.45):
            floor = q * min(p, 1.0 - p) ** n
            assert floor > 0.0
            for flips in range(n + 1):
                mass = q * p**flips * (1.0 - p) ** (n - flips)
                assert mass >= floor


# -------------------------------------------------------------- acceptance


def test_accept_equal_values_is_certain():
    rng = np.random.default_rng(0)
    assert all(accept_suboptimal(0.5, 1.0, 1.0, rng) for _ in range(100))


def test_accept_probability_one_when_p_is_one():
    rng = np.random.default_rng(0)
    assert all(accept_suboptimal(1.0, 10.0, 0.0, rng) for _ in range(100))


def test_accept_unit_worsening_has_probability_p():
    rng = np.random.default_rng(42)
    trials = 20_000
    hits = sum(accept_suboptimal(0.3, 1.0, 0.0, rng) for _ in range(trials))
    se = np.sqrt(trials * 0.3 * 0.7)
    assert abs(hits - trials * 0.3) < 3 * se


def test_accept_rejects_improving_calls():
    with pytest.raises(ValueError):
        accept_suboptimal(0.5, 0.0, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, np.nan])
def test_accept_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
        accept_suboptimal(p, 1.0, 0.0, np.random.default_rng(0))


# --------------------------------------------------------------- schedules


def test_update_p_single_step():
    assert update_p(1.0, 0.1, 0.5) == 0.55


def test_update_p_fixed_point():
    assert update_p(0.1, 0.1, 0.3) == 0.1


def test_update_p_monotone_to_floor():
    p = 1.0
    prev = p
    for _ in range(2000):
        p = update_p(p, 0.2, 0.05)
        assert p <= prev
        assert p >= 0.2
        prev = p
    assert p == pytest.approx(0.2, abs=1e-12)


def test_update_p_closed_form():
    p_delta, eta = 0.1, 0.03
    p = 1.0
    for step in range(1, 500):
        p = update_p(p, p_delta, eta)
        closed = p_delta + (1.0 - p_delta) * (1.0 - eta) ** step
        assert p == pytest.approx(closed, rel=1e-12)


def test_update_lambda_values():
    assert update_lambda(1.0, 0, 0) == 0.5
    assert update_lambda(2.0, 5, 5) == 1.0
    assert update_lambda(1.0, 8, 0) == 0.1


def test_update_lambda_guard():
    with pytest.raises(ValueError):
        update_lambda(1.0, 0, 3)


# -------------------------------------------------------------------- solve


def brute_force(problem):
    best_z, best_f = None, np.inf
    for z in itertools.product((-1, 1), repeat=problem.n):
        f = objective(problem, np.array(z, dtype=np.int8))
        if f < best_f:
            best_z, best_f = z, f
    return best_z, best_f


def test_solve_two_variable_instance():
    problem = QuboProblem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    _, best = brute_force(problem)
    report = solve(problem, complete_graph(2), ExactSampler(), QalsParams(i_max=50, seed=5))
    assert report.f_best == best == -2.0
    assert tuple(int(v) for v in report.z_best) in {(1, -1), (-1, 1)}
    assert report.f_best == objective(problem, report.z_best)


def test_solve_constant_objective_is_trivially_optimal():
    problem = QuboProblem(np.zeros((3, 3)))
    report = solve(problem, complete_graph(3), ExactSampler(), QalsParams(i_max=60, seed=1))
    assert report.f_best == 0.0
    assert report.f_returned == 0.0


class ConstantSampler:
    """Always proposes the same state, like a tie-free deterministic oracle."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.int8)

    def sample(self, theta, k, rng):
        return np.tile(self.row, (k, 1))


def test_solve_stagnation_terminates_by_counters():
    # once the proposal stream stagnates on the current solution, e climbs
    # while d stays put, and the run stops at e + d >= N_max with d < d_min;
    # the all-ones row reads the same under every qubit assignment
    problem = QuboProblem(np.zeros((3, 3)))
    params = QalsParams(i_max=10_000, q=1e-12, seed=1)
    report = solve(problem, complete_graph(3), ConstantSampler([1, 1, 1]), params)
    assert report.f_best == 0.0
    assert report.iterations == params.N_max
    assert report.tabu.m == 0  # tied initialization leaves the tabu matrix empty


def test_solve_dimension_mismatch():
    problem = QuboProblem(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        solve(problem, complete_graph(4), ExactSampler(), QalsParams())


class ScriptedSampler:
    """Returns a fixed sequence of rows, k copies each call."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.calls = 0

    def sample(self, theta, k, rng):
        row = np.asarray(self.rows[self.calls], dtype=np.int8)
        self.calls += 1
        return np.tile(row, (k, 1))


def test_solve_toy_tabu_sequence_replay():
    # an instance where the loop displaces the all-ones current solution
    # right after the tabu matrix was seeded with (1, -1, 1); the learned
    # penalties on the first two variables must then be exactly
    # [[2, 0], [0, 0]]
    q = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, -2.0], [1.0, -2.0, 0.0]])
    problem = QuboProblem(q)
    z_first = np.array([1, 1, 1], dtype=np.int8)      # f = 0
    z_second = np.array([1, -1, 1], dtype=np.int8)    # f = 4, seeds the tabu matrix
    z_improving = np.array([-1, 1, 1], dtype=np.int8)  # f = -8, displaces z_first
    assert objective(problem, z_first) == 0.0
    assert objective(problem, z_second) == 4.0
    assert objective(problem, z_improving) == -8.0

    params = QalsParams(i_max=1, q=1e-12, seed=13)
    # replay the permutation substream to aim the scripted samples
    perm = _named_streams(params.seed)["permutation"]
    ident = identity_permutation(3)
    sigma1 = modify_permutation(ident, 1.0, perm)
    sigma2 = modify_permutation(ident, 1.0, perm)
    p_first = update_p(1.0, params.p_delta, params.eta)
    sigma3 = modify_permutation(sigma1, p_first, perm)  # sigma* is sigma1 (f1 < f2)

    def qubit_order(z, sigma):
        y = np.empty(3, dtype=np.int8)
        y[sigma] = z
        return y

    sampler = ScriptedSampler(
        [qubit_order(z_first, sigma1), qubit_order(z_second, sigma2), qubit_order(z_improving, sigma3)]
    )
    report = solve(problem, complete_graph(3), sampler, params)

    assert sampler.calls == 3
    assert report.tabu.m == 2
    np.testing.assert_array_equal(report.tabu.s[:2, :2], [[2, 0], [0, 0]])
    expected = tabu_update(tabu_init(z_second), z_first)
    np.testing.assert_array_equal(report.tabu.s, expected.s)
    assert report.f_returned == -8.0
    np.testing.assert_array_equal(report.z_returned, z_improving)
    assert report.best_found_at == 1


def test_solve_deterministic_reports():
    problem = QuboProblem(np.array([[0.5, -1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, 2.0, -0.5]]))
    graph = complete_graph(3)
    params = QalsParams(i_max=40, seed=77)
    a = solve(problem, graph, ExactSampler(), params, record_trace=True)
    b = solve(problem, graph, ExactSampler(), params, record_trace=True)
    np.testing.assert_array_equal(a.z_best, b.z_best)
    np.testing.assert_array_equal(a.z_returned, b.z_returned)
    assert a.f_best == b.f_best
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations


def test_solve_trace_invariants():
    rng = np.random.default_rng(2)
    q = rng.uniform(-1, 1, size=(6, 6))
    problem = QuboProblem(q + q.T)
    params = QalsParams(i_max=150, seed=3)
    report = solve(problem, complete_graph(6), ExactSampler(), params, record_trace=True)
    ps = [t["p"] for t in report.trace]
    assert all(params.p_delta <= p <= 1.0 for p in ps)
    assert all(b <= a for a, b in zip(ps, ps[1:]))  # non-increasing
    assert all(t["lam"] <= params.lambda0 for t in report.trace)
    assert all(
        t["temperature"] == pytest.approx(-1.0 / math.log(t["p"]), rel=1e-12)
        for t in report.trace
        if 0.0 < t["p"] < 1.0
    )
    # counters consistent with equal-candidate iterations
    for t in report.trace:
        if t["f_prime"] is None:
            assert not t["accepted"]
    assert report.f_best <= report.f_returned
    assert report.f_best == objective(problem, report.z_best)
    assert report.best_found_at <= report.iterations


def test_solve_tabu_grows_only_on_improvement():
    rng = np.random.default_rng(5)
    q = rng.uniform(-1, 1, size=(5, 5))
    problem = QuboProblem(q + q.T)
    params = QalsParams(i_max=120, seed=11)
    report = solve(problem, complete_graph(5), ExactSampler(), params, record_trace=True)
    improvements = sum(1 for t in report.trace if t["improved"])
    # replay the initialization to see whether the first two candidates tied
    streams = _named_streams(params.seed)
    graph = complete_graph(5)
    sampler = ExactSampler()
    from qals import encode, estimate_argmin

    sigma1 = modify_permutation(identity_permutation(5), 1.0, streams["permutation"])
    sigma2 = modify_permutation(identity_permutation(5), 1.0, streams["permutation"])
    z1 = decode(estimate_argmin(sampler, encode(problem.q, sigma1, graph), params.k, streams["sampler"]), sigma1)
    z2 = decode(estimate_argmin(sampler, encode(problem.q, sigma2, graph), params.k, streams["sampler"]), sigma2)
    seeded = 1 if objective(problem, z1) != objective(problem, z2) else 0
    assert report.tabu.m == improvements + seeded


def test_solve_places_the_coefficients_of_each_iterations_lambda_and_tabu(monkeypatch):
    import qals.solver as sol

    placed, tabus = [], []
    place, init, update = sol._place, sol.tabu_init, sol.tabu_update
    monkeypatch.setattr(sol, "_place", lambda c, sigma, g: placed.append(c.copy()) or place(c, sigma, g))
    monkeypatch.setattr(sol, "tabu_init", lambda z: tabus.append(init(z)) or tabus[-1])
    monkeypatch.setattr(sol, "tabu_update", lambda t, z: tabus.append(update(t, z)) or tabus[-1])
    problem = random_qubo(7, 0.8, (-1.0, 1.0), np.random.default_rng(9))
    params = QalsParams(i_max=200, lambda0=0.75, q=0.5, seed=4)
    report = solve(problem, complete_graph(7), ExactSampler(), params, record_trace=True)
    trace = report.trace
    duplicates = sum(t["f_prime"] is None for t in trace)
    rejected = sum(t["f_prime"] is not None and not t["accepted"] for t in trace)
    improved = [t["improved"] for t in trace]
    assert duplicates and rejected and sum(improved)
    assert len(placed) == report.iterations + 2  # two initialization placements, then the loop's
    for c in placed[:2]:
        np.testing.assert_array_equal(c, problem.q)
    placed = placed[2:]
    if len(tabus) == sum(improved):  # the two initial candidates tied: no tabu_init
        tabus.insert(0, TabuMatrix.zeros(7))
    lam = params.lambda0
    for i, t in enumerate(trace):
        tabu = tabus[sum(improved[:i])]
        np.testing.assert_array_equal(placed[i], problem.q + lam * tabu.s, err_msg=f"iteration {i}")
        lam = t["lam"]


def test_solve_random_sampler_still_optimizes():
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, size=(6, 6))
    problem = QuboProblem(q + q.T)
    _, best = brute_force(problem)
    report = solve(problem, complete_graph(6), RandomSampler(), QalsParams(i_max=1500, seed=2))
    assert report.f_best == best


def test_solve_seed_changes_trajectory():
    rng = np.random.default_rng(14)
    q = rng.uniform(-1, 1, size=(7, 7))
    problem = QuboProblem(q + q.T)
    graph = complete_graph(7)
    a = solve(problem, graph, RandomSampler(), QalsParams(i_max=30, seed=1), record_trace=True)
    b = solve(problem, graph, RandomSampler(), QalsParams(i_max=30, seed=2), record_trace=True)
    assert a.trace != b.trace


class FailingSampler:
    def __init__(self, error):
        self.error = error

    def sample(self, theta, k, rng):
        raise self.error


class CodedSamplerError(SamplerError):
    """A sampler error that cannot be rebuilt from one message."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_solve_sampler_failure_names_phase():
    problem = QuboProblem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sampler = FailingSampler(CapacityError("too big"))
    with pytest.raises(CapacityError, match=r"^too big \(during initialization\)$"):
        solve(problem, complete_graph(2), sampler, QalsParams(i_max=5))


def test_solve_sampler_failure_without_message_constructor_reraised():
    problem = QuboProblem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    error = CodedSamplerError("rate limited", 429)
    with pytest.raises(CodedSamplerError) as info:
        solve(problem, complete_graph(2), FailingSampler(error), QalsParams(i_max=5))
    assert info.value is error
    assert str(error) == "rate limited"


# ------------------------------------------------------------ trust boundary


class CountingSampler:
    """Uniform noise that counts its calls."""

    def __init__(self):
        self.calls = 0

    def sample(self, theta, k, rng):
        self.calls += 1
        return RandomSampler().sample(theta, k, rng)


def test_problem_q_cannot_change_after_construction():
    a = np.array([[0.0, 5.0], [5.0, 0.0]])
    problem = QuboProblem(a)
    with pytest.raises(ValueError, match="read-only"):
        problem.q[0, 1] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.q = np.zeros((2, 2))
    a[1, 0] = -10.0  # had problem.q followed, its objective's minimum would be -5
    np.testing.assert_array_equal(problem.q, [[0.0, 5.0], [5.0, 0.0]])
    assert brute_force_min(problem)[1] == brute_force(problem)[1] == -10.0
    report = solve(problem, complete_graph(2), ExactSampler(), QalsParams(i_max=5))
    assert report.f_best == -10.0


@pytest.mark.parametrize(
    "entry, value, match", [((0, 0), np.nan, "non-finite"), ((0, 1), 5.0, "symmetric")]
)
def test_solve_checks_q_changed_after_construction(entry, value, match):
    # Q is checked once, at construction: a bad write into problem.q is refused,
    # and the same write into the caller's array never reaches the problem
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    problem = QuboProblem(a)
    with pytest.raises(ValueError, match="read-only"):
        problem.q[entry] = value
    a[entry] = value
    with pytest.raises(ValueError, match=match):
        QuboProblem(a)
    np.testing.assert_array_equal(problem.q, [[0.0, 1.0], [1.0, 0.0]])
    sampler = CountingSampler()
    report = solve(problem, complete_graph(2), sampler, QalsParams(i_max=5))
    assert sampler.calls == 5 + 2
    assert math.isfinite(report.f_best)


def test_solve_rejects_coefficients_that_could_overflow():
    # lambda0 * S reaches 1e308 * 201 and beyond, so energies would be inf or NaN
    problem = random_qubo(8, 0.5, (-1, 1), np.random.default_rng(0))
    sampler = CountingSampler()
    with pytest.raises(ValueError, match="lambda0"):
        solve(problem, complete_graph(8), sampler, QalsParams(lambda0=1e308, i_max=200, seed=1))
    assert sampler.calls == 0


def test_solve_accepts_a_large_lambda0_within_the_bound():
    # sum|Q| + lambda0 * (i_max + 1) * n^2 is about 1.3e304, below the limit,
    # and no weight or energy of the run overflows
    problem = random_qubo(8, 0.5, (-1, 1), np.random.default_rng(0))
    params = QalsParams(lambda0=1e300, i_max=200, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(problem, complete_graph(8), ExactSampler(), params)
    assert math.isfinite(report.f_best)
