"""Instance generation, the brute-force oracle, and replicated experiments."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from qals import (
    ExperimentSpec,
    QalsParams,
    QuboProblem,
    TopologyGraph,
    brute_force_min,
    objective,
    random_qubo,
    run_experiment,
)
from qals import harness


# -------------------------------------------------------------- random_qubo


def test_random_qubo_dense():
    q = random_qubo(6, 1.0, (-1.0, 1.0), np.random.default_rng(0)).q
    off = q[~np.eye(6, dtype=bool)]
    assert np.all(off != 0.0)
    np.testing.assert_array_equal(q, q.T)


def test_random_qubo_diagonal_only():
    q = random_qubo(6, 0.0, (-1.0, 1.0), np.random.default_rng(0)).q
    np.testing.assert_array_equal(q - np.diag(np.diagonal(q)), np.zeros((6, 6)))
    assert np.all(np.diagonal(q) != 0.0)


def test_random_qubo_seeded_identical():
    a = random_qubo(8, 0.4, (-2.0, 3.0), np.random.default_rng(42)).q
    b = random_qubo(8, 0.4, (-2.0, 3.0), np.random.default_rng(42)).q
    np.testing.assert_array_equal(a, b)


def test_random_qubo_respects_range():
    q = random_qubo(10, 0.7, (0.5, 2.0), np.random.default_rng(1)).q
    nonzero = q[q != 0.0]
    assert np.all((nonzero >= 0.5) & (nonzero <= 2.0))


def test_random_qubo_density_controls_sparsity():
    rng = np.random.default_rng(3)
    q = random_qubo(40, 0.25, (-1.0, 1.0), rng).q
    iu = np.triu_indices(40, k=1)
    frac = (q[iu] != 0.0).mean()
    assert abs(frac - 0.25) < 0.05


# ----------------------------------------------------------- brute_force_min


def test_brute_force_pair_coupling():
    z, value = brute_force_min(QuboProblem(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert value == -2.0
    np.testing.assert_array_equal(z, [-1, 1])  # lexicographic tie-break


def test_brute_force_constant_landscape():
    z, value = brute_force_min(QuboProblem(-np.eye(3)))
    assert value == -3.0
    np.testing.assert_array_equal(z, [-1, -1, -1])


def test_brute_force_diagonal_only():
    z, value = brute_force_min(QuboProblem(np.diag([1.0, 1.0])))
    assert value == 2.0


def test_brute_force_capacity_guard():
    with pytest.raises(ValueError):
        brute_force_min(QuboProblem(np.zeros((25, 25))))


def test_brute_force_rejects_a_weight_sum_too_large_for_finite_energies():
    import qals.core as core

    for q in ([[0.0, 1e308], [1e308, 0.0]], [[1e308, 0.0], [0.0, 1e308]]):
        with pytest.raises(ValueError, match=r"sum\|Q\| is inf"):
            brute_force_min(QuboProblem(q))
    # within the limit the doubled couplings cannot overflow the objective
    half = core._WEIGHT_SUM_LIMIT / 2
    z, value = brute_force_min(QuboProblem([[0.0, half], [half, 0.0]]))
    np.testing.assert_array_equal(z, [-1, 1])
    assert value == -2 * half


def test_brute_force_matches_slow_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        problem = random_qubo(n, 0.6, (-1.0, 1.0), rng)
        z, value = brute_force_min(problem)
        slow = [
            objective(problem, np.array(c, dtype=np.int8))
            for c in itertools.product((-1, 1), repeat=n)
        ]
        assert value == min(slow)
        assert objective(problem, z) == value


def test_brute_force_lexicographic_tiebreak_order():
    # every state optimal: the all -1 vector must win
    z, _ = brute_force_min(QuboProblem(np.zeros((4, 4))))
    np.testing.assert_array_equal(z, [-1, -1, -1, -1])


# ------------------------------------------------------------ run_experiment


def small_spec(**kwargs):
    defaults = dict(
        n=4,
        density=0.8,
        coeff_range=(-1.0, 1.0),
        replicas=3,
        params=QalsParams(i_max=150, seed=11),
        backend="exact",
        graph="complete",
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


@pytest.mark.parametrize("name,bad", [("n", 4.5), ("n", True), ("replicas", 2.5), ("replicas", "3")])
def test_experiment_spec_rejects_non_integer_counts(name, bad):
    with pytest.raises(ValueError, match=f"{name} .* is not an integer"):
        small_spec(**{name: bad})


def test_experiment_spec_rejects_zero_replicas():
    with pytest.raises(ValueError, match="replicas must be at least 1"):
        small_spec(replicas=0)


def test_experiment_single_replica_succeeds():
    report = run_experiment(small_spec(replicas=1, params=QalsParams(i_max=400, seed=5)))
    assert report.success_rate == 1.0
    assert report.replicas[0].iters_to_opt is not None


def test_experiment_deterministic_apart_from_timing():
    def strip(report):
        out = []
        for r in report.replicas:
            d = dataclasses.asdict(r)
            d.pop("millis")
            out.append(d)
        return out, report.oracle_value, report.success_rate, report.iters_to_opt_quantiles

    a = run_experiment(small_spec())
    b = run_experiment(small_spec())
    assert strip(a) == strip(b)


def test_experiment_replica_seeds_are_base_plus_index():
    report = run_experiment(small_spec())
    assert [r.seed for r in report.replicas] == [11, 12, 13]


def test_experiment_fbest_never_beats_oracle():
    report = run_experiment(small_spec(replicas=5))
    for r in report.replicas:
        assert r.f_best >= report.oracle_value
        assert r.success == (r.f_best == report.oracle_value)


def test_experiment_aggregates_recomputable():
    report = run_experiment(small_spec(replicas=6))
    assert report.success_rate == sum(r.success for r in report.replicas) / 6
    found = sorted(r.iters_to_opt for r in report.replicas if r.iters_to_opt is not None)
    if found:
        assert report.iters_to_opt_quantiles["p50"] == float(np.quantile(found, 0.5))


def test_experiment_skips_oracle_when_disabled(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "brute_force_min", lambda problem: calls.append(problem))
    spec = ExperimentSpec(
        n=harness.ENUMERATION_LIMIT + 1,
        replicas=2,
        params=QalsParams(i_max=5, seed=0),
        backend="random",
        graph="complete",
    )
    report = run_experiment(spec)
    assert calls == []
    assert report.oracle_value is None
    assert report.success_rate is None
    assert report.iters_to_opt_quantiles == {}
    assert all(r.success is None and r.iters_to_opt is None for r in report.replicas)


def test_experiment_oracle_guard(monkeypatch):
    calls = []

    def counting(problem):
        calls.append(problem.n)
        return np.ones(problem.n, dtype=np.int8), 0.0

    monkeypatch.setattr(harness, "brute_force_min", counting)
    for n, oracle in ((harness.ENUMERATION_LIMIT, 0.0), (harness.ENUMERATION_LIMIT + 1, None)):
        spec = ExperimentSpec(n=n, replicas=1, params=QalsParams(i_max=2, seed=0), backend="random")
        assert run_experiment(spec).oracle_value == oracle
    assert calls == [harness.ENUMERATION_LIMIT]


@pytest.mark.parametrize(
    "spec_kwargs,message",
    [
        ({"backend": "nope"}, "unknown sampler selector"),
        ({"graph": "file:/nonexistent/graph.edges"}, "No such file"),
        ({"graph": "chimera:x"}, "chimera:x"),
        ({"graph": "chimera:1"}, "graph has 8 nodes"),
        ({"graph": "torus"}, "unknown graph selector 'torus'"),
    ],
)
def test_experiment_bad_selector_fails_before_the_oracle(monkeypatch, spec_kwargs, message):
    calls = []
    monkeypatch.setattr(harness, "brute_force_min", lambda problem: calls.append(problem))
    with pytest.raises((ValueError, OSError), match=message):
        run_experiment(small_spec(**spec_kwargs))
    assert calls == []


def test_make_graph_loads_an_edge_list_file(tmp_path):
    path = tmp_path / "ring.edges"
    path.write_text("n 4\n0 1\n1 2\n2 3\n3 0\n")
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert harness.make_graph(f"file:{path}", 4) == TopologyGraph(4, pairs)


def test_make_graph_names_a_bad_chimera_size():
    for selector in ("chimera:x", "chimera:1.5", "chimera:-1", "chimera:"):
        with pytest.raises(ValueError, match=f"graph selector '{selector}': chimera size"):
            harness.make_graph(selector, 8)


BAD_INSTANCE_ARGS = [
    ((0, 0.5, (-1.0, 1.0)), "n must be positive"),
    ((4.5, 0.5, (-1.0, 1.0)), "n 4.5 is not an integer"),
    ((True, 0.5, (-1.0, 1.0)), "n True is not an integer"),
    ((4, -0.1, (-1.0, 1.0)), r"density must lie in \[0, 1\]"),
    ((4, 1.5, (-1.0, 1.0)), r"density must lie in \[0, 1\]"),
    ((4, float("nan"), (-1.0, 1.0)), r"density must lie in \[0, 1\]"),
    ((4, 0.5, (1.0, 1.0)), "nonempty interval"),
    ((4, 0.5, (2.0, -1.0)), "nonempty interval"),
    ((4, 0.5, (float("nan"), 1.0)), "nonempty interval"),
    ((4, 0.5, (0.0, float("inf"))), "wider than a float can hold"),
    ((4, 0.5, (-float("inf"), 0.0)), "wider than a float can hold"),
    ((4, 0.5, (-1e308, 1e308)), "wider than a float can hold"),
    ((3, 0.5, (0, 10**400)), "wider than a float can hold"),  # an integer width beyond a float
    ((3, 0.5, (10**400, 10**400 + 1)), "wider than a float can hold"),  # bounds beyond a float
    ((4, "0.5", (-1.0, 1.0)), "density '0.5' is not a real number"),
    ((4, True, (-1.0, 1.0)), "density True is not a real number"),
    ((4, 0.5, ("a", "b")), "coefficient range bound 'a' is not a real number"),
    ((4, 0.5, (0.0, True)), "coefficient range bound True is not a real number"),
    ((4, 0.5, 1.0), "coefficient range 1.0 is not a pair of bounds"),
    ((4, 0.5, (0, 1, 2)), r"coefficient range \(0, 1, 2\) is not a pair of bounds"),
]


@pytest.mark.parametrize("args,message", BAD_INSTANCE_ARGS)
def test_random_qubo_and_spec_reject_the_same_instance_args(args, message):
    n, density, coeff_range = args
    with pytest.raises(ValueError, match=message) as from_generator:
        random_qubo(n, density, coeff_range, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message) as from_spec:
        ExperimentSpec(n=n, density=density, coeff_range=coeff_range)
    assert str(from_spec.value) == str(from_generator.value)


def test_spec_accepts_what_random_qubo_accepts():
    for density, coeff_range in ((0.0, (-1.0, 1.0)), (1.0, (0.5, 2.0)), (0.5, (-1e307, 1e307))):
        spec = ExperimentSpec(n=np.int64(3), density=density, coeff_range=coeff_range)
        assert type(spec.n) is int
        random_qubo(spec.n, density, coeff_range, np.random.default_rng(0))


def test_spec_rejects_the_exact_backend_above_the_enumeration_limit():
    limit = harness.ENUMERATION_LIMIT
    with pytest.raises(ValueError, match=f"at most {limit} variables, got {limit + 1}"):
        ExperimentSpec(n=limit + 1, backend="exact")
    assert ExperimentSpec(n=limit, backend="exact").n == limit
    assert ExperimentSpec(n=limit + 1, backend="sa").n == limit + 1


def _failing_solve(error):
    def solve(*args, **kwargs):
        raise error

    return solve


def test_experiment_failure_names_replica(monkeypatch):
    monkeypatch.setattr(harness, "solve", _failing_solve(ValueError("boom")))
    with pytest.raises(ValueError, match=r"^boom \(replica 0\)$"):
        run_experiment(small_spec())


def test_experiment_failure_without_message_constructor_reraised(monkeypatch):
    # JSONDecodeError(msg) alone raises TypeError: the original must surface
    error = json.JSONDecodeError("bad reply", "{", 1)
    monkeypatch.setattr(harness, "solve", _failing_solve(error))
    with pytest.raises(json.JSONDecodeError) as info:
        run_experiment(small_spec())
    assert info.value is error
