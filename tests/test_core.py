"""Core algebra: objectives, energies, tabu matrices, encodings."""

import copy
import dataclasses
import itertools
import pickle
import re

import numpy as np
import pytest

from qals import (
    ExactSampler,
    ExperimentSpec,
    MetropolisSampler,
    QalsParams,
    QuboProblem,
    RandomSampler,
    RemoteSampler,
    SampleShapeError,
    TabuMatrix,
    TopologyGraph,
    WeightMatrix,
    chimera_graph,
    complete_graph,
    decode,
    encode,
    energy,
    estimate_argmin,
    objective,
    scale_to_ranges,
    tabu_init,
    tabu_update,
)
from qals.core import _WEIGHT_SUM_LIMIT, _place, as_spins, is_permutation
from qals.harness import check_instance_args

from helpers import bad_spins, conjugate_tabu


def all_spins(n):
    return [np.array(z, dtype=np.int8) for z in itertools.product((-1, 1), repeat=n)]


def weights(theta, graph):
    return WeightMatrix(np.asarray(theta, dtype=float), graph)


# ---------------------------------------------------------------- objective


def test_objective_offdiagonal_pair():
    p = QuboProblem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert objective(p, np.array([1, -1])) == -2.0


def test_objective_identity_is_dimension():
    p = QuboProblem(np.eye(2))
    for z in all_spins(2):
        assert objective(p, z) == 2.0


def test_objective_matches_enumeration_oracle():
    # oracle: explicit double loop over ordered pairs
    p = QuboProblem(np.array([[0.5, -1.0], [-1.0, 0.5]]))
    for z in all_spins(2):
        expected = sum(p.q[i, j] * z[i] * z[j] for i in range(2) for j in range(2))
        assert objective(p, z) == expected
    assert objective(p, np.array([1, 1])) == -1.0


def test_objective_dimension_mismatch():
    p = QuboProblem(np.eye(3))
    with pytest.raises(ValueError, match="^spin vector has length 2, problem expects 3$"):
        objective(p, np.array([1, -1]))


# ------------------------------------------------------------------- energy


def test_energy_biases_cancel():
    g = complete_graph(2)
    assert energy(weights(np.diag([1.0, -1.0]), g), np.array([1, 1])) == 0.0


def test_energy_two_qubit_toy_value():
    g = complete_graph(2)
    w = weights([[1.0, -1.0], [-1.0, -1.0]], g)
    # E(z) = z1 - z2 - z1 z2
    assert energy(w, np.array([1, -1])) == 3.0


def test_energy_two_qubit_toy_argmin_set():
    g = complete_graph(2)
    w = weights([[1.0, -1.0], [-1.0, -1.0]], g)
    values = {tuple(int(v) for v in z): energy(w, z) for z in all_spins(2)}
    argmin = {z for z, e in values.items() if e == min(values.values())}
    assert argmin == {(1, 1), (-1, 1), (-1, -1)}
    assert min(values.values()) == -1.0


def test_energy_counts_each_edge_once():
    g = complete_graph(3)
    theta = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, -3.0], [0.0, -3.0, 0.0]])
    w = weights(theta, g)
    z = np.array([1, 1, -1])
    assert energy(w, z) == 2.0 * 1 * 1 + (-3.0) * 1 * (-1)


def test_energy_additivity():
    rng = np.random.default_rng(11)
    g = complete_graph(5)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        a = a + a.T
        b = b + b.T
        z = as_spins(rng.choice([-1, 1], size=5))
        total = energy(weights(a + b, g), z)
        assert total == pytest.approx(
            energy(weights(a, g), z) + energy(weights(b, g), z), rel=1e-12
        )


def test_weight_matrix_rejects_off_support_couplings():
    g = TopologyGraph(3, [(0, 1)])
    theta = np.zeros((3, 3))
    theta[0, 2] = theta[2, 0] = 1.0
    with pytest.raises(ValueError):
        WeightMatrix(theta, g)


def test_weight_matrix_keeps_a_read_only_copy():
    w = np.eye(2)
    theta = WeightMatrix(w, TopologyGraph(2, []))
    w[0, 1] = w[1, 0] = 9.0  # a coupling outside the empty edge set
    np.testing.assert_array_equal(theta.theta, np.eye(2))
    with pytest.raises(ValueError, match="read-only"):
        theta.theta[0, 1] = 9.0
    placed = encode(np.eye(2), np.array([1, 0]), complete_graph(2))
    for w in (theta, placed):  # frozen: no field is reassigned past the checks
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.theta = np.array([[np.nan, 1.0], [2.0, 0.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.placement = None


REBUILDS = pytest.mark.parametrize(
    "rebuild", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)


@REBUILDS
def test_weights_are_read_only_wherever_they_are_made(rebuild):
    graph = complete_graph(3)
    sigma = np.array([2, 0, 1])
    public = WeightMatrix(np.eye(3), graph)
    placed = encode(np.eye(3), sigma, graph)
    made = [public, placed, scale_to_ranges(placed, 0.5, 0.5)]
    for w in made + [rebuild(w) for w in made]:
        with pytest.raises(ValueError, match="read-only"):
            w.theta[0, 0] = np.nan
        if w.placement is not None:
            with pytest.raises(ValueError, match="read-only"):
                w.placement[1] = 5
    for w in made:
        twin = rebuild(w)
        np.testing.assert_array_equal(twin.theta, w.theta)
        assert twin.graph == w.graph
    assert rebuild(public).placement is None
    for w in made[1:]:  # the placement a copy carries is the one the weights were encoded under
        np.testing.assert_array_equal(rebuild(w).placement, sigma)


def test_a_write_into_the_callers_sigma_does_not_reach_encoded_weights():
    sigma = np.arange(4)
    w = encode(np.diag([1.0, -1.0, 1.0, -1.0]), sigma, complete_graph(4))
    sigma[0] = 99
    np.testing.assert_array_equal(w.placement, np.arange(4))
    rows = ExactSampler().sample(w, 2, np.random.default_rng(0))  # raised IndexError when shared
    np.testing.assert_array_equal(rows, np.tile([-1, 1, -1, 1], (2, 1)))


def test_weights_and_problems_above_the_weight_bound_are_rejected():
    big = [[1e308, 1e308], [1e308, 1e308]]
    with pytest.raises(ValueError, match=re.escape("sum|Q| is inf, above the limit")):
        QuboProblem(big)
    with pytest.raises(ValueError, match=re.escape("sum|weights| is inf, above the limit")):
        WeightMatrix(big, complete_graph(2))
    with pytest.raises(ValueError, match=re.escape("sum|coefficients| is inf, above the limit")):
        encode(big, np.arange(2), complete_graph(2))
    # at the bound each is accepted, and its largest value is finite
    quarter = np.full((2, 2), _WEIGHT_SUM_LIMIT / 4)
    assert objective(QuboProblem(quarter), np.array([1, 1])) == _WEIGHT_SUM_LIMIT
    assert energy(WeightMatrix(quarter, complete_graph(2)), np.array([1, 1])) == 0.75 * _WEIGHT_SUM_LIMIT


def test_energy_rejects_a_spin_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="length 3, weights expect 2"):
        energy(weights(np.eye(2), complete_graph(2)), np.array([1, -1, 1]))


# -------------------------------------------------------------------- tabu


def test_tabu_init_toy_candidate():
    s = tabu_init(np.array([1, -1]))
    assert s.m == 1
    np.testing.assert_array_equal(s.s, [[1, -1], [-1, -1]])


def test_tabu_init_all_ones():
    s = tabu_init(np.ones(4, dtype=int))
    np.testing.assert_array_equal(s.s, np.ones((4, 4), dtype=int))


def test_tabu_init_componentwise():
    s = tabu_init(np.array([-1, 1]))
    np.testing.assert_array_equal(s.s, [[-1, -1], [-1, 1]])


def test_tabu_update_toy_sequence():
    s = tabu_init(np.array([1, -1]))
    s = tabu_update(s, np.array([1, 1]))
    assert s.m == 2
    np.testing.assert_array_equal(s.s, [[2, 0], [0, 0]])


def test_tabu_update_on_zero_equals_init():
    z = np.array([1, -1, 1])
    a = tabu_update(TabuMatrix.zeros(3), z)
    b = tabu_init(z)
    assert a.m == b.m == 1
    np.testing.assert_array_equal(a.s, b.s)


def test_tabu_update_opposite_candidates():
    rng = np.random.default_rng(5)
    z = as_spins(rng.choice([-1, 1], size=6))
    s = tabu_update(tabu_init(z), -z)
    np.testing.assert_array_equal(np.diagonal(s.s), np.zeros(6, dtype=int))
    expected_off = 2 * np.outer(z, z)
    np.fill_diagonal(expected_off, 0)
    np.testing.assert_array_equal(s.s - np.diag(np.diagonal(s.s)), expected_off)


def test_tabu_update_rejects_a_spin_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="length 3, tabu matrix expects 2"):
        tabu_update(TabuMatrix.zeros(2), np.array([1, -1, 1]))


@pytest.mark.parametrize(
    "s, match",
    [
        (np.zeros((2, 3)), "must be square"),
        (np.zeros(4), "must be square"),
        ([[0, 1], [2, 0]], "must be symmetric"),
    ],
)
def test_tabu_matrix_rejects_a_non_square_or_asymmetric_s(s, match):
    with pytest.raises(ValueError, match=match):
        TabuMatrix(s)


@pytest.mark.parametrize(
    "s, m, match",
    [
        ([[0.5, 0.0], [0.0, 0.0]], 1, "entries must be integers"),  # was truncated to zeros
        (np.zeros((2, 2)), 0, "entries must be integers"),
        (np.zeros((2, 2), dtype=bool), 0, "entries must be integers"),
        ([[2, 0], [0, 0]], 0, r"must lie in \[-m, m\] with the parity of m = 0"),
        ([[1, 0], [0, 1]], 1, "with the parity of m = 1"),
        ([[0]], -3, "tabu count m must be at least 0"),
        ([[0]], 2.0, "tabu count m 2.0 is not an integer"),
        ([[0]], True, "tabu count m True is not an integer"),
    ],
)
def test_tabu_matrix_checks_its_invariant(s, m, match):
    with pytest.raises(ValueError, match=match):
        TabuMatrix(s, m)


@REBUILDS
def test_tabu_matrix_keeps_a_read_only_copy(rebuild):
    s = np.array([[1, -1], [-1, -1]], dtype=np.int8)
    tabu = TabuMatrix(s, np.int64(1))
    s[0, 0] = 7
    assert tabu.s.dtype == np.int64 and type(tabu.m) is int
    for t in (tabu, rebuild(tabu), tabu_update(tabu, np.array([1, 1]))):
        with pytest.raises(ValueError, match="read-only"):
            t.s[0, 0] = 9
    np.testing.assert_array_equal(rebuild(tabu).s, [[1, -1], [-1, -1]])
    assert rebuild(tabu).m == 1


@pytest.mark.parametrize(
    "make, name, value",
    [
        (lambda: QalsParams(i_max=5), "eta", 5.0),  # solve then failed in accept_suboptimal
        (lambda: complete_graph(3), "n", 5),  # a solve at n=5 failed inside _place
        (lambda: TabuMatrix.zeros(2), "m", 3),
        (lambda: ExperimentSpec(n=3), "n", 5),
    ],
    ids=["QalsParams", "TopologyGraph", "TabuMatrix", "ExperimentSpec"],
)
def test_checked_types_are_frozen(make, name, value):
    obj = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, value)


def test_replace_checks_a_frozen_variant():
    params = QalsParams(i_max=5)
    assert dataclasses.replace(params, seed=np.int64(3)).seed == 3
    with pytest.raises(ValueError, match="eta must lie in"):
        dataclasses.replace(params, eta=5.0)
    with pytest.raises(ValueError, match="replicas must be at least 1"):
        dataclasses.replace(ExperimentSpec(n=3), replicas=0)


def test_tabu_recursion_equals_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 17))
        count = int(rng.integers(1, 51))
        zs = [as_spins(rng.choice([-1, 1], size=n)) for _ in range(count)]
        s = TabuMatrix.zeros(n)
        for z in zs:
            s = tabu_update(s, z)
        closed = sum(
            np.outer(z, z) - np.eye(n, dtype=np.int64) + np.diag(z.astype(np.int64))
            for z in zs
        )
        assert s.m == count
        np.testing.assert_array_equal(s.s, closed)


def test_tabu_parity_and_bound_invariants():
    rng = np.random.default_rng(9)
    s = TabuMatrix.zeros(5)
    for _ in range(40):
        s = tabu_update(s, as_spins(rng.choice([-1, 1], size=5)))
        assert np.all(np.abs(s.s) <= s.m)
        assert np.all(s.s % 2 == s.m % 2)
        np.testing.assert_array_equal(s.s, s.s.T)


# ------------------------------------------------------------- conjugation


def test_conjugate_identity_permutation():
    s = tabu_init(np.array([1, -1, 1]))
    out = conjugate_tabu(s, np.arange(3))
    np.testing.assert_array_equal(out.s, s.s)


def test_conjugate_swap_matches_swapped_candidate():
    s = tabu_init(np.array([1, -1]))
    out = conjugate_tabu(s, np.array([1, 0]))
    np.testing.assert_array_equal(out.s, tabu_init(np.array([-1, 1])).s)


def test_conjugate_roundtrip_via_inverse():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        s = tabu_init(as_spins(rng.choice([-1, 1], size=n)))
        sigma = rng.permutation(n)
        inverse = np.argsort(sigma)
        back = conjugate_tabu(conjugate_tabu(s, sigma), inverse)
        np.testing.assert_array_equal(back.s, s.s)


def test_conjugation_identity_on_candidate_lists():
    # tabu of relabeled candidates == relabeled tabu of candidates
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        sigma = rng.permutation(n)
        zs = [as_spins(rng.choice([-1, 1], size=n)) for _ in range(int(rng.integers(1, 20)))]
        direct = TabuMatrix.zeros(n)
        mapped = TabuMatrix.zeros(n)
        for z in zs:
            direct = tabu_update(direct, z)
            y = np.empty(n, dtype=np.int8)
            y[sigma] = z
            mapped = tabu_update(mapped, y)
        np.testing.assert_array_equal(conjugate_tabu(direct, sigma).s, mapped.s)


# ---------------------------------------------------------- encode / decode


def test_encode_complete_graph_identity():
    g = complete_graph(3)
    q = np.array([[1.0, 2.0, 3.0], [2.0, -1.0, 0.5], [3.0, 0.5, 0.0]])
    np.testing.assert_array_equal(encode(q, np.arange(3), g).theta, q)


def test_encode_edgeless_keeps_diagonal_only():
    g = TopologyGraph(3, [])
    q = np.array([[1.0, 2.0, 3.0], [2.0, -1.0, 0.5], [3.0, 0.5, 4.0]])
    np.testing.assert_array_equal(encode(q, np.arange(3), g).theta, np.diag([1.0, -1.0, 4.0]))


def test_encode_masked_pair_vanishes():
    g = TopologyGraph(2, [])
    q = np.array([[0.0, 5.0], [5.0, 0.0]])
    np.testing.assert_array_equal(encode(q, np.arange(2), g).theta, np.zeros((2, 2)))


def test_encode_places_variables_at_assigned_qubits():
    g = complete_graph(3)
    q = np.array([[1.0, 2.0, 3.0], [2.0, -1.0, 0.5], [3.0, 0.5, 0.0]])
    sigma = np.array([2, 0, 1])
    theta = encode(q, sigma, g).theta
    for i in range(3):
        for j in range(3):
            assert theta[sigma[i], sigma[j]] == q[i, j]


def _path3_coefficients(entries=None):
    # coefficients for TopologyGraph(3, [(0, 1), (1, 2)]); pair (0, 2) is off the edge set
    q = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 0.0]])
    for (i, j), value in (entries or {}).items():
        q[i, j] = value
    return q


@pytest.mark.parametrize(
    "q, match",
    [
        (_path3_coefficients({(0, 1): 3.0}), "symmetric"),
        # off the edge set: masked away before, rejected now
        (_path3_coefficients({(0, 2): 1.0}), "symmetric"),
        (_path3_coefficients({(0, 1): np.inf, (1, 0): np.inf}), "non-finite"),
        (_path3_coefficients({(0, 2): np.nan, (2, 0): np.nan}), "non-finite"),
        (_path3_coefficients({(1, 1): -np.inf}), "non-finite"),
        (np.eye(2), "coefficient matrix is"),
        (np.ones(3), "coefficient matrix is"),
    ],
)
def test_encode_rejects_bad_coefficients(q, match):
    g = TopologyGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=match):
        encode(q, np.arange(3), g)


@pytest.mark.parametrize(
    "sigma", [[0, 0, 1], [0, 1], [0, 1, 3], [[0, 1, 2]], [0.0, 1.0, 2.0], [True, False, True]]
)
def test_encode_rejects_non_permutation(sigma):
    g = TopologyGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="permutation"):
        encode(_path3_coefficients(), np.array(sigma), g)


# [1.0, 0.0] and [True, False] sort equal to [0, 1], but neither indexes as a permutation
@pytest.mark.parametrize("sigma", [[1.0, 0.0], [True, False]])
def test_decode_and_conjugate_reject_non_integer_sigma(sigma):
    with pytest.raises(ValueError, match="permutation"):
        decode(np.array([1, -1]), np.array(sigma))
    with pytest.raises(ValueError, match="permutation"):
        conjugate_tabu(tabu_init(np.array([1, -1])), np.array(sigma))


def test_decode_identity_and_swap():
    np.testing.assert_array_equal(decode(np.array([1, -1]), np.arange(2)), [1, -1])
    np.testing.assert_array_equal(decode(np.array([1, -1]), np.array([1, 0])), [-1, 1])


def test_encode_decode_roundtrip_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        sigma = rng.permutation(n)
        z = as_spins(rng.choice([-1, 1], size=n))
        y = np.empty(n, dtype=np.int8)
        y[sigma] = z
        np.testing.assert_array_equal(decode(y, sigma), z)


@pytest.mark.parametrize(
    "graph",
    [complete_graph(8), chimera_graph(1), chimera_graph(2)],
    ids=["complete", "chimera1", "chimera2"],
)
def test_trusted_placement_matches_encode(graph):
    # the loop's coefficients q + lam * S under a shuffled sigma, placed unchecked
    rng = np.random.default_rng(31)
    n = graph.n
    for _ in range(10):
        q = rng.uniform(-1.0, 1.0, size=(n, n))
        s = tabu_update(tabu_init(rng.choice([-1, 1], size=n)), rng.choice([-1, 1], size=n))
        coeffs = q + q.T + float(rng.uniform(0.1, 2.0)) * s.s
        sigma = rng.permutation(n)
        placed = _place(coeffs, sigma, graph)
        checked = encode(coeffs, sigma, graph)
        assert placed.theta.tobytes() == checked.theta.tobytes()
        assert placed.placement is sigma  # _place trusts its caller's fresh sigma
        assert checked.placement is not sigma and not checked.placement.flags.writeable
        np.testing.assert_array_equal(checked.placement, sigma)
        WeightMatrix(placed.theta, graph)  # the unchecked result passes the public checks


def test_encoding_invariance_on_complete_graph():
    # with integer coefficients the energy is identical for every assignment
    rng = np.random.default_rng(13)
    g = complete_graph(6)
    q = rng.integers(-5, 6, size=(6, 6)).astype(float)
    q = q + q.T
    z = as_spins(rng.choice([-1, 1], size=6))
    reference = None
    for _ in range(20):
        sigma = rng.permutation(6)
        y = np.empty(6, dtype=np.int8)
        y[sigma] = z
        e = energy(encode(q, sigma, g), y)
        if reference is None:
            reference = e
        assert e == reference


def test_permutation_validation():
    assert is_permutation(np.array([2, 0, 1]))
    assert not is_permutation(np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        decode(np.array([1, -1]), np.array([0, 0]))


# -------------------------------------------------------------- type checks


def test_qubo_problem_requires_symmetry():
    with pytest.raises(ValueError):
        QuboProblem(np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coefficients_rejected(bad):
    q = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        QuboProblem(q)
    with pytest.raises(ValueError, match="non-finite"):
        WeightMatrix(q, complete_graph(2))


def test_spin_validation():
    with pytest.raises(ValueError):
        as_spins(np.array([1, 0, -1]))
    with pytest.raises(ValueError):
        as_spins(np.array([[1], [-1]]))


# One table of bad spin inputs for every entry point of the spin rule: each is a
# ValueError, or a SampleShapeError for sampler rows, with the rule's one message.
SPIN_ENTRY_POINTS = {
    "as_spins": as_spins,
    "tabu_init": tabu_init,
    "tabu_update": lambda z: tabu_update(TabuMatrix.zeros(2), z),
    "decode": lambda z: decode(z, np.array([1, 0])),
    "energy": lambda z: energy(weights(np.eye(2), complete_graph(2)), z),
    "objective": lambda z: objective(QuboProblem(np.eye(2)), z),
}


def bad_spin_params(shape):
    return [pytest.param(values, message, id=label) for label, values, message in bad_spins(shape)]


@pytest.mark.parametrize("entry", SPIN_ENTRY_POINTS)
@pytest.mark.parametrize("values, message", bad_spin_params((2,)))
def test_every_spin_entry_point_rejects_what_breaks_the_spin_rule(entry, values, message):
    with pytest.raises(ValueError, match=f"^spin vector has {message}"):
        SPIN_ENTRY_POINTS[entry](values)


@pytest.mark.parametrize("values, message", bad_spin_params((2, 2)))
def test_estimate_argmin_rejects_sampler_rows_that_break_the_spin_rule(values, message):
    class PlugIn:
        def sample(self, theta, k, rng):
            return values

    w = weights(np.eye(2), complete_graph(2))
    with pytest.raises(SampleShapeError, match=f"^sample has {message}"):
        estimate_argmin(PlugIn(), w, 2, np.random.default_rng(0))


def test_decode_names_a_sample_of_another_length():
    with pytest.raises(ValueError, match="spin vector has length 3, sigma has length 2"):
        decode(np.array([1, -1, 1]), np.array([1, 0]))


def test_params_validation():
    QalsParams()  # defaults valid
    with pytest.raises(ValueError):
        QalsParams(p_delta=0.5)
    with pytest.raises(ValueError):
        QalsParams(eta=0.0)
    with pytest.raises(ValueError):
        QalsParams(q=0.0)
    with pytest.raises(ValueError):
        QalsParams(i_max=0)
    with pytest.raises(ValueError):
        QalsParams(lambda0=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda0"):
            QalsParams(lambda0=bad)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            QalsParams(seed=bad)


@pytest.mark.parametrize("name", ["N", "k", "i_max", "N_max", "d_min", "seed"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, np.True_, "3"])
def test_params_reject_non_integer_counts(name, bad):
    with pytest.raises(ValueError, match=f"{name} .* is not an integer"):
        QalsParams(**{name: bad})


@pytest.mark.parametrize("name", ["p_delta", "eta", "q", "lambda0"])
@pytest.mark.parametrize("bad", ["0.1", True, np.True_, None])
def test_params_reject_non_real_rates(name, bad):
    with pytest.raises(ValueError, match=f"{name} .* is not a real number"):
        QalsParams(**{name: bad})


def test_params_store_numpy_integers_as_python_ints():
    params = QalsParams(k=np.int64(3), seed=np.uint64(2**64 - 1))
    assert type(params.k) is int and type(params.seed) is int
    assert params.seed == 2**64 - 1


_TWO = WeightMatrix(np.zeros((2, 2)), complete_graph(2))


class _Recorder:
    """A stand-in HTTP session for ``RemoteSampler``: keeps the sample request
    and answers it with all-(+1) rows."""

    def post(self, url, json, timeout):
        self.request = json
        rows = [[1] * json["n"]] * json["num_reads"]
        payload = {"samples": rows, "energies": [0.0] * len(rows)}
        return type("Response", (), {"status_code": 200, "json": lambda self: payload})()


def _remote_reads(k):
    """The read count ``RemoteSampler.sample`` puts in its request, without a network."""
    sampler = RemoteSampler("http://service.invalid")
    sampler._info = {"delta": 1.0, "gamma": 1.0, "topology": "complete", "max_nodes": 2}
    sampler._session = _Recorder()
    sampler.sample(_TWO, k)
    return sampler._session.request["num_reads"]


class _KeepsK:
    """Returns k rows of +1 and keeps the k it was asked for."""

    def sample(self, theta, k, rng):
        self.k = k
        return np.ones((k, theta.n), dtype=np.int8)


def _argmin_reads(k):
    sampler = _KeepsK()
    estimate_argmin(sampler, _TWO, k, np.random.default_rng(0))
    return sampler.k


def _rows(sampler):
    return lambda k: sampler.sample(_TWO, k, np.random.default_rng(0)).shape[0]


# site: (what, least, count), where count(value) builds with the value and
# returns what the count became
COUNTS = {
    "TopologyGraph.n": ("node count", 1, lambda v: TopologyGraph(v, []).n),
    "chimera_graph.m": ("grid size", 1, lambda v: chimera_graph(v).n // 8),  # 8 m^2 nodes, m = 1
    "TabuMatrix.m": ("tabu count m", 0, lambda v: TabuMatrix(np.zeros((1, 1), dtype=int), v).m),
    **{
        f"QalsParams.{name}": (name, 1, lambda v, name=name: getattr(QalsParams(**{name: v}), name))
        for name in ("N", "k", "i_max", "N_max", "d_min")
    },
    "ExactSampler.sample": ("k", 1, _rows(ExactSampler())),
    "MetropolisSampler.sample": ("k", 1, _rows(MetropolisSampler(sweeps=1))),
    "RandomSampler.sample": ("k", 1, _rows(RandomSampler())),
    "RemoteSampler.sample": ("k", 1, _remote_reads),
    "estimate_argmin": ("k", 1, _argmin_reads),
    "MetropolisSampler.sweeps": ("sweeps", 1, lambda v: MetropolisSampler(sweeps=v).sweeps),
    "check_instance_args.n": ("n", 1, lambda v: check_instance_args(v, 0.5, (-1.0, 1.0))),
    "ExperimentSpec.replicas": (
        "replicas", 1, lambda v: ExperimentSpec(n=2, replicas=v, backend="random").replicas
    ),
}


@pytest.mark.parametrize("site", COUNTS)
def test_every_count_follows_one_rule(site):
    what, least, count = COUNTS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be at least {least}$"):
        count(least - 1)
    for bad in (2.0, True, "2", None):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {bad!r} is not an integer')}$"):
            count(bad)
    got = count(np.int64(least))
    assert type(got) is int and got == least
