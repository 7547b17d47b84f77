"""Core algebra: objectives, energies, tabu matrices, encodings."""

import itertools

import numpy as np
import pytest

from qals import (
    QalsParams,
    QuboProblem,
    TabuMatrix,
    TopologyGraph,
    WeightMatrix,
    chimera_graph,
    complete_graph,
    decode,
    encode,
    energy,
    objective,
    tabu_init,
    tabu_update,
)
from qals.core import _place, as_spins, is_permutation

from helpers import conjugate_tabu


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
    with pytest.raises(ValueError):
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
        assert placed.placement is sigma and checked.placement is sigma
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
