"""Property tests.

``encode``, ``scale_to_ranges`` and ``tabu_update`` build their results
without ``WeightMatrix``'s or ``TabuMatrix``'s checks. Each property passes
those results back through the public constructor, which must accept them;
``tabu_update`` gets candidates of any dtype and shape, which the spin rule
rejects or folds. Placement gives the bits of a float64 mask multiply, on
every graph, the complete ones included, and the weights in the logical
frame have the bits of the pull-back, whether or not ``theta`` is built.
Under a gauge ``g`` in {-1,+1}^n the enumerator, the exact sampler, range
scaling and the tabu fold are equivariant, bit for bit.
Every weight matrix those makers accept, up to the weight bound, gives every
local sampler finite energies and spin rows. The instance file format
round-trips every matrix ``QuboProblem`` accepts exactly, under any header
comment. And under the suite's warning filters a failing property reports
its falsifying example.
"""

import pathlib
import subprocess
import sys
import warnings

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, scalar_dtypes, unicode_string_dtypes

from qals import (
    ExactSampler,
    MetropolisSampler,
    QuboProblem,
    RandomSampler,
    TabuMatrix,
    TopologyGraph,
    WeightMatrix,
    chimera_graph,
    complete_graph,
    decode,
    encode,
    energy,
    estimate_argmin,
    scale_to_ranges,
    tabu_update,
)
from qals.core import _WEIGHT_SUM_LIMIT, _place
from qals.fileio import format_qubo_file, parse_qubo_file
from qals.samplers import enumerate_minima, spins_at

MAX_N = 10
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


@st.composite
def edge_lists(draw, max_n=MAX_N):
    """A node count and a list of distinct-node pairs, with repeats and both orientations."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return n, draw(st.lists(st.sampled_from(pairs))) if pairs else []


@st.composite
def graphs(draw, max_n=MAX_N):
    kind = draw(st.sampled_from(["complete", "chimera:1", "edges"]))
    if kind == "complete":
        return complete_graph(draw(st.integers(1, max_n)))
    if kind == "chimera:1":
        return chimera_graph(1)
    return TopologyGraph(*draw(edge_lists(max_n)))


def symmetric(draw, n, elements=finite):
    a = draw(arrays(np.float64, (n, n), elements=elements))
    return np.triu(a) + np.triu(a, 1).T


def spins(draw, n):
    return draw(arrays(np.int8, n, elements=st.sampled_from([-1, 1])))


@given(edge_lists())
def test_adjacency_mask_is_exactly_the_edge_set(edge_list):
    n, pairs = edge_list
    graph = TopologyGraph(n, pairs)
    assert graph.edges == {(min(i, j), max(i, j)) for i, j in pairs}
    off_diagonal = graph.adjacency_mask - np.eye(n)
    assert set(zip(*np.nonzero(np.triu(off_diagonal)))) == graph.edges
    np.testing.assert_array_equal(off_diagonal, off_diagonal.T)
    np.testing.assert_array_equal(np.diagonal(graph.adjacency_mask), np.ones(n))


@given(st.data())
def test_encode_output_passes_the_public_checks(data):
    graph = data.draw(graphs())
    n = graph.n
    q = symmetric(data.draw, n)
    sigma = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    theta = encode(q, sigma, graph)
    checked = WeightMatrix(theta.theta, graph)
    np.testing.assert_array_equal(checked.theta, theta.theta)
    assert theta.theta.dtype == np.float64
    # the placement: entry (i, j) lands at (sigma[i], sigma[j]) when it is on the support
    kept = graph.adjacency_mask[np.ix_(sigma, sigma)] * q
    np.testing.assert_array_equal(theta.theta[np.ix_(sigma, sigma)], kept)
    # decode inverts it: reading the qubits back by sigma gives the logical order
    z = spins(data.draw, n)
    y = np.empty(n, dtype=np.int8)
    y[sigma] = z
    np.testing.assert_array_equal(decode(y, sigma), z)


@st.composite
def placement_graphs(draw, max_n=MAX_N):
    """Complete graphs, which are not masked, and graphs that lack an edge."""
    kind = draw(st.sampled_from(["complete", "complete less one edge", "ring", "chimera:1"]))
    if kind == "chimera:1":
        return chimera_graph(1)
    if kind == "ring":
        n = draw(st.integers(3, max_n))
        return TopologyGraph(n, [(i, (i + 1) % n) for i in range(n)])
    complete = complete_graph(draw(st.integers(1 if kind == "complete" else 2, max_n)))
    if kind == "complete":
        return complete
    missing = draw(st.sampled_from(sorted(complete.edges)))
    return TopologyGraph(complete.n, complete.edges - {missing})


@given(st.data())
def test_placement_has_the_bits_of_a_float_mask_multiply(data):
    graph = data.draw(placement_graphs())
    n = graph.n
    q = symmetric(data.draw, n)  # signed zeros included: the multiply keeps their signs
    sigma = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    placed = np.empty((n, n))
    placed[sigma[:, None], sigma] = q
    theta = _place(q, sigma.copy(), graph)
    assert "theta" not in vars(theta)  # placed on the first read, below
    assert theta.theta.tobytes() == (placed * graph.adjacency_mask.astype(np.float64)).tobytes()
    np.testing.assert_array_equal(theta.placement, sigma)


@given(st.data())
def test_the_logical_weights_have_the_bits_of_the_pull_back(data):
    graph = data.draw(placement_graphs())
    n = graph.n
    q = symmetric(data.draw, n)  # signed zeros included
    dtype = data.draw(st.sampled_from([np.int8, np.uint8, np.int16, np.int64]))
    sigma = np.array(data.draw(st.permutations(range(n))), dtype=dtype)
    w = _place(q, sigma.copy(), graph)
    unbuilt = w._logical().tobytes()  # read before theta is placed
    pulled_back = w.theta.take(sigma, 0).take(sigma, 1).tobytes()
    assert unbuilt == pulled_back
    assert w._logical().tobytes() == pulled_back  # and after


@given(st.data())
def test_scaled_weights_pass_the_public_checks(data):
    graph = data.draw(graphs())
    theta = encode(symmetric(data.draw, graph.n), np.arange(graph.n), graph)
    delta = data.draw(st.floats(1e-3, 1e3))
    gamma = data.draw(st.floats(1e-3, 1e3))
    scaled = scale_to_ranges(theta, delta, gamma)
    WeightMatrix(scaled.theta, graph)
    assert np.abs(scaled.biases).max() <= delta * (1 + 1e-15)
    assert np.abs(np.triu(scaled.theta, 1)).max() <= gamma * (1 + 1e-15)


@st.composite
def fold_cases(draw):
    """A size n and candidates for ``tabu_update``: mostly length-n spin vectors in
    numeric dtypes, else arrays of any dtype and shape, spin values included."""
    n = draw(st.integers(1, MAX_N))
    spin_vectors = arrays(
        st.sampled_from([np.int8, np.int16, np.int64, np.float32, np.float64]),
        n,
        elements=st.sampled_from([-1, 1]),
    )
    dtypes = scalar_dtypes() | unicode_string_dtypes() | st.just(np.dtype(object))
    anything = arrays(dtypes, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=MAX_N + 1))
    candidates = st.one_of(spin_vectors, spin_vectors, anything)
    return n, draw(st.lists(candidates, min_size=1, max_size=12))


@given(fold_cases())
@example((2, [np.array([1j, 1])]))  # |1j| == 1: read as int8, a 0 spin would break the parity
def test_tabu_update_folds_pass_the_public_checks(case):
    n, candidates = case
    s = TabuMatrix.zeros(n)
    folded = []
    for z in candidates:
        try:
            s = tabu_update(s, z)
        except ValueError:  # the spin rule's one error
            continue
        folded.append(z.astype(np.int64))
        assert np.all(np.abs(s.s) <= s.m)
        assert np.all(s.s % 2 == s.m % 2)
    checked = TabuMatrix(s.s, s.m)
    np.testing.assert_array_equal(checked.s, s.s)
    assert s.s.dtype == np.int64 and s.m == len(folded)
    closed = sum(
        (np.outer(z, z) - np.eye(n, dtype=np.int64) + np.diag(z) for z in folded),
        np.zeros((n, n), dtype=np.int64),
    )
    np.testing.assert_array_equal(s.s, closed)


@given(st.data())
def test_every_accepted_weight_matrix_gives_every_sampler_spin_rows(data):
    graph = data.draw(graphs(max_n=8))  # the exact backend enumerates all 2**n states
    n = graph.n
    # entries of any magnitude up to the bound for n, or up to 16 times beyond it,
    # which the makers must refuse wherever the sum breaks the bound
    scale = data.draw(st.sampled_from([1.0, 1.0, 16.0])) * _WEIGHT_SUM_LIMIT / (n * n)
    q = symmetric(data.draw, n, elements=st.floats(-1.0, 1.0)) * scale
    sigma = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    maker = data.draw(st.sampled_from(["WeightMatrix", "encode", "scale_to_ranges"]))
    try:
        if maker == "WeightMatrix":
            theta = WeightMatrix(q * graph.adjacency_mask, graph)
        else:
            theta = encode(q, sigma, graph)
        if maker == "scale_to_ranges":
            delta, gamma = (data.draw(st.floats(1e-300, sys.float_info.max)) for _ in range(2))
            theta = scale_to_ranges(theta, delta, gamma)
    except ValueError:  # a sum above the bound: only accepted matrices count
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sampler in (RandomSampler(), ExactSampler(), MetropolisSampler(sweeps=3)):
            rows = sampler.sample(theta, 3, np.random.default_rng(0))
            assert rows.shape == (3, n) and np.isin(rows, [-1, 1]).all()
            best = estimate_argmin(sampler, theta, 3, np.random.default_rng(1))
            assert np.isin(best, [-1, 1]).all() and np.isfinite(energy(theta, best))


def gauge(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gauge map: ``w_ij -> g_i g_j w_ij`` off the diagonal and ``w_ii -> g_i w_ii``."""
    out = w * np.outer(g, g)
    out[np.diag_indices_from(out)] = np.diagonal(w) * g
    return out


one_decimal = st.integers(-20, 20).map(lambda k: k / 10)  # ties and exact zeros are common


@st.composite
def gauged_weights(draw, max_n=MAX_N):
    """Weights on a drawn graph and a gauge for them."""
    graph = draw(graphs(max_n))
    q = symmetric(draw, graph.n, elements=draw(st.sampled_from([finite, one_decimal])))
    return WeightMatrix(q * graph.adjacency_mask, graph), spins(draw, graph.n)


def as_rows(z: np.ndarray) -> set:
    return {tuple(row) for row in z.tolist()}


@given(gauged_weights())
def test_the_minimizers_of_gauged_weights_are_the_gauged_minimizers(case):
    theta, g = case
    n = theta.n
    found = spins_at(n, enumerate_minima(theta.theta))
    assert as_rows(spins_at(n, enumerate_minima(gauge(theta.theta, g)))) == as_rows(found * g)


@given(gauged_weights())
def test_the_exact_sampler_returns_gauged_rows_on_a_one_state_landscape(case):
    theta, g = case
    assume(enumerate_minima(theta.theta).size == 1)  # a tie set is drawn in an order g permutes
    gauged = WeightMatrix(gauge(theta.theta, g), theta.graph)
    rng, gauged_rng = np.random.default_rng(0), np.random.default_rng(0)
    rows = ExactSampler().sample(theta, 3, rng)
    np.testing.assert_array_equal(ExactSampler().sample(gauged, 3, gauged_rng), rows * g)
    assert gauged_rng.bit_generator.state == rng.bit_generator.state


@given(gauged_weights(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_range_scaling_commutes_with_a_gauge(case, delta, gamma):
    theta, g = case
    gauged = WeightMatrix(gauge(theta.theta, g), theta.graph)
    scaled = scale_to_ranges(theta, delta, gamma).theta
    assert scale_to_ranges(gauged, delta, gamma).theta.tobytes() == gauge(scaled, g).tobytes()


@given(st.data())
def test_the_tabu_fold_commutes_with_a_gauge(data):
    n = data.draw(st.integers(1, MAX_N))
    s = TabuMatrix.zeros(n)
    for _ in range(data.draw(st.integers(0, 5))):
        s = tabu_update(s, spins(data.draw, n))
    z, g = spins(data.draw, n), spins(data.draw, n)
    gauged = tabu_update(TabuMatrix(gauge(s.s, g), s.m), g * z)
    expected = gauge(tabu_update(s, z).s, g)
    assert gauged.m == s.m + 1 and gauged.s.dtype == expected.dtype
    np.testing.assert_array_equal(gauged.s, expected)


@given(st.data())
def test_qubo_file_roundtrip_is_exact(data):
    n = data.draw(st.integers(1, MAX_N))
    widest = _WEIGHT_SUM_LIMIT / (2 * n * n)  # every such Q is within the weight bound
    q = symmetric(data.draw, n, elements=st.floats(-widest, widest))
    problem = QuboProblem(q)
    comment = data.draw(st.none() | st.text())
    np.testing.assert_array_equal(parse_qubo_file(format_qubo_file(problem, comment)).q, problem.q)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # on a failure hypothesis's pytest plugin imports more modules, whose import
    # warnings must not turn the report into an INTERNALERROR; run from tmp_path,
    # without the cache plugin, so nothing is written into the repository
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output
