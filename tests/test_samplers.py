"""Local sampler backends, the argmin estimator, and range scaling."""

import itertools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import qals.samplers as sam
from qals import (
    CapacityError,
    ExactSampler,
    MetropolisSampler,
    QalsParams,
    QuboProblem,
    RandomSampler,
    RemoteSampler,
    SampleShapeError,
    TopologyGraph,
    WeightMatrix,
    chimera_graph,
    complete_graph,
    encode,
    energy,
    estimate_argmin,
    exact_minimizers,
    scale_to_ranges,
    solve,
)
from qals.core import _checked_spins, energies

from helpers import bad_spins

TOY = np.array([[1.0, -1.0], [-1.0, -1.0]])  # E(z) = z1 - z2 - z1 z2


def weights(theta, graph):
    return WeightMatrix(np.asarray(theta, dtype=float), graph)


def zero_weights(n):
    return weights(np.zeros((n, n)), complete_graph(n))


def random_weights(rng, graph, integer=False, lo=-3, hi=3):
    n = graph.n
    if integer:
        a = rng.integers(lo, hi + 1, size=(n, n)).astype(float)
    else:
        a = rng.uniform(lo, hi, size=(n, n))
    return weights((a + a.T) * graph.adjacency_mask, graph)


# ------------------------------------------------------------ exact backend


def test_exact_minimizers_toy():
    ms, emin = exact_minimizers(weights(TOY, complete_graph(2)))
    assert emin == -1.0
    assert {tuple(int(v) for v in z) for z in ms} == {(1, 1), (-1, 1), (-1, -1)}


def test_exact_sample_independent_biases():
    w = weights(np.diag([1.0, 1.0]), complete_graph(2))
    samples = ExactSampler().sample(w, 5, np.random.default_rng(0))
    for s in samples:
        np.testing.assert_array_equal(s, [-1, -1])
        assert energy(w, s) == -2.0


def test_exact_sample_uniform_over_argmin_set():
    w = weights(TOY, complete_graph(2))
    rng = np.random.default_rng(123)
    counts = {}
    draws = 3000
    samples = ExactSampler().sample(w, draws, rng)
    for s in samples:
        counts[tuple(int(v) for v in s)] = counts.get(tuple(int(v) for v in s), 0) + 1
    assert set(counts) == {(1, 1), (-1, 1), (-1, -1)}
    for c in counts.values():
        # 3 sigma around draws/3 for a binomial with p = 1/3
        assert abs(c - draws / 3) < 3 * np.sqrt(draws * (1 / 3) * (2 / 3))


def test_exact_sample_unique_minimum_repeats():
    rng = np.random.default_rng(8)
    w = random_weights(rng, complete_graph(6))
    samples = ExactSampler().sample(w, 7, rng)
    assert all(np.array_equal(samples[0], s) for s in samples)


def test_exact_sample_never_above_enumerated_minimum():
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = random_weights(rng, complete_graph(5), integer=True)
        ms, emin = exact_minimizers(w)
        ground = {tuple(int(v) for v in row) for row in ms}
        for s in ExactSampler().sample(w, 4, rng):
            assert tuple(int(v) for v in s) in ground
            assert energy(w, s) == emin


def test_exact_sample_chunked_matches_single_block():
    # force the multi-block path and compare against the one-shot results
    import qals.samplers as sam
    from qals import QuboProblem, brute_force_min

    rng = np.random.default_rng(4)
    w = random_weights(rng, complete_graph(8), integer=True)
    _, emin = exact_minimizers(w)
    # zero biases and couplings in {-2, 0, 2}: z and -z tie, in different blocks
    a = rng.integers(-1, 2, size=(8, 8)).astype(float)
    ties = a + a.T
    np.fill_diagonal(ties, 0.0)
    w_ties = weights(ties, complete_graph(8))
    problem = QuboProblem(ties)
    one_block = [ExactSampler().sample(v, 6, np.random.default_rng(2)) for v in (w, w_ties)]
    z_one_block, f_one_block = brute_force_min(problem)
    old = sam._BLOCK_BITS
    sam._BLOCK_BITS = 5  # blocks of 32 states
    try:
        chunked = [ExactSampler().sample(v, 6, np.random.default_rng(2)) for v in (w, w_ties)]
        z_chunked, f_chunked = brute_force_min(problem)
    finally:
        sam._BLOCK_BITS = old
    for s in chunked[0]:
        assert energy(w, s) == emin
    assert len({tuple(s) for s in chunked[1]}) > 1
    for a_rows, b_rows in zip(one_block, chunked):
        np.testing.assert_array_equal(a_rows, b_rows)
    np.testing.assert_array_equal(z_one_block, z_chunked)
    assert f_one_block == f_chunked


def rational_minimizers(theta):
    """Lexicographic indices of every minimizer, in exact arithmetic on the float weights."""
    n = theta.shape[0]
    w = [[Fraction(float(x)) for x in row] for row in theta]
    best, found = None, []
    for index, z in enumerate(itertools.product((-1, 1), repeat=n)):
        e = sum(w[i][i] * z[i] for i in range(n))
        e += sum(w[i][j] * z[i] * z[j] for i in range(n) for j in range(i + 1, n))
        if best is None or e < best:
            best, found = e, [index]
        elif e == best:
            found.append(index)
    return found


def decimal_weights(rng, n):
    # 0.1 is not a binary fraction, so tied sums differ in the last ulp by summation order
    a = rng.choice([-0.1, 0.0, 0.1], size=(n, n))
    return weights(np.triu(a) + np.triu(a, 1).T, complete_graph(n))


def test_exact_minimizers_keep_ties_on_decimal_weights():
    import qals.samplers as sam

    # exact float equality over one energy block kept only index 2 here
    w = weights([[0.1, 0.0, 0.0], [0.0, -0.1, -0.1], [0.0, -0.1, 0.1]], complete_graph(3))
    instances = [w] + [decimal_weights(np.random.default_rng(s), 2 + s % 7) for s in range(40)]
    uniform = [random_weights(np.random.default_rng(s), complete_graph(2 + s % 7)) for s in range(14)]
    for w in instances + uniform:
        expected = rational_minimizers(w.theta)
        ms, emin = exact_minimizers(w)
        np.testing.assert_array_equal(ms, sam.spins_at(w.n, np.array(expected)))
        assert emin.hex() == energy(w, ms[0]).hex()  # the minimum is the first row's energy, bit for bit
    drawn = {tuple(s) for s in ExactSampler().sample(instances[0], 200, np.random.default_rng(0))}
    assert drawn == {(-1, -1, -1), (-1, 1, -1), (-1, 1, 1)}


def test_exact_backend_rejects_weights_too_large_for_finite_energies():
    # every state's energy is finite, but the doubled coupling sum is not: the
    # WeightMatrix constructor refuses them, so no sampler is ever handed them,
    # and the enumerator, which takes a raw array, keeps its own check
    raw = np.array([[0.0, 1e308], [1e308, 0.0]])
    with pytest.raises(ValueError, match=re.escape("sum|weights| is inf, above the limit")):
        weights(raw, complete_graph(2))
    with pytest.raises(ValueError, match=re.escape("sum|weights| is inf, above the limit")):
        sam.enumerate_minima(raw)


def test_enumeration_weight_bound_is_sum_of_absolute_weights():
    import qals.core as core
    import qals.samplers as sam

    half = core._WEIGHT_SUM_LIMIT / 2
    at_limit = np.array([[0.0, half], [half, 0.0]])
    np.testing.assert_array_equal(sam.enumerate_minima(at_limit), [1, 2])  # opposite spins
    above = np.nextafter(half, np.inf)
    for bad in (above, np.inf, np.nan):
        with pytest.raises(ValueError, match="sum.weights. is"):
            sam.enumerate_minima(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError):
        sam.enumerate_minima(np.diag([-above, -above]))  # biases count too


@pytest.mark.parametrize("make", ["float", "integer", "decimal", "zero_bias"])
def test_enumeration_block_size_does_not_change_minimizers(make, monkeypatch):
    import qals.samplers as sam

    rng = np.random.default_rng(20)
    g = complete_graph(20)
    if make == "decimal":
        w = decimal_weights(rng, 20)
    else:
        w = random_weights(rng, g, integer=make == "integer", lo=-2, hi=2)
        if make == "zero_bias":  # z and -z tie, in blocks far apart
            w = weights(w.theta - np.diag(w.biases), g)
    default = sam.enumerate_minima(w.theta)
    for bits in (12, 5):  # blocks of four rows of the table, then of one row
        monkeypatch.setattr(sam, "_BLOCK_BITS", bits)
        np.testing.assert_array_equal(sam.enumerate_minima(w.theta), default)
    ms, emin = exact_minimizers(w)  # under blocks of one row
    np.testing.assert_array_equal(ms, sam.spins_at(20, default))
    assert emin == energy(w, ms[0])


def test_enumerated_minimum_is_the_energy_of_the_first_minimizer():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 12, 15):
        for integer in (False, True):
            w = random_weights(rng, complete_graph(n), integer=integer)
            ms, emin = exact_minimizers(w)
            assert emin == energy(w, ms[0])
            assert all(energy(w, z) <= emin + 1e-9 for z in ms)


def test_exact_sample_capacity_guard():
    g = complete_graph(25)
    w = weights(np.zeros((25, 25)), g)
    with pytest.raises(CapacityError):
        ExactSampler().sample(w, 1, np.random.default_rng(0))


# ----------------------------------- exact backend: logical frame and its cache


def enumerate_then_draw(theta, k, rng):
    """Reference: enumerate the weights as given, in qubit order, and draw once."""
    import qals.samplers as sam

    indices = sam.enumerate_minima(theta.theta)
    return sam.spins_at(theta.n, indices[rng.integers(0, indices.size, size=k)])


def coefficients(kind, n, rng):
    """Symmetric coefficients: uniform floats, integers, decimals, all zero or in {-1, 0, 1}."""
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "ternary":
        a = rng.integers(-1, 2, size=(n, n)).astype(float)
    else:
        a = rng.uniform(-1, 1, size=(n, n))
        if kind == "integer":
            a = np.round(3 * a)
        elif kind == "decimal":
            a = np.round(10 * a) / 10
    return np.triu(a) + np.triu(a, 1).T


@pytest.mark.parametrize(
    "n,kind",
    [(n, kind) for n in (3, 8, 12, 16) for kind in ("float", "integer", "decimal", "zero", "ternary")]
    + [(20, "zero"), (20, "ternary")],  # tie-heavy sets mapped through bits above bit 15
)
def test_exact_sample_matches_enumerating_the_qubit_weights(n, kind):
    rng = np.random.default_rng(n)
    g = complete_graph(n)
    for trial in range(4 if n < 20 else 1):
        c = coefficients(kind, n, rng)
        # placements of any integer dtype: at n=16, 1 << 15 fits in neither 8 bits nor int16
        dtypes = (np.int64, np.int8, np.uint8, np.int16)
        cases = [WeightMatrix(c, g)] + [encode(c, rng.permutation(n).astype(d), g) for d in dtypes]
        for w in cases:
            got_rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            np.testing.assert_array_equal(
                ExactSampler().sample(w, 9, got_rng), enumerate_then_draw(w, 9, ref_rng)
            )
            assert got_rng.random() == ref_rng.random()  # the same rng consumption


def test_reused_exact_sampler_matches_a_fresh_one_per_call(monkeypatch):
    import qals.samplers as sam

    calls = []
    enumerate_minima = sam.enumerate_minima
    monkeypatch.setattr(sam, "enumerate_minima", lambda w: calls.append(w) or enumerate_minima(w))
    rng = np.random.default_rng(7)
    g, chimera = complete_graph(8), chimera_graph(1)
    c1, c2 = coefficients("decimal", 8, rng), coefficients("float", 8, rng)
    s1, s2 = rng.permutation(8), rng.permutation(8)
    sequence = [  # (weights, enumerations the call makes)
        (encode(c1, s1, g), 1),  # empty cache; c1 has two minimizers, so none is kept
        (encode(c1, s1, g), 1),  # the same weights
        (encode(c1, s2, g), 1),  # the same coefficients under another placement
        (WeightMatrix(c1, g), 1),  # public weights: the identity placement
        (encode(c2, s2, g), 1),  # new coefficients, with one minimizer
        (encode(c2, s1, g), 0),  # the same coefficients under another placement: a hit
        (encode(c2, s2, chimera), 1),  # sparse: the masked couplings differ
        (encode(c2, s1, chimera), 1),  # ... and depend on the placement
        (encode(c2, s2, chimera), 1),  # one entry only: the first sparse landscape is gone
    ]
    warm = ExactSampler()
    for step, (w, misses) in enumerate(sequence):
        before = len(calls)
        rows = warm.sample(w, 6, np.random.default_rng(step))
        assert len(calls) - before == misses, step
        np.testing.assert_array_equal(rows, ExactSampler().sample(w, 6, np.random.default_rng(step)))
    assert warm._last[1].dtype == np.int8 and warm._last[1].shape == (8,)  # n logical spins


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_table_blocks_have_the_bits_of_the_three_step_sum(n, monkeypatch):
    # every term of the folded block product is exact, so summed in index order it
    # gives (cross @ Z_L^T + E_L) + E_H bit for bit; blocks of two rows keep a matrix product
    w = coefficients("float", n, np.random.default_rng(n))
    h, l = n // 2, n - n // 2
    z_high, z_low = (sam.spins_at(b, np.arange(1 << b)).astype(np.float64) for b in (h, l))
    table = (z_high @ w[:h, h:]) @ np.ascontiguousarray(z_low.T)
    table += energies(w[h:, h:], z_low)
    table += energies(w[:h, :h], z_high)[:, None]
    table = table.ravel()
    slack = 4 * (n + 2) * np.finfo(np.float64).eps * np.abs(w).sum()
    expected = np.flatnonzero(table <= table.min() + slack)
    for bits in (sam._BLOCK_BITS, l + 1):  # one block, then blocks of two rows
        monkeypatch.setattr(sam, "_BLOCK_BITS", bits)
        blocks = list(sam._table_blocks(w))
        assert [first for first, _ in blocks] == list(range(0, 1 << n, blocks[0][1].size))
        assert np.concatenate([t for _, t in blocks]).tobytes() == table.tobytes()
        np.testing.assert_array_equal(sam.enumerate_minima(w), expected)


def test_exact_sample_draws_only_from_a_set_of_several():
    g = complete_graph(6)
    unique = weights(np.diag([1.0, -2.0, 1.0, 3.0, -1.0, 0.5]), g)  # one minimizer
    flat = zero_weights(6)  # all 64 states tie
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    rows = ExactSampler().sample(unique, 5, rng)
    assert rng.bit_generator.state == before  # nothing drawn
    np.testing.assert_array_equal(rows, np.tile([-1, 1, -1, -1, 1, -1], (5, 1)))
    ref = np.random.default_rng(3)
    ref.integers(0, 64, size=5)
    ExactSampler().sample(flat, 5, rng)
    assert rng.bit_generator.state == ref.bit_generator.state  # one integers(0, count, size=k)


def two_cells():
    """The first two cells of ``chimera_graph(2)``: 16 qubits, within the enumeration limit."""
    return TopologyGraph(16, [(i, j) for i, j in chimera_graph(2).edges if j < 16])


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int64])
def test_exact_cache_hits_under_narrow_placements_match_a_fresh_sampler(dtype, monkeypatch):
    import qals.samplers as sam

    calls = []
    enumerate_minima = sam.enumerate_minima
    monkeypatch.setattr(sam, "enumerate_minima", lambda w: calls.append(w) or enumerate_minima(w))
    rng = np.random.default_rng(11)
    for graph in (complete_graph(16), chimera_graph(1), two_cells()):
        n = graph.n
        warm = ExactSampler()
        for kind in ("float", "decimal", "zero"):
            c = coefficients(kind, n, rng)
            sigma = rng.permutation(n).astype(dtype)
            for step in range(3):  # one miss, then two hits on a one-state landscape
                if graph.num_edges == n * (n - 1) // 2 and step:
                    sigma = rng.permutation(n).astype(dtype)  # complete: a hit under any placement
                w = encode(c, sigma.copy(), graph)
                before = len(calls)
                got_rng, ref_rng = np.random.default_rng(step), np.random.default_rng(step)
                single = enumerate_minima(w.theta).size == 1
                rows = warm.sample(w, 7, got_rng)
                assert len(calls) - before == (step == 0 or not single), (n, kind, step)
                np.testing.assert_array_equal(rows, ExactSampler().sample(w, 7, ref_rng))
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state, (n, kind, step)
            if kind == "float":  # a unique minimizer: the hits took the one-state path
                assert warm._last[1].dtype == np.int8 and warm._last[1].shape == (n,)
            if kind == "zero":  # equal weights but for the sign of a zero: the same rows
                signed = c.copy()
                signed[0, 0] = -0.0
                w = encode(signed, sigma.copy(), graph)
                got_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
                rows = warm.sample(w, 7, got_rng)
                np.testing.assert_array_equal(rows, ExactSampler().sample(w, 7, ref_rng))
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state, n


def test_exact_sampler_alternating_set_sizes_matches_fresh_samplers(monkeypatch):
    import qals.samplers as sam

    sizes = set()  # the size of every set the sampler enumerates
    enumerate_minima = sam.enumerate_minima

    def counted(w):
        found = enumerate_minima(w)
        sizes.add(found.size)
        return found

    monkeypatch.setattr(sam, "enumerate_minima", counted)
    rng = np.random.default_rng(5)
    g = complete_graph(10)
    unique, tied = coefficients("float", 10, rng), coefficients("ternary", 10, rng)
    np.fill_diagonal(tied, 0.0)  # no biases: z and -z tie, so the set has several states
    warm = ExactSampler()
    for step in range(12):
        c = (unique, tied)[step // 2 % 2]  # two calls per landscape: a miss, then a hit if unique
        w = encode(c, rng.permutation(10), g)
        got_rng, ref_rng = np.random.default_rng(step), np.random.default_rng(step)
        rows = warm.sample(w, 5, got_rng)
        np.testing.assert_array_equal(rows, ExactSampler().sample(w, 5, ref_rng))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state, step
    assert 1 in sizes and max(sizes) > 1


def test_exact_sampler_keeps_no_tie_set_between_calls():
    # all 2**16 states tie: a kept set would be 512 KB of indices, the bound is 8 n**2 + n
    # bytes of key and spins plus 1 KB for the sampler object and tracemalloc's own records
    import gc
    import tracemalloc

    n = 16
    w = zero_weights(n)
    ExactSampler().sample(w, 4, np.random.default_rng(0))  # warm-up: the cached spin tables
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        sampler = ExactSampler()
        sampler.sample(w, 4, np.random.default_rng(1))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 8 * n * n + n + 1024, held


@pytest.mark.parametrize("kind", ["float", "zero"])
def test_exact_sample_returns_a_fresh_writable_array(kind):
    g = complete_graph(8)
    c = coefficients(kind, 8, np.random.default_rng(4))
    sampler = ExactSampler()
    w = encode(c, np.random.default_rng(1).permutation(8), g)
    for _ in range(2):  # a miss, then a hit
        rows = sampler.sample(w, 4, np.random.default_rng(0))
        assert rows.shape == (4, 8) and rows.dtype == np.int8
        assert rows.flags.c_contiguous and rows.flags.writeable
        expected = rows.copy()
        rows[:] = 0
        np.testing.assert_array_equal(sampler.sample(w, 4, np.random.default_rng(0)), expected)


def test_placement_is_recorded_by_encode_only():
    g = complete_graph(4)
    c = coefficients("float", 4, np.random.default_rng(0))
    sigma = np.array([2, 0, 3, 1])
    assert WeightMatrix(c, g).placement is None
    w = encode(c, sigma, g)
    np.testing.assert_array_equal(w.placement, sigma)
    np.testing.assert_array_equal(scale_to_ranges(w, 0.5, 0.5).placement, sigma)
    with pytest.raises(TypeError):
        WeightMatrix(c, g, placement=sigma)


# ------------------------------------------------------------- random backend


def test_random_sample_shape_and_values():
    s = RandomSampler().sample(zero_weights(6), 9, np.random.default_rng(0))
    assert s.shape == (9, 6)
    assert np.all(np.abs(s) == 1)


def test_random_sample_reproducible():
    a = RandomSampler().sample(zero_weights(5), 4, np.random.default_rng(42))
    b = RandomSampler().sample(zero_weights(5), 4, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_random_sample_consumes_the_rng_as_the_arithmetic_spin_map():
    got, ref = np.random.default_rng(8), np.random.default_rng(8)
    for k, n in ((1, 1), (5, 7), (10, 8)):
        rows = RandomSampler().sample(zero_weights(n), k, got)
        expected = (2 * ref.integers(0, 2, size=(k, n)) - 1).astype(np.int8)
        assert rows.dtype == np.int8
        np.testing.assert_array_equal(rows, expected)
        assert got.bit_generator.state == ref.bit_generator.state


def test_random_sample_balanced():
    s = RandomSampler().sample(zero_weights(1), 10_000, np.random.default_rng(3))
    assert abs(float(s.mean())) < 0.05


# --------------------------------------------------------- metropolis backend


def test_metropolis_reaches_ground_state_of_cell_instances():
    # calibrated against exact enumeration: integer couplings on one Chimera
    # cell keep single-flip gaps at >= 1, where long anneals end in a ground
    # state in well over 95% of reads
    graph = chimera_graph(1)
    rng = np.random.default_rng(2024)
    sampler = MetropolisSampler(sweeps=1000)
    hits = total = 0
    for _ in range(100):
        w = random_weights(rng, graph, integer=True)
        ms, _ = exact_minimizers(w)
        ground = {tuple(int(v) for v in row) for row in ms}
        for s in sampler.sample(w, 2, rng):
            total += 1
            hits += tuple(int(v) for v in s) in ground
    assert hits / total >= 0.95


def test_metropolis_never_below_exact_minimum():
    rng = np.random.default_rng(17)
    for _ in range(15):
        w = random_weights(rng, complete_graph(7))
        _, emin = exact_minimizers(w)
        for s in MetropolisSampler(sweeps=50).sample(w, 3, rng):
            assert energy(w, s) >= emin - 1e-9


def pin_betas(monkeypatch, lo, hi):
    # sample and the reference sweeps look the ramp's endpoints up as a module global
    monkeypatch.setattr(sam, "_auto_beta_range", lambda theta: (lo, hi))


def test_metropolis_constant_temperature_is_valid(monkeypatch):
    w = weights(TOY, complete_graph(2))
    pin_betas(monkeypatch, 2.0, 2.0)
    s = MetropolisSampler(sweeps=10).sample(w, 4, np.random.default_rng(0))
    assert s.shape == (4, 2)


def test_metropolis_flat_landscape_is_uniform():
    w = weights(np.zeros((3, 3)), complete_graph(3))
    samples = MetropolisSampler(sweeps=3).sample(w, 4000, np.random.default_rng(9))
    seen = {}
    for s in samples:
        seen[tuple(int(v) for v in s)] = seen.get(tuple(int(v) for v in s), 0) + 1
    assert len(seen) == 8
    for c in seen.values():
        assert abs(c - 500) < 3 * np.sqrt(4000 * (1 / 8) * (7 / 8))


def test_metropolis_matches_boltzmann_at_fixed_temperature(monkeypatch):
    # the single correctness anchor for the chain: empirical distribution of
    # long constant-temperature runs against the exact Gibbs weights
    from qals.core import energies
    from qals.samplers import spins_at

    rng = np.random.default_rng(5)
    g = complete_graph(4)
    a = rng.uniform(-1, 1, size=(4, 4))
    w = weights(a + a.T, g)
    beta = 0.7
    states = spins_at(4, np.arange(16))
    exact = np.exp(-beta * energies(w.theta, states))
    exact /= exact.sum()
    reads = 4000
    counts = np.zeros(16)
    pin_betas(monkeypatch, beta, beta)
    for s in MetropolisSampler(sweeps=200).sample(w, reads, np.random.default_rng(11)):
        idx = sum(1 << (3 - i) for i in range(4) if s[i] == 1)
        counts[idx] += 1
    tv = 0.5 * np.abs(counts / reads - exact).sum()
    assert tv < 0.05


def per_spin_sweeps(theta, k, sweeps, rng):
    # reference: one Python step per spin per sweep, in index order
    couplings = theta.theta.copy()
    np.fill_diagonal(couplings, 0.0)
    biases = theta.biases.copy()
    states = (2 * rng.integers(0, 2, size=(k, theta.n)) - 1).astype(np.float64)
    for beta in np.geomspace(*sam._auto_beta_range(theta.theta), sweeps):
        for i in range(theta.n):
            local = states @ couplings[i]
            delta = -2.0 * states[:, i] * (biases[i] + local)
            u = rng.random(k)
            accept = (delta <= 0.0) | (u < np.exp(-beta * np.maximum(delta, 0.0)))
            states[accept, i] = -states[accept, i]
    return states.astype(np.int8)


@pytest.mark.parametrize(
    "graph", [complete_graph(1), complete_graph(2), complete_graph(5), complete_graph(16), chimera_graph(1)]
)
@pytest.mark.parametrize("integer", [False, True])
def test_metropolis_matches_per_spin_sweep_on_consecutive_classes(monkeypatch, graph, integer):
    # classes that are ascending runs of consecutive indices consume the rng
    # exactly as the per-spin sweep does, so the samples are bit-identical;
    # the last seed runs at a pinned beta range
    rng = np.random.default_rng(3)
    for seed in range(4):
        w = random_weights(rng, graph, integer=integer)
        k = (1, 3, 10, 10)[seed]
        sweeps = 30 if seed < 3 else 5
        if seed == 3:
            pin_betas(monkeypatch, 0.2, 4.0)
        expected = per_spin_sweeps(w, k, sweeps, np.random.default_rng(seed))
        got = MetropolisSampler(sweeps).sample(w, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype


def sample_major_class_sweeps(theta, k, sweeps, rng):
    # reference: chains as rows, every class a block of columns whose field is
    # the product of all states with the full coupling columns
    classes = theta.graph.colour_classes
    order = np.concatenate(classes)
    bounds = np.cumsum([0] + [c.size for c in classes])
    couplings = theta.theta[np.ix_(order, order)]
    np.fill_diagonal(couplings, 0.0)
    biases = theta.biases[order]
    states = (2 * rng.integers(0, 2, size=(k, theta.n)) - 1).astype(np.float64)[:, order]
    for beta in np.geomspace(*sam._auto_beta_range(theta.theta), sweeps):
        uniforms = rng.random((theta.n, k))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            spins = states[:, lo:hi]
            x = spins * (biases[lo:hi] + states @ couplings[:, lo:hi])
            np.minimum(x, 0.0, out=x)
            x *= 2.0 * beta
            accept = uniforms[lo:hi].T < np.exp(x, out=x)
            np.negative(spins, out=spins, where=accept)
    return states[:, np.argsort(order)].astype(np.int8)


def random_edge_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = itertools.combinations(range(n), 2)
    return TopologyGraph(n, [(i, j) for i, j in pairs if rng.random() < p])


def landscape(rng, graph, kind):
    """Random float (False) or integer (True) weights, or a boundary landscape:
    "zero_field" has couplings of +-1 and no biases, so local fields are often
    0 and the acceptance value is 1; "capped" gives integer weights a 1e-308
    first bias, which caps the cold beta at _BETA_MAX, where 2 beta times a
    field overflows and the acceptance values are 0 and inf."""
    if kind == "zero_field":
        a = np.triu(rng.choice([-1.0, 1.0], size=(graph.n, graph.n)), 1)
        return weights((a + a.T) * graph.adjacency_mask, graph)
    w = random_weights(rng, graph, integer=kind is not False)
    if kind == "capped":
        theta = w.theta.copy()
        theta[0, 0] = 1e-308
        w = weights(theta, graph)
        assert sam._auto_beta_range(theta)[1] == sam._BETA_MAX
    return w


@pytest.mark.parametrize(
    "graph, class_count",
    [
        (chimera_graph(2), 2),
        (chimera_graph(4), 2),
        (TopologyGraph(5, [(i, (i + 1) % 5) for i in range(5)]), 3),
        (random_edge_graph(24, 0.25, 8), 5),
    ],
    ids=["chimera2", "chimera4", "ring5", "random24"],
)
@pytest.mark.parametrize("kind", [False, True, "zero_field", "capped"])
def test_metropolis_matches_sample_major_sweep_on_interleaved_classes(
    monkeypatch, graph, class_count, kind
):
    # the spin-major sweep reads only the other classes' columns; on these
    # graphs the classes interleave, and on the ring and the random graph the
    # middle classes read the full row; each k runs at the derived and at a
    # pinned beta range
    assert len(graph.colour_classes) == class_count
    rng = np.random.default_rng(4)
    for k, pinned in itertools.product((1, 10), (False, True)):
        w = landscape(rng, graph, kind)
        seed = int(rng.integers(2**32))
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        with monkeypatch.context() as patch:
            if pinned:
                pin_betas(patch, 0.2, 4.0)
            sweeps = 5 if pinned else 100
            got = MetropolisSampler(sweeps).sample(w, k, ours)  # RuntimeWarnings fail the test
            with np.errstate(over="ignore"):  # the reference reports its capped-beta overflows
                expected = sample_major_class_sweeps(w, k, sweeps, reference)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype and got.strides == expected.strides
        assert ours.random() == reference.random()


def test_metropolis_matches_boltzmann_on_interleaved_classes(monkeypatch):
    # a 6-ring colours as {0, 2, 4} and {1, 3, 5}: each sweep flips three
    # spins per vectorised step, which must leave the Gibbs weights intact
    from qals.core import energies
    from qals.samplers import spins_at

    g = TopologyGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert [c.tolist() for c in g.colour_classes] == [[0, 2, 4], [1, 3, 5]]
    w = random_weights(np.random.default_rng(5), g, lo=-1, hi=1)
    beta = 0.7
    states = spins_at(6, np.arange(64))
    exact = np.exp(-beta * energies(w.theta, states))
    exact /= exact.sum()
    reads = 20000
    pin_betas(monkeypatch, beta, beta)
    samples = MetropolisSampler(sweeps=200).sample(w, reads, np.random.default_rng(11))
    idx = ((samples == 1) * (1 << np.arange(5, -1, -1))).sum(axis=1)
    counts = np.bincount(idx, minlength=64)
    tv = 0.5 * np.abs(counts / reads - exact).sum()
    assert tv < 0.05


@pytest.mark.parametrize(
    "sweeps, message",
    [
        (0, "sweeps must be at least 1"),
        (-1, "sweeps must be at least 1"),
        (2.5, "sweeps 2.5 is not an integer"),
        (True, "sweeps True is not an integer"),
        ("3", "sweeps '3' is not an integer"),
    ],
)
def test_metropolis_rejects_bad_sweeps(sweeps, message):
    with pytest.raises(ValueError, match=message):
        MetropolisSampler(sweeps=sweeps)


def test_metropolis_stores_numpy_sweeps_as_int():
    sampler = MetropolisSampler(sweeps=np.int64(4))
    assert type(sampler.sweeps) is int
    # the initial states, then one (n, k) block of uniforms per sweep
    got, reference = np.random.default_rng(0), np.random.default_rng(0)
    sampler.sample(zero_weights(2), 3, got)
    reference.integers(0, 2, size=(3, 2))
    reference.random((4 * 2, 3))
    assert got.bit_generator.state == reference.bit_generator.state


def test_metropolis_rejects_weights_above_the_shared_bound():
    # a 1e308 coupling made the derived ramp's hot end 0 and geomspace failed; the
    # WeightMatrix constructor refuses such weights, and at the bound the ramp is finite
    with pytest.raises(ValueError, match=re.escape("sum|weights| is inf, above the limit")):
        WeightMatrix(np.array([[0.0, 1e308], [1e308, 0.0]]), complete_graph(2))
    half = sam._WEIGHT_SUM_LIMIT / 2
    w = WeightMatrix(np.array([[0.0, half], [half, 0.0]]), complete_graph(2))
    hot, cold = sam._auto_beta_range(w.theta)
    assert 0.0 < hot <= cold and np.isfinite(cold)
    rows = MetropolisSampler(sweeps=5).sample(w, 4, np.random.default_rng(0))
    assert np.isin(rows, [-1, 1]).all()


@pytest.mark.parametrize(
    "theta", [[[1.0, 5e-324], [5e-324, 1.0]], [[5e-324, 5e-324], [5e-324, 5e-324]]]
)
def test_derived_betas_stay_finite_on_subnormal_weights(theta):
    from qals.samplers import _auto_beta_range

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing quotient warns
        hot, cold = _auto_beta_range(np.array(theta))
    assert 0.0 < hot <= cold and np.isfinite(2.0 * cold)


def test_metropolis_decides_overflowing_moves_silently_at_a_capped_beta():
    # the 1e-308 bias caps the cold beta at _BETA_MAX, where 2 beta times a
    # field of 6 overflows; +-inf still accepts or rejects its move exactly
    w = weights([[1e-308, 3, 3], [3, 0, 3], [3, 3, 0]], complete_graph(3))
    assert sam._auto_beta_range(w.theta)[1] == sam._BETA_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = MetropolisSampler(sweeps=5).sample(w, 4, np.random.default_rng(0))
    with np.errstate(over="ignore"):
        expected = per_spin_sweeps(w, 4, 5, np.random.default_rng(0))
    np.testing.assert_array_equal(got, expected)


def test_metropolis_flips_a_zero_field_spin_at_the_coldest_derived_beta():
    # spin 2 has no bias and no coupling, so each sweep flips it; at an
    # infinite beta its acceptance value would be 0 * inf = NaN and it would stay
    w = weights(np.diag([1.0, 5e-324, 0.0]), complete_graph(3))
    initial = 2 * np.random.default_rng(0).integers(0, 2, size=(8, 3)) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = MetropolisSampler(sweeps=3).sample(w, 8, np.random.default_rng(0))
    np.testing.assert_array_equal(rows[:, 2], -initial[:, 2])


# ------------------------------------------------------------ estimate_argmin


def test_estimate_argmin_toy_membership():
    w = weights(TOY, complete_graph(2))
    z = estimate_argmin(ExactSampler(), w, 6, np.random.default_rng(1))
    assert energy(w, z) == -1.0
    assert tuple(int(v) for v in z) in {(1, 1), (-1, 1), (-1, -1)}


def count_energies(monkeypatch):
    import qals.samplers as sam

    calls = []
    energies = sam.energies
    monkeypatch.setattr(sam, "energies", lambda w, z: calls.append(len(z)) or energies(w, z))
    return calls


def test_estimate_argmin_identical_samples(monkeypatch):
    class Fixed:
        def sample(self, theta, k, rng):
            return np.tile(np.array([1, -1], dtype=np.int64), (k, 1))

    calls = count_energies(monkeypatch)
    w = weights(TOY, complete_graph(2))
    np.testing.assert_array_equal(estimate_argmin(Fixed(), w, 5, np.random.default_rng(0)), [1, -1])
    assert calls == []  # identical rows are returned unscored
    unique = weights(np.diag([1.0, -2.0, 1.0]), complete_graph(3))
    exact = ExactSampler()
    exact.sample(unique, 1, None)  # the enumeration scores its halves with energies
    calls.clear()
    z = estimate_argmin(exact, unique, 4, None)  # a one-state set draws nothing
    np.testing.assert_array_equal(z, [-1, 1, -1])
    assert calls == []


def test_estimate_argmin_reads_f_ordered_batches(monkeypatch):
    # Metropolis returns F-ordered samples and validation keeps the layout;
    # tobytes() is C order all the same, so only identical rows skip scoring
    class Stub:
        def __init__(self, rows):
            self.rows = rows

        def sample(self, theta, k, rng):
            return np.asfortranarray(np.array(self.rows, dtype=np.int8))

    calls = count_energies(monkeypatch)
    w = weights(np.diag([1.0, -2.0, 1.0]), complete_graph(3))
    same, mixed = Stub([[1, -1, 1]] * 4), Stub([[1, -1, 1], [1, 1, 1], [-1, 1, -1], [1, -1, 1]])
    validated = _checked_spins(mixed.sample(w, 4, None), (4, 3), error=SampleShapeError)
    assert validated.flags.f_contiguous and not validated.flags.c_contiguous
    np.testing.assert_array_equal(estimate_argmin(same, w, 4, None), [1, -1, 1])
    assert calls == []
    np.testing.assert_array_equal(estimate_argmin(mixed, w, 4, None), [-1, 1, -1])
    assert calls == [4]


def test_estimate_argmin_zero_landscape():
    w = weights(np.zeros((4, 4)), complete_graph(4))
    z = estimate_argmin(RandomSampler(), w, 3, np.random.default_rng(2))
    assert energy(w, z) == 0.0


def test_estimate_argmin_picks_first_of_lowest(monkeypatch):
    calls = []
    scored = count_energies(monkeypatch)

    class Scripted:
        def sample(self, theta, k, rng):
            rows = np.array([[1, -1], [1, 1], [-1, 1]], dtype=np.int8)
            calls.append(k)
            return rows[:k]

    w = weights(TOY, complete_graph(2))
    # energies: 3, -1, -1 -> first of the tied lowest is (1, 1)
    z = estimate_argmin(Scripted(), w, 3, np.random.default_rng(0))
    np.testing.assert_array_equal(z, [1, 1])
    assert calls == [3]
    assert scored == [3]  # distinct rows are scored in one call


def test_estimate_argmin_not_above_any_sample():
    rng = np.random.default_rng(23)
    w = random_weights(rng, complete_graph(6))
    sampler = RandomSampler()
    draws = sampler.sample(w, 8, np.random.default_rng(77))
    z = estimate_argmin(sampler, w, 8, np.random.default_rng(77))
    assert energy(w, z) <= min(energy(w, s) for s in draws)


def test_sampler_contract_shape_enforced():
    class Broken:
        def sample(self, theta, k, rng):
            return np.ones((k, theta.n + 1), dtype=np.int8)

    w = weights(TOY, complete_graph(2))
    with pytest.raises(SampleShapeError, match=re.escape("sample has shape (2, 3), expected (2, 2)")):
        estimate_argmin(Broken(), w, 2, np.random.default_rng(0))

    class Rows:
        def __init__(self, rows):
            self.rows = rows

        def sample(self, theta, k, rng):
            return self.rows

    # rows that break the spin rule (the table estimate_argmin is tested on in
    # test_core.py) are a SampleShapeError in solve too, never a numpy error or
    # a silent conversion to int8
    problem = QuboProblem(TOY)
    for _, rows, message in bad_spins((2, 2)):
        with pytest.raises(SampleShapeError, match=f"^sample has {message}.*during initialization"):
            solve(problem, complete_graph(2), Rows(rows), QalsParams(k=2, i_max=1, seed=0))


# ------------------------------------------------------------ range scaling


def test_scale_biases_down():
    g = complete_graph(2)
    w = weights(np.diag([4.0, 0.0]), g)
    out = scale_to_ranges(w, 2.0, 1.0)
    assert out.theta[0, 0] == 2.0
    np.testing.assert_array_equal(out.theta, np.diag([2.0, 0.0]))


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (2.0, -1.0), (np.nan, 1.0), (2.0, np.inf)])
def test_scale_rejects_bounds_that_are_not_positive_and_finite(bounds):
    w = weights(np.array([[4.0, 0.5], [0.5, 0.0]]), complete_graph(2))
    with pytest.raises(ValueError, match="positive and finite"):
        scale_to_ranges(w, *bounds)


@pytest.mark.parametrize("bad", [True, "2", None])
@pytest.mark.parametrize("which", ["delta", "gamma"])
def test_scale_rejects_bounds_that_are_not_real_numbers(which, bad):
    # unchecked, True would scale as 1.0 and a string or None fail inside the comparison
    w = weights(np.array([[4.0, 0.5], [0.5, 0.0]]), complete_graph(2))
    bounds = {"delta": 2.0, "gamma": 1.0, which: bad}
    with pytest.raises(ValueError, match=f"^{which} {bad!r} is not a real number$"):
        scale_to_ranges(w, **bounds)


def test_scale_zero_matrix_unchanged():
    g = complete_graph(3)
    w = weights(np.zeros((3, 3)), g)
    assert scale_to_ranges(w, 2.0, 1.0) is w


def test_scale_small_couplings_up():
    g = complete_graph(2)
    theta = np.array([[0.0, 0.5], [0.5, 0.0]])
    out = scale_to_ranges(weights(theta, g), 2.0, 1.0)
    assert out.theta[0, 1] == 1.0


def test_scale_preserves_minimizer_set():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        w = random_weights(rng, complete_graph(n))
        before, _ = exact_minimizers(w)
        after, _ = exact_minimizers(scale_to_ranges(w, 2.0, 1.0))
        np.testing.assert_array_equal(before, after)


def test_positive_scaling_argmin_invariance():
    rng = np.random.default_rng(66)
    for c in (0.25, 3.0, 17.5):
        w = random_weights(rng, complete_graph(8))
        before, _ = exact_minimizers(w)
        after, _ = exact_minimizers(weights(w.theta * c, w.graph))
        np.testing.assert_array_equal(before, after)


@pytest.mark.parametrize("entry, bounds", [((0, 0), (10.0, 1.0)), ((0, 1), (1.0, 3.0))])
def test_scale_subnormal_weights_attain_the_bound(entry, bounds):
    # 5e-324 / bound underflows to 0; an exact power of two first makes it normal
    theta = np.zeros((2, 2))
    theta[entry] = theta[entry[::-1]] = 5e-324
    out = scale_to_ranges(weights(theta, complete_graph(2)), *bounds)
    assert out.theta[entry] == bounds[entry[0] != entry[1]]


@pytest.mark.parametrize(
    "entry, value, bounds",
    [
        ((0, 0), 1e306, (1e-10, 1.0)),  # max / delta overflows
        ((0, 0), 2.3e-308, (1e300, 1.0)),  # ... and underflows
        ((0, 1), 1e306, (1.0, 1e-10)),
        ((0, 1), 2.3e-308, (1.0, 1e300)),
    ],
)
def test_scale_attains_the_bound_when_the_factor_is_out_of_range(entry, value, bounds):
    theta = np.zeros((2, 2))
    theta[entry] = theta[entry[::-1]] = value
    out = scale_to_ranges(weights(theta, complete_graph(2)), *bounds)
    assert out.theta[entry] == bounds[entry[0] != entry[1]]


def test_scale_keeps_both_ranges_when_the_factor_is_out_of_range():
    theta = np.array([[1e306, -1e300], [-1e300, 4.0]])
    for delta, gamma in ((1e-10, 1e-10), (1e-300, 1.0), (1e-10, 1e-310)):
        out = scale_to_ranges(weights(theta, complete_graph(2)), delta, gamma)
        biases, coupling = np.abs(out.biases), abs(out.theta[0, 1])
        assert biases.max() <= delta and coupling <= gamma
        assert biases.max() == delta or coupling == gamma
        assert out.theta[0, 1] == out.theta[1, 0] <= 0.0


def test_scale_refuses_ranges_whose_weights_break_the_bound():
    # every entry is sent to 1e306, and the 16 of them sum above the limit
    with pytest.raises(ValueError, match=re.escape("sum|weights| is 1.6e+307, above the limit")):
        scale_to_ranges(weights(np.ones((4, 4)), complete_graph(4)), 1e306, 1e306)
    out = scale_to_ranges(weights(np.ones((3, 3)), complete_graph(3)), 1e306, 1e306)
    assert np.abs(out.theta).sum() == 9e306


def test_scale_never_sends_an_entry_beyond_its_bound():
    # c = max|bias| / delta is rounded, so 5.16 / c lands one ulp above 7.6
    out = scale_to_ranges(weights(np.diag([5.16, 0.0]), complete_graph(2)), 7.6, 1.0)
    assert out.theta[0, 0] == 7.6
    rng = np.random.default_rng(21)
    for _ in range(2000):
        bias, coupling, delta, gamma = rng.integers(1, 1000, size=4) / 100
        theta = np.array([[bias, -coupling], [-coupling, -bias / 3]])
        out = scale_to_ranges(weights(theta, complete_graph(2)), delta, gamma)
        assert np.abs(out.biases).max() <= delta and abs(out.theta[0, 1]) <= gamma
        # clipping moves only the entries the division sent beyond their bound
        divided = theta / max(bias / delta, coupling / gamma)
        bound = np.array([[delta, gamma], [gamma, delta]])
        moved = out.theta != divided
        assert (np.abs(divided[moved]) > bound[moved]).all()
        np.testing.assert_array_equal(np.abs(out.theta[moved]), bound[moved])


def test_scale_bounds_attained():
    rng = np.random.default_rng(15)
    for _ in range(20):
        w = random_weights(rng, complete_graph(5))
        out = scale_to_ranges(w, 2.0, 1.0)
        biases = np.abs(out.biases)
        coups = np.abs(np.triu(out.theta, k=1))
        assert biases.max() <= 2.0 and coups.max() <= 1.0
        assert biases.max() == 2.0 or coups.max() == 1.0


# -------------------------------------------------------------- determinism


class _Ones:
    """A plug-in sampler that keeps no rule of its own: k rows of +1."""

    def sample(self, theta, k, rng):
        return np.ones((k, theta.n))


@pytest.mark.parametrize("k", [0, -1, 2.0, True, "2"])
@pytest.mark.parametrize(
    "draw",
    [
        lambda w, k, rng: ExactSampler().sample(w, k, rng),
        lambda w, k, rng: MetropolisSampler(sweeps=1).sample(w, k, rng),
        lambda w, k, rng: RandomSampler().sample(w, k, rng),
        # a bad k is rejected before any request: no TransportError from the closed port
        lambda w, k, rng: RemoteSampler("http://127.0.0.1:1", timeout=0.5).sample(w, k, rng),
        lambda w, k, rng: estimate_argmin(_Ones(), w, k, rng),
    ],
    ids=["exact", "metropolis", "random", "remote", "estimate_argmin"],
)
def test_every_backend_and_the_estimator_reject_a_bad_read_count(draw, k):
    with pytest.raises(ValueError, match=r"^k (must be at least 1|.* is not an integer)"):
        draw(zero_weights(3), k, np.random.default_rng(0))


@pytest.mark.parametrize("make", [ExactSampler, MetropolisSampler, RandomSampler])
def test_local_backends_deterministic(make):
    rng = np.random.default_rng(1)
    w = random_weights(rng, complete_graph(6))
    a = make().sample(w, 5, np.random.default_rng(99))
    b = make().sample(w, 5, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (5, 6)
