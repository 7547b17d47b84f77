"""Domain types and exact algebra: objectives, energies, tabu matrices, encodings.

Spin vectors are 1-D int8 arrays with entries in {-1, +1}, checked by ``_checked_spins``.
Permutations are 1-D integer arrays holding the image of each index:
``sigma[i]`` is the qubit that hosts logical variable ``i``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .topology import TopologyGraph, _integer, _real

SPIN_DTYPE = np.int8


def _checked_spins(values, shape=None, expects: str = "expected", error=ValueError) -> np.ndarray:
    """The one spin rule, for every spin vector and sample the package takes in:
    ``values`` must form a numeric (integer or float) array of exactly ``shape``
    (None: a vector of its own length, at least 1) with entries -1 and +1,
    returned as a new int8 array; else ``error``."""
    what = "sample has" if shape and len(shape) == 2 else "spin vector has"
    try:
        z = np.asarray(values)
    except ValueError as exc:  # ragged rows
        raise error(f"{what} entries that form no array: {exc}") from exc
    shape = shape or (max(z.size, 1),)
    if z.shape != shape:
        got = f"length {z.size}" if z.ndim == 1 else f"shape {z.shape}"
        raise error(f"{what} {got}, {expects} {shape[0] if len(shape) == 1 else shape}")
    if z.dtype == SPIN_DTYPE:  # -1 and +1 are the bytes ff and 01
        valid = not z.tobytes().translate(None, b"\x01\xff")
    elif z.dtype.kind not in "iuf":  # bool, complex, str, object
        raise error(f"{what} {z.dtype} entries, expected numbers")
    else:  # converting first could wrap another value onto -1 or +1
        valid = (np.abs(z) == 1).all()
    if not valid:
        raise error(f"{what} entries other than -1/+1")
    return z.astype(SPIN_DTYPE)


def is_permutation(sigma: np.ndarray) -> bool:
    sigma = np.asarray(sigma)
    if sigma.dtype.kind not in "iu":  # a float sigma cannot index, a boolean one indexes as a mask
        return False
    return sigma.ndim == 1 and bool((np.sort(sigma) == np.arange(sigma.size)).all())


def _checked_symmetric(a, name: str, total: str, n: int | None = None) -> np.ndarray:
    """A read-only float64 copy of ``a``, checked to be square, finite, exactly
    symmetric and within the weight bound (``_weight_sum``, naming the sum ``total``).

    The shape must be (n, n) when ``n`` is given, else (m, m) for any m >= 1.
    """
    a = np.array(a, dtype=np.float64)
    square = a.ndim == 2 and a.shape[0] == a.shape[1] >= 1
    if not square or (n is not None and a.shape[0] != n):
        expected = "a square matrix" if n is None else f"({n}, {n})"
        raise ValueError(f"{name} is {a.shape}, expected {expected}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    if not (a == a.T).all():
        raise ValueError(f"{name} must be symmetric")
    _weight_sum(a, total)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuboProblem:
    """A QUBO instance: minimize z^T Q z over z in {-1,+1}^n, Q symmetric.

    ``q`` is a read-only copy, checked once, here, with ``sum|Q| <=
    _WEIGHT_SUM_LIMIT``: no later write can change it, and no objective
    value can overflow. Copies and pickles are rebuilt through the
    constructor, so theirs is too.
    """

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _checked_symmetric(self.q, "Q", "sum|Q|"))

    def __reduce__(self):
        return QuboProblem, (self.q,)

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class WeightMatrix:
    """Annealer weights: diagonal entries are biases, off-diagonal couplings.

    Invariant of every instance, which is frozen: ``theta`` is a read-only,
    finite, exactly symmetric float64 (n, n) array with ``sum|theta| <=
    _WEIGHT_SUM_LIMIT`` (so no energy is inf or NaN), and its couplings
    vanish wherever ``graph.adjacency_mask`` (the graph's bool array of
    n² bytes, derived from the edges) is False.
    The public constructor checks it on a read-only copy of ``theta``.
    ``_trusted`` skips the checks and marks ``theta`` and ``placement``
    read-only; it is only for code that makes the invariant true itself:
    ``_place``, ``scale_to_ranges`` (which checks its own sum) and
    ``__reduce__``, so copies and pickles stay read-only.

    ``placement`` is the sigma these weights were encoded under (qubit
    ``placement[i]`` hosts logical variable ``i``), or None when unknown.
    Only ``_place`` sets it, and ``scale_to_ranges`` and copies carry it
    over; the public constructor always leaves it None. ``ExactSampler``
    reads it to recognise a one-state landscape it has already enumerated
    under another placement.
    """

    theta: np.ndarray
    graph: TopologyGraph
    placement: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = _checked_symmetric(self.theta, "weight matrix", "sum|weights|", self.graph.n)
        off_support = ~self.graph.adjacency_mask & (theta != 0.0)
        if off_support.any():
            raise ValueError("weight matrix has couplings outside the edge set")
        object.__setattr__(self, "theta", theta)

    def __reduce__(self):
        return WeightMatrix._trusted, (self.theta, self.graph, self.placement)

    @classmethod
    def _trusted(
        cls, theta: np.ndarray, graph: TopologyGraph, placement: np.ndarray | None = None
    ) -> "WeightMatrix":
        """Wrap a float64 ``theta`` that already meets the invariant, unchecked, read-only."""
        theta.setflags(write=False)  # once per iteration: cheaper than flags.writeable
        if placement is not None:
            placement.setflags(write=False)
        out = cls.__new__(cls)
        object.__setattr__(out, "theta", theta)
        object.__setattr__(out, "graph", graph)
        object.__setattr__(out, "placement", placement)
        return out

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def biases(self) -> np.ndarray:
        return np.diagonal(self.theta)


@dataclass(frozen=True)
class TabuMatrix:
    """Integer symmetric matrix accumulating penalties for rejected candidates.

    ``m`` counts accumulated candidates; every entry has absolute value at
    most ``m`` and the same parity as ``m``. The public constructor checks
    all of that (``m`` a non-negative integer below 2**63, ``s`` a square, symmetric
    array of an integer dtype) and keeps a read-only int64 copy of ``s``;
    copies and pickles are rebuilt through it. ``_trusted`` skips the check
    and is only for ``_fold`` (``tabu_init``, ``tabu_update``), whose result
    is the sum of a tabu matrix and one more candidate's term.
    """

    s: np.ndarray
    m: int = 0

    def __post_init__(self):
        m = _integer(self.m, "tabu count m", 0)
        if m >= 2**63:  # below it, every entry in [-m, m] fits in int64
            raise ValueError("tabu count m must be below 2**63")
        s = np.asarray(self.s)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("tabu matrix must be square")
        if s.dtype.kind not in "iu":  # a float would be truncated, a boolean read as 0 and 1
            raise ValueError(f"tabu matrix entries must be integers, got dtype {s.dtype}")
        if not np.array_equal(s, s.T):
            raise ValueError("tabu matrix must be symmetric")
        if not (((-m <= s) & (s <= m)).all() and (s % 2 == m % 2).all()):
            raise ValueError(f"tabu matrix entries must lie in [-m, m] with the parity of m = {m}")
        s = s.astype(np.int64)
        s.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "m", m)

    def __reduce__(self):
        return TabuMatrix, (self.s, self.m)

    @classmethod
    def _trusted(cls, s: np.ndarray, m: int) -> "TabuMatrix":
        """Wrap a symmetric int64 ``s`` that meets the invariant for ``m``, unchecked, read-only."""
        s.setflags(write=False)
        out = cls.__new__(cls)
        object.__setattr__(out, "s", s)
        object.__setattr__(out, "m", m)
        return out

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "TabuMatrix":
        return cls(np.zeros((n, n), dtype=np.int64), m=0)


@dataclass(frozen=True)
class QalsParams:
    """Tunable knobs of the learning search loop, checked once, here.

    Defaults are desk-scale choices; see README for their calibration. The
    instance is frozen: ``dataclasses.replace`` makes a checked variant.
    """

    p_delta: float = 0.1
    eta: float = 0.01
    q: float = 0.2
    N: int = 10
    lambda0: float = 1.0
    k: int = 10
    i_max: int = 1000
    N_max: int = 100
    d_min: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("p_delta", "eta", "q", "lambda0"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not 0.0 < self.p_delta < 0.5:
            raise ValueError("p_delta must lie in (0, 0.5)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError("lambda0 must be positive and finite")
        for name in ("N", "k", "i_max", "N_max", "d_min"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``z_returned`` is the loop's final current solution, which the acceptance
    rule may have left above the best candidate ever evaluated; ``z_best``
    tracks that best candidate. ``best_found_at`` is 0 when the best candidate
    appeared during initialization, otherwise the 1-based iteration count at
    which it was first evaluated.
    """

    z_returned: np.ndarray
    f_returned: float
    z_best: np.ndarray
    f_best: float
    iterations: int
    evaluations: int
    best_found_at: int
    tabu: TabuMatrix
    seed: int
    trace: list | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.z_best.size


def objective(problem: QuboProblem, z: np.ndarray) -> float:
    """Evaluate f(z) = z^T Q z on spins ``z`` (``_checked_spins``)."""
    zf = _checked_spins(z, (problem.n,), "problem expects").astype(np.float64)
    return float(zf @ problem.q @ zf)


def energies(weights: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Annealer cost of every row of the (m, n) spin array ``Z``.

    ``weights`` is the raw symmetric (n, n) array with biases on the
    diagonal; each edge is counted once, from the strict upper triangle.
    This is the one energy kernel: ``energy`` and ``estimate_argmin`` rank
    states with it, and ``enumerate_minima`` scores the two halves of its
    split-bits table with it, on the diagonal blocks of its weights.

    A row's value can depend in the last ulp on how many rows share the
    call and on its place among them, because the matrix products pick
    their summation order by shape. The result is a deterministic function
    of the inputs, but equal values for equal rows, within one call or
    across calls, are not part of the contract.
    """
    zf = np.asarray(Z, dtype=np.float64)
    upper = np.where(_strict_upper_mask(weights.shape[0]), weights, 0.0)  # np.triu(weights, 1)
    return zf @ weights.diagonal() + np.add.reduce((zf @ upper) * zf, axis=1)  # .sum(axis=1)


@lru_cache(maxsize=16)
def _strict_upper_mask(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the entries above the diagonal, kept per n."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


# Every energy is a sum of |weight| terms, and flip costs and objective
# differences double such a sum; the factor 16 covers that and the rounding
# of any summation order with room to spare.
_WEIGHT_SUM_LIMIT = sys.float_info.max / 16


def _weight_sum(weights: np.ndarray, what: str, extra: float = 0.0) -> float:
    """``sum|weights| + extra``, checked to be at most ``_WEIGHT_SUM_LIMIT``.

    Raises ``ValueError``, naming the sum as ``what``, when it is larger or
    overflows, so that no energy of those weights can be inf or NaN.
    """
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        total = float(np.abs(weights).sum()) + extra
    if not total <= _WEIGHT_SUM_LIMIT:
        raise ValueError(
            f"{what} is {total:.3g}, above the limit {_WEIGHT_SUM_LIMIT:.3g} for finite energies"
        )
    return total


def energy(theta: WeightMatrix, z: np.ndarray) -> float:
    """Evaluate the annealer cost of spins ``z`` (``_checked_spins``): biases plus one term per edge."""
    z = _checked_spins(z, (theta.n,), "weights expect")
    return float(energies(theta.theta, z[None, :])[0])


def tabu_init(z: np.ndarray) -> TabuMatrix:
    """Start a tabu matrix from one rejected candidate: one update of the zero matrix."""
    z = _checked_spins(z)
    return _fold(TabuMatrix.zeros(z.size), z)


def tabu_update(s: TabuMatrix, z: np.ndarray) -> TabuMatrix:
    """Fold one more rejected candidate, checked by ``_checked_spins``, into the tabu matrix."""
    return _fold(s, _checked_spins(z, (s.n,), "tabu matrix expects"))


def _fold(s: TabuMatrix, z: np.ndarray) -> TabuMatrix:
    """``tabu_update`` on a checked int8 ``z``, built unchecked: ``s.s`` (int64) and the term are
    symmetric, and each term entry is -1 or +1, so the sum keeps the invariant for m + 1."""
    if s.m >= 2**63 - 1:  # m + 1 must stay below 2**63, as the constructor asks
        raise ValueError("tabu count m must be below 2**63")
    term = np.outer(z, z)  # z (x) z - I + diag(z): off-diagonal z_i z_j, diagonal z_i
    np.fill_diagonal(term, z)
    return TabuMatrix._trusted(s.s + term, s.m + 1)


def encode(qprime: np.ndarray, sigma: np.ndarray, graph: TopologyGraph) -> WeightMatrix:
    """Map a symmetric coefficient matrix onto the hardware graph.

    Logical variable i is assigned to qubit sigma[i]; entries landing outside
    the edge set are zeroed by a multiply with ``graph.adjacency_mask``, the
    bool array of n² bytes that the graph derives from its edges (its True
    diagonal keeps every bias). A complete graph is not masked: its mask is
    all True, so the multiply would leave every bit as it is.

    This is the checked boundary: ``qprime`` must be (n, n), finite and
    symmetric (off-edge entries included), with ``sum|qprime|`` within the
    weight bound, and ``sigma`` a permutation of the nodes. The result
    records a read-only copy of ``sigma`` as its ``placement``, so a later
    write into the caller's array does not reach it.
    """
    n = graph.n
    qprime = _checked_symmetric(qprime, "coefficient matrix", "sum|coefficients|", n)
    sigma = np.asarray(sigma)
    if sigma.size != n or not is_permutation(sigma):
        raise ValueError("sigma is not a permutation of the graph's nodes")
    return _place(qprime, sigma.copy(), graph)


def _place(qprime: np.ndarray, sigma: np.ndarray, graph: TopologyGraph) -> WeightMatrix:
    """``encode`` without its checks, for callers whose inputs already hold them.

    ``qprime`` must be a finite, exactly symmetric (n, n) array with
    ``sum|qprime| <= _WEIGHT_SUM_LIMIT``, and ``sigma`` an integer
    permutation of the n nodes. The result is built without
    ``WeightMatrix``'s checks, because they hold by construction: placing a
    symmetric matrix under a permutation keeps it symmetric and finite and
    its sum, and the multiply by the mask zeroes every coupling outside the
    edge set (the mask is True off the diagonal exactly on the edges), which
    can only shrink the sum. The multiply runs only when the graph lacks an
    edge: on a complete graph it is the identity, bit for bit, and skipping
    it also skips the mask's cast to float64.
    """
    n = graph.n
    theta = np.empty((n, n), dtype=np.float64)  # every entry is written below
    theta[sigma[:, None], sigma] = qprime
    if 2 * graph.num_edges < n * (n - 1):
        theta *= graph.adjacency_mask
    return WeightMatrix._trusted(theta, graph, sigma)


def decode(y: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Read qubit-ordered spins ``y`` (``_checked_spins``) back into logical variable order."""
    sigma = np.asarray(sigma)
    if not is_permutation(sigma):
        raise ValueError("sigma is not a permutation of the sample's indices")
    return _checked_spins(y, sigma.shape, "sigma has length")[sigma]
