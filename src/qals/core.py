"""Domain types and exact algebra: objectives, energies, tabu matrices, encodings.

Spin vectors are plain 1-D integer numpy arrays with entries in {-1, +1}.
Permutations are 1-D integer arrays holding the image of each index:
``sigma[i]`` is the qubit that hosts logical variable ``i``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .topology import TopologyGraph, _check_real, _integer

SPIN_DTYPE = np.int8


def as_spins(values) -> np.ndarray:
    """Validate and return a spin vector (every entry -1 or +1)."""
    z = np.asarray(values)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("spin vector must be a non-empty 1-D array")
    if not np.all(np.abs(z) == 1):
        raise ValueError("spin entries must be -1 or +1")
    return z.astype(SPIN_DTYPE)


def is_permutation(sigma: np.ndarray) -> bool:
    sigma = np.asarray(sigma)
    if sigma.dtype.kind not in "iu":  # a float sigma cannot index, a boolean one indexes as a mask
        return False
    return sigma.ndim == 1 and bool((np.sort(sigma) == np.arange(sigma.size)).all())


def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def _checked_symmetric(a, name: str, n: int | None = None) -> np.ndarray:
    """A read-only float64 copy of ``a``, checked to be square, finite and exactly symmetric.

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
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuboProblem:
    """A QUBO instance: minimize z^T Q z over z in {-1,+1}^n, Q symmetric.

    ``q`` is a read-only copy, checked once, here: no later write can change it.
    """

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _checked_symmetric(self.q, "Q"))

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass
class WeightMatrix:
    """Annealer weights: diagonal entries are biases, off-diagonal couplings.

    Off-diagonal entries must vanish outside the support graph's edge set,
    that is wherever ``graph.adjacency_mask`` (derived from the edges) is 0.
    The public constructor is the boundary: it keeps a read-only copy of
    ``theta`` and checks its shape, that the entries are finite and
    symmetric, and the edge support. ``_trusted`` skips those checks and is
    only for code that makes the invariants true itself: ``_place``, the
    body of ``encode`` (finite symmetric inputs, masked by the support), and
    ``scale_to_ranges`` (a checked matrix divided by one positive scalar).

    ``placement`` is the sigma these weights were encoded under (qubit
    ``placement[i]`` hosts logical variable ``i``), or None when unknown.
    Only ``_place`` sets it, and ``scale_to_ranges`` carries it over; the
    public constructor always leaves it None. ``ExactSampler`` reads it to
    recognise a landscape it has already enumerated under another placement.
    """

    theta: np.ndarray
    graph: TopologyGraph
    placement: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = _checked_symmetric(self.theta, "weight matrix", self.graph.n)
        off_support = (self.graph.adjacency_mask == 0) & (theta != 0.0)
        if off_support.any():
            raise ValueError("weight matrix has couplings outside the edge set")
        self.theta = theta

    @classmethod
    def _trusted(
        cls, theta: np.ndarray, graph: TopologyGraph, placement: np.ndarray | None = None
    ) -> "WeightMatrix":
        """Wrap a float64 ``theta`` that already meets every invariant, unchecked."""
        out = cls.__new__(cls)
        out.theta = theta
        out.graph = graph
        out.placement = placement
        return out

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def biases(self) -> np.ndarray:
        return np.diagonal(self.theta)


@dataclass
class TabuMatrix:
    """Integer symmetric matrix accumulating penalties for rejected candidates.

    ``m`` counts accumulated candidates; every entry has absolute value at
    most ``m`` and the same parity as ``m``. The public constructor checks
    that ``s`` is square and symmetric; ``_trusted`` skips the check and is
    only for ``tabu_update``, whose result is the sum of two symmetric
    int64 matrices.
    """

    s: np.ndarray
    m: int = 0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.int64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("tabu matrix must be square")
        if not np.array_equal(s, s.T):
            raise ValueError("tabu matrix must be symmetric")
        self.s = s

    @classmethod
    def _trusted(cls, s: np.ndarray, m: int) -> "TabuMatrix":
        """Wrap a symmetric int64 ``s`` without checking it."""
        out = cls.__new__(cls)
        out.s = s
        out.m = m
        return out

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "TabuMatrix":
        return cls(np.zeros((n, n), dtype=np.int64), m=0)


@dataclass
class QalsParams:
    """Tunable knobs of the learning search loop.

    Defaults are desk-scale choices; see README for their calibration.
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
            _check_real(getattr(self, name), name)
        if not 0.0 < self.p_delta < 0.5:
            raise ValueError("p_delta must lie in (0, 0.5)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError("lambda0 must be positive and finite")
        for name in ("N", "k", "i_max", "N_max", "d_min", "seed"):
            setattr(self, name, _integer(getattr(self, name), name))
        for name in ("N", "k", "i_max", "N_max", "d_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
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
    """Evaluate f(z) = z^T Q z."""
    z = np.asarray(z)
    if z.shape != (problem.n,):
        raise ValueError(f"spin vector has length {z.size}, problem expects {problem.n}")
    zf = z.astype(np.float64)
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
    """Evaluate the annealer cost: sum of biases plus one term per edge."""
    z = np.asarray(z)
    if z.shape != (theta.n,):
        raise ValueError(f"spin vector has length {z.size}, weights expect {theta.n}")
    return float(energies(theta.theta, z[None, :])[0])


def tabu_init(z: np.ndarray) -> TabuMatrix:
    """Start a tabu matrix from one rejected candidate: one update of the zero matrix."""
    z = as_spins(z)
    return tabu_update(TabuMatrix.zeros(z.size), z)


def tabu_update(s: TabuMatrix, z: np.ndarray) -> TabuMatrix:
    """Fold one more rejected candidate into the tabu matrix.

    ``z`` is checked. The result is built unchecked: ``s.s`` is symmetric
    int64 by ``TabuMatrix``'s invariant and the added term is too, so their
    sum is exactly symmetric.
    """
    z = as_spins(z)
    if z.size != s.n:
        raise ValueError(f"spin vector has length {z.size}, tabu matrix expects {s.n}")
    z = z.astype(np.int64)
    term = np.outer(z, z)  # z (x) z - I + diag(z): off-diagonal z_i z_j, diagonal z_i
    np.fill_diagonal(term, z)
    return TabuMatrix._trusted(s.s + term, s.m + 1)


def encode(qprime: np.ndarray, sigma: np.ndarray, graph: TopologyGraph) -> WeightMatrix:
    """Map a symmetric coefficient matrix onto the hardware graph.

    Logical variable i is assigned to qubit sigma[i]; entries landing outside
    the edge set are masked away by ``graph.adjacency_mask``, which the graph
    derives from its edges (its unit diagonal keeps every bias).

    This is the checked boundary: ``qprime`` must be (n, n), finite and
    symmetric (off-edge entries included) and ``sigma`` a permutation of the
    nodes. The result records ``sigma`` (the checked array itself, not a
    copy) as its ``placement``.
    """
    n = graph.n
    qprime = _checked_symmetric(qprime, "coefficient matrix", n)
    sigma = np.asarray(sigma)
    if sigma.size != n or not is_permutation(sigma):
        raise ValueError("sigma is not a permutation of the graph's nodes")
    return _place(qprime, sigma, graph)


def _place(qprime: np.ndarray, sigma: np.ndarray, graph: TopologyGraph) -> WeightMatrix:
    """``encode`` without its checks, for callers whose inputs already hold them.

    ``qprime`` must be a finite, exactly symmetric (n, n) array and ``sigma``
    an integer permutation of the n nodes. The result is built without
    ``WeightMatrix``'s checks, because they hold by construction: placing a
    symmetric matrix under a permutation keeps it symmetric and finite, and
    the multiply by the mask zeroes every coupling outside the edge set,
    because the mask is 1 off the diagonal exactly on the edges.
    """
    n = graph.n
    theta = np.empty((n, n), dtype=np.float64)  # every entry is written below
    theta[sigma[:, None], sigma] = qprime
    theta *= graph.adjacency_mask
    return WeightMatrix._trusted(theta, graph, sigma)


def decode(y: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Read a qubit-ordered sample back into logical variable order."""
    y = np.asarray(y)
    sigma = np.asarray(sigma)
    if y.size != sigma.size or not is_permutation(sigma):
        raise ValueError("sigma is not a permutation of the sample's indices")
    return y[sigma]
