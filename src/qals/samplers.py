"""Annealer backends: exact enumeration, Metropolis chains, uniform noise, HTTP.

A sampler is anything with ``sample(theta, k, rng) -> (k, n) array`` of spin
rows. All local backends are deterministic functions of the rng state they
are handed.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol

import numpy as np

from .core import _WEIGHT_SUM_LIMIT, SPIN_DTYPE, WeightMatrix, _checked_spins, _weight_sum, energies
from .topology import _integer, _real

ENUMERATION_LIMIT = 24
_BLOCK_BITS = 18  # states per enumeration block: 2**18


class SamplerError(Exception):
    """Base class for sampler failures."""


class CapacityError(SamplerError):
    """Problem too large for this backend."""


class TransportError(SamplerError):
    """The remote endpoint could not be reached."""


class MalformedResponseError(SamplerError):
    """The remote endpoint answered with a bad status or schema."""


class SampleShapeError(SamplerError):
    """A backend returned rows that break the spin rule, ``core._checked_spins``."""


class Sampler(Protocol):
    """Every backend's ``sample`` returns k rows of ``theta``'s n spins, which must keep the
    spin rule, ``core._checked_spins``, for shape ``(k, n)``, else ``SampleShapeError``.
    Every backend and ``estimate_argmin`` check the read count with the count rule,
    ``_integer(k, "k", 1)``, before sampling."""

    def sample(self, theta: WeightMatrix, k: int, rng: np.random.Generator) -> np.ndarray:
        ...


_SPINS = np.array([-1, 1], dtype=SPIN_DTYPE)  # the spin of bit value 0 and 1


def spins_at(n: int, indices: np.ndarray) -> np.ndarray:
    """Spin rows of {-1,+1}^n at the given lexicographic state indices.

    Index 0 is the all -1 vector and indices increase in lexicographic
    order with -1 < +1 (bit n-1-i of the index drives component i).
    """
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return _SPINS[(np.asarray(indices, dtype=np.int64)[:, None] >> shifts) & 1]


@functools.cache
def _spin_table(l: int) -> np.ndarray:
    """Read-only float spin rows of all 2^l states, in lexicographic order.

    Cached because it depends on ``l`` alone and building it is a large
    share of the fixed cost of a small enumeration; ``l <= ENUMERATION_LIMIT
    - ENUMERATION_LIMIT // 2`` keeps the cache under 1 MB.
    """
    table = spins_at(l, np.arange(1 << l)).astype(np.float64)
    table.flags.writeable = False
    return table


def _table_blocks(weights: np.ndarray):
    """Yield the split-bits energy table of a raw weight array as ``(first index, energies)``.

    H is the first ``h = n // 2`` spins and L the last ``l = n - h``. State
    ``a * 2**l + b`` is H's state a followed by L's state b, and its energy
    is ``((Z_H C Z_L^T)[a, b] + E_L[b]) + E_H[a]``, with ``Z_H`` and ``Z_L``
    the spin rows of H's and of L's states. ``E_H`` and ``E_L`` are
    ``energies`` of the two diagonal blocks of the weights, and ``C =
    weights[:h, h:]``, the H-L couplings, lies wholly above the diagonal.
    A block is rows of H holding 2**_BLOCK_BITS states (at least one row),
    and it is one product ``[Z_H C | 1 | E_H] @ [Z_L^T; E_L; 1]`` of about
    ``n / 2`` flops per state. Every term of that product is exact, a
    weight sum times a spin or 1, so a product that sums in index order
    (OpenBLAS's matrix product does; a one-row block's vector product need
    not) has the bits of that three-step sum.
    """
    h, l = weights.shape[0] // 2, (weights.shape[0] + 1) // 2
    z_low = _spin_table(l)
    z_high = z_low[: 1 << h, l - h :]  # Z_H: the last h spins of L's first 2**h states
    # C order: with two BLAS threads, a product on the F-ordered z_low.T took ten times as long
    high, low = np.empty((1 << h, l + 2)), np.empty((l + 2, 1 << l))
    high[:, :l] = z_high @ weights[:h, h:]
    high[:, l], high[:, l + 1] = 1.0, energies(weights[:h, :h], z_high)
    low[:l], low[l], low[l + 1] = z_low.T, energies(weights[h:, h:], z_low), 1.0
    rows = max(1, (1 << _BLOCK_BITS) >> l)
    for row in range(0, 1 << h, rows):
        yield row << l, (high[row : row + rows] @ low).ravel()


def enumerate_minima(weights: np.ndarray) -> np.ndarray:
    """Every minimum-energy state of a raw weight array, by ``_table_blocks``.

    Tie rule: a state is a minimizer when its table energy is within
    ``slack = 4 (n + 2) eps sum|weights|`` of the table minimum. The slack
    bounds the summation-order error of the table and of ``energies``, on
    any BLAS, and scales with the weights, so positive rescaling keeps the
    set. Returns the lexicographic int64 indices of the minimizers in
    increasing order and nothing else. Memory is the spin table of L, the
    two block operands (n/2 + 2 floats per state of a half), one block,
    and 16 bytes per state within the slack of the running minimum.
    Raises ``ValueError`` when ``sum|weights|`` exceeds the limit for finite
    energies (``core._weight_sum``), as NaN and inf do; callers enforce ``ENUMERATION_LIMIT``.
    """
    total = _weight_sum(weights, "sum|weights|")
    slack = 4 * (weights.shape[0] + 2) * np.finfo(np.float64).eps * total
    best = np.inf
    found = []  # (indices, table energies) within the slack of the running minimum
    for first, t in _table_blocks(weights):
        block_min = t.min()
        if block_min < best:
            best = block_min
            found = [(i[e <= best + slack], e[e <= best + slack]) for i, e in found]
        keep = np.flatnonzero(t <= best + slack)
        found.append((first + keep, t[keep]))
    return np.concatenate([i for i, _ in found])


def _check_enumerable(n: int, error: type[Exception] = CapacityError):
    if n > ENUMERATION_LIMIT:
        raise error(
            f"exact enumeration supports at most {ENUMERATION_LIMIT} variables, "
            f"got {n}; use the Metropolis or remote backend instead"
        )


def exact_minimizers(theta: WeightMatrix) -> tuple[np.ndarray, float]:
    """Enumerate the full minimizer set of the energy landscape.

    Returns ``enumerate_minima``'s indices as spin rows, in lexicographic
    order, and the minimum energy, ``energies`` of the first row.
    A state is a minimizer when it is within ``enumerate_minima``'s rounding
    slack of the minimum, so exactly tied states are never split by
    summation order. Only valid up to the enumeration limit.
    """
    _check_enumerable(theta.n)
    minimizers = spins_at(theta.n, enumerate_minima(theta.theta))
    return minimizers, float(energies(theta.theta, minimizers[:1])[0])


@dataclass
class ExactSampler:
    """Oracle backend: every sample is a true minimizer of the landscape.

    It keeps its last one-state landscape, so a call that sees the same
    pulled-back weights under another placement skips the enumeration (see
    ``sample``).
    """

    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def sample(self, theta: WeightMatrix, k: int, rng: np.random.Generator) -> np.ndarray:
        """Return k states drawn uniformly from the exact minimizer set.

        The weights are enumerated as given, in qubit order, by
        ``enumerate_minima`` (ties within its rounding slack). From a set of
        several states the k rows are drawn with one ``rng.integers(0, count,
        size=k)`` call. A one-state set is returned as k copies without drawing from
        the rng, and it is cached: its n logical spins, keyed by the bytes of
        the weights pulled back to the logical frame,
        ``theta.theta[np.ix_(sigma, sigma)]`` with sigma ``theta.placement``
        (the identity when None). A call whose pulled-back weights have the
        same bytes (on a complete graph, the same coefficients under any
        placement) places the cached spins, ``row[sigma] = spins``, without
        enumerating. So the result is a function of the weights, sigma and
        the rng alone, and always a fresh, writable ``(k, n)`` array. Weights
        that differ only in the sign of a zero re-enumerate, to the same rows.
        A call holds what ``enumerate_minima`` holds; between calls the
        sampler keeps 8 n**2 bytes of key and n bytes of spins.
        """
        _check_enumerable(theta.n)
        k = _integer(k, "k", 1)
        n = theta.n
        sigma = np.arange(n) if theta.placement is None else theta.placement
        logical = theta.theta.take(sigma, 0).take(sigma, 1)
        key = logical.tobytes()  # 8 n**2 bytes: equal keys have equal n
        if self._last is None or self._last[0] != key:
            found = enumerate_minima(theta.theta)
            if found.size > 1:
                return spins_at(n, found[rng.integers(0, found.size, size=k)])
            self._last = (key, spins_at(n, found)[0][sigma])  # logical i sits on qubit sigma[i]
        row = np.empty(n, dtype=SPIN_DTYPE)
        row[sigma] = self._last[1]
        return row[None].repeat(k, 0)


# Every derived endpoint is at most this, so 2 * beta is finite: at an
# infinite beta a spin with zero local field would get 0 * inf = NaN.
_BETA_MAX = sys.float_info.max / 4


def _beta_for(log_odds: float, gap: float) -> float:
    """``log_odds / gap``, or ``_BETA_MAX`` where that quotient would exceed it."""
    return log_odds / gap if gap > log_odds / _BETA_MAX else _BETA_MAX


def _auto_beta_range(theta: np.ndarray) -> tuple[float, float]:
    """The beta ramp's endpoints: hot enough to accept the worst single-spin
    move about half the time, cold enough to freeze the smallest nonzero
    single-spin gap."""
    magnitudes = np.abs(theta)
    biases = np.diagonal(magnitudes)
    couplings = magnitudes - np.diag(biases)
    max_gain = 2.0 * (biases + couplings.sum(axis=1)).max()
    if max_gain == 0.0:
        return 1.0, 1.0
    nonzero = magnitudes[magnitudes > 0.0]
    min_gap = 2.0 * nonzero.min()
    hot = _beta_for(np.log(2.0), max_gain)
    cold = max(_beta_for(np.log(100.0), min_gap), hot)
    return hot, cold


@dataclass
class MetropolisSampler:
    """Classical annealed-chain surrogate for the hardware: ``sweeps`` (an
    integer >= 1, else ``ValueError``) sweeps per chain, at geometrically
    spaced betas between the endpoints ``_auto_beta_range`` derives."""

    sweeps: int = 100

    def __post_init__(self):
        self.sweeps = _integer(self.sweeps, "sweeps", 1)

    def sample(self, theta: WeightMatrix, k: int, rng: np.random.Generator) -> np.ndarray:
        """Run k independent annealed Metropolis chains and return their endpoints.

        Each chain starts from a uniform random state and performs one single-spin
        update per variable per sweep; the flip cost uses only the spin's bias and
        incident couplings. A sweep visits the graph's colour classes in order and
        flips each class in one vectorised step: no two spins of a class share an
        edge, so this is the same dynamics as visiting them one by one. The k
        chains advance in lockstep so the whole call is one deterministic function
        of the rng state. A class draws its uniforms spin-major, so when the
        classes are ascending runs of consecutive indices (every complete graph,
        ``chimera:1``) the rng is consumed exactly as by a per-spin sweep in index
        order.

        The chain states are held spin-major, an ``(n, k)`` array whose rows are
        in class order, so every class is a contiguous block of rows. A class's
        local field is the product of its coupling rows with the spins of the
        other classes only: its own columns are zero, since a class is an
        independent set and the diagonal is cleared. The first and the last class
        read the single block of rows after or before them; a class in the middle
        has a complement of two blocks and reads the full row. On a two-class
        graph (every Chimera graph) this halves each product.

        A class step is seven array calls. A flip of spin s in local field f is
        accepted when a uniform u < exp(2 beta s f); as u < 1, no clamp is needed.
        The new spin is copysign(1, (u - exp(2 beta s f)) * 2 beta s): u - e < 0
        exactly when u < e, and u == e gives +0. 2 beta s is formed once per sweep.
        An overflow gives +-inf, whose exp, inf or 0, decides the move exactly.
        """
        k = _integer(k, "k", 1)
        betas = np.geomspace(*_auto_beta_range(theta.theta), self.sweeps)
        n = theta.n
        classes = theta.graph.colour_classes
        order = np.concatenate(classes)
        bounds = np.cumsum([0] + [c.size for c in classes])
        # Permute once so that every class is a contiguous block of rows and columns.
        couplings = theta.theta.take(order, 0).take(order, 1)
        np.fill_diagonal(couplings, 0.0)
        biases = theta.biases[order]

        initial = (2 * rng.integers(0, 2, size=(k, n)) - 1).astype(np.float64)
        states = np.ascontiguousarray(initial.T[order])
        uniforms, beta_spins = np.empty((n, k)), np.empty((n, k))  # filled once per sweep
        steps = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            others = slice(hi, n) if lo == 0 else slice(0, lo) if hi == n else slice(0, n)
            # a full (size, k) operand adds faster than a broadcast column
            bias = np.repeat(biases[lo:hi, None], k, axis=1)
            views = (states[lo:hi], uniforms[lo:hi], beta_spins[lo:hi])
            steps.append((couplings[lo:hi, others], states[others], bias, *views))
        with np.errstate(over="ignore"):  # 2 beta is finite and nonzero, so no NaN
            for beta2 in 2.0 * betas:
                # One draw per sweep: the classes are contiguous blocks of rows, so
                # each slice holds the values a per-class rng.random((size, k)) would.
                rng.random(out=uniforms)
                np.multiply(states, beta2, out=beta_spins)  # a class flips only in its step
                for block, fixed, bias, spins, u, sb in steps:
                    x = block @ fixed
                    x += bias
                    x *= sb  # the bits of (s f) 2 beta: rounding is sign-symmetric
                    np.exp(x, out=x)
                    np.subtract(u, x, out=x)  # negative exactly when the flip is accepted
                    x *= sb
                    np.copysign(1.0, x, out=spins)
        return states[np.argsort(order)].T.astype(SPIN_DTYPE)


@dataclass
class RandomSampler:
    """Worst-case backend: ignores the landscape entirely."""

    def sample(self, theta: WeightMatrix, k: int, rng: np.random.Generator) -> np.ndarray:
        """k uniform random spin vectors."""
        k = _integer(k, "k", 1)
        return _SPINS[rng.integers(0, 2, size=(k, theta.n))]


def _quotient(x: float, y: float) -> tuple[int, float]:
    """``x / y`` for finite ``x > 0`` and ``y > 0`` as ``(e, m)`` with ``x / y = m * 2**e``.

    ``m`` lies in [1, 2) and is the quotient of the two mantissas, rounded
    once, so it holds the bits of ``x / y`` wherever that quotient is a
    normal float; ``e`` is not limited to the float exponent range.
    """
    fx, ex = math.frexp(x)
    fy, ey = math.frexp(y)
    f, e = math.frexp(fx / fy)
    return ex - ey + e - 1, 2.0 * f


def scale_to_ranges(theta: WeightMatrix, delta: float, gamma: float) -> WeightMatrix:
    """Rescale weights so biases fill [-delta, delta] and couplings [-gamma, gamma].

    Divides by the smallest factor ``c = max(max|bias| / delta, max|coupling|
    / gamma)`` that brings every entry inside its range, so at least one
    bound is attained; positive scaling leaves the minimizer set untouched.
    A zero matrix is returned unchanged. ``c`` is formed as a mantissa and an
    unbounded exponent, so neither it nor the result is lost to overflow or
    underflow: when ``c`` is a normal float the result is ``weights / c``,
    and otherwise each entry is divided by the mantissa and scaled by a
    power of two, in the order that keeps every intermediate finite, which
    rounds it once unless the result is subnormal. The rounding of ``c`` can
    send an entry one ulp beyond its bound, so the biases are then clipped
    into [-delta, delta] and the couplings into [-gamma, gamma]; an entry
    already inside keeps its bits.

    The bounds must be positive finite reals; the result is built without
    ``WeightMatrix``'s checks, because dividing a checked matrix by one positive
    scalar and clipping it entrywise keeps it symmetric and zero off the edge
    set, and every entry ends finite and within its bound. Only the weight
    bound can break, as the ranges may be as wide as the largest float, so the
    result is checked against it (``ValueError``, ``sum|weights| is ...``).
    """
    delta, gamma = _real(delta, "delta"), _real(gamma, "gamma")
    if not (0 < delta < math.inf and 0 < gamma < math.inf):
        raise ValueError("range bounds must be positive and finite")
    weights = theta.theta
    bias = np.abs(theta.biases).max()
    coupling = np.abs(np.triu(weights, k=1)).max()
    ratios = [_quotient(x, bound) for x, bound in ((bias, delta), (coupling, gamma)) if x > 0.0]
    if not ratios:
        return theta
    e, m = max(ratios)
    if -1022 <= e <= 1023:  # c = m * 2**e is a normal float, max(bias / delta, coupling / gamma)
        scaled = weights / math.ldexp(m, e)
    elif e > 0:  # dividing by m >= 1 cannot overflow, and the power of two only shrinks
        scaled = np.ldexp(weights / m, -e)
    else:  # |w| * 2**(-e-1) <= bound * m / 2 < bound, so the exact power of two cannot overflow
        scaled = np.ldexp(weights, -e - 1) / (m / 2)
    biases = np.clip(np.diagonal(scaled), -delta, delta)
    np.clip(scaled, -gamma, gamma, out=scaled)
    np.fill_diagonal(scaled, biases)
    _weight_sum(scaled, "sum|weights|")
    return WeightMatrix._trusted(scaled, theta.graph, theta.placement)


def estimate_argmin(
    sampler: Sampler, theta: WeightMatrix, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw k samples and keep the lowest-energy one.

    The rows must keep the spin rule, ``core._checked_spins``, for shape
    ``(k, n)``, else ``SampleShapeError``. All k samples are scored with one
    ``energies`` call; ties are decided by exact float equality and the
    first tied row wins. The rule compares the values of that one call only,
    which are a deterministic function of the samples, so the pick is too;
    values from calls of other sizes could differ in the last ulp and would
    not give a stable rule. When the k rows are identical the first is
    returned unscored: every row has the same spins, so the tie rule would
    pick the same state.
    """
    k = _integer(k, "k", 1)
    samples = _checked_spins(sampler.sample(theta, k, rng), (k, theta.n), error=SampleShapeError)
    if samples.tobytes() == samples[0].tobytes() * k:  # int8; tobytes() is C order in any layout
        return samples[0]
    return samples[int(energies(theta.theta, samples).argmin())]


class RemoteSampler:
    """Client for a JSON-over-HTTP sampling service.

    ``GET {endpoint}/info`` advertises the service's weight ranges; weights
    are rescaled client-side before each ``POST {endpoint}/sample``. Each
    sampler keeps one HTTP session, so a service that keeps connections
    alive answers every call on the same connection. No retries: transport
    failures surface immediately, so ``timeout``, in seconds per request, must
    be a real number (not a bool, a string or None) with ``0 < timeout <=
    threading.TIMEOUT_MAX``, the longest wait Python can time, else
    ``ValueError`` from the constructor; it is kept as a float. Its own errors:
    any ``OSError`` from the transport (``requests.RequestException`` is one)
    ``TransportError``; bad status, JSON, energies or ``/info``
    (``max_nodes`` >= 1) ``MalformedResponseError``. ``requests`` is imported
    when the first sampler is built, not with this module, so local runs never
    load the HTTP stack.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        timeout = _real(timeout, "timeout")
        if not 0 < timeout <= threading.TIMEOUT_MAX:  # NaN and inf fail here
            raise ValueError(f"timeout {timeout!r} is not in (0, {threading.TIMEOUT_MAX}] seconds")
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self._info = None
        import requests  # not at module top (class docstring), nor on self: a module does not pickle

        self._session = requests.Session()

    def info(self) -> dict:
        if self._info is None:
            try:
                r = self._session.get(f"{self.endpoint}/info", timeout=self.timeout)
            except OSError as exc:
                raise TransportError(f"cannot reach {self.endpoint}/info: {exc}") from exc
            self._info = self._parse_info(r)
        return self._info

    @staticmethod
    def _parse_info(r) -> dict:
        if r.status_code != 200:
            raise MalformedResponseError(f"info returned status {r.status_code}")
        try:
            payload = r.json()
            info = {
                name: payload[name] for name in ("delta", "gamma", "topology", "max_nodes")
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponseError(f"bad info payload: {exc}") from exc
        for name in ("delta", "gamma"):
            value = info[name]
            # type(), not isinstance(): a JSON true must not pass as 1; the
            # upper bound also keeps float() from overflowing on a huge integer
            if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
                raise MalformedResponseError(
                    f"bad info payload: {name} must be a positive finite number, got {value!r}"
                )
            info[name] = float(value)
        if not isinstance(info["topology"], str):
            raise MalformedResponseError(
                f"bad info payload: topology must be a string, got {info['topology']!r}"
            )
        max_nodes = info["max_nodes"]
        # type(), not isinstance(): a JSON true must not pass as 1; inf % 1 and NaN fail
        if type(max_nodes) not in (int, float) or not (max_nodes >= 1 and max_nodes % 1 == 0):
            raise MalformedResponseError(
                f"bad info payload: max_nodes must be an integer of at least 1, got {max_nodes!r}"
            )
        nodes = info["max_nodes"] = int(max_nodes)
        # the largest sum|weights| the ranges admit on max_nodes nodes, exact in rationals:
        # delta on each of the n diagonal entries, gamma on each of the n (n - 1) others
        widest = nodes * Fraction(info["delta"]) + nodes * (nodes - 1) * Fraction(info["gamma"])
        if widest > _WEIGHT_SUM_LIMIT:
            raise MalformedResponseError(
                f"bad info payload: delta {info['delta']!r} and gamma {info['gamma']!r} admit "
                f"weights on {nodes} nodes whose sum exceeds the limit {_WEIGHT_SUM_LIMIT:.3g} "
                "for finite energies"
            )
        return info

    def sample(self, theta: WeightMatrix, k: int, rng=None) -> np.ndarray:
        k = _integer(k, "k", 1)  # before info(), so a bad k sends no request
        info = self.info()
        n = theta.n
        if n > info["max_nodes"]:
            raise CapacityError(
                f"service accepts at most {info['max_nodes']} nodes, got {n}"
            )
        scaled = scale_to_ranges(theta, info["delta"], info["gamma"])
        couplings = [
            [int(i), int(j), float(scaled.theta[i, j])]
            for i, j in sorted(scaled.graph.edges)
            if scaled.theta[i, j] != 0.0
        ]
        request = {
            "n": n,
            "biases": [float(b) for b in scaled.biases],
            "couplings": couplings,
            "num_reads": k,
        }
        try:
            r = self._session.post(f"{self.endpoint}/sample", json=request, timeout=self.timeout)
        except OSError as exc:
            raise TransportError(f"cannot reach {self.endpoint}/sample: {exc}") from exc
        if r.status_code != 200:
            raise MalformedResponseError(f"sample returned status {r.status_code}")
        try:
            payload = r.json()
            samples, reported = payload["samples"], payload["energies"]
            if not isinstance(reported, list):
                raise MalformedResponseError("service returned energies that are not a list")
            reported = [float(e) for e in reported]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponseError(f"bad sample payload: {exc}") from exc
        if not all(math.isfinite(e) for e in reported):
            raise MalformedResponseError("service returned non-finite energies")
        if len(reported) != k:
            raise MalformedResponseError(f"service returned {len(reported)} energies for {k} reads")
        return _checked_spins(samples, (k, n), error=SampleShapeError)
