"""Reference algebra and bad inputs that only the tests use."""

import re

import numpy as np

from qals.core import TabuMatrix, is_permutation
from qals.topology import TopologyGraph


def conjugate_tabu(s: TabuMatrix, sigma: np.ndarray) -> TabuMatrix:
    """Relabel the tabu matrix so entry (i, j) moves to (sigma[i], sigma[j]).

    Equals the tabu matrix that the sigma-relabeled candidates would have
    generated directly.
    """
    sigma = np.asarray(sigma)
    if sigma.size != s.n or not is_permutation(sigma):
        raise ValueError("sigma is not a permutation of the tabu matrix's indices")
    out = np.zeros_like(s.s)
    out[np.ix_(sigma, sigma)] = s.s
    return TabuMatrix(out, m=s.m)


def degrees(graph: TopologyGraph) -> np.ndarray:
    """The degree of every node, counted over the endpoints of ``graph.edges``."""
    return np.bincount(np.array(list(graph.edges), dtype=np.int64).ravel(), minlength=graph.n)


def _with_last(shape, dtype, value):
    out = np.ones(shape, dtype=dtype)
    out.flat[-1] = value
    return out


def bad_spins(shape: tuple) -> list:
    """``(label, values, message)`` for values that break the spin rule at ``shape``,
    (n,) or (k, n): ``message`` is the end of the rule's message. The entry values
    include three that a conversion to int8 would wrap onto -1 or +1."""
    longer_row = [1] * (shape[-1] + 1) if len(shape) == 2 else [1, 1]
    numbers = r"\S+ entries, expected numbers"  # the dtype, then this
    spins = r"entries other than -1/\+1"
    return [
        ("bool", np.ones(shape, dtype=bool), numbers),
        ("complex", _with_last(shape, complex, 1j), numbers),  # |1j| == 1, as int8 a 0 spin
        ("object", np.ones(shape, dtype=object), numbers),
        ("str", np.full(shape, "1"), numbers),
        ("ragged", np.ones(shape, dtype=int).tolist()[:-1] + [longer_row], "entries that form no array"),
        ("extra axis", np.ones((1, *shape), dtype=np.int8), re.escape(f"shape {(1, *shape)}")),
        ("half", _with_last(shape, float, 0.5), spins),
        ("three", _with_last(shape, int, 3), spins),
        ("zero", _with_last(shape, np.int8, 0), spins),
        ("two", _with_last(shape, np.int8, 2), spins),
        ("int8 -128", _with_last(shape, np.int8, -128), spins),
        ("uint8 255", _with_last(shape, np.uint8, 255), spins),
        ("int16 257", _with_last(shape, np.int16, 257), spins),
    ]
