"""Reference algebra that only the tests use."""

import numpy as np

from qals.core import TabuMatrix, is_permutation


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
