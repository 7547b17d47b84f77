"""Seeded reports keep their bytes: "same seed, same report" as a standing check.

Each case solves a fixed instance with ``record_trace=True`` and compares the
sha256 of ``solve_report_to_json`` with a digest recorded when the case was
added. A change to the loop, a sampler or the report format that alters a
single byte of any report, or how any rng stream is consumed, fails here.
Half of the cases use quarter-integer weights. Their objective values are
exact sums, but the coefficients ``Q + lambda * S`` are not dyadic once
``lambda = lambda0 / (2 + i - e)``, so even these runs can depend on summation
order: the digests hold on one machine and BLAS kernel, not on every kernel.
"""

import hashlib

import numpy as np
import pytest

from qals import QalsParams, QuboProblem, random_qubo, solve
from qals.fileio import solve_report_to_json
from qals.harness import make_graph, make_sampler


def _instance(n, weights, seed):
    q = random_qubo(n, 0.6, (-1.0, 1.0), np.random.default_rng(seed)).q
    if weights == "quarter":
        q = np.round(4 * q) / 4
    elif weights == "ties":  # entries in {-1, 0, 1}: many tied minimizers
        q = np.round(q)
    return QuboProblem(q)


# (sampler, graph, n, weights, instance seed, i_max, solve seed, sha256 of the report)
CASES = [
    ("exact", "complete", 12, "uniform", 1, 200, 11,
        "5d239c5e2ae2fba801dc26a2c8732568f34e731e0b2b7a33584264006108708a",
    ),
    ("exact", "chimera:1", 8, "quarter", 2, 200, 12,
        "ceb51cffa197bae8679fc6ca1c10ccb079894399b3cd66db18847f28d3026a80",
    ),
    ("exact", "complete", 10, "ties", 3, 200, 13,
        "ad6e76b1972bff6cb362b5ff1ec9cce1db9c500134d3cc9f6806f9c9bc0a120f",
    ),
    ("random", "complete", 8, "uniform", 4, 300, 14,
        "9134da30ef79a488d3228e6c3ade45e6689bfc378d10d8f8a67c788ce7e6ac04",
    ),
    ("random", "complete", 8, "quarter", 5, 300, 15,
        "97500bc9cd241f78dd99b3b17d14925979bc09a5139211f7cb2be357e69e5171",
    ),
    ("sa", "chimera:1", 8, "uniform", 6, 40, 16,
        "00e959a28edc64297190181299d27ed86380e8ba0b6eb7fdb576a7081c027b98",
    ),
]


@pytest.mark.parametrize(
    "sampler, graph, n, weights, instance, i_max, seed, digest",
    CASES,
    ids=[f"{c[0]}-{c[1]}-n{c[2]}-{c[3]}" for c in CASES],
)
def test_seeded_report_bytes_are_pinned(sampler, graph, n, weights, instance, i_max, seed, digest):
    report = solve(
        _instance(n, weights, instance),
        make_graph(graph, n),
        make_sampler(sampler),
        QalsParams(i_max=i_max, seed=seed),
        record_trace=True,
    )
    assert hashlib.sha256(solve_report_to_json(report).encode()).hexdigest() == digest
