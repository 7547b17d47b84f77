"""Calibration kernels: fixed work timed beside the solves to track machine speed.

The shared machine the benchmark was built on changes speed by up to 2x over
seconds to minutes, which no amount of repetition inside one run removes.
So each workload names a kernel whose slowdowns follow its own (chosen by
measurement: pure interpreter work for the loop- and Metropolis-bound
workloads, dense energy blocks for exhaustive enumeration; instance set-up
is matched separately), the kernel is timed before and after every replica
and every instance set-up, and timings are reported at the reference speed:
the speed at which the kernel takes REFERENCE_NS.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_NS = 10_000_000

_BLOCK = np.where(np.arange(1 << 14)[:, None] >> np.arange(16) & 1, 1.0, -1.0)
_COUPLINGS = np.linspace(-1.0, 1.0, 256).reshape(16, 16)


def _interpreter() -> float:
    acc, table = 0, {}
    for i in range(60_000):
        acc = (acc + 7 * i) % 1_000_003
        table[i & 255] = acc
    return float(acc)


def _dense() -> float:
    return float(sum(((_BLOCK @ _COUPLINGS) * _BLOCK).sum(axis=1).min() for _ in range(8)))


KERNELS = {"interpreter": _interpreter, "dense": _dense}


def calibrate(kind: str) -> float:
    """Nanoseconds the named kernel takes now; ``both`` is the mean of the two."""
    if kind == "both":
        return (calibrate("interpreter") + calibrate("dense")) / 2
    kernel = KERNELS[kind]
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def at_reference(ns: float, calibration_ns: float) -> float:
    """A duration measured while the kernel took ``calibration_ns``, at the reference speed."""
    return ns * REFERENCE_NS / calibration_ns
