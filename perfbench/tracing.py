"""Span tracing for the traced run, installed from outside the program.

``solve`` looks its helpers up as globals of ``qals.solver`` on every call, so
replacing those names with timing wrappers traces each layer boundary without
touching the package. The sampler is wrapped as an object. Every wrapped call
records a span ``[name, parent, start_ns, end_ns]`` in memory; a span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import qals.core
import qals.samplers
import qals.solver

ROOT = "solver.solve"
SAMPLE = "samplers.sample"

# Name that solve looks up in qals.solver -> (module that defines it, span name).
WRAPPED = {
    "encode": (qals.core, "core.encode"),
    "decode": (qals.core, "core.decode"),
    "objective": (qals.core, "core.objective"),
    "tabu_update": (qals.core, "core.tabu_update"),
    "estimate_argmin": (qals.samplers, "samplers.argmin"),
    "modify_permutation": (qals.solver, "solver.modify_permutation"),
    "perturb_candidate": (qals.solver, "solver.perturb_candidate"),
    "accept_suboptimal": (qals.solver, "solver.accept_suboptimal"),
}
ORIGINALS = {name: getattr(home, name) for name, (home, _) in WRAPPED.items()}


def assert_untraced() -> None:
    """Raise unless every name solve looks up is the package's own function."""
    for name, fn in ORIGINALS.items():
        if getattr(qals.solver, name) is not fn:
            raise RuntimeError(f"qals.solver.{name} is still wrapped")


class Tracer:
    """Spans of one traced solve, plus the sample arrays the sampler returned."""

    def __init__(self):
        self.spans = []
        self.samples = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0, 0]
            open_.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()

        return traced


class TracedSampler:
    """Stands in for a sampler: times each call and keeps what it returned."""

    def __init__(self, inner, tracer: Tracer):
        self._sample = tracer.wrap(SAMPLE, inner.sample)
        self._samples = tracer.samples

    def sample(self, theta, k, rng):
        rows = self._sample(theta, k, rng)
        self._samples.append(rows)
        return rows


@contextmanager
def installed(tracer: Tracer):
    """Wrap every name in WRAPPED for the duration of the block."""
    try:
        for name, (_, span) in WRAPPED.items():
            setattr(qals.solver, name, tracer.wrap(span, ORIGINALS[name]))
        yield
    finally:
        for name, fn in ORIGINALS.items():
            setattr(qals.solver, name, fn)


def traced_solve(problem, graph, sampler, params):
    """One solve with every layer wrapped; returns (report, tracer)."""
    tracer = Tracer()
    with installed(tracer):
        solve = tracer.wrap(ROOT, qals.solver.solve)
        report = solve(problem, graph, TracedSampler(sampler, tracer), params, record_trace=True)
    assert_untraced()
    return report, tracer


def fold(spans, totals: dict) -> None:
    """Add each span's call, duration and self time into ``totals[name]``."""
    children = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    for (name, _, start, end), child in zip(spans, children):
        calls, total, own = totals.get(name, (0, 0, 0))
        totals[name] = (calls + 1, total + end - start, own + end - start - child)


def distinct_rows(samples) -> int:
    """Distinct spin rows summed over sampler calls."""
    return sum(np.unique(rows, axis=0).shape[0] for rows in samples)
