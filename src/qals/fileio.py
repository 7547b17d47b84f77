"""Text formats: QUBO instance files, experiment configs, report JSON/CSV."""

from __future__ import annotations

import dataclasses
import json
import math
import operator

import numpy as np

from .core import QalsParams, QuboProblem, SolveReport
from .harness import ExperimentReport, ExperimentSpec


class ParseError(ValueError):
    pass


def parse_qubo_file(text: str) -> QuboProblem:
    """Parse the ``qubo <n>`` instance format.

    Body lines are ``i j value`` with 0-based indices, i <= j; omitted pairs
    are zero and the matrix is completed symmetrically. An error names the
    first offending line; within a line the checks run in the order token
    count, syntax, finite value, index range, i <= j, duplicate pair.
    """
    q, rows, cols, values = None, [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if q is None:
            if len(tokens) != 2 or tokens[0] != "qubo":
                raise ParseError(f"line {lineno}: expected header 'qubo <n>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: size is not an integer") from None
            if n < 1:
                raise ParseError(f"line {lineno}: size must be positive")
            try:
                q = np.zeros((n, n))
            except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
                raise ParseError(f"line {lineno}: size {n} is too large for an (n, n) matrix") from None
            continue
        if len(tokens) != 3:
            raise _first_error(text, rows, cols, values, n, f"line {lineno}: expected 'i j value'")
        try:
            i, j, value = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise _first_error(text, rows, cols, values, n, f"line {lineno}: malformed entry") from None
        rows.append(i)
        cols.append(j)
        values.append(value)
    if q is None:
        raise ParseError("missing header line 'qubo <n>'")
    # min(i) >= 0, max(j) < n and i <= j put every index in range, so in np.intp
    if rows and not (min(rows) >= 0 and max(cols) < n and all(map(operator.le, rows, cols))):
        raise _first_error(text, rows, cols, values, n)
    i, j, v = np.fromiter(rows, np.intp), np.fromiter(cols, np.intp), np.fromiter(values, float)
    keys = np.sort(i * n + j)  # a pair repeats iff its key does
    if not np.isfinite(v).all() or (keys[1:] == keys[:-1]).any():
        raise _first_error(text, rows, cols, values, n)
    q[i, j] = q[j, i] = v
    return QuboProblem(q)


def _first_error(text, rows, cols, values, n, fault=None) -> ParseError:
    """The error of the first entry that breaks a rule, else ``fault``, that of the line after them."""
    lines = [(k, t) for k, line in enumerate(text.splitlines(), 1) if (t := line.split("#", 1)[0].split())]
    seen = set()
    for (lineno, tokens), i, j, value in zip(lines[1:], rows, cols, values):  # after the header
        if not math.isfinite(value):
            return ParseError(f"line {lineno}: non-finite value {tokens[2]!r}")
        if not (0 <= i < n and 0 <= j < n):
            return ParseError(f"line {lineno}: index out of range for n={n}")
        if i > j:
            return ParseError(f"line {lineno}: entries must have i <= j")
        if (i, j) in seen:
            return ParseError(f"line {lineno}: duplicate entry ({i}, {j})")
        seen.add((i, j))
    return ParseError(fault)


def format_qubo_file(problem: QuboProblem, header_comment: str | None = None) -> str:
    """Emit the ``qubo <n>`` format (nonzero upper triangle) under one ``# `` line per comment line."""
    rows, cols = np.nonzero(np.triu(problem.q))  # in row-major order; -0.0 counts as zero
    comment = "".join(f"# {line}\n" for line in (header_comment or "").splitlines())
    entries = zip(rows.tolist(), cols.tolist(), problem.q[rows, cols].tolist())
    return f"{comment}qubo {problem.n}\n" + "".join([f"{i} {j} {v!r}\n" for i, j, v in entries])


def load_qubo_file(path) -> QuboProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_qubo_file(fh.read())


def parse_range(text: str) -> tuple[float, float]:
    """``LO:HI`` as a pair of floats, the syntax of ``qals gen --range`` and the config's ``range``."""
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ParseError(f"bad range {text!r}, expected LO:HI") from None


_SPEC_KEYS = {"n": int, "density": float, "replicas": int, "backend": str, "graph": str}
_PARAM_KEYS = {f.name: type(f.default) for f in dataclasses.fields(QalsParams)}


def parse_experiment_config(text: str) -> ExperimentSpec:
    """Parse flat ``key = value`` experiment configuration lines, each key at most once."""
    spec_kwargs, param_kwargs, seen = {}, {}, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key in _SPEC_KEYS:
                spec_kwargs[key] = _SPEC_KEYS[key](value)
            elif key in _PARAM_KEYS:
                param_kwargs[key] = _PARAM_KEYS[key](value)
            elif key == "range":
                spec_kwargs["coeff_range"] = parse_range(value)
            else:
                raise ParseError(f"unknown key {key!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ParseError(f"line {lineno}: bad value for {key!r}") from None
    if "n" not in spec_kwargs:
        raise ParseError("config must set n")
    try:
        return ExperimentSpec(params=QalsParams(**param_kwargs), **spec_kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def solve_report_to_dict(report: SolveReport) -> dict:
    return {
        "n": report.n,
        "seed": report.seed,
        "z_returned": [int(v) for v in report.z_returned],
        "f_returned": report.f_returned,
        "z_best": [int(v) for v in report.z_best],
        "f_best": report.f_best,
        "iterations": report.iterations,
        "evaluations": report.evaluations,
        "best_found_at": report.best_found_at,
        "tabu_m": report.tabu.m,
        "trace": report.trace,
    }


def solve_report_to_json(report: SolveReport) -> str:
    return json.dumps(solve_report_to_dict(report), indent=2)


def experiment_report_to_dict(report: ExperimentReport) -> dict:
    return {
        "spec": dataclasses.asdict(report.spec),
        "oracle_value": report.oracle_value,
        "replicas": [dataclasses.asdict(r) for r in report.replicas],
        "aggregates": {
            "success_rate": report.success_rate,
            "iters_to_opt_quantiles": report.iters_to_opt_quantiles,
        },
    }


def experiment_report_to_json(report: ExperimentReport) -> str:
    return json.dumps(experiment_report_to_dict(report), indent=2)


def experiment_report_to_csv(report: ExperimentReport) -> str:
    lines = ["replica,seed,f_best,success,iters_to_opt,millis"]
    for r in report.replicas:
        success = "" if r.success is None else str(r.success).lower()
        iters = "" if r.iters_to_opt is None else str(r.iters_to_opt)
        lines.append(f"{r.replica},{r.seed},{r.f_best!r},{success},{iters},{r.millis:.3f}")
    return "\n".join(lines) + "\n"
