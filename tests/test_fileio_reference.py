"""The instance file reader and writer against line-by-line references.

``parse_qubo_file`` and ``format_qubo_file`` below are the package's earlier
versions, kept verbatim: the parser checks every rule on each line as it
reads it, and the writer reads the upper triangle entry by entry. The package
reads and writes by columns instead. For every text both parsers must return
the same matrix bytes or raise the same error, and for every problem without a
multi-line comment both writers must emit the same text.
"""

import hashlib
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qals import QuboProblem
from qals import fileio
from qals.cli import main
from qals.core import _WEIGHT_SUM_LIMIT
from qals.fileio import ParseError


def parse_qubo_file(text: str) -> QuboProblem:
    """Parse the ``qubo <n>`` instance format.

    Body lines are ``i j value`` with 0-based indices, i <= j; omitted pairs
    are zero and the matrix is completed symmetrically.
    """
    n = None
    q = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
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
            raise ParseError(f"line {lineno}: expected 'i j value'")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            value = float(tokens[2])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed entry") from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value {tokens[2]!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"line {lineno}: index out of range for n={n}")
        if i > j:
            raise ParseError(f"line {lineno}: entries must have i <= j")
        if (i, j) in seen:
            raise ParseError(f"line {lineno}: duplicate entry ({i}, {j})")
        seen.add((i, j))
        q[i, j] = q[j, i] = value
    if n is None:
        raise ParseError("missing header line 'qubo <n>'")
    return QuboProblem(q)


def format_qubo_file(problem: QuboProblem, header_comment: str | None = None) -> str:
    """Emit an instance in the ``qubo <n>`` format (nonzero upper triangle)."""
    out = io.StringIO()
    if header_comment:
        out.write(f"# {header_comment}\n")
    out.write(f"qubo {problem.n}\n")
    for i in range(problem.n):
        for j in range(i, problem.n):
            v = float(problem.q[i, j])
            if v != 0.0:
                out.write(f"{i} {j} {v!r}\n")
    return out.getvalue()


def outcome(parse, text):
    """The matrix bytes a parser returns, or the type and message of what it raises."""
    try:
        return parse(text).q.tobytes()
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)


HEADERS = 8 * ["qubo 2", "qubo 3", "qubo 4"] + [
    "qubo 1", "qubo\t3", " qubo 03 ", "qubo", "qubo 0", "qubo -2", "qubo x", "qubo 3.0",
    "qubo 3 3", "ising 3", "QUBO 3",
    "qubo 10000000000", "qubo 100000000000000000000",  # too large for an (n, n) matrix
]
INDICES = 8 * ["0", "1", "2", "3"] + [
    "+1", "01", "1_0", "-1", "7",
    "100000000000000000000", "-100000000000000000000", "x", "1.5", "1e3",
]
VALUES = 4 * ["1.0", "-2.5", "0.0"] + [
    "0", "-0.0", "3", "1e-310", "5e-324", "1e306", "1e308",
    "nan", "NaN", "inf", "-inf", "1e999", "x", "1.5.0", "0x10", "1_000.5",
]


@st.composite
def instance_lines(draw):
    """One line of an instance file: mostly ``i j value``, sometimes too few or
    too many tokens, a comment or blank; tokens include bad numbers, non-finite
    values and indices that are negative, huge or in the lower triangle."""
    kind = draw(st.sampled_from(["entry"] * 6 + ["tokens", "comment", "blank"]))
    if kind == "entry":
        tokens = [draw(st.sampled_from(INDICES)) for _ in "ij"] + [draw(st.sampled_from(VALUES))]
    elif kind == "tokens":
        tokens = draw(st.lists(st.sampled_from(INDICES + VALUES), max_size=5))
    else:
        tokens = []
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
    line = draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens)
    if kind == "comment" or draw(st.booleans()) and draw(st.booleans()):
        line += draw(st.sampled_from(["#", "# c", "  # 0 1 1.0", "#qubo 2"]))
    return line


@st.composite
def instance_texts(draw):
    lines = draw(st.lists(st.sampled_from(["# instance", "", "  "]), max_size=2))
    if draw(st.integers(0, 9)):
        lines.append(draw(st.sampled_from(HEADERS)))
    lines += draw(st.lists(instance_lines(), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=600)
@given(instance_texts())
def test_parser_agrees_with_the_line_by_line_reference(text):
    assert outcome(fileio.parse_qubo_file, text) == outcome(parse_qubo_file, text)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 6))
    widest = _WEIGHT_SUM_LIMIT / (2 * n * n)  # every such Q is within the weight bound
    special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, widest, -widest])
    values = draw(st.lists(special | st.floats(-widest, widest), min_size=n * n, max_size=n * n))
    a = np.array(values).reshape(n, n)
    return QuboProblem(np.triu(a) + np.triu(a, 1).T)


@given(problems(), st.none() | st.text().filter(lambda c: c == "".join(c.splitlines())))
def test_writer_agrees_with_the_entry_by_entry_reference(problem, comment):
    assert fileio.format_qubo_file(problem, comment) == format_qubo_file(problem, comment)


def test_gen_output_is_pinned(capsys):
    assert main(["gen", "--n", "128", "--seed", "7"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "76f1b5181f79d3b8c3b5c1d164245117406a690dbcc338e58f39eb3036b715ee"
