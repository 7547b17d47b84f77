"""Instance files, experiment configs, and report serialization."""

import dataclasses
import json

import numpy as np
import pytest

from qals import ExperimentSpec, random_qubo
from qals.fileio import (
    ParseError,
    experiment_report_to_csv,
    experiment_report_to_dict,
    format_qubo_file,
    parse_experiment_config,
    parse_qubo_file,
)
from qals.harness import run_experiment


def test_parse_identity():
    p = parse_qubo_file("qubo 2\n0 0 1.0\n1 1 1.0\n")
    np.testing.assert_array_equal(p.q, np.eye(2))


def test_parse_symmetric_completion():
    p = parse_qubo_file("qubo 2\n0 1 1.0\n")
    np.testing.assert_array_equal(p.q, [[0.0, 1.0], [1.0, 0.0]])


def test_parse_rejects_lower_triangle():
    with pytest.raises(ParseError, match="line 2"):
        parse_qubo_file("qubo 2\n1 0 1.0\n")


def test_parse_rejects_duplicates():
    with pytest.raises(ParseError, match="duplicate"):
        parse_qubo_file("qubo 2\n0 1 1.0\n0 1 2.0\n")


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_qubo_file("qubo 2\n0 5 1.0\n")


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_qubo_file("ising 2\n")
    with pytest.raises(ParseError):
        parse_qubo_file("")


@pytest.mark.parametrize(
    "text, match",
    [
        ("qubo x\n", "line 1: size is not an integer"),
        ("qubo 0\n", "line 1: size must be positive"),
        ("qubo 2\n0 1\n", "line 2: expected 'i j value'"),
        ("qubo 2\n0 1 1.0 2\n", "line 2: expected 'i j value'"),
        ("qubo 2\n0 1 x\n", "line 2: malformed entry"),
        ("qubo 2\n0 1.5 1.0\n", "line 2: malformed entry"),
    ],
)
def test_parse_rejects_malformed_lines(text, match):
    with pytest.raises(ParseError, match=match):
        parse_qubo_file(text)


def test_parse_comments_and_blank_lines():
    text = "# instance\nqubo 3\n\n0 2 -1.5  # coupling\n"
    p = parse_qubo_file(text)
    assert p.q[0, 2] == -1.5 and p.q[2, 0] == -1.5


def test_roundtrip_is_bit_exact():
    rng = np.random.default_rng(123)
    for _ in range(10):
        problem = random_qubo(int(rng.integers(1, 12)), 0.6, (-3.0, 3.0), rng)
        back = parse_qubo_file(format_qubo_file(problem))
        np.testing.assert_array_equal(back.q, problem.q)


def test_config_defaults_and_overrides():
    spec = parse_experiment_config(
        "n = 6\ndensity = 0.4\nrange = -2:2\nreplicas = 4\n"
        "backend = exact\ngraph = complete\nseed = 9\ni_max = 50\n"
    )
    assert spec.n == 6
    assert spec.coeff_range == (-2.0, 2.0)
    assert spec.replicas == 4
    assert spec.params.seed == 9
    assert spec.params.i_max == 50
    assert spec.params.eta == 0.01  # untouched default


def test_config_comments_and_success_is_an_unknown_key():
    spec = parse_experiment_config("# cfg\nn = 26\nbackend = random  # no oracle\n")
    assert (spec.n, spec.backend) == (26, "random")
    for value in ("false", "true"):
        with pytest.raises(ParseError, match="line 3: unknown key 'success'"):
            parse_experiment_config(f"# cfg\nn = 4\nsuccess = {value}\n")


def test_every_spec_field_has_a_config_key():
    # one non-default value per ExperimentSpec field, with the config line that sets it
    lines = {
        "n": ("n = 3", 3),
        "density": ("density = 0.0", 0.0),
        "coeff_range": ("range = -2.5:4", (-2.5, 4.0)),
        "replicas": ("replicas = 7", 7),
        "backend": ("backend = exact", "exact"),
        "graph": ("graph = chimera:1", "chimera:1"),
    }
    fields = [f for f in dataclasses.fields(ExperimentSpec) if f.name != "params"]
    assert [f.name for f in fields] == list(lines)
    spec = parse_experiment_config("".join(line + "\n" for line, _ in lines.values()))
    for f in fields:
        assert f.default is dataclasses.MISSING or f.default != lines[f.name][1], f.name
        assert getattr(spec, f.name) == lines[f.name][1], f.name


def test_config_unknown_key():
    with pytest.raises(ParseError, match="unknown key"):
        parse_experiment_config("n = 4\nweird = 1\n")


def test_config_line_without_equals():
    with pytest.raises(ParseError, match="line 2: expected 'key = value'"):
        parse_experiment_config("n = 4\nreplicas 2\n")


def test_config_requires_n():
    with pytest.raises(ParseError, match="must set n"):
        parse_experiment_config("density = 0.5\n")


def test_config_bad_value():
    with pytest.raises(ParseError, match="line 1"):
        parse_experiment_config("n = lots\n")


def test_experiment_report_serialization_shapes():
    spec = parse_experiment_config(
        "n = 4\nreplicas = 2\nbackend = exact\ni_max = 100\nseed = 3\n"
    )
    report = run_experiment(spec)
    d = experiment_report_to_dict(report)
    assert set(d) == {"spec", "oracle_value", "replicas", "aggregates"}
    assert len(d["replicas"]) == 2
    json.dumps(d)  # serializable

    csv = experiment_report_to_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "replica,seed,f_best,success,iters_to_opt,millis"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "3"
