"""The qals command-line interface."""

import dataclasses
import json

import pytest

from qals import ExactSampler, QalsParams, cli, complete_graph, harness, solve
from qals.cli import main
from qals.fileio import parse_experiment_config, parse_qubo_file, solve_report_to_json

PAIR = "qubo 2\n0 1 1.0\n"


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.qubo"
    path.write_text(PAIR)
    return str(path)


def test_gen_output_parses_and_roundtrips(capsys):
    argv = ["gen", "--n", "5", "--density", "0.5", "--range=-2:2", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    problem = parse_qubo_file(first)
    assert problem.n == 5
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_solve_exact_pair(pair_file, capsys):
    assert main(["solve", pair_file, "--sampler", "exact", "--i-max", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "f_best: -2.0" in out
    assert out.splitlines()[1].startswith("z_best:")


def test_solve_json_deterministic_per_backend(pair_file, capsys):
    for sampler in ("exact", "sa", "random"):
        argv = ["solve", pair_file, "--sampler", sampler, "--i-max", "30", "--seed", "9", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["n"] == 2
        assert report["f_best"] == -2.0
        assert report["trace"] is None


def test_solve_json_without_trace_prints_the_report_with_null_trace(pair_file, capsys):
    argv = ["solve", pair_file, "--sampler", "exact", "--i-max", "5", "--seed", "3"]
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    problem = parse_qubo_file(PAIR)
    report = solve(problem, complete_graph(2), ExactSampler(), QalsParams(i_max=5, seed=3))
    assert out == solve_report_to_json(report) + "\n"
    assert '"trace": null' in out


def test_solve_trace_implies_json(pair_file, capsys):
    argv = ["solve", pair_file, "--sampler", "exact", "--i-max", "5", "--trace"]
    assert main(argv) == 0
    implied = capsys.readouterr().out
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == implied
    report = json.loads(implied)
    assert len(report["trace"]) == report["iterations"] > 0


def test_solve_trace_in_json(pair_file, capsys):
    argv = ["solve", pair_file, "--sampler", "exact", "--i-max", "5", "--trace", "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["trace"]) == report["iterations"]
    assert {"i", "p", "lam", "f_prime", "accepted", "e", "d"} <= set(report["trace"][0])


def test_solve_chimera_graph_size_mismatch(pair_file, capsys):
    assert main(["solve", pair_file, "--graph", "chimera:1"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_checks_a_graph_file_size_before_building_the_graph(pair_file, tmp_path, capsys):
    # a mask of 10^18 entries cannot be built: the header alone must decide
    path = tmp_path / "huge.edges"
    path.write_text("n 1000000000\n0 1\n")
    assert main(["solve", pair_file, "--graph", f"file:{path}"]) == 1
    err = capsys.readouterr().err
    assert err == "qals: error: graph has 1000000000 nodes but the problem has 2 variables\n"


def test_solve_on_chimera_cell(tmp_path, capsys):
    rows = ["qubo 8"] + [f"{i} {i} 1.0" for i in range(8)]
    path = tmp_path / "cell.qubo"
    path.write_text("\n".join(rows) + "\n")
    argv = ["solve", str(path), "--graph", "chimera:1", "--sampler", "exact", "--i-max", "20"]
    assert main(argv) == 0
    assert "f_best: 8.0" in capsys.readouterr().out


def test_oracle_pair(pair_file, capsys):
    assert main(["oracle", pair_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "minimum: -2.0"
    assert out[1] == "minimizer: -1 1"


def test_oracle_on_a_size_too_large_for_a_matrix_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.qubo"
    path.write_text("qubo 1000000000\n0 1 1.0\n")
    assert main(["oracle", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "qals: error: line 1: size 1000000000 is too large for an (n, n) matrix\n"


def test_oracle_missing_file(capsys):
    assert main(["oracle", "/nonexistent/path.qubo"]) == 1
    assert capsys.readouterr().err


def test_bad_instance_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.qubo"
    path.write_text("qubo 2\n1 0 1.0\n")
    assert main(["solve", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "command", [["solve", "--sampler", "sa"], ["solve", "--sampler", "exact"], ["oracle"]]
)
def test_non_finite_instance_exits_one(tmp_path, capsys, value, command):
    path = tmp_path / "bad.qubo"
    path.write_text(f"qubo 2\n0 1 {value}\n")
    assert main([command[0], str(path), *command[1:]]) == 1
    assert "line 2: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda0_exits_one(pair_file, capsys, value):
    assert main(["solve", pair_file, "--lambda0", value]) == 1
    assert "lambda0" in capsys.readouterr().err


# one valid non-default value per QalsParams field, with the flag that sets it
PARAM_VALUES = {
    "p_delta": ("--p-delta", 0.25),
    "eta": ("--eta", 0.5),
    "q": ("--q", 0.75),
    "N": ("--N", 3),
    "lambda0": ("--lambda0", 2.5),
    "k": ("--k", 4),
    "i_max": ("--i-max", 7),
    "N_max": ("--n-max", 9),
    "d_min": ("--d-min", 5),
    "seed": ("--seed", 11),
}


def test_every_param_field_has_a_solve_flag_and_a_config_key(pair_file, monkeypatch, capsys):
    fields = dataclasses.fields(QalsParams)
    assert [f.name for f in fields] == list(PARAM_VALUES)
    expected = QalsParams(**{name: value for name, (_, value) in PARAM_VALUES.items()})
    captured = []

    def capturing_solve(problem, graph, sampler, params, record_trace=False):
        captured.append(params)
        return solve(problem, graph, sampler, params, record_trace)

    monkeypatch.setattr(cli, "solve", capturing_solve)
    argv = ["solve", pair_file, "--sampler", "exact"]
    for flag, value in PARAM_VALUES.values():
        argv += [flag, str(value)]
    assert main(argv) == 0
    capsys.readouterr()
    config = "n = 2\n" + "".join(f"{name} = {value}\n" for name, (_, value) in PARAM_VALUES.items())
    for params in (captured[0], parse_experiment_config(config).params):
        assert params == expected
        for f in fields:
            assert type(getattr(params, f.name)) is type(f.default), f.name


def test_unknown_sampler_exits_one(pair_file, capsys):
    assert main(["solve", pair_file, "--sampler", "quantum"]) == 1
    capsys.readouterr()


def test_unreachable_remote_exits_two(pair_file, capsys):
    assert main(["solve", pair_file, "--sampler", "remote:http://127.0.0.1:1"]) == 2
    assert "sampler error" in capsys.readouterr().err


MALFORMED_REMOTES = ["remote:", "remote:localhost:9", "remote:ftp://x", "remote:http://"]


@pytest.mark.parametrize("selector", MALFORMED_REMOTES)
def test_a_malformed_remote_endpoint_exits_one_before_any_request(
    selector, pair_file, tmp_path, capsys, monkeypatch
):
    import requests

    monkeypatch.setattr(requests, "Session", lambda: pytest.fail("a session was opened"))
    monkeypatch.setattr(harness, "solve", lambda *args: pytest.fail("a replica was run"))
    assert main(["solve", pair_file, "--sampler", selector]) == 1
    assert capsys.readouterr().err.startswith(f"qals: error: remote endpoint {selector[7:]!r}")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n = 4\nreplicas = 1\nbackend = {selector}\n")
    assert main(["bench", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"qals: error: remote endpoint {selector[7:]!r}")


def test_capacity_error_exits_two(tmp_path, capsys):
    rows = ["qubo 25"] + [f"{i} {i} 1.0" for i in range(25)]
    path = tmp_path / "big.qubo"
    path.write_text("\n".join(rows) + "\n")
    assert main(["solve", str(path), "--sampler", "exact", "--i-max", "5"]) == 2
    assert "sampler error" in capsys.readouterr().err


def test_bad_arguments_exit_one(capsys):
    assert main(["solve"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_bench_json_and_csv(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 4\nreplicas = 2\nbackend = exact\ni_max = 100\nseed = 1\n")
    csv_path = tmp_path / "rows.csv"
    assert main(["bench", str(cfg), "--csv", str(csv_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spec"]["n"] == 4
    assert len(report["replicas"]) == 2
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("replica,seed,")
    assert len(lines) == 3


def test_bench_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 4\nnope = 1\n")
    assert main(["bench", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err


def test_bench_rejects_a_repeated_config_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 5\nn = 7\nreplicas = 1\ni_max = 2\nbackend = random\n")
    assert main(["bench", str(cfg)]) == 1
    assert capsys.readouterr().err == "qals: error: line 2: duplicate key 'n'\n"


def test_gen_bad_range(capsys):
    assert main(["gen", "--n", "3", "--range", "nonsense"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("text", ["1", "a:b"])
def test_gen_and_config_share_one_range_parser(tmp_path, capsys, text):
    assert main(["gen", "--n", "3", "--range", text]) == 1
    assert capsys.readouterr().err == f"qals: error: bad range {text!r}, expected LO:HI\n"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n = 3\nrange = {text}\n")
    assert main(["bench", str(cfg)]) == 1
    assert capsys.readouterr().err == f"qals: error: line 2: bad range {text!r}, expected LO:HI\n"


def test_bench_exact_above_the_enumeration_limit_exits_one_before_generating(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("spec was accepted"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 25\nbackend = exact\nreplicas = 1\n")
    assert main(["bench", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qals: error: exact enumeration supports at most 24 variables")


def test_bench_seeds_past_two_to_the_64_exit_one_before_any_replica(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("spec was accepted"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n = 4\nreplicas = 2\nbackend = random\ni_max = 3\nseed = {2**64 - 1}\n")
    assert main(["bench", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"qals: error: seeds {2**64 - 1} to {2**64} of 2 replicas "
        "must fit in an unsigned 64-bit integer\n"
    )


def test_gen_too_large_for_memory_exits_one(capsys, monkeypatch):
    # numpy's allocation failure is a MemoryError; raise one here rather than allocate
    def refuse(n, *args):
        raise MemoryError(f"Unable to allocate {8 * n * n} bytes")

    monkeypatch.setattr(cli, "random_qubo", refuse)
    assert main(["gen", "--n", "1000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qals: error: Unable to allocate 8000000000000 bytes\n"


@pytest.mark.parametrize("coeff_range", ["0:inf", "-1e308:1e308", "-1e307:1e307"])
def test_gen_range_too_wide_for_a_float_exits_one(capsys, coeff_range):
    # 9 * 1e307 is a float, but above the weight bound a QuboProblem must meet
    assert main(["gen", "--n", "3", f"--range={coeff_range}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qals: error: coefficient range")
    assert "is too wide for n = 3: n^2 * max(|lo|, |hi|) is above the limit" in captured.err


def test_bench_range_too_wide_for_a_float_exits_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 3\nrange = -1e308:1e308\nbackend = random\n")
    assert main(["bench", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qals: error: coefficient range")


@pytest.mark.parametrize(
    "text",
    ["qubo 2\n0 1 1e308\n", "qubo 3\n0 1 1e308\n1 2 -1e308\n0 0 1\n"],
)
def test_oracle_on_weights_too_large_for_finite_energies_exits_one(tmp_path, capsys, text):
    path = tmp_path / "big.qubo"
    path.write_text(text)
    assert main(["oracle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qals: error: sum|Q| is inf, above the limit")


def test_bench_oracle_on_weights_too_large_exits_one_before_any_replica(
    tmp_path, capsys, monkeypatch
):
    import qals.harness

    monkeypatch.setattr(qals.harness, "solve", lambda *args: pytest.fail("a replica ran"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 2\nrange = 0:1e308\nbackend = random\ni_max = 3\nseed = 1\n")
    assert main(["bench", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the range rule refuses every range whose draws could break the bound, before the oracle
    assert captured.err.startswith("qals: error: coefficient range 0.0:1e+308 is too wide for n = 2")


def test_gen_takes_its_instance_defaults_from_the_experiment_spec(capsys):
    from qals import ExperimentSpec

    assert main(["gen", "--n", "4", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# random instance: n=4 density=0.5 range=-1.0:1.0 seed=2\n")
    spec = ExperimentSpec(n=4)
    argv = ["gen", "--n", "4", "--seed", "2", "--density", str(spec.density)]
    assert main(argv + ["--range={}:{}".format(*spec.coeff_range)]) == 0
    assert capsys.readouterr().out == out


def test_solve_takes_its_graph_and_sampler_defaults_from_the_experiment_spec(monkeypatch):
    from qals import ExperimentSpec

    monkeypatch.setattr(ExperimentSpec, "graph", "chimera:1")
    monkeypatch.setattr(ExperimentSpec, "backend", "random")
    args = cli._build_parser().parse_args(["solve", "instance.qubo"])
    assert (args.graph, args.sampler) == ("chimera:1", "random")
