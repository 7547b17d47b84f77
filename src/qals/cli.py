"""Command-line interface: solve, gen, oracle, bench.

Exit codes: 0 success, 1 input/validation problems, 2 sampler/transport
failures. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .core import QalsParams
from .fileio import (
    ParseError,
    experiment_report_to_csv,
    experiment_report_to_json,
    format_qubo_file,
    load_qubo_file,
    parse_experiment_config,
    parse_range,
    solve_report_to_json,
)
from .harness import ExperimentSpec, brute_force_min, make_graph, make_sampler, random_qubo
from .harness import run_experiment
from .samplers import SamplerError
from .solver import solve


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qals", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimize a QUBO instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--graph", default=ExperimentSpec.graph,
                         help="complete | chimera:<m> | file:<path>")
    p_solve.add_argument("--sampler", default=ExperimentSpec.backend,
                         help="exact | sa | random | remote:<url>")
    for f in dataclasses.fields(QalsParams):
        flag = "--n-max" if f.name == "N_max" else "--" + f.name.replace("_", "-")
        p_solve.add_argument(flag, type=type(f.default), default=f.default, dest=f.name,
                             help=f"QalsParams.{f.name} (default %(default)s)")
    p_solve.add_argument("--trace", action="store_true",
                         help="record per-iteration state in the report (implies --json)")
    p_solve.add_argument("--json", action="store_true",
                         help="print the full report as JSON")

    p_gen = sub.add_parser("gen", help="emit a random instance to stdout")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=ExperimentSpec.density)
    p_gen.add_argument("--range", default="{}:{}".format(*ExperimentSpec.coeff_range),
                       help="LO:HI for coefficients (default %(default)s)")
    p_gen.add_argument("--seed", type=int, default=0)

    p_oracle = sub.add_parser("oracle", help="brute-force minimum of an instance file")
    p_oracle.add_argument("file")

    p_bench = sub.add_parser("bench", help="run a replicated experiment")
    p_bench.add_argument("config", help="key = value experiment configuration file")
    p_bench.add_argument("--csv", help="also write per-replica rows to this file")
    return parser


def _cmd_solve(args) -> int:
    problem = load_qubo_file(args.file)
    params = QalsParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(QalsParams)})
    graph = make_graph(args.graph, problem.n)
    sampler = make_sampler(args.sampler)
    report = solve(problem, graph, sampler, params, record_trace=args.trace)
    if args.json or args.trace:
        print(solve_report_to_json(report))
    else:
        print(f"f_best: {report.f_best!r}")
        print("z_best:", " ".join(str(int(v)) for v in report.z_best))
    return 0


def _cmd_gen(args) -> int:
    coeff_range = parse_range(args.range)
    rng = np.random.default_rng(args.seed)
    problem = random_qubo(args.n, args.density, coeff_range, rng)
    sys.stdout.write(
        format_qubo_file(
            problem,
            header_comment=(
                f"random instance: n={args.n} density={args.density} "
                f"range={coeff_range[0]}:{coeff_range[1]} seed={args.seed}"
            ),
        )
    )
    return 0


def _cmd_oracle(args) -> int:
    problem = load_qubo_file(args.file)
    z, value = brute_force_min(problem)
    print(f"minimum: {value!r}")
    print("minimizer:", " ".join(str(int(v)) for v in z))
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        spec = parse_experiment_config(fh.read())
    report = run_experiment(spec)
    print(experiment_report_to_json(report))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(experiment_report_to_csv(report))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except SamplerError as exc:
        print(f"qals: sampler error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError, ValueError, MemoryError) as exc:
        print(f"qals: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
