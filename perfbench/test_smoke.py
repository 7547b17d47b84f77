"""Smoke test of the benchmark itself, at a tiny replica count.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qals.core import QalsParams  # noqa: E402
from qals.harness import make_sampler  # noqa: E402
from qals.solver import solve  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    name: dataclasses.replace(w, i_max=min(w.i_max, 2), instances=2)
    for name, w in workloads.WORKLOADS.items()
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _run(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_its_metrics(tiny, capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_a_changed_deterministic_result_fails_the_run(tiny, capsys):
    assert _run(capsys, "random-n8", 1)[0] == 0
    assert _run(capsys, "random-n8", 1)[0] == 0
    record = tiny / "random-n8-seed3-trace1.json"
    doc = json.loads(record.read_text())
    doc["deterministic"]["solver.improvements"] += 1
    record.write_text(json.dumps(doc))
    code, result = _run(capsys, "random-n8", 1)
    assert code == 1 and result["correct"] is False


def test_a_wrong_report_fails_the_checks():
    w = TINY["exact-n16"]
    inst = workloads.set_up(w, 3, 0)
    report = solve(inst.problem, inst.graph, make_sampler(w.sampler), QalsParams(i_max=w.i_max, seed=3))
    assert workloads.check_report(inst, report, w.i_max) == []
    report.f_best = inst.optimum - 1.0
    assert len(workloads.check_report(inst, report, w.i_max)) == 2
    report.z_best = np.zeros_like(report.z_best)
    assert "z_best is not a +-1 vector" in workloads.check_report(inst, report, w.i_max)[0]


def test_the_untraced_guard_sees_installed_wrappers():
    tracing.assert_untraced()
    with tracing.installed(tracing.Tracer()):
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
    tracing.assert_untraced()


def test_self_time_is_the_span_minus_its_children():
    totals = {}
    tracing.fold([["a", -1, 0, 10], ["b", 0, 2, 5], ["c", 1, 3, 4], ["b", 0, 6, 7]], totals)
    assert totals == {"a": (1, 10, 6), "b": (2, 4, 3), "c": (1, 1, 1)}


def test_without_the_sources_the_run_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-n8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
