"""The benchmark's own tests, on reduced-size runs of every workload.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402
from perfbench.fingerprint import record_fields  # noqa: E402
from perfbench.tracer import TIMED, Tracer, _resolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small_runs() -> dict:
    """One reduced-size child result per workload, untraced and traced."""
    return {
        (workload, trace): workloads.run_child(workload, 0, 0.0, trace, "small", time.time())
        for workload in workloads.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(small_runs, workload):
    child = small_runs[(workload, False)]
    values = run.end_to_end([child])
    assert set(values) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(value > 0 for value in values.values()), values
    check = run.check_outputs(workload, 0, "small", [child])
    assert check == {"stored": True, "mismatched": []}
    assert child["failed"] == 0 and child["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_with_consistent_self_times(small_runs, workload):
    child = small_runs[(workload, True)]
    values = run.per_layer([child])
    assert set(values) == {metric["name"] for metric in SPEC["per_layer"]}
    layers = child["layers"]
    assert layers["missing"] == []
    for layer, total in layers["ms"].items():
        assert 0.0 <= layers["self_ms"][layer] <= total + 1e-9, layer
    for name in ("window_table", "plan"):
        assert 0.0 <= values[f"{name}.self_ms"] <= values[f"{name}.ms"]
    assert values["plan.ms"] >= values["window_table.ms"] + values["dp.ms"]
    # Tracing changes timings only: the traced run's outputs are identical.
    assert child["fields"] == small_runs[(workload, False)]["fields"]


def test_traced_runs_exercise_their_layers(small_runs):
    session = run.per_layer([small_runs[("gpt-iter", True)]])
    assert session["plan.ms"] > 0 and session["execute.duration_calls"] > 0
    assert session["partition.attempts"] >= 1
    planned = run.per_layer([small_runs[("fleet-planned", True)]])
    assert planned["pool.wait_ms"] > 0 and planned["plan_decode.ms"] > 0
    assert planned["plan.ms"] == 0  # planning runs in the pool worker
    assert planned["gang.calls"] > 0 and planned["job_step.calls"] > 0
    assert planned["fleet.events"] > 0


def test_tracer_restores_every_entry_point():
    before = [_resolve(target)[2] for _, target, _ in TIMED]
    with Tracer().installed():
        assert [_resolve(target)[2] for _, target, _ in TIMED] != before
    assert [_resolve(target)[2] for _, target, _ in TIMED] == before


def test_output_check_names_a_perturbed_record_field():
    shape = workloads.SESSIONS["small"]["gpt-iter"]
    bench = workloads.SessionBench(shape, seed=0)
    bench.measure(0.0, trace=False)
    records = bench.records[: shape.prefix]
    assert run.check_outputs("gpt-iter", 0, "small", [{"fields": record_fields(records)}])[
        "mismatched"
    ] == []
    records[1] = dataclasses.replace(records[1], measured_ms=records[1].measured_ms * (1 + 1e-12))
    check = run.check_outputs("gpt-iter", 0, "small", [{"fields": record_fields(records)}])
    assert check["mismatched"] == ["measured_ms"]


def _run_main(capsys, workload: str) -> tuple[int, dict, dict]:
    """Run the command in-process; returns its exit code, detail and result."""
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def test_command_prints_result_line(monkeypatch, capsys):
    monkeypatch.setattr(run, "REPEATS", 1)
    monkeypatch.setattr(run, "SCALE", "small")
    code, detail, result = _run_main(capsys, "gpt-iter")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }
    assert detail["seed"] == 0 and detail["stamp"]["nproc"] >= 1


def test_failed_child_counts_its_units_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn_child", lambda *args: None)
    code, detail, result = _run_main(capsys, "t5-iter")
    units = workloads.planned_units("t5-iter", run.SCALE)
    assert code == 1 and detail["child_failed"] and detail["fail_frac"] == 1.0
    assert result == {"correct": False, "attempted": units, "failed": units, "metrics": {}}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gpt-iter", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
