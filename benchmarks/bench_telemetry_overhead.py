"""Tier-2 benchmark of telemetry overhead: disabled vs enabled.

Two workloads, timed once with telemetry disabled (the default) and once
with the flag on:

* **Fig. 7-style sweep row** — the compiled engine's re-simulation sweep
  from ``bench_sim_engine`` (one geometry compile, one timeline solve per
  duration table).  The sweep's inner loop carries no
  span/event sites, so the enabled run must track the disabled run within
  noise; the disabled run is the row the cross-commit ≤ 2 % perturbation
  budget of the observability work is judged against.
* **Fleet chaos run** — the seeded storm scenario from
  ``bench_fleet_faults`` (10 jobs on 8 GPUs; 4 jobs in smoke mode).  The
  enabled run additionally records lifecycle events, job.step/plan/execute
  spans and per-iteration op traces, and builds the merged chrome trace.

Primary outputs are asserted bit-identical between the two runs in *every*
mode — makespans for the sweep, the full report summary and occupancy trace
for the fleet — so telemetry can never silently change results.  Timing
bounds are only enforced in the full run on multi-core hosts.

Run with ``pytest benchmarks/bench_telemetry_overhead.py
--benchmark-disable -s`` (or ``pytest benchmarks/ -m tier2_bench``).  Set
``REPRO_BENCH_SMOKE=1`` for the reduced tier-1 smoke workload.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.obs.merge import merge_fleet_trace
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import compile_schedule

from bench_fleet_faults import build_scheduler, build_workload, fault_plans
from common import emit

#: Reduced workload + no timing asserts (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
MULTI_CORE = (os.cpu_count() or 1) >= 4

NUM_STAGES = 4
NUM_MICROBATCHES = 8 if SMOKE else 32
NUM_DURATION_TABLES = 8 if SMOKE else 64
SWEEP_REPEATS = 3 if SMOKE else 10

#: Enabled-vs-disabled wall-clock bounds (full run, multi-core hosts).
#: The sweep has no telemetry sites in its hot loop; the fleet run pays
#: for span/event/op-trace recording but must stay a bounded fraction of
#: the planning+simulation work it annotates.
SWEEP_OVERHEAD_BOUND_PCT = 10.0
FLEET_OVERHEAD_BOUND_PCT = 30.0

HEADERS = [
    "workload",
    "disabled_s",
    "enabled_s",
    "overhead_pct",
    "outputs_identical",
]


def _overhead_pct(disabled_s: float, enabled_s: float) -> float:
    if disabled_s <= 0:
        return 0.0
    return (enabled_s - disabled_s) / disabled_s * 100.0


# ----------------------------------------------------------------- sweep


def _run_sweep() -> tuple[float, list[float]]:
    """One Fig. 7-style re-simulation sweep; returns (best_s, makespans)."""
    rng = np.random.default_rng(17)
    forward = np.maximum(
        0.05, 1.0 + rng.normal(0.0, 0.3, (NUM_DURATION_TABLES, NUM_MICROBATCHES))
    )
    backward = np.maximum(
        0.05, 2.0 + rng.normal(0.0, 0.6, (NUM_DURATION_TABLES, NUM_MICROBATCHES))
    )
    schedule = one_f_one_b_schedule(NUM_STAGES, NUM_MICROBATCHES)
    best = float("inf")
    makespans: list[float] = []
    for _ in range(SWEEP_REPEATS):
        start = time.perf_counter()
        timeline = compile_schedule(schedule)
        durations = np.where(
            timeline.op_is_forward,
            forward[:, timeline.op_microbatch],
            backward[:, timeline.op_microbatch],
        )
        makespans = [timeline.solve(row).makespan_ms for row in durations]
        best = min(best, time.perf_counter() - start)
    return best, makespans


def run_sweep_pair() -> tuple[list, float]:
    obs.reset()
    obs.disable()
    disabled_s, disabled_makespans = _run_sweep()
    with obs.telemetry():
        enabled_s, enabled_makespans = _run_sweep()
    obs.reset()
    identical = enabled_makespans == disabled_makespans
    assert identical, "telemetry changed sweep makespans"
    overhead = _overhead_pct(disabled_s, enabled_s)
    row = [
        f"fig07 sweep ({NUM_STAGES}st x {NUM_MICROBATCHES}mb x {NUM_DURATION_TABLES}tbl)",
        round(disabled_s, 5),
        round(enabled_s, 5),
        round(overhead, 1),
        identical,
    ]
    return row, overhead


# ----------------------------------------------------------------- fleet


def _run_fleet():
    jobs = build_workload()
    scheduler = build_scheduler(jobs, fault_plans()["storm"])
    start = time.perf_counter()
    report = scheduler.run()
    return time.perf_counter() - start, report


def run_fleet_pair() -> tuple[list, float, dict]:
    obs.reset()
    obs.disable()
    disabled_s, disabled_report = _run_fleet()
    with obs.telemetry():
        enabled_s, enabled_report = _run_fleet()
        merged = merge_fleet_trace(enabled_report)
    obs.reset()
    identical = (
        enabled_report.summary() == disabled_report.summary()
        and enabled_report.trace.events == disabled_report.trace.events
        and [job.__dict__ for job in enabled_report.jobs]
        == [job.__dict__ for job in disabled_report.jobs]
    )
    assert identical, "telemetry changed the fleet run"
    # The enabled run's merged trace must be valid, populated JSON.
    payload = json.loads(json.dumps(merged))
    assert payload["traceEvents"], "merged trace is empty"
    overhead = _overhead_pct(disabled_s, enabled_s)
    row = [
        f"fleet storm ({len(disabled_report.jobs)} jobs)",
        round(disabled_s, 5),
        round(enabled_s, 5),
        round(overhead, 1),
        identical,
    ]
    return row, overhead, payload


# ------------------------------------------------------------------ test


@pytest.mark.tier2_bench
def test_telemetry_overhead(benchmark, capsys):
    def run():
        sweep_row, sweep_overhead = run_sweep_pair()
        fleet_row, fleet_overhead, payload = run_fleet_pair()
        return [sweep_row, fleet_row], sweep_overhead, fleet_overhead, payload

    rows, sweep_overhead, fleet_overhead, _ = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        "telemetry_overhead",
        "Telemetry overhead: identical seeded workloads with the flag off vs on "
        "(outputs asserted bit-identical in both modes)",
        HEADERS,
        rows,
        capsys,
    )
    if not SMOKE and MULTI_CORE:
        assert sweep_overhead <= SWEEP_OVERHEAD_BOUND_PCT, (
            f"enabled sweep overhead {sweep_overhead:.1f}% "
            f"exceeds {SWEEP_OVERHEAD_BOUND_PCT}%"
        )
        assert fleet_overhead <= FLEET_OVERHEAD_BOUND_PCT, (
            f"enabled fleet overhead {fleet_overhead:.1f}% "
            f"exceeds {FLEET_OVERHEAD_BOUND_PCT}%"
        )
