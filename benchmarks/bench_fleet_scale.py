"""Tier-2 benchmark: fleet at scale — trace replay over ~1k jobs and devices.

Replays one seeded synthetic multi-tenant trace
(:mod:`repro.fleet.workloads`: diurnal + bursty arrivals, mixed GPT/T5
model mix, priority tiers, failure storm + correlated rack outages) under
every admission policy.  The table compares fifo/srw/priority at scale
(makespan, queueing delay, utilization, evictions) on identical inputs,
with the scheduler's events/second as an informational speed figure.

Run it with

    pytest benchmarks/bench_fleet_scale.py --benchmark-disable -s

(or ``pytest benchmarks/ -m tier2_bench``).  Set ``REPRO_BENCH_SMOKE=1``
for the reduced workload the tier-1 suite runs so this file cannot
silently rot.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.fleet.workloads import generate_trace, replay_trace

from common import emit

#: Reduced workload (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

TRACE_SEED = 42
NUM_JOBS = 60 if SMOKE else 1000
NUM_NODES = 4 if SMOKE else 128
GPUS_PER_NODE = 8
#: Arrival rate chosen to saturate the cluster: a deep pending backlog is
#: the regime where the scheduler's admission dirty-guard and feasibility
#: precheck matter.
BASE_RATE_PER_S = 10.0 if SMOKE else 40.0
MIN_ITERATIONS = 2 if SMOKE else 4
MAX_ITERATIONS = 5 if SMOKE else 16
STORM_RATE_PER_S = 0.2 if SMOKE else 0.5
NUM_RACK_OUTAGES = 1 if SMOKE else 2

POLICIES = ("fifo", "srw", "priority")

HEADERS = [
    "policy",
    "wall s",
    "events",
    "events/s",
    "finished",
    "failed",
    "mean queue s",
    "util %",
    "evictions",
    "retries",
]


def build_trace():
    return generate_trace(
        num_jobs=NUM_JOBS,
        num_nodes=NUM_NODES,
        gpus_per_node=GPUS_PER_NODE,
        seed=TRACE_SEED,
        base_rate_per_s=BASE_RATE_PER_S,
        min_iterations=MIN_ITERATIONS,
        max_iterations=MAX_ITERATIONS,
        storm_rate_per_s=STORM_RATE_PER_S,
        num_rack_outages=NUM_RACK_OUTAGES,
    )


def run_scale_sweep():
    trace = build_trace()
    rows = []
    reports = {}
    for policy in POLICIES:
        start = time.perf_counter()
        reports[policy] = replay_trace(trace, policy=policy)
        rows.append(_row(policy, reports[policy], time.perf_counter() - start))
    return rows, (trace, reports)


def _row(policy: str, report, wall_s: float):
    summary = report.summary()
    events = summary["events_processed"]
    return [
        policy,
        f"{wall_s:.2f}",
        events,
        f"{events / wall_s:.0f}",
        summary["finished"],
        summary["failed"],
        f"{summary['mean_queueing_delay_ms'] / 1000.0:.2f}",
        f"{100.0 * summary['device_utilization']:.1f}",
        summary["total_evictions"],
        summary["total_retries"],
    ]


@pytest.mark.tier2_bench
def test_fleet_scale_bench(benchmark, capsys):
    rows, (trace, reports) = benchmark.pedantic(
        run_scale_sweep, rounds=1, iterations=1
    )
    emit(
        "fleet_scale",
        f"Fleet at scale: {NUM_JOBS} jobs over "
        f"{NUM_NODES * GPUS_PER_NODE} devices ({trace.description})",
        HEADERS,
        rows,
        capsys,
    )
    # Every policy replayed the full population to termination.
    for report in reports.values():
        assert report.finished_jobs + report.failed_jobs == NUM_JOBS
        assert report.events_processed > 0
