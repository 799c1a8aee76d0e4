"""Fleet at scale: generate a synthetic workload trace and replay it.

End-to-end tour of the trace-driven workload generator
(:mod:`repro.fleet.workloads`) and the data-oriented scheduler core:

1. **generate** a seeded multi-tenant trace — diurnal + bursty Poisson
   arrivals, a mixed GPT/T5 model catalog, priority tiers, a failure storm
   and a correlated rack outage — and save it as JSON;
2. **reload** the trace from disk (proving the replay file is
   self-contained) and **replay** it under every admission policy,
   printing the policy comparison.

Run with:  python examples/fleet_at_scale.py

It prints the per-policy comparison table and writes
``fleet_scale_trace.json`` next to this script.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.fleet import WorkloadTrace, generate_trace, replay_trace

NUM_JOBS = 120
NUM_NODES = 8
GPUS_PER_NODE = 8
SEED = 2024

HERE = Path(__file__).parent


def main() -> None:
    trace = generate_trace(
        num_jobs=NUM_JOBS,
        num_nodes=NUM_NODES,
        gpus_per_node=GPUS_PER_NODE,
        seed=SEED,
        base_rate_per_s=8.0,
        storm_rate_per_s=0.3,
        num_rack_outages=1,
    )
    path = trace.save(HERE / "fleet_scale_trace.json")
    print(f"generated {trace.description}")
    print(f"  arrivals span {trace.span_ms / 1000.0:.1f} s of fleet time, "
          f"{len(trace.faults)} fault events -> {path.name}")

    # Replay from the file, not the in-memory object: the JSON is the
    # complete workload description.
    loaded = WorkloadTrace.load(path)
    header = (
        f"{'policy':<10} {'wall s':>7} {'events':>7} {'finished':>9} "
        f"{'failed':>7} {'mean queue s':>13} {'util %':>7} {'evictions':>10}"
    )
    print("\n" + header)
    print("-" * len(header))
    for policy in ("fifo", "srw", "priority"):
        start = time.perf_counter()
        report = replay_trace(loaded, policy=policy)
        wall_s = time.perf_counter() - start
        summary = report.summary()
        print(
            f"{policy:<10} {wall_s:>7.2f} {summary['events_processed']:>7} "
            f"{summary['finished']:>9} {summary['failed']:>7} "
            f"{summary['mean_queueing_delay_ms'] / 1000.0:>13.2f} "
            f"{100.0 * summary['device_utilization']:>7.1f} "
            f"{summary['total_evictions']:>10}"
        )


if __name__ == "__main__":
    main()
