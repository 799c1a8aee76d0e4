"""Tier-2 benchmark of the simulation engine.

Two measurements, mirroring where the simulator dominates:

* **Fig. 7-style re-simulation sweep** — the schedule-robustness figures
  re-simulate a fixed schedule under dozens of perturbed duration tables.
  Each table is simulated by :func:`~repro.simulator.engine.simulate_schedule`
  (one timeline walk over the schedule's op sequences) and by the per-op
  event loop kept as its test oracle (``tests/oracles/sim_scalar.py``), the
  baseline.  Every table's makespan, op times and busy and idle time are
  asserted bit-identical before any timing is reported.

* **Fig. 16-style order search** — the planner's injection-order search
  scores permutations of one replica's micro-batches.  The baseline, kept
  here only, rebuilds the schedule and simulates it per permutation; the
  planner scores every permutation on the replica's incremental simulator
  (one timed walk of Algorithm 1 per permutation, no walk of fixed
  sequences).  Both must select the same order with the same makespan.

Run with ``pytest benchmarks/bench_sim_engine.py --benchmark-disable -s``
(or ``pytest benchmarks/ -m tier2_bench``).  Set ``REPRO_BENCH_SMOKE=1``
for the reduced tier-1 smoke workload.  Both modes assert equivalence
only; the speed-ups are informational.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.network import NetworkModel
from repro.comm.shapes import TransferShapes
from repro.core.adaptive_schedule import AdaptiveScheduler, ScheduleKind
from repro.core.microbatch_ordering import cluster_and_order
from repro.core.planner import ReplicaPipeline
from repro.costmodel.cost_model import CostModel
from repro.model.config import ModelArch, ModelConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import ScheduleDeadlockError, cyclic_schedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import engine_stats, simulate_schedule

from common import emit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.sim_scalar import simulate_schedule_scalar  # noqa: E402

#: Reduced workload (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

STAGE_COUNTS = (2, 4) if SMOKE else (4, 8, 16)
NUM_MICROBATCHES = 8 if SMOKE else 32
NUM_DURATION_TABLES = 8 if SMOKE else 64

ORDER_SEARCH_MICROBATCHES = 6 if SMOKE else 16
ORDER_SEARCH_REPEATS = 1 if SMOKE else 3

BENCH_CONFIG = ModelConfig(
    name="gpt-bench-small",
    arch=ModelArch.GPT,
    num_layers=8,
    hidden_size=1024,
    num_heads=16,
    kv_channels=64,
    ffn_hidden_size=4096,
    vocab_size=32000,
)

BASE_FORWARD_MS = 1.0
BASE_BACKWARD_MS = 2.0


def _noise_tables(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-solve (table, microbatch) forward/backward duration matrices,
    mirroring the Fig. 7 noise model across its noise levels."""
    stds = np.linspace(0.0, 3.0, NUM_DURATION_TABLES)
    forward = np.maximum(
        0.05,
        BASE_FORWARD_MS
        + rng.normal(0.0, 1.0, (NUM_DURATION_TABLES, NUM_MICROBATCHES))
        * stds[:, None] * BASE_FORWARD_MS / 3.0,
    )
    backward = np.maximum(
        0.05,
        BASE_BACKWARD_MS
        + rng.normal(0.0, 1.0, (NUM_DURATION_TABLES, NUM_MICROBATCHES))
        * stds[:, None] * BASE_BACKWARD_MS / 3.0,
    )
    return forward, backward


def run_resimulation_sweep() -> list[list]:
    rows = []
    rng = np.random.default_rng(17)
    for num_stages in STAGE_COUNTS:
        schedules = {
            "1f1b": one_f_one_b_schedule(num_stages, NUM_MICROBATCHES),
            "adaptive": cyclic_schedule(
                num_stages, [[1.0] * num_stages for _ in range(NUM_MICROBATCHES)]
            ),
        }
        forward, backward = _noise_tables(rng)
        for name, schedule in schedules.items():
            tables = [
                {
                    (mb, is_forward): (forward if is_forward else backward)[t, mb]
                    for mb in range(NUM_MICROBATCHES)
                    for is_forward in (True, False)
                }
                for t in range(NUM_DURATION_TABLES)
            ]

            durations = [
                lambda op, table=table: table[(op.microbatch, op.op_type.value == "F")]
                for table in tables
            ]

            def sweep(simulate):
                start = time.perf_counter()
                results = [simulate(schedule, duration) for duration in durations]
                return results, time.perf_counter() - start

            scalar, scalar_s = sweep(simulate_schedule_scalar)
            walked, walk_s = sweep(simulate_schedule)
            for expected, result in zip(scalar, walked):
                assert result.makespan_ms == expected.makespan_ms
                assert result.op_times == expected.op_times
                assert result.device_busy_ms == expected.device_busy_ms
                assert result.device_idle_ms == expected.device_idle_ms
            speedup = scalar_s / walk_s if walk_s > 0 else float("inf")
            rows.append(
                [
                    f"fig07/{name}",
                    num_stages,
                    NUM_MICROBATCHES,
                    NUM_DURATION_TABLES,
                    round(scalar_s, 4),
                    round(walk_s, 4),
                    round(speedup, 1),
                ]
            )
    return rows


def _order_search_shapes() -> list[MicroBatchShape]:
    rng = np.random.default_rng(23)
    return [
        MicroBatchShape(
            batch_size=int(rng.integers(1, 9)),
            enc_seq_len=int(rng.choice([128, 256, 512, 1024])),
        )
        for _ in range(ORDER_SEARCH_MICROBATCHES)
    ]


def run_order_search() -> list[list]:
    cost_model = CostModel(
        BENCH_CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    network = NetworkModel()
    kind = ScheduleKind.MEMORY_AWARE_ADAPTIVE
    device_memory = cost_model.device_spec.memory_capacity
    scheduler = AdaptiveScheduler(cost_model, device_memory)
    shapes = _order_search_shapes()
    mode = RecomputeMode.NONE

    times = [float(t) for t in cost_model.microbatch_times_ms(shapes, mode)]
    static = [cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages)]
    transfer = TransferShapes.from_cost_model(cost_model, shapes)

    def comm_time(microbatch: int, src: int, dst: int, is_gradient: bool) -> float:
        nbytes = (
            transfer.grad_bytes(microbatch, src)
            if is_gradient
            else transfer.act_bytes(microbatch, src)
        )
        return network.p2p_time_ms(nbytes, same_node=True)

    def rebuild_score(order) -> float:
        """Baseline scorer: build the schedule and simulate it from scratch."""
        try:
            build = scheduler.build(
                shapes, kind=kind, recompute=mode, injection_order=order
            )
        except ScheduleDeadlockError:
            return float("inf")
        simulation = simulate_schedule(
            build.schedule,
            build.durations,
            comm_time_fn=comm_time,
            activation_bytes=build.activation_bytes,
            static_bytes=static,
        )
        capacity = device_memory * (1.0 + 1e-9)
        if any(peak > capacity for peak in simulation.peak_activation_bytes):
            return float("inf")
        return simulation.makespan_ms

    def search(score):
        return cluster_and_order(times, score, num_clusters=4, max_permutations=24)

    def rebuild_search():
        return search(rebuild_score)

    incremental_solves = []

    def incremental_search():
        solves = engine_stats()["timeline_solves"]
        pipeline = ReplicaPipeline(cost_model, shapes, mode, kind, device_memory, network)
        result = search(pipeline.simulator.score)
        incremental_solves.append(engine_stats()["timeline_solves"] - solves)
        return result

    def timed_search(search):
        search()  # warm the cost-model caches so only scoring is timed
        best = float("inf")
        result = None
        for _ in range(ORDER_SEARCH_REPEATS):
            start = time.perf_counter()
            result = search()
            best = min(best, time.perf_counter() - start)
        return result, best

    rebuild_result, rebuild_s = timed_search(rebuild_search)
    incremental_result, incremental_s = timed_search(incremental_search)

    assert incremental_result.order == rebuild_result.order
    assert incremental_result.makespan_ms == rebuild_result.makespan_ms
    assert set(incremental_solves) == {0}  # scoring walks no fixed sequences

    def row(variant: str, elapsed: float) -> list:
        return [
            f"fig16/order-search/{variant}",
            cost_model.num_stages,
            ORDER_SEARCH_MICROBATCHES,
            incremental_result.evaluated,
            round(elapsed, 4),
            round(incremental_s, 4),
            round(elapsed / incremental_s if incremental_s > 0 else float("inf"), 1),
        ]

    return [row("rebuild", rebuild_s)]


HEADERS = [
    "sweep", "stages", "microbatches", "solves",
    "baseline_s", "fast_s", "speedup",
]


@pytest.mark.tier2_bench
def test_sim_engine(benchmark, capsys):
    def run():
        return run_resimulation_sweep() + run_order_search()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "sim_engine",
        "Simulation engine: per-op event loop vs timeline walk; order search vs rebuild",
        HEADERS,
        rows,
        capsys,
    )
    assert any(str(row[0]).startswith("fig07/") for row in rows)
    assert any(str(row[0]).startswith("fig16/") for row in rows)
