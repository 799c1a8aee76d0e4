"""Tier-2 benchmark of the data-oriented simulation engine.

Two measurements, mirroring where the simulator dominates:

* **Fig. 7-style re-simulation sweep** — the schedule-robustness figures
  re-simulate a fixed schedule under dozens of perturbed duration tables.
  The baseline calls :func:`~repro.simulator.engine.simulate_schedule`
  once per table (per-op duration callbacks, cached geometry); the batched
  path solves all duration vectors in one wave sweep over the compiled
  geometry.  Per-solve makespans are asserted bit-identical before any
  timing is reported.

* **Fig. 16-style order search** — the planner's injection-order search
  scores permutations of one replica's micro-batches.  Two variants are
  timed: the rebuild path (rebuild the schedule and simulate it per
  permutation) and the incremental scorer (geometry compiled once, array
  re-solves per permutation).  Both must select the same order with the
  same makespan.

Run with ``pytest benchmarks/bench_sim_engine.py --benchmark-disable -s``
(or ``pytest benchmarks/ -m tier2_bench``).  Set ``REPRO_BENCH_SMOKE=1``
for the reduced tier-1 smoke workload.  Both modes assert equivalence
only; the speed-ups are informational.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.comm.shapes import TransferShapes
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.model.config import ModelArch, ModelConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import cyclic_schedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import compile_schedule, simulate_schedule

from common import emit

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

            start = time.perf_counter()
            per_table_makespans = []
            for table in tables:
                duration = lambda op: table[(op.microbatch, op.op_type.value == "F")]
                per_table_makespans.append(
                    simulate_schedule(schedule, duration).makespan_ms
                )
            per_table_s = time.perf_counter() - start

            start = time.perf_counter()
            timeline = compile_schedule(schedule)
            durations = np.where(
                timeline.op_is_forward,
                forward[:, timeline.op_microbatch],
                backward[:, timeline.op_microbatch],
            )
            batch = timeline.solve_batch(durations)
            vector_s = time.perf_counter() - start

            assert list(batch.makespan_ms) == per_table_makespans
            speedup = per_table_s / vector_s if vector_s > 0 else float("inf")
            rows.append(
                [
                    f"fig07/{name}",
                    num_stages,
                    NUM_MICROBATCHES,
                    NUM_DURATION_TABLES,
                    round(per_table_s, 4),
                    round(vector_s, 4),
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
    planner = DynaPipePlanner(
        cost_model,
        config=PlannerConfig(
            order_search=True, num_time_clusters=4, max_order_permutations=24
        ),
    )
    shapes = _order_search_shapes()
    transfer_shapes = TransferShapes.from_cost_model(cost_model, shapes)
    mode = RecomputeMode.NONE

    def timed_search(incremental: bool):
        planner.config.incremental_order_search = incremental
        # Warm the cost-model caches so only scoring is timed.
        planner._search_injection_order(shapes, mode, transfer_shapes)
        best = float("inf")
        result = None
        for _ in range(ORDER_SEARCH_REPEATS):
            start = time.perf_counter()
            result = planner._search_injection_order(shapes, mode, transfer_shapes)
            best = min(best, time.perf_counter() - start)
        return result, best

    rebuild_result, rebuild_s = timed_search(incremental=False)
    incremental_result, incremental_s = timed_search(incremental=True)

    assert incremental_result.order == rebuild_result.order
    assert incremental_result.makespan_ms == rebuild_result.makespan_ms
    assert incremental_result.geometry_compiles is not None
    assert incremental_result.geometry_compiles < incremental_result.timeline_solves

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
    "baseline_s", "compiled_s", "speedup",
]


@pytest.mark.tier2_bench
def test_sim_engine(benchmark, capsys):
    def run():
        return run_resimulation_sweep() + run_order_search()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "sim_engine",
        "Simulation engine: per-table simulation vs batched timeline solve",
        HEADERS,
        rows,
        capsys,
    )
    assert any(str(row[0]).startswith("fig07/") for row in rows)
    assert any(str(row[0]).startswith("fig16/") for row in rows)
