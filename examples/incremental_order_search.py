"""One replica, one compiled timeline: feasibility, order search and plan.

The planner's injection-order search (paper §5) scores permutations of a
replica's micro-batches by simulating the memory-aware adaptive schedule.
Every cyclic-schedule replica lives on one incremental simulator: the
identity order's solve is the memory-feasibility check, each permutation of
the search is one re-solve of the compiled schedule *geometry* (op order +
dependency structure, compiled once per distinct memory-gated shape), and
the chosen order's cached solve becomes the replica's timeline — no
schedule is rebuilt and nothing is simulated twice.

This example runs that path on a seeded GPT configuration, prints the
counters that prove the reuse, and checks the result bit for bit against
building the chosen order's schedule and simulating it from scratch.

Run with:  PYTHONPATH=src python examples/incremental_order_search.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm.shapes import TransferShapes
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.model.config import ModelArch, ModelConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.simulator.engine import simulate_schedule

CONFIG = ModelConfig(
    name="gpt-example-small",
    arch=ModelArch.GPT,
    num_layers=8,
    hidden_size=1024,
    num_heads=16,
    kv_channels=64,
    ffn_hidden_size=4096,
    vocab_size=32000,
)

NUM_MICROBATCHES = 16
REPEATS = 5


def main() -> None:
    cost_model = CostModel(
        CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    planner = DynaPipePlanner(
        cost_model,
        config=PlannerConfig(
            order_search=True, num_time_clusters=4, max_order_permutations=24
        ),
    )

    rng = np.random.default_rng(42)
    shapes = [
        MicroBatchShape(
            batch_size=int(rng.integers(1, 9)),
            enc_seq_len=int(rng.choice([128, 256, 512, 1024])),
        )
        for _ in range(NUM_MICROBATCHES)
    ]
    transfer_shapes = TransferShapes.from_cost_model(cost_model, shapes)
    mode = RecomputeMode.NONE

    simulator = planner._replica_simulator(shapes, mode, transfer_shapes)
    identity = simulator.evaluate(range(NUM_MICROBATCHES))
    result = planner._search_injection_order(simulator, shapes, mode)
    schedule, simulation = simulator.simulation(
        result.order, name=planner.config.schedule_kind.value
    )

    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        again = planner._replica_simulator(shapes, mode, transfer_shapes)
        again.evaluate(range(NUM_MICROBATCHES))
        planner._search_injection_order(again, shapes, mode)
        best = min(best, time.perf_counter() - start)

    print(f"micro-batches: {NUM_MICROBATCHES}   stages: {cost_model.num_stages}")
    print(f"identity order:    makespan {identity.solution.makespan_ms:.3f} ms, "
          f"fits device memory: {identity.feasible}")
    print(f"permutations evaluated: {result.evaluated}")
    print(
        f"search geometry compiles: {result.geometry_compiles}   "
        f"timeline solves: {result.timeline_solves}   "
        f"replica total: {simulator.compiles} compiles / {simulator.solves} solves"
    )
    print(f"selected order:    {result.order}")
    print(f"makespan:          {simulation.makespan_ms:.3f} ms")
    print(f"feasibility + search: {best * 1e3:.2f} ms (best of {REPEATS})")

    # The same order built and simulated from scratch gives the same plan.
    build = planner.scheduler.build(
        shapes, kind=planner.config.schedule_kind, recompute=mode,
        injection_order=result.order,
    )
    reference = simulate_schedule(
        build.schedule,
        build.durations,
        comm_time_fn=planner._comm_time_fn(transfer_shapes),
        activation_bytes=build.activation_bytes,
        static_bytes=[
            cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages)
        ],
    )
    assert [stage.ops for stage in schedule.stages] == [
        stage.ops for stage in build.schedule.stages
    ]
    assert simulation.op_times == reference.op_times
    assert simulation.makespan_ms == reference.makespan_ms == result.makespan_ms
    assert simulation.peak_activation_bytes == reference.peak_activation_bytes
    print()
    print("OK: the cached solve is bit-identical to a from-scratch build + simulate.")


if __name__ == "__main__":
    main()
