"""One replica, one timeline walk: feasibility, order search and plan.

The planner's injection-order search (paper §5) scores permutations of a
replica's micro-batches by simulating the memory-aware adaptive schedule.
Every replica lives on one :class:`~repro.core.planner.ReplicaPipeline`
and its incremental simulator: the identity order's timed walk of
Algorithm 1 is the memory-feasibility check, each permutation of the search
is one more walk (it times and memory-checks every op as Algorithm 1 places
it), and only the chosen order's sequences are walked again, once, for the
replica's timeline — no schedule is rebuilt and nothing is simulated twice.

This example runs that path on a seeded GPT configuration, prints the
counters that prove the reuse, and checks the result bit for bit against
building the chosen order's schedule and simulating it from scratch.

Run with:  PYTHONPATH=src python examples/incremental_order_search.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.network import NetworkModel
from repro.core.adaptive_schedule import AdaptiveScheduler, ScheduleKind
from repro.core.microbatch_ordering import cluster_and_order
from repro.core.planner import ReplicaPipeline
from repro.costmodel.cost_model import CostModel
from repro.model.config import ModelArch, ModelConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.simulator.engine import engine_stats, simulate_schedule

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
    network = NetworkModel()
    kind = ScheduleKind.MEMORY_AWARE_ADAPTIVE
    device_memory = cost_model.device_spec.memory_capacity

    rng = np.random.default_rng(42)
    shapes = [
        MicroBatchShape(
            batch_size=int(rng.integers(1, 9)),
            enc_seq_len=int(rng.choice([128, 256, 512, 1024])),
        )
        for _ in range(NUM_MICROBATCHES)
    ]
    mode = RecomputeMode.NONE
    times = [float(t) for t in cost_model.microbatch_times_ms(shapes, mode)]

    def feasibility_and_search():
        replica = ReplicaPipeline(cost_model, shapes, mode, kind, device_memory, network)
        identity = replica.simulator.evaluate(range(NUM_MICROBATCHES))
        result = cluster_and_order(
            times, replica.simulator.score, num_clusters=4, max_permutations=24
        )
        return replica, identity, result

    before = engine_stats()
    replica, identity, result = feasibility_and_search()
    searched = engine_stats()
    schedule, simulation = replica.simulator.simulation(result.order, name=kind.value)
    planned = engine_stats()

    def work(start: dict, end: dict) -> str:
        return f"timeline solves {end['timeline_solves'] - start['timeline_solves']}"

    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        feasibility_and_search()
        best = min(best, time.perf_counter() - start)

    print(f"micro-batches: {NUM_MICROBATCHES}   stages: {cost_model.num_stages}")
    print(f"identity order:    makespan {identity.makespan_ms:.3f} ms, "
          f"fits device memory: {identity.feasible}")
    print(f"permutations evaluated: {result.evaluated}   "
          f"feasibility + search: {work(before, searched)}")
    print(f"chosen order's timeline: {work(searched, planned)}")
    print(f"selected order:    {result.order}")
    print(f"makespan:          {simulation.makespan_ms:.3f} ms")
    print(f"feasibility + search: {best * 1e3:.2f} ms (best of {REPEATS})")

    # The same order built and simulated from scratch gives the same plan.
    build = AdaptiveScheduler(cost_model, device_memory).build(
        shapes, kind=kind, recompute=mode, injection_order=result.order
    )

    def comm_time(microbatch: int, src: int, dst: int, is_gradient: bool) -> float:
        transfer = replica.transfer_shapes
        nbytes = (
            transfer.grad_bytes(microbatch, src)
            if is_gradient
            else transfer.act_bytes(microbatch, src)
        )
        return network.p2p_time_ms(nbytes, same_node=True)

    reference = simulate_schedule(
        build.schedule,
        build.durations,
        comm_time_fn=comm_time,
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
    print("OK: the walked score and the plan's timeline are bit-identical to a")
    print("    from-scratch build + simulate.")


if __name__ == "__main__":
    main()
