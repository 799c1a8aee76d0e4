"""Deep dive into one planning decision: T5, hybrid data + pipeline parallel.

The paper's planner makes four coupled decisions per iteration; this example
makes each of them visible on a single T5 mini-batch:

1. **Sample ordering** — compare the adjacent-length path of the raw
   sampling order, the sorted order, and the TSP-heuristic order.
2. **DP micro-batch construction** — show the chosen partition, the t_max
   that won, and how the Eq. 1 objective compares against token-based
   micro-batching.
3. **Replica balancing** — distribute the micro-batches over data-parallel
   replicas with Karmarkar–Karp and report the load imbalance.
4. **Dynamic recomputation** — plan the mini-batch with
   :class:`~repro.core.planner.DynaPipePlanner` on shrinking devices and
   show which recomputation mode it selects (the cheapest one whose
   partition and simulated peak memory fit).

Run with:  python examples/planner_deep_dive.py
"""

from __future__ import annotations

from repro.batching.token_based import TokenBasedBatching
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.ordering import OrderingMethod, order_samples, path_length
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.core.recomputation import OutOfMemoryError
from repro.core.replica_balance import karmarkar_karp_partition
from repro.costmodel.cost_model import CostModel
from repro.data.flan import SyntheticFlanDataset
from repro.data.sampler import MiniBatchSampler
from repro.data.truncation import truncate_samples
from repro.model.config import get_model_config

MAX_SEQ_LEN = 2048
GLOBAL_BATCH_TOKENS = 32768
DATA_PARALLEL = 2


def main() -> None:
    model = get_model_config("t5", num_gpus=8)
    cost_model = CostModel(
        model, num_stages=4, tensor_parallel=2, max_profile_seq_len=MAX_SEQ_LEN
    )
    dataset = SyntheticFlanDataset(num_samples=5_000, seed=3)
    samples = truncate_samples(dataset.samples, MAX_SEQ_LEN, decoder_only=False)
    minibatch = next(iter(MiniBatchSampler(samples, GLOBAL_BATCH_TOKENS, seed=0))).samples
    print(f"mini-batch: {len(minibatch)} samples / {sum(s.total_tokens for s in minibatch)} tokens")

    # 1. Sample ordering.
    print("\n--- 1. sample ordering (sum of adjacent length distances, lower is better) ---")
    for method in (OrderingMethod.NONE, OrderingMethod.SORT, OrderingMethod.TSP):
        ordered = order_samples(minibatch, method)
        print(f"  {method.value:5s}: path length {path_length(ordered):10.0f}")

    # 2. DP micro-batch construction vs token-based batching.  Selective
    # recomputation is assumed so that the longest single samples respect the
    # per-micro-batch memory limit (the planner's dynamic recomputation would
    # reach the same choice for this model/memory combination).
    print("\n--- 2. micro-batch construction ---")
    from repro.model.memory import RecomputeMode

    batcher = DynamicMicroBatcher(
        cost_model,
        sum_weight=1.0 / DATA_PARALLEL,
        tmax_sample_count=16,
        recompute=RecomputeMode.SELECTIVE,
    )
    result = batcher.split(minibatch)
    solution = batcher.last_solution
    assert solution is not None
    shapes = [mb.shape() for mb in result.micro_batches]
    print(f"  DP chose {len(shapes)} micro-batches (t_max = {solution.tmax_used:.1f} ms, "
          f"{solution.cost_evaluations} cost-model queries)")
    for index, (mb, time) in enumerate(zip(result.micro_batches, solution.times)):
        shape = mb.shape()
        print(f"    micro-batch {index:2d}: {shape.batch_size:3d} x ({shape.enc_seq_len:4d} enc, "
              f"{shape.dec_seq_len:4d} dec)  t={time:6.1f} ms")
    dp_objective = cost_model.iteration_time_ms(shapes)
    token_based = TokenBasedBatching(8192).split(minibatch)
    tb_objective = cost_model.iteration_time_ms([mb.shape() for mb in token_based.micro_batches])
    print(f"  Eq.1 iteration-time estimate: DP {dp_objective:.0f} ms vs token-based {tb_objective:.0f} ms")

    # 3. Replica balancing.
    print("\n--- 3. data-parallel replica balancing (Karmarkar-Karp) ---")
    times = [cost_model.microbatch_time_ms(shape) for shape in shapes]
    assignment = karmarkar_karp_partition(times, DATA_PARALLEL)
    for replica, (group, load) in enumerate(zip(assignment.groups, assignment.sums)):
        print(f"  replica {replica}: micro-batches {group} -> {load:.1f} ms")
    print(f"  imbalance: {assignment.imbalance:.1f} ms "
          f"({100 * assignment.imbalance / assignment.makespan:.1f}% of the slowest replica)")

    # 4. Dynamic recomputation under shrinking memory budgets.
    print("\n--- 4. dynamic recomputation ---")
    static = max(cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages))
    for headroom_gib in (64.0, 16.0, 1.0, 0.01):
        planner = DynaPipePlanner(
            cost_model,
            data_parallel_size=DATA_PARALLEL,
            config=PlannerConfig(
                order_search=False,
                tmax_sample_count=16,
                device_memory_bytes=static + headroom_gib * 1024**3,
            ),
        )
        try:
            plan = planner.plan(minibatch)
            peak = max(max(p.metadata.predicted_peak_memory_bytes) for p in plan.plans)
            print(f"  activation headroom {headroom_gib:5.2f} GiB -> {plan.recompute.value:9s} "
                  f"({plan.num_microbatches} micro-batches, predicted "
                  f"{plan.predicted_iteration_ms:.0f} ms, peak {peak / 1024**3:.2f} GiB)")
        except OutOfMemoryError:
            print(f"  activation headroom {headroom_gib:5.2f} GiB -> out of memory (iteration cannot run)")


if __name__ == "__main__":
    main()
