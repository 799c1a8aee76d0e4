"""The DynaPipe per-iteration planner (paper §3–§7).

For every training iteration the planner turns a mini-batch of samples into
one execution plan per data-parallel replica:

1. order the samples and partition them into micro-batches with the DP
   algorithm (§4), using the ``1/|D|`` objective weight under data
   parallelism;
2. balance the micro-batches across data-parallel replicas with the
   Karmarkar–Karp differencing method (§4);
3. pick the cheapest recomputation mode that fits in device memory (§7),
   re-running partitioning under heavier modes if necessary;
4. search micro-batch injection orders by clustering predicted execution
   times and permuting the clusters (§5);
5. build the memory-aware adaptive schedule (§5, Alg. 1), simulate its
   timeline, and plan all communication ahead of time (§6);
6. emit per-device instruction streams together with the planner's
   predictions (iteration time, peak memory) for later comparison against
   the "measured" execution.

Steps 3–6 of every replica go through one :class:`ReplicaPipeline`, the
path the MLM+DS baseline shares: its
:class:`~repro.simulator.incremental.IncrementalOrderSimulator` times and
memory-checks the identity order as the feasibility check, the search scores
each permutation with one timed walk of Algorithm 1, and only the chosen
order's sequences are walked again, once, into the replica's timeline,
communication plan and instruction streams.  1F1B ignores the injection
order, so its replicas run the fixed 1F1B sequences on the same simulator
and skip the search.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from repro.batching.base import MicroBatch
from repro.batching.metrics import PaddingStats, padding_stats
from repro.cluster.network import NetworkModel
from repro.comm.planner import build_instruction_streams
from repro.comm.shapes import TransferShapes
from repro.core.adaptive_schedule import ScheduleKind
from repro.core.dp_solver import DPSolution, PartitionError
from repro.core.execution_plan import ExecutionPlan, PlanMetadata
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.microbatch_ordering import OrderingSearchResult, cluster_and_order
from repro.core.ordering import OrderingMethod
from repro.core.recomputation import MODE_PREFERENCE, OutOfMemoryError
from repro.core.replica_balance import karmarkar_karp_partition
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.obs.registry import REGISTRY
from repro.obs.spans import span as _span
from repro.parallel.dataparallel import EXPOSED_ALLREDUCE_FRACTION, gradient_allreduce_ms
from repro.schedule.cyclic import ScheduleDeadlockError
from repro.schedule.one_f_one_b import one_f_one_b_stage_sequences
# ``simulate_schedule`` is not called here; perfbench's tracer times its
# "simulate" layer at this module's name for it.
from repro.simulator.engine import SimulationResult, simulate_schedule  # noqa: F401
from repro.simulator.incremental import IncrementalOrderSimulator

#: Registry-backed planner counters (``planner.*`` in metric snapshots).
_PLANNER_STATS = REGISTRY.counter_dict(
    "planner",
    (
        "plans",
        "order_searches",
        "order_permutations_evaluated",
    ),
)


@dataclass
class PlannerConfig:
    """Tunable knobs of the DynaPipe planner.

    Attributes:
        ordering_method: Sample ordering before DP partitioning.
        schedule_kind: Pipeline schedule family to build.
        device_memory_bytes: Usable memory per device (defaults to the cost
            model's device capacity).
        per_microbatch_memory_fraction: Fraction of the activation budget a
            single micro-batch may use during DP partitioning; defaults to
            ``1 / num_stages`` (the 1F1B-style bound of §4).
        dynamic_recompute: Whether to search recomputation modes per
            iteration; when False, ``recompute`` is used unconditionally.
        recompute: Recomputation mode used when ``dynamic_recompute`` is off.
        order_search: Whether to search micro-batch injection orders (cyclic
            schedule kinds only; 1F1B ignores the injection order).
        num_time_clusters: Number of execution-time clusters for the order
            search (3–4 per the paper).
        max_order_permutations: Cap on evaluated cluster permutations.
        tmax_sample_count: Number of ``t_max`` candidates in the DP.
        max_microbatch_size: Maximum samples per micro-batch.
        stages_same_node: Whether adjacent pipeline stages share a node
            (selects the link class for inter-stage transfer times).
        data_parallel_same_node: Whether data-parallel replicas share a node
            (selects the link class for gradient all-reduce).
    """

    ordering_method: OrderingMethod = OrderingMethod.SORT
    schedule_kind: ScheduleKind = ScheduleKind.MEMORY_AWARE_ADAPTIVE
    device_memory_bytes: float | None = None
    per_microbatch_memory_fraction: float | None = None
    dynamic_recompute: bool = True
    recompute: RecomputeMode = RecomputeMode.NONE
    order_search: bool = True
    num_time_clusters: int = 3
    max_order_permutations: int = 24
    tmax_sample_count: int = 24
    max_microbatch_size: int = 256
    stages_same_node: bool = True
    data_parallel_same_node: bool = False

    def __post_init__(self) -> None:
        for name in (
            "num_time_clusters",
            "max_order_permutations",
            "tmax_sample_count",
            "max_microbatch_size",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> dict[str, Any]:
        """Serialise the configuration (enums by value) for worker processes."""
        payload = asdict(self)
        payload["ordering_method"] = self.ordering_method.value
        payload["schedule_kind"] = self.schedule_kind.value
        payload["recompute"] = self.recompute.value
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PlannerConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        payload = dict(payload)
        payload["ordering_method"] = OrderingMethod(payload["ordering_method"])
        payload["schedule_kind"] = ScheduleKind(payload["schedule_kind"])
        payload["recompute"] = RecomputeMode(payload["recompute"])
        return cls(**payload)


@dataclass
class ReplicaPlanResult:
    """Planning artefacts for one data-parallel replica."""

    plan: ExecutionPlan
    micro_batches: list[MicroBatch]
    simulation: SimulationResult
    ordering_search: OrderingSearchResult | None = None


class ReplicaPipeline:
    """One data-parallel replica, from micro-batch shapes to its plan.

    Every replica plan the planner and the MLM+DS baseline emit is built
    here.  The constructor prices each (micro-batch, stage) op and
    inter-stage transfer once into :attr:`simulator`, which schedules
    ``kind`` (cyclic kinds per injection order, 1F1B on its fixed
    sequences) and times and memory-checks any injection order;
    :meth:`lower` turns the chosen order into the replica's instruction
    streams and :class:`ReplicaPlanResult`.  All values come from the same
    cost-model and network queries as building the schedule with
    :class:`~repro.core.adaptive_schedule.AdaptiveScheduler` and running
    :func:`~repro.simulator.engine.simulate_schedule` on it, so timelines
    are bit-identical.

    Args:
        cost_model: Cost model of the replica's pipeline.
        shapes: Padded micro-batch shapes, indexed by micro-batch id.
        mode: Recomputation mode of every op.
        kind: Pipeline schedule family.
        device_memory_bytes: Per-device capacity; orders whose peak memory
            exceeds it are infeasible.  The memory-aware schedule limits
            each stage's activations to this minus its static memory.
        network: Communication model of the inter-stage transfers.
        stages_same_node: Whether adjacent stages share a node.
    """

    def __init__(
        self,
        cost_model: CostModel,
        shapes: Sequence[MicroBatchShape],
        mode: RecomputeMode,
        kind: ScheduleKind,
        device_memory_bytes: float,
        network: NetworkModel,
        stages_same_node: bool = True,
    ) -> None:
        self.shapes = list(shapes)
        self.mode = mode
        self.kind = ScheduleKind(kind)
        self.transfer_shapes = TransferShapes.from_cost_model(cost_model, self.shapes)
        num_stages = cost_model.num_stages
        num_microbatches = len(self.shapes)
        forward_ms = np.empty((num_microbatches, num_stages))
        backward_ms = np.empty((num_microbatches, num_stages))
        activation = np.empty((num_microbatches, num_stages))
        for stage in range(num_stages):
            costs = cost_model.stage_costs_many(stage, self.shapes, mode)
            for index, cost in enumerate(costs):
                forward_ms[index, stage] = cost.forward_ms
                backward_ms[index, stage] = cost.backward_ms
                activation[index, stage] = cost.activation_bytes
        act_comm = np.zeros((num_microbatches, num_stages))
        grad_comm = np.zeros((num_microbatches, num_stages))
        for microbatch in range(num_microbatches):
            for src in range(num_stages - 1):
                act_comm[microbatch, src] = network.p2p_time_ms(
                    self.transfer_shapes.act_bytes(microbatch, src), same_node=stages_same_node
                )
            for src in range(1, num_stages):
                grad_comm[microbatch, src] = network.p2p_time_ms(
                    self.transfer_shapes.grad_bytes(microbatch, src), same_node=stages_same_node
                )
        limits = None
        if self.kind is ScheduleKind.MEMORY_AWARE_ADAPTIVE:
            limits = [
                cost_model.activation_budget_bytes(stage, device_memory_bytes)
                for stage in range(num_stages)
            ]
        self.simulator = IncrementalOrderSimulator(
            num_stages,
            activation,
            forward_ms,
            backward_ms,
            act_comm,
            grad_comm,
            memory_limits=limits,
            static_bytes=[cost_model.stage_static_bytes(j) for j in range(num_stages)],
            device_memory_bytes=device_memory_bytes,
            stage_sequences=(
                one_f_one_b_stage_sequences(num_stages, num_microbatches)
                if self.kind is ScheduleKind.ONE_F_ONE_B
                else None
            ),
        )

    def lower(
        self,
        order: Sequence[int],
        micro_batches: Sequence[MicroBatch],
        iteration: int,
        replica: int,
        ordering_search: OrderingSearchResult | None = None,
    ) -> ReplicaPlanResult:
        """The plan of injection ``order``: its timeline (the simulator
        walks its sequences once), instruction streams and predictions."""
        schedule, simulation = self.simulator.simulation(order, name=self.kind.value)
        streams = build_instruction_streams(
            schedule, simulation.op_times, self.shapes, self.transfer_shapes, recompute=self.mode
        )
        metadata = PlanMetadata(
            iteration=iteration,
            replica=replica,
            schedule_name=schedule.name,
            recompute=self.mode,
            predicted_makespan_ms=simulation.makespan_ms,
            predicted_peak_memory_bytes=list(simulation.peak_activation_bytes),
            num_microbatches=len(self.shapes),
        )
        plan = ExecutionPlan(
            device_instructions=streams, microbatch_shapes=list(self.shapes), metadata=metadata
        )
        return ReplicaPlanResult(
            plan=plan,
            micro_batches=list(micro_batches),
            simulation=simulation,
            ordering_search=ordering_search,
        )


@dataclass
class IterationPlan:
    """Everything the planner produced for one training iteration.

    Attributes:
        replicas: Per-replica plan results.
        recompute: The recomputation mode selected for the iteration.
        predicted_iteration_ms: Predicted iteration time — slowest replica's
            makespan plus the exposed part of the gradient all-reduce.
        data_parallel_comm_ms: Modelled gradient all-reduce time.
        padding: Padding statistics over all micro-batches of the iteration.
        dp_solution: The DP partition solution (order + boundaries); ``None``
            for planners that do not use the DP construction (baselines reuse
            this container).
        planning_time_s: Wall-clock planning time for the whole iteration.
    """

    replicas: list[ReplicaPlanResult]
    recompute: RecomputeMode
    predicted_iteration_ms: float
    data_parallel_comm_ms: float
    padding: PaddingStats
    dp_solution: DPSolution | None
    planning_time_s: float

    @property
    def plans(self) -> list[ExecutionPlan]:
        """Per-replica execution plans."""
        return [replica.plan for replica in self.replicas]

    @property
    def num_microbatches(self) -> int:
        """Total number of micro-batches across replicas."""
        return sum(len(replica.micro_batches) for replica in self.replicas)

    def all_micro_batches(self) -> list[MicroBatch]:
        """All micro-batches of the iteration (replica-major order)."""
        return [mb for replica in self.replicas for mb in replica.micro_batches]

    def to_dict(self) -> dict[str, Any]:
        """Serialise the iteration plan to a JSON-compatible payload.

        This is the payload a planner-pool worker ships back to the parent:
        per-replica :meth:`~repro.core.execution_plan.ExecutionPlan.to_dict`
        plans (destined for the executors) plus the iteration-level
        results a training loop needs (predictions, padding statistics,
        recomputation mode).  The in-memory simulation and micro-batch
        objects are deliberately not serialised — executors re-derive
        everything they need from the instruction streams.
        """
        return {
            "replicas": [plan.to_dict() for plan in self.plans],
            "recompute": self.recompute.value,
            "predicted_iteration_ms": self.predicted_iteration_ms,
            "data_parallel_comm_ms": self.data_parallel_comm_ms,
            "padding": self.padding.to_dict(),
            "num_microbatches": self.num_microbatches,
            "planning_time_s": self.planning_time_s,
        }


def assemble_iteration_plan(
    replicas: list[ReplicaPlanResult],
    recompute: RecomputeMode,
    micro_batches: Sequence[MicroBatch],
    dp_solution: DPSolution | None,
    start_time: float,
    cost_model: CostModel,
    data_parallel_size: int,
    network: NetworkModel,
    data_parallel_same_node: bool,
) -> IterationPlan:
    """The planning tail DynaPipe and the MLM+DS baseline share: predict the
    iteration (slowest replica plus the exposed gradient all-reduce) and
    stamp the planning time since ``start_time`` (``time.perf_counter()``)."""
    dp_comm = gradient_allreduce_ms(
        cost_model.config, data_parallel_size, cost_model.num_stages,
        cost_model.tensor_parallel, network=network, same_node=data_parallel_same_node,
    )
    predicted = (
        max(r.simulation.makespan_ms for r in replicas) + dp_comm * EXPOSED_ALLREDUCE_FRACTION
    )
    planning_time = time.perf_counter() - start_time
    for replica in replicas:
        replica.plan.metadata.planning_time_s = planning_time
    return IterationPlan(
        replicas=replicas,
        recompute=recompute,
        predicted_iteration_ms=predicted,
        data_parallel_comm_ms=dp_comm,
        padding=padding_stats(micro_batches),
        dp_solution=dp_solution,
        planning_time_s=planning_time,
    )


class DynaPipePlanner:
    """Per-iteration planner combining all of DynaPipe's techniques.

    Args:
        cost_model: Cost model of one replica's pipeline (defines the number
            of stages and the tensor-parallel degree).
        data_parallel_size: Number of data-parallel model replicas.
        config: Planner configuration.
        network: Communication model used for inter-stage transfers and the
            gradient all-reduce.
    """

    def __init__(
        self,
        cost_model: CostModel,
        data_parallel_size: int = 1,
        config: PlannerConfig | None = None,
        network: NetworkModel | None = None,
    ) -> None:
        if data_parallel_size < 1:
            raise ValueError(f"data_parallel_size must be >= 1, got {data_parallel_size}")
        self.cost_model = cost_model
        self.data_parallel_size = data_parallel_size
        self.config = config or PlannerConfig()
        self.network = network or NetworkModel()
        self.device_memory_bytes = (
            self.config.device_memory_bytes
            if self.config.device_memory_bytes is not None
            else cost_model.device_spec.memory_capacity
        )
        if cost_model.min_activation_budget_bytes(self.device_memory_bytes) <= 0:
            raise OutOfMemoryError(
                f"static memory of {cost_model.config.name} with "
                f"{cost_model.num_stages} pipeline stages and tensor parallelism "
                f"{cost_model.tensor_parallel} exceeds the device memory of "
                f"{self.device_memory_bytes / 1e9:.1f} GB; increase pipeline or "
                "tensor parallelism"
            )
        # One batcher for all iterations and recomputation-mode retries: its
        # window-shape geometry cache and the cost model's shape-keyed caches
        # make retries and repeated iterations reuse all prior cost queries.
        self._batcher = DynamicMicroBatcher(
            self.cost_model,
            ordering=self.config.ordering_method,
            recompute=self.config.recompute,
            per_microbatch_memory_bytes=self._per_microbatch_memory_bytes(),
            sum_weight=1.0 / self.data_parallel_size,
            tmax_sample_count=self.config.tmax_sample_count,
            max_microbatch_size=self.config.max_microbatch_size,
        )

    # ------------------------------------------------------------------ serialisation

    def to_spec(self) -> dict[str, Any]:
        """Serialise everything needed to rebuild this planner in another process.

        The spec embeds the cost model's full profile database (via
        :func:`repro.costmodel.serialization.cost_model_to_dict`), so
        :meth:`from_spec` never re-profiles and a rebuilt planner produces
        bit-identical plans.
        """
        from repro.costmodel.serialization import cost_model_to_dict

        return {
            "cost_model": cost_model_to_dict(self.cost_model),
            "data_parallel_size": self.data_parallel_size,
            "config": self.config.to_dict(),
            "network": self.network.to_dict(),
        }

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "DynaPipePlanner":
        """Rebuild a planner from :meth:`to_spec` output."""
        from repro.costmodel.serialization import cost_model_from_dict

        return cls(
            cost_model=cost_model_from_dict(spec["cost_model"]),
            data_parallel_size=int(spec["data_parallel_size"]),
            config=PlannerConfig.from_dict(spec["config"]),
            network=NetworkModel.from_dict(spec["network"]),
        )

    # ------------------------------------------------------------------ helpers

    def _per_microbatch_memory_bytes(self) -> float:
        budget = self.cost_model.min_activation_budget_bytes(self.device_memory_bytes)
        fraction = self.config.per_microbatch_memory_fraction
        if fraction is None:
            fraction = 1.0 / self.cost_model.num_stages
        return budget * fraction

    def _partition(self, samples: Sequence[Sample], mode: RecomputeMode):
        """Run sample ordering + DP partitioning under ``mode``."""
        result, solution = self._batcher.split_with_solution(samples, recompute=mode)
        if solution is None:
            raise PartitionError("cannot partition an empty mini-batch")
        return result.micro_batches, solution

    # ------------------------------------------------------------------ planning

    def plan(self, samples: Sequence[Sample], iteration: int = 0) -> IterationPlan:
        """Produce the execution plans for one mini-batch.

        Raises:
            OutOfMemoryError: If no recomputation mode fits the iteration.
        """
        with _span("plan", iteration=iteration, num_samples=len(samples)):
            return self._plan_impl(samples, iteration)

    def _plan_impl(self, samples: Sequence[Sample], iteration: int) -> IterationPlan:
        if not samples:
            raise ValueError("cannot plan an iteration with no samples")
        start_time = time.perf_counter()
        _PLANNER_STATS["plans"] += 1

        modes = MODE_PREFERENCE if self.config.dynamic_recompute else (self.config.recompute,)
        failures: dict[RecomputeMode, str] = {}
        chosen = None
        for mode in modes:
            try:
                micro_batches, solution = self._partition(samples, mode)
            except PartitionError as exc:
                failures[mode] = str(exc)
                continue
            # Balance across data-parallel replicas.
            times = [
                float(t)
                for t in self.cost_model.microbatch_times_ms(
                    [mb.shape() for mb in micro_batches], mode
                )
            ]
            assignment = karmarkar_karp_partition(times, self.data_parallel_size)
            replica_groups = [
                [micro_batches[i] for i in group] for group in assignment.groups
            ]
            # Every replica must hold at least one micro-batch to keep the
            # pipeline (and gradient synchronisation) well formed.
            if any(not group for group in replica_groups) and len(micro_batches) >= self.data_parallel_size:
                replica_groups = self._rebalance_nonempty(micro_batches, times)
            if any(not group for group in replica_groups):
                failures[mode] = (
                    f"only {len(micro_batches)} micro-batches for "
                    f"{self.data_parallel_size} data-parallel replicas"
                )
                continue
            # Simulate each replica's identity order to verify memory
            # feasibility.
            replica_results = []
            for group in replica_groups:
                pipeline = ReplicaPipeline(
                    self.cost_model,
                    [mb.shape() for mb in group],
                    mode,
                    self.config.schedule_kind,
                    self.device_memory_bytes,
                    self.network,
                    self.config.stages_same_node,
                )
                try:
                    identity = pipeline.simulator.evaluate(range(len(group)))
                except ScheduleDeadlockError as exc:
                    failures[mode] = f"unschedulable: {exc}"
                    break
                if not identity.feasible:
                    failures[mode] = (
                        f"peak memory {max(identity.peak_activation_bytes) / 1e9:.2f} GB "
                        f"exceeds capacity {self.device_memory_bytes / 1e9:.2f} GB"
                    )
                    break
                replica_results.append((group, pipeline))
            else:
                chosen = (mode, micro_batches, solution, replica_results)
                break
        if chosen is None:
            raise OutOfMemoryError(
                "no recomputation mode produced a feasible plan: "
                + "; ".join(f"{mode.value}: {reason}" for mode, reason in failures.items())
            )

        mode, micro_batches, solution, replica_results = chosen
        search = (
            self.config.order_search
            and self.config.schedule_kind is not ScheduleKind.ONE_F_ONE_B
        )
        replicas: list[ReplicaPlanResult] = []
        for replica_index, (group, pipeline) in enumerate(replica_results):
            order = list(range(len(group)))
            ordering_result = None
            if search and len(group) > 1:
                ordering_result = self._search_injection_order(pipeline)
                # An all-infeasible search keeps the identity order, which
                # passed the feasibility check above.
                if math.isfinite(ordering_result.makespan_ms):
                    order = ordering_result.order
            replicas.append(
                pipeline.lower(order, group, iteration, replica_index, ordering_result)
            )

        return assemble_iteration_plan(
            replicas, mode, micro_batches, solution, start_time, self.cost_model,
            self.data_parallel_size, self.network, self.config.data_parallel_same_node,
        )

    # ------------------------------------------------------------------ internals

    def _rebalance_nonempty(self, micro_batches, times):
        """Fallback balancing guaranteeing every replica gets >= 1 micro-batch.

        Longest-processing-time greedy assignment with a non-emptiness
        constraint; only used when Karmarkar–Karp leaves a replica empty
        (possible when there are very few micro-batches).
        """
        order = sorted(range(len(micro_batches)), key=lambda i: times[i], reverse=True)
        groups: list[list] = [[] for _ in range(self.data_parallel_size)]
        loads = [0.0] * self.data_parallel_size
        for rank, index in enumerate(order):
            if rank < self.data_parallel_size:
                target = rank
            else:
                target = min(range(self.data_parallel_size), key=lambda d: loads[d])
            groups[target].append(micro_batches[index])
            loads[target] += times[index]
        return groups

    def _search_injection_order(self, pipeline: ReplicaPipeline) -> OrderingSearchResult:
        """Cluster-permutation search over injection orders (§5).

        Each permutation is scored by one timed walk of Algorithm 1 on the
        replica's incremental simulator; the search walks no fixed
        sequences.
        """
        times = [
            float(t) for t in self.cost_model.microbatch_times_ms(pipeline.shapes, pipeline.mode)
        ]
        with _span("order_search", num_microbatches=len(times)):
            result = cluster_and_order(
                times,
                pipeline.simulator.score,
                num_clusters=self.config.num_time_clusters,
                max_permutations=self.config.max_order_permutations,
            )
        _PLANNER_STATS["order_searches"] += 1
        _PLANNER_STATS["order_permutations_evaluated"] += result.evaluated
        return result
