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
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.batching.base import MicroBatch
from repro.batching.metrics import PaddingStats, padding_stats
from repro.cluster.network import NetworkModel
from repro.comm.planner import build_instruction_streams
from repro.comm.shapes import TransferShapes
from repro.core.adaptive_schedule import AdaptiveScheduler, ScheduleKind
from repro.core.dp_solver import DPSolution, PartitionError
from repro.core.execution_plan import ExecutionPlan, PlanMetadata
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.microbatch_ordering import OrderingSearchResult, cluster_and_order
from repro.core.ordering import OrderingMethod
from repro.core.recomputation import MODE_PREFERENCE, OutOfMemoryError
from repro.core.replica_balance import karmarkar_karp_partition
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode, weight_gradient_bytes
from repro.obs.registry import REGISTRY
from repro.obs.spans import span as _span
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import ScheduleDeadlockError
from repro.simulator.engine import SimulationResult, simulate_schedule
from repro.simulator.incremental import IncrementalOrderSimulator

#: Registry-backed planner counters (``planner.*`` in metric snapshots).
_PLANNER_STATS = REGISTRY.counter_dict(
    "planner",
    (
        "plans",
        "order_searches",
        "order_permutations_evaluated",
        "order_geometry_compiles",
        "order_timeline_solves",
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
        order_search: Whether to search micro-batch injection orders.
        incremental_order_search: Score permutations with the incremental
            simulator (compile the schedule geometry once, re-solve only the
            duration/order deltas) instead of rebuilding the full schedule
            and timeline per permutation.  Scores are bit-identical either
            way; this knob exists for A/B timing and as an escape hatch.
        num_time_clusters: Number of execution-time clusters for the order
            search (3–4 per the paper).
        max_order_permutations: Cap on evaluated cluster permutations.
        tmax_sample_count: Number of ``t_max`` candidates in the DP.
        max_microbatch_size: Maximum samples per micro-batch.
        stages_same_node: Whether adjacent pipeline stages share a node
            (selects the link class for inter-stage transfer times).
        data_parallel_same_node: Whether data-parallel replicas share a node
            (selects the link class for gradient all-reduce).
        model_comm_overlap: Fraction of the data-parallel all-reduce hidden
            behind computation (Megatron/DeepSpeed overlap gradients with the
            backward pass; 0 = fully exposed).
    """

    ordering_method: OrderingMethod = OrderingMethod.SORT
    schedule_kind: ScheduleKind = ScheduleKind.MEMORY_AWARE_ADAPTIVE
    device_memory_bytes: float | None = None
    per_microbatch_memory_fraction: float | None = None
    dynamic_recompute: bool = True
    recompute: RecomputeMode = RecomputeMode.NONE
    order_search: bool = True
    incremental_order_search: bool = True
    num_time_clusters: int = 3
    max_order_permutations: int = 24
    tmax_sample_count: int = 24
    max_microbatch_size: int = 256
    stages_same_node: bool = True
    data_parallel_same_node: bool = False
    model_comm_overlap: float = 0.5

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
        plans (destined for the instruction store) plus the iteration-level
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
        self.scheduler = AdaptiveScheduler(cost_model, self.device_memory_bytes)
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

    def _comm_time_fn(self, transfer_shapes: TransferShapes):
        """Inter-stage transfer time callback for the timeline simulation."""
        same_node = self.config.stages_same_node

        def comm_time(microbatch: int, src: int, dst: int, is_gradient: bool) -> float:
            if is_gradient:
                nbytes = transfer_shapes.grad_bytes(microbatch, src)
            else:
                nbytes = transfer_shapes.act_bytes(microbatch, src)
            return self.network.p2p_time_ms(nbytes, same_node=same_node)

        return comm_time

    def data_parallel_comm_ms(self) -> float:
        """Gradient all-reduce time across data-parallel replicas."""
        if self.data_parallel_size == 1:
            return 0.0
        per_stage_layers = max(
            assignment.total_layers for assignment in self.cost_model.assignments
        )
        grad_bytes = weight_gradient_bytes(
            self.cost_model.config, max(per_stage_layers, 1), self.cost_model.tensor_parallel
        )
        return self.network.allreduce_time_ms(
            grad_bytes,
            self.data_parallel_size,
            same_node=self.config.data_parallel_same_node,
        )

    def _partition(self, samples: Sequence[Sample], mode: RecomputeMode):
        """Run sample ordering + DP partitioning under ``mode``."""
        result, solution = self._batcher.split_with_solution(samples, recompute=mode)
        if solution is None:
            raise PartitionError("cannot partition an empty mini-batch")
        return result.micro_batches, solution

    def _schedule_replica(
        self,
        shapes: Sequence[MicroBatchShape],
        mode: RecomputeMode,
        transfer_shapes: TransferShapes,
        injection_order: Sequence[int] | None = None,
    ):
        """Build + simulate the configured schedule for one replica."""
        build = self.scheduler.build(
            shapes,
            kind=self.config.schedule_kind,
            recompute=mode,
            injection_order=injection_order,
        )
        static = [
            self.cost_model.stage_static_bytes(j) for j in range(self.cost_model.num_stages)
        ]
        simulation = simulate_schedule(
            build.schedule,
            build.durations,
            comm_time_fn=self._comm_time_fn(transfer_shapes),
            activation_bytes=build.activation_bytes,
            static_bytes=static,
        )
        return build, simulation

    def _replica_feasible(self, simulation: SimulationResult) -> bool:
        return all(
            peak <= self.device_memory_bytes * (1.0 + 1e-9)
            for peak in simulation.peak_activation_bytes
        )

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
            # Schedule + simulate each replica to verify memory feasibility.
            replica_results = []
            feasible = True
            for group in replica_groups:
                shapes = [mb.shape() for mb in group]
                transfer_shapes = TransferShapes.from_cost_model(self.cost_model, shapes)
                try:
                    build, simulation = self._schedule_replica(shapes, mode, transfer_shapes)
                except ScheduleDeadlockError as exc:
                    failures[mode] = f"unschedulable: {exc}"
                    feasible = False
                    break
                if not self._replica_feasible(simulation):
                    failures[mode] = (
                        f"peak memory {max(simulation.peak_activation_bytes) / 1e9:.2f} GB "
                        f"exceeds capacity {self.device_memory_bytes / 1e9:.2f} GB"
                    )
                    feasible = False
                    break
                replica_results.append((group, shapes, transfer_shapes, build, simulation))
            if feasible:
                chosen = (mode, micro_batches, solution, replica_results)
                break
        if chosen is None:
            raise OutOfMemoryError(
                "no recomputation mode produced a feasible plan: "
                + "; ".join(f"{mode.value}: {reason}" for mode, reason in failures.items())
            )

        mode, micro_batches, solution, replica_results = chosen
        replicas: list[ReplicaPlanResult] = []
        for replica_index, (group, shapes, transfer_shapes, build, simulation) in enumerate(
            replica_results
        ):
            ordering_result = None
            if self.config.order_search and len(shapes) > 1:
                ordering_result = self._search_injection_order(shapes, mode, transfer_shapes)
                if ordering_result.order != list(range(len(shapes))):
                    build, simulation = self._schedule_replica(
                        shapes, mode, transfer_shapes, injection_order=ordering_result.order
                    )
            streams = build_instruction_streams(
                build.schedule,
                simulation.op_times,
                shapes,
                transfer_shapes,
                recompute=mode,
            )
            metadata = PlanMetadata(
                iteration=iteration,
                replica=replica_index,
                schedule_name=build.schedule.name,
                recompute=mode,
                predicted_makespan_ms=simulation.makespan_ms,
                predicted_peak_memory_bytes=list(simulation.peak_activation_bytes),
                num_microbatches=len(shapes),
            )
            plan = ExecutionPlan(
                device_instructions=streams,
                microbatch_shapes=list(shapes),
                metadata=metadata,
            )
            replicas.append(
                ReplicaPlanResult(
                    plan=plan,
                    micro_batches=list(group),
                    simulation=simulation,
                    ordering_search=ordering_result,
                )
            )

        dp_comm = self.data_parallel_comm_ms()
        exposed_dp_comm = dp_comm * (1.0 - self.config.model_comm_overlap)
        predicted = max(r.simulation.makespan_ms for r in replicas) + exposed_dp_comm
        planning_time = time.perf_counter() - start_time
        for replica in replicas:
            replica.plan.metadata.planning_time_s = planning_time

        return IterationPlan(
            replicas=replicas,
            recompute=mode,
            predicted_iteration_ms=predicted,
            data_parallel_comm_ms=dp_comm,
            padding=padding_stats(micro_batches),
            dp_solution=solution,
            planning_time_s=planning_time,
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

    def _order_search_simulator(
        self,
        shapes: Sequence[MicroBatchShape],
        mode: RecomputeMode,
        transfer_shapes: TransferShapes,
    ) -> IncrementalOrderSimulator:
        """Build the incremental scorer's duration/comm/activation arrays.

        All values come from the same cost-model and network queries the
        legacy build-and-simulate path performs, so scores are bit-identical.
        """
        shapes = list(shapes)
        num_stages = self.cost_model.num_stages
        num_microbatches = len(shapes)
        forward_ms = np.empty((num_microbatches, num_stages))
        backward_ms = np.empty((num_microbatches, num_stages))
        activation = np.empty((num_microbatches, num_stages))
        for stage in range(num_stages):
            costs = self.cost_model.stage_costs_many(stage, shapes, mode)
            for index, cost in enumerate(costs):
                forward_ms[index, stage] = cost.forward_ms
                backward_ms[index, stage] = cost.backward_ms
                activation[index, stage] = cost.activation_bytes
        same_node = self.config.stages_same_node
        act_comm = np.zeros((num_microbatches, num_stages))
        grad_comm = np.zeros((num_microbatches, num_stages))
        for microbatch in range(num_microbatches):
            for src in range(num_stages - 1):
                act_comm[microbatch, src] = self.network.p2p_time_ms(
                    transfer_shapes.act_bytes(microbatch, src), same_node=same_node
                )
            for src in range(1, num_stages):
                grad_comm[microbatch, src] = self.network.p2p_time_ms(
                    transfer_shapes.grad_bytes(microbatch, src), same_node=same_node
                )
        limits = (
            self.scheduler.memory_limits()
            if self.config.schedule_kind is ScheduleKind.MEMORY_AWARE_ADAPTIVE
            else None
        )
        static = [
            self.cost_model.stage_static_bytes(j) for j in range(num_stages)
        ]
        return IncrementalOrderSimulator(
            num_stages,
            activation,
            forward_ms,
            backward_ms,
            act_comm,
            grad_comm,
            memory_limits=limits,
            static_bytes=static,
            device_memory_bytes=self.device_memory_bytes,
        )

    def _search_injection_order(
        self,
        shapes: Sequence[MicroBatchShape],
        mode: RecomputeMode,
        transfer_shapes: TransferShapes,
    ) -> OrderingSearchResult:
        """Cluster-permutation search over injection orders (§5).

        By default permutations are scored with the incremental simulator:
        the cyclic slot structure is derived per permutation with the lean
        slot scheduler, the dependency DAG is compiled once per distinct
        structure, and each candidate is a pure array re-solve.  The legacy
        path (rebuild the full schedule + timeline per permutation) is kept
        behind ``PlannerConfig.incremental_order_search=False`` and for the
        1F1B schedule, which ignores the injection order.
        """
        times = [
            float(t) for t in self.cost_model.microbatch_times_ms(list(shapes), mode)
        ]
        simulator: IncrementalOrderSimulator | None = None
        if (
            self.config.incremental_order_search
            and self.config.schedule_kind is not ScheduleKind.ONE_F_ONE_B
        ):
            simulator = self._order_search_simulator(shapes, mode, transfer_shapes)
            score = simulator.score
        else:
            comm_time = self._comm_time_fn(transfer_shapes)
            static = [
                self.cost_model.stage_static_bytes(j)
                for j in range(self.cost_model.num_stages)
            ]

            def score(order: Sequence[int]) -> float:
                try:
                    build = self.scheduler.build(
                        shapes,
                        kind=self.config.schedule_kind,
                        recompute=mode,
                        injection_order=order,
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
                if not self._replica_feasible(simulation):
                    return float("inf")
                return simulation.makespan_ms

        with _span("order_search", num_microbatches=len(times)):
            result = cluster_and_order(
                times,
                score,
                num_clusters=self.config.num_time_clusters,
                max_permutations=self.config.max_order_permutations,
            )
        if simulator is not None:
            result.geometry_compiles = simulator.compiles
            result.timeline_solves = simulator.solves
        _PLANNER_STATS["order_searches"] += 1
        _PLANNER_STATS["order_permutations_evaluated"] += result.evaluated
        if result.geometry_compiles is not None:
            _PLANNER_STATS["order_geometry_compiles"] += result.geometry_compiles
        if result.timeline_solves is not None:
            _PLANNER_STATS["order_timeline_solves"] += result.timeline_solves
        return result
