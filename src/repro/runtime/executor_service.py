"""Executor side of the runtime: fetch plans, run them, track stalls.

The executor service owns the simulated devices of one data-parallel replica
group.  For every iteration it fetches each replica's execution plan from
the instruction store — blocking (and recording the stall time) if planning
has not finished yet — deserialises it (not counted as stall), and runs it
on the instruction-level executor with execution-time noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.core.execution_plan import ExecutionPlan
from repro.costmodel.cost_model import CostModel
from repro.instructions.ops import BackwardPass, ForwardPass, PipelineInstruction
from repro.instructions.store import InstructionStore, PlanNotReadyError
from repro.model.transformer import build_stage_models
from repro.simulator.executor import InstructionExecutor
from repro.utils.rng import SeedLike, new_rng


@dataclass
class ExecutorStats:
    """Per-iteration execution statistics collected by the service.

    Attributes:
        iteration: Iteration index.
        stall_s: Wall-clock time spent waiting for the plan to appear in the
            instruction store (0 when planning kept ahead of execution).
        simulated_ms: Simulated execution time of the iteration (slowest
            replica).
        peak_memory_bytes: Largest per-device peak across replicas.
    """

    iteration: int
    stall_s: float
    simulated_ms: float
    peak_memory_bytes: float


@dataclass
class ExecutorService:
    """Fetches plans from the store and executes them on simulated devices.

    Attributes:
        cost_model: Cost model describing the pipeline (used to build the
            ground-truth stage models and static memory).
        store: The shared instruction store.
        data_parallel_size: Number of replicas whose plans to fetch per
            iteration.
        noise_std: Execution-time noise of the simulated devices.
        seed: Noise seed.
        fetch_timeout_s: Maximum time to wait for a plan before failing.
        stages_same_node: Link class used for inter-stage transfers.
    """

    cost_model: CostModel
    store: InstructionStore
    data_parallel_size: int = 1
    noise_std: float = 0.05
    seed: SeedLike = 0
    fetch_timeout_s: float = 120.0
    stages_same_node: bool = True
    stats: list[ExecutorStats] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._stage_models = build_stage_models(
            self.cost_model.config,
            self.cost_model.num_stages,
            tensor_parallel=self.cost_model.tensor_parallel,
            zero_shards=self.cost_model.zero_shards,
        )
        self._static = [
            self.cost_model.stage_static_bytes(j) for j in range(self.cost_model.num_stages)
        ]
        self._network = NetworkModel()
        self._rng = new_rng(self.seed)

    # ------------------------------------------------------------------ internals

    def _wait_payload(self, iteration: int, replica: int) -> dict:
        """Poll the store until the plan payload appears (no decoding)."""
        deadline = time.perf_counter() + self.fetch_timeout_s
        while True:
            try:
                return self.store.fetch(iteration, replica)
            except PlanNotReadyError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def _executor(self) -> InstructionExecutor:
        gpu = SimulatedGPU(
            self.cost_model.device_spec,
            noise_std=self.noise_std,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )

        def duration(instr: PipelineInstruction) -> float:
            stage_model = self._stage_models[instr.stage]
            if isinstance(instr, ForwardPass):
                return stage_model.forward_time_ms(gpu, instr.shape)
            if isinstance(instr, BackwardPass):
                return stage_model.backward_time_ms(gpu, instr.shape, instr.recompute)
            raise TypeError(f"not a compute instruction: {type(instr).__name__}")

        def activation(instr: PipelineInstruction) -> float:
            return self._stage_models[instr.stage].activation_bytes(instr.shape, instr.recompute)

        return InstructionExecutor(
            compute_duration_fn=duration,
            transfer_time_fn=lambda nbytes, src, dst: self._network.p2p_time_ms(
                nbytes, same_node=self.stages_same_node
            ),
            activation_bytes_fn=activation,
            static_bytes=self._static,
        )

    # ------------------------------------------------------------------ API

    def run_iteration(self, iteration: int) -> ExecutorStats:
        """Fetch and execute one iteration's plans; returns its statistics."""
        stall_start = time.perf_counter()
        payloads = [
            self._wait_payload(iteration, replica)
            for replica in range(self.data_parallel_size)
        ]
        stall = time.perf_counter() - stall_start
        plans = [ExecutionPlan.from_dict(payload) for payload in payloads]

        simulated_ms = 0.0
        peak = 0.0
        for plan in plans:
            result = self._executor().run(plan.device_instructions)
            simulated_ms = max(simulated_ms, result.makespan_ms)
            peak = max(peak, max(result.peak_memory_bytes))
        stats = ExecutorStats(
            iteration=iteration, stall_s=stall, simulated_ms=simulated_ms, peak_memory_bytes=peak
        )
        self.stats.append(stats)
        return stats

    def total_stall_s(self) -> float:
        """Total wall-clock time spent waiting for plans."""
        return sum(record.stall_s for record in self.stats)

    def total_simulated_ms(self) -> float:
        """Total simulated execution time across processed iterations."""
        return sum(record.simulated_ms for record in self.stats)
