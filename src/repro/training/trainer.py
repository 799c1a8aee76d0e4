"""Simulated training loop.

:class:`TrainingSession` drives a planner (DynaPipe's
:class:`~repro.core.planner.DynaPipePlanner` or the
:class:`~repro.baselines.mlm_ds.MLMDeepSpeedBaseline`) over a dataset epoch:
for every mini-batch the planner produces execution plans, the plans are run
on the instruction-level executor against the *analytic* stage models (the
ground truth the cost model only approximates) with multiplicative
execution-time noise, and the resulting iteration times, memory peaks and
padding statistics are aggregated into a :class:`~repro.training.throughput.TrainingReport`.

The split between "predicted" (interpolated cost model, no noise) and
"measured" (analytic model + noise) is what gives the cost-model accuracy
experiment (Fig. 18) meaningful error bars, exactly as profiling-based
prediction differs from real execution on hardware.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.backends import BackendOptions, ExecutionBackend, get_backend
from repro.batching.metrics import PaddingStats
from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.core.execution_plan import ExecutionPlan
from repro.core.planner import IterationPlan
from repro.data.sampler import MiniBatch, MiniBatchSampler
from repro.data.tasks import Sample
from repro.data.truncation import truncate_samples
from repro.instructions.ops import BackwardPass, ForwardPass, PipelineInstruction
from repro.model.transformer import build_stage_models
from repro.obs import state as _obs_state
from repro.obs.spans import span as _span
from repro.parallel.dataparallel import EXPOSED_ALLREDUCE_FRACTION
from repro.runtime.planner_pool import PlannerPool
from repro.simulator.executor import ExecutionResult
from repro.training.throughput import IterationRecord, TrainingReport
from repro.utils.rng import SeedLike, new_rng


#: Job-stream name a pooled session registers its epoch under.
_SESSION_STREAM = "session"


class IterationPlanner(Protocol):
    """Anything that can plan a training iteration (DynaPipe or baseline)."""

    cost_model: object
    data_parallel_size: int

    def plan(self, samples: list[Sample], iteration: int = 0) -> IterationPlan:
        """Produce the iteration's execution plans."""
        ...  # pragma: no cover - protocol definition


@dataclass
class TrainerConfig:
    """Configuration of a simulated training run.

    Attributes:
        max_iterations: Number of mini-batches to process (None = full epoch).
        noise_std: Standard deviation of the multiplicative execution-time
            noise applied by the simulated devices.
        seed: Seed for the noise and the mini-batch sampler.
        max_seq_len: Maximum sequence length; longer samples are truncated
            before planning (both systems truncate, §8.1).
        stages_same_node: Link class for inter-stage transfers at execution.
        execute_plans: When False, skip the instruction-level execution and
            use the planner's predictions as the measured time (useful for
            fast sweeps where only relative planning output matters).
        planner_processes: When > 0, plan iterations ahead of execution with
            a :class:`~repro.runtime.planner_pool.PlannerPool` of that many
            worker processes (the paper's CPU-side planning overlap) instead
            of planning inline; plans are bit-identical to inline planning.
        planner_lookahead: Plan-ahead window (in iterations) of the pooled
            mode.
        planner_timeout_s: Maximum time to wait for one iteration's plan in
            the pooled mode before failing the run (a slow-but-healthy
            planner should raise this, not die).
        start_iteration: First iteration to process.  Earlier mini-batches
            are skipped (but keep their iteration numbers) and the
            execution-noise RNG is fast-forwarded as if they had executed,
            so a session resumed at an iteration boundary reproduces
            iterations ``>= start_iteration`` of an uninterrupted run
            bit-identically — the checkpoint/resume contract of the fleet
            scheduler's elastic re-plan path.
        execution_backend: Registered execution backend that runs the
            instruction streams (see :func:`repro.backends.get_backend`).
            ``"sim"`` (default) is the discrete-event executor and keeps
            every report bit-identical to previous releases; ``"local"``
            really executes each replica's streams on one worker process
            per stage with real IPC — it validates ordering and
            deadlock-freedom on a live runtime, but its measured iteration
            times are wall-clock milliseconds of the (tiny) real run, not
            simulated hardware time, so use it for conformance/validation
            runs rather than throughput figures.
        backend_options: Extra keyword arguments for the backend
            constructor (e.g. the local backend's ``timeout_s``).
    """

    max_iterations: int | None = 20
    noise_std: float = 0.05
    seed: SeedLike = 0
    max_seq_len: int | None = None
    stages_same_node: bool = True
    execute_plans: bool = True
    planner_processes: int = 0
    planner_lookahead: int = 4
    planner_timeout_s: float = 600.0
    start_iteration: int = 0
    execution_backend: str = "sim"
    backend_options: dict | None = None


class TrainingSession:
    """Runs a planner over a dataset epoch on the simulated cluster.

    Args:
        planner: The system under test (must expose ``plan`` and ``cost_model``).
        samples: Dataset samples for the epoch.
        global_batch_tokens: Global batch size in tokens per iteration.
        config: Trainer configuration.
        system_name: Label used in the report.
        network: Communication model used at execution time.
    """

    def __init__(
        self,
        planner: IterationPlanner,
        samples: Sequence[Sample],
        global_batch_tokens: int,
        config: TrainerConfig | None = None,
        system_name: str = "dynapipe",
        network: NetworkModel | None = None,
    ) -> None:
        self.planner = planner
        self.config = config or TrainerConfig()
        if self.config.start_iteration < 0:
            raise ValueError(
                f"start_iteration must be >= 0, got {self.config.start_iteration}"
            )
        self.system_name = system_name
        self.network = network or NetworkModel()
        cost_model = planner.cost_model
        self.cost_model = cost_model
        decoder_only = not cost_model.config.is_encoder_decoder
        if self.config.max_seq_len is not None:
            samples = truncate_samples(
                samples, self.config.max_seq_len, decoder_only=decoder_only
            )
        self.samples = list(samples)
        self.sampler = MiniBatchSampler(
            self.samples, global_batch_tokens, seed=self.config.seed
        )
        # Ground-truth stage models driven by a *noisy* device: this is what
        # "really" happens when a plan executes.
        self.stage_models = build_stage_models(
            cost_model.config,
            cost_model.num_stages,
            tensor_parallel=cost_model.tensor_parallel,
            zero_shards=cost_model.zero_shards,
        )
        self._noise_rng = new_rng(self.config.seed)
        #: Per-replica op traces of the most recent executed iteration
        #: (empty tuple when telemetry is off or nothing executed yet); the
        #: fleet scheduler forwards these to the merged-trace collector.
        self.last_op_traces: tuple = ()
        # Resuming at an iteration boundary: burn the noise-seed draws the
        # skipped iterations would have consumed (one per replica executor,
        # data_parallel_size per iteration), so the remaining iterations see
        # exactly the seeds an uninterrupted run would have given them.
        replicas = max(1, getattr(planner, "data_parallel_size", 1))
        for _ in range(self.config.start_iteration * replicas):
            self._noise_rng.integers(0, 2**31 - 1)
        #: Wall-clock seconds :meth:`pooled_step` spent blocked waiting for
        #: plans (the planning cost the pool did not hide).
        self.plan_wait_s = 0.0

    # ------------------------------------------------------------------ execution

    def _make_backend(self, plan: ExecutionPlan) -> ExecutionBackend:
        """Execution backend for one replica plan, with fresh noise.

        Exactly one noise-seed draw per call regardless of backend, so the
        checkpoint/resume RNG fast-forward (one draw per replica executor)
        stays valid.  Noiseless costs of ``plan.microbatch_shapes`` under
        ``plan.metadata.recompute`` (what every planner builds compute ops
        from) come from one :meth:`~repro.model.transformer.StageModel.cost_tables`
        call per stage; each op then calls ``forward_time_ms``/``backward_time_ms``
        with its table entries, which draws its noise in execution order.
        """
        noisy_gpu = SimulatedGPU(
            self.cost_model.device_spec,
            noise_std=self.config.noise_std,
            seed=int(self._noise_rng.integers(0, 2**31 - 1)),
        )
        shapes, recompute = plan.microbatch_shapes, plan.metadata.recompute
        tables = [
            stage_model.cost_tables(noisy_gpu, shapes, recompute)
            for stage_model in self.stage_models
        ]

        def duration(instr: PipelineInstruction) -> float:
            stage, i = instr.stage, instr.microbatch
            table, stage_model = tables[stage], self.stage_models[stage]
            if isinstance(instr, ForwardPass):
                costs = (table.forward_kernel_ms[i], table.tensor_parallel_ms[i])
                return stage_model.forward_time_ms(noisy_gpu, shapes[i], costs)
            if isinstance(instr, BackwardPass):
                costs = (table.backward_kernel_ms[i], table.tensor_parallel_ms[i])
                return stage_model.backward_time_ms(noisy_gpu, shapes[i], recompute, costs)
            raise TypeError(f"not a compute instruction: {type(instr).__name__}")

        def activation(instr: PipelineInstruction) -> float:
            return tables[instr.stage].activation_bytes[instr.microbatch]

        def transfer(nbytes: float, src: int, dst: int) -> float:
            return self.network.p2p_time_ms(nbytes, same_node=self.config.stages_same_node)

        static = [
            self.cost_model.stage_static_bytes(j) for j in range(self.cost_model.num_stages)
        ]
        options = BackendOptions(
            compute_duration_fn=duration,
            transfer_time_fn=transfer,
            activation_bytes_fn=activation,
            static_bytes=static,
        )
        return get_backend(
            self.config.execution_backend,
            options,
            **(self.config.backend_options or {}),
        )

    @staticmethod
    def _predicted_peak_bytes(plans: Sequence[ExecutionPlan]) -> float:
        """Largest per-stage predicted peak across replica plans."""
        return max(
            max(plan.metadata.predicted_peak_memory_bytes or [0.0]) for plan in plans
        )

    def _execute_replica_plans(
        self, plans: Sequence[ExecutionPlan], data_parallel_comm_ms: float
    ) -> tuple[float, float]:
        """Run each replica's plan; returns (iteration ms, peak memory bytes).

        Shared by the inline and pooled paths so they measure identically.
        """
        replica_times = []
        peak_memory = 0.0
        collect = _obs_state.enabled()
        traces = []
        with _span("execute", num_replicas=len(plans)):
            for plan in plans:
                backend = self._make_backend(plan)
                result: ExecutionResult = backend.run(plan.device_instructions)
                replica_times.append(result.makespan_ms)
                peak_memory = max(peak_memory, max(result.peak_memory_bytes))
                if collect:
                    traces.append(result.trace)
        self.last_op_traces = tuple(traces)
        exposed_dp = data_parallel_comm_ms * EXPOSED_ALLREDUCE_FRACTION
        return max(replica_times) + exposed_dp, peak_memory

    def execute_iteration(self, plan: IterationPlan) -> tuple[float, float]:
        """Execute an iteration's plans; returns (iteration ms, peak memory bytes)."""
        if not self.config.execute_plans:
            self.last_op_traces = ()
            return plan.predicted_iteration_ms, self._predicted_peak_bytes(plan.plans)
        return self._execute_replica_plans(plan.plans, plan.data_parallel_comm_ms)

    # ------------------------------------------------------------------ run loop

    def epoch_minibatches(self) -> list[MiniBatch]:
        """The epoch's mini-batches in ``[start_iteration, max_iterations)``.

        Mini-batches keep their absolute iteration indices, so a resumed
        session (``start_iteration > 0``) sees exactly the tail of the
        uninterrupted epoch.  The fleet scheduler steps these one at a time.
        """
        minibatches: list[MiniBatch] = []
        for minibatch in self.sampler.epoch(0):
            if (
                self.config.max_iterations is not None
                and minibatch.index >= self.config.max_iterations
            ):
                break
            if minibatch.index < self.config.start_iteration:
                continue
            minibatches.append(minibatch)
        return minibatches

    @staticmethod
    def _finalize_report(
        report: TrainingReport, enc_eff: list[float], dec_eff: list[float]
    ) -> TrainingReport:
        """Fold the per-iteration padding efficiencies into the report."""
        if enc_eff:
            report.encoder_padding_efficiency = sum(enc_eff) / len(enc_eff)
        if dec_eff:
            report.decoder_padding_efficiency = sum(dec_eff) / len(dec_eff)
        return report

    def run(self) -> TrainingReport:
        """Process the epoch (or the configured number of iterations)."""
        if self.config.planner_processes > 0:
            return self._run_pooled()
        report = TrainingReport(system=self.system_name)
        enc_eff: list[float] = []
        dec_eff: list[float] = []
        for minibatch in self.epoch_minibatches():
            record = self.run_iteration(minibatch)
            report.records.append(record)
            stats = self.last_padding_stats
            enc_eff.append(stats.encoder_efficiency)
            if stats.decoder_efficiency is not None:
                dec_eff.append(stats.decoder_efficiency)
        return self._finalize_report(report, enc_eff, dec_eff)

    def _run_pooled(self) -> TrainingReport:
        """Epoch loop with planning fanned out to worker processes.

        The session registers its epoch as one job stream on a
        :class:`PlannerPool`, which plans ``planner_lookahead`` iterations
        ahead while the current one executes.  The report's
        ``plan_wait_s`` is the planning time the overlap did not hide.
        """
        self.plan_wait_s = 0.0
        report = TrainingReport(system=self.system_name, plan_wait_s=0.0)
        minibatches = self.epoch_minibatches()
        if not minibatches:
            return report
        pool = PlannerPool(
            num_workers=self.config.planner_processes,
            lookahead=self.config.planner_lookahead,
        )
        # Plans are keyed by absolute iteration index: a resumed session's
        # stream starts at its first mini-batch, as an uninterrupted run's
        # keys would.
        pool.submit_job(
            _SESSION_STREAM,
            self.planner,
            [mb.samples for mb in minibatches],
            start=minibatches[0].index,
        )
        enc_eff: list[float] = []
        dec_eff: list[float] = []
        try:
            pool.start()
            for minibatch in minibatches:
                record, stats = self.pooled_step(pool, _SESSION_STREAM, minibatch)
                report.records.append(record)
                enc_eff.append(stats.encoder_efficiency)
                if stats.decoder_efficiency is not None:
                    dec_eff.append(stats.decoder_efficiency)
        finally:
            pool.stop()
        report.plan_wait_s = self.plan_wait_s
        return self._finalize_report(report, enc_eff, dec_eff)

    def pooled_step(
        self, pool: PlannerPool, job: str, minibatch: MiniBatch
    ) -> tuple[IterationRecord, PaddingStats]:
        """Execute ``minibatch`` from the plan ``pool`` made on stream ``job``.

        Waits for the plan, executes it and releases it back to the pool
        (advancing the stream's look-ahead window).  Only the wait is added
        to :attr:`plan_wait_s`; decoding and executing the plan are not.

        Raises:
            PlanFailedError: If the pool failed to plan the iteration.
            TimeoutError: If no plan arrives within ``planner_timeout_s``.
        """
        start = time.perf_counter()
        payload = pool.wait_payload(
            job, minibatch.index, timeout=self.config.planner_timeout_s
        )
        self.plan_wait_s += time.perf_counter() - start
        record, stats = self.record_from_payload(minibatch.index, payload)
        pool.notify_consumed(job, minibatch.index)
        return record, stats

    def record_from_payload(
        self, iteration: int, payload: dict
    ) -> tuple[IterationRecord, PaddingStats]:
        """Execute one pooled iteration's serialised plans and record it."""
        stats = PaddingStats.from_dict(payload["padding"])
        replica_plans = [ExecutionPlan.from_dict(p) for p in payload["replicas"]]
        predicted_ms = float(payload["predicted_iteration_ms"])
        predicted_peak = self._predicted_peak_bytes(replica_plans)
        if not self.config.execute_plans:
            self.last_op_traces = ()
            measured_ms, measured_peak = predicted_ms, predicted_peak
        else:
            measured_ms, measured_peak = self._execute_replica_plans(
                replica_plans, float(payload["data_parallel_comm_ms"])
            )
        record = IterationRecord(
            iteration=iteration,
            actual_tokens=stats.actual_tokens,
            padded_tokens=stats.padded_tokens,
            predicted_ms=predicted_ms,
            measured_ms=measured_ms,
            predicted_peak_bytes=predicted_peak,
            measured_peak_bytes=measured_peak,
            planning_time_s=float(payload["planning_time_s"]),
            num_microbatches=int(payload["num_microbatches"]),
            recompute=str(payload["recompute"]),
        )
        return record, stats

    @property
    def last_padding_stats(self) -> PaddingStats:
        """Padding statistics of the most recent :meth:`run_iteration` call."""
        return self._last_padding_stats

    def run_iteration(self, minibatch: MiniBatch) -> IterationRecord:
        """Plan and execute one mini-batch, returning its record."""
        plan = self.planner.plan(minibatch.samples, iteration=minibatch.index)
        measured_ms, measured_peak = self.execute_iteration(plan)
        # plan.padding already covers all of the iteration's micro-batches
        # (the pooled path relies on exactly this payload field).
        stats = self._last_padding_stats = plan.padding
        predicted_peak = self._predicted_peak_bytes(plan.plans)
        return IterationRecord(
            iteration=minibatch.index,
            actual_tokens=stats.actual_tokens,
            padded_tokens=stats.padded_tokens,
            predicted_ms=plan.predicted_iteration_ms,
            measured_ms=measured_ms,
            predicted_peak_bytes=predicted_peak,
            measured_peak_bytes=measured_peak,
            planning_time_s=plan.planning_time_s,
            num_microbatches=plan.num_microbatches,
            recompute=plan.recompute.value,
        )
