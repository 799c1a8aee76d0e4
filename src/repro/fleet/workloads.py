"""Seeded synthetic multi-tenant workload traces for fleet-at-scale runs.

The fleet benchmarks and examples need *large* job populations (hundreds to
thousands of jobs over ~1k devices) with realistic arrival structure —
which the hand-written job lists of the unit tests cannot provide.  This
module generates such populations deterministically:

* **Arrivals** follow an inhomogeneous Poisson process sampled by
  thinning: a diurnal sinusoid modulates the base rate (day/night load
  swing) and periodic *burst windows* multiply it (batch-submission
  spikes), the two canonical shapes of production cluster traces.
* **Jobs** mix decoder-only and encoder-decoder model families of several
  sizes (different pipeline depths, base iteration times and
  data-parallel widths), three priority tiers, and a handful of tenants.
* **Faults** reuse the :mod:`repro.fleet.faults` generators: a seeded
  failure storm across the whole trace span plus correlated rack outages,
  serialised into the trace so a replay sees the identical fault plan.

A trace is a plain-data :class:`WorkloadTrace` — JSON round-trippable, so
generated traces can be stored, shipped and replayed bit-identically.
Replay materialises each :class:`TraceJob` into a real
:class:`~repro.fleet.job.JobSpec` whose planner is a
:class:`SyntheticTracePlanner`: a constant-work stub that skips real
planning and instead synthesises the iteration time from the job's seeded
jitter stream (``execute_plans=False`` makes the trainer adopt it as the
measured time).  This keeps replay cost proportional to the *scheduler's*
work — exactly what the fleet-at-scale benchmark wants to measure — while
exercising the full admission/eviction/failure machinery.

Determinism contract: ``generate_trace(seed=s)`` is bit-stable across
processes (string-seeded :class:`random.Random` streams only), and
``replay_trace`` of equal traces under equal policy produces
bit-identical :class:`~repro.fleet.metrics.FleetReport` summaries.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.batching.metrics import PaddingStats
from repro.cluster.device import DeviceSpec
from repro.cluster.topology import ClusterTopology
from repro.core.execution_plan import ExecutionPlan, PlanMetadata
from repro.core.planner import IterationPlan, ReplicaPlanResult
from repro.core.recomputation import RecomputeMode
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.fleet.faults import FaultInjector, FaultPlan, failure_storm, rack_outage
from repro.fleet.job import JobSpec
from repro.fleet.metrics import FleetReport
from repro.fleet.scheduler import FleetConfig, FleetScheduler
from repro.model.config import ModelArch, ModelConfig
from repro.parallel.config import ParallelConfig

# ---------------------------------------------------------------------- catalog

#: Tokens per iteration of every trace job.  Each synthetic sample is sized
#: to fill one mini-batch exactly (``total_tokens == GLOBAL_BATCH_TOKENS``),
#: so a job's epoch length equals the shared sample-pool size and
#: ``num_iterations`` maps 1:1 onto mini-batches.
GLOBAL_BATCH_TOKENS = 2048

#: Shared sample-pool size — the upper bound of a trace job's iterations.
TRACE_EPOCH_SAMPLES = 64


@dataclass(frozen=True)
class WorkloadModel:
    """One model family of the synthetic workload mix.

    Attributes:
        key: Catalog key stored in the trace (``"gpt-small"``...).
        arch: ``"gpt"`` (decoder-only) or ``"t5"`` (encoder-decoder).
        pipeline_parallel: Pipeline depth of one replica.
        tensor_parallel: Tensor-parallel degree within each stage.
        base_iteration_ms: Mean iteration time at the requested width.
        dp_choices: Data-parallel widths the generator draws from.
        weight: Relative sampling weight in the mix.
    """

    key: str
    arch: str
    pipeline_parallel: int
    tensor_parallel: int
    base_iteration_ms: float
    dp_choices: tuple[int, ...]
    weight: float


#: The default model mix: small jobs dominate (as in production traces),
#: large pipelines are rare but occupy big gangs for a long time.
MODEL_CATALOG: tuple[WorkloadModel, ...] = (
    WorkloadModel("gpt-small", "gpt", 1, 1, 400.0, (1, 2, 4), 0.40),
    WorkloadModel("gpt-medium", "gpt", 2, 1, 900.0, (1, 2, 4), 0.25),
    WorkloadModel("gpt-large", "gpt", 4, 1, 2200.0, (2, 4), 0.10),
    WorkloadModel("t5-small", "t5", 1, 1, 500.0, (1, 2, 4), 0.15),
    WorkloadModel("t5-large", "t5", 2, 1, 1400.0, (2, 4), 0.10),
)

_MODELS: dict[str, WorkloadModel] = {m.key: m for m in MODEL_CATALOG}

#: Device used by every trace job's cost model.  Memory is generous: trace
#: replay never plans for real, so memory limits should not bind.
_TRACE_DEVICE = DeviceSpec(
    name="trace-gpu-16GB",
    peak_flops=100e12,
    memory_bandwidth=1e12,
    memory_capacity=16 * 1024**3,
)

_COST_MODELS: dict[str, CostModel] = {}
_SAMPLE_POOLS: dict[str, list[Sample]] = {}


def workload_cost_model(key: str) -> CostModel:
    """The (cached) tiny cost model of catalog entry ``key``.

    Trace replay only uses the cost model for stage bookkeeping (the
    synthetic planner never queries costs), so the underlying model is
    deliberately tiny — building all five catalog entries takes well under
    a second and happens once per process.
    """
    model = _MODELS[key]
    cached = _COST_MODELS.get(key)
    if cached is not None:
        return cached
    arch = ModelArch.GPT if model.arch == "gpt" else ModelArch.T5
    config = ModelConfig(
        name=f"trace-{key}",
        arch=arch,
        # num_layers is per encoder/decoder block for T5; keep >= stages.
        num_layers=max(2, model.pipeline_parallel),
        hidden_size=256,
        num_heads=4,
        kv_channels=64,
        ffn_hidden_size=1024,
        vocab_size=32000,
    )
    cost_model = CostModel(
        config,
        num_stages=model.pipeline_parallel,
        device_spec=_TRACE_DEVICE,
        max_profile_batch_size=8,
        max_profile_seq_len=1024,
    )
    _COST_MODELS[key] = cost_model
    return cost_model


def _sample_pool(arch: str) -> list[Sample]:
    """Shared per-architecture sample pool; every sample fills one batch."""
    cached = _SAMPLE_POOLS.get(arch)
    if cached is not None:
        return cached
    if arch == "gpt":
        samples = [
            Sample(input_tokens=GLOBAL_BATCH_TOKENS, target_tokens=0, task="trace")
            for _ in range(TRACE_EPOCH_SAMPLES)
        ]
    else:
        samples = [
            Sample(
                input_tokens=GLOBAL_BATCH_TOKENS * 3 // 4,
                target_tokens=GLOBAL_BATCH_TOKENS // 4,
                task="trace",
            )
            for _ in range(TRACE_EPOCH_SAMPLES)
        ]
    _SAMPLE_POOLS[arch] = samples
    return samples


# ---------------------------------------------------------------------- planner


class SyntheticTracePlanner:
    """Constant-work planner replaying a trace job's seeded iteration times.

    Stands in for :class:`~repro.core.planner.DynaPipePlanner` during trace
    replay: ``plan`` synthesises the iteration time instead of solving the
    micro-batching problem, so replay cost is dominated by the *scheduler*,
    not by planning.  The iteration time is

    ``base_iteration_ms × (requested_dp / data_parallel) × jitter``

    — elastic shrink slows a job down proportionally (weak-scaling loss of
    the lost replicas), and ``jitter`` is drawn per iteration from
    ``random.Random(f"{seed}:{iteration}")`` so the stream is process-stable
    and independent of how attempts are split across retries (a re-run
    iteration re-draws the identical jitter).

    The returned :class:`~repro.core.planner.IterationPlan` carries one
    empty per-replica :class:`~repro.core.execution_plan.ExecutionPlan`
    (``execute_plans=False`` replay never executes instructions) and exact
    padding statistics — synthetic samples are padding-free by construction.
    """

    def __init__(
        self,
        cost_model: CostModel,
        data_parallel_size: int,
        requested_data_parallel: int,
        base_iteration_ms: float,
        seed: int,
    ) -> None:
        if data_parallel_size < 1:
            raise ValueError(f"data_parallel_size must be >= 1, got {data_parallel_size}")
        self.cost_model = cost_model
        self.data_parallel_size = data_parallel_size
        self.requested_data_parallel = max(requested_data_parallel, data_parallel_size)
        self.base_iteration_ms = base_iteration_ms
        self.seed = seed

    def iteration_ms(self, iteration: int) -> float:
        """The synthetic execution time of ``iteration`` at this width."""
        jitter = 0.9 + 0.2 * random.Random(f"{self.seed}:{iteration}").random()
        scale = self.requested_data_parallel / self.data_parallel_size
        return self.base_iteration_ms * scale * jitter

    def plan(self, samples: Sequence[Sample], iteration: int = 0) -> IterationPlan:
        """Synthesise the iteration's plan (no search, no cost queries)."""
        predicted_ms = self.iteration_ms(iteration)
        actual_tokens = sum(s.total_tokens for s in samples)
        decoder_only = not self.cost_model.config.is_encoder_decoder
        padding = PaddingStats(
            actual_tokens=actual_tokens,
            padded_tokens=actual_tokens,
            encoder_efficiency=1.0,
            decoder_efficiency=None if decoder_only else 1.0,
            overall_efficiency=1.0,
        )
        num_stages = self.cost_model.num_stages
        replicas = [
            ReplicaPlanResult(
                plan=ExecutionPlan(
                    device_instructions=[[] for _ in range(num_stages)],
                    microbatch_shapes=[],
                    metadata=PlanMetadata(
                        iteration=iteration,
                        replica=replica,
                        schedule_name="synthetic-trace",
                        recompute=RecomputeMode.NONE,
                        predicted_makespan_ms=predicted_ms,
                    ),
                ),
                micro_batches=[],
                simulation=None,
            )
            for replica in range(self.data_parallel_size)
        ]
        return IterationPlan(
            replicas=replicas,
            recompute=RecomputeMode.NONE,
            predicted_iteration_ms=predicted_ms,
            data_parallel_comm_ms=0.0,
            padding=padding,
            dp_solution=None,
            planning_time_s=0.0,
        )


# ------------------------------------------------------------------------ trace


@dataclass(frozen=True)
class TraceJob:
    """One job of a workload trace (plain data, JSON round-trippable)."""

    name: str
    model: str
    data_parallel: int
    num_iterations: int
    priority: int
    tenant: str
    submit_time_ms: float
    seed: int
    max_retries: int = 2

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "name": self.name,
            "model": self.model,
            "data_parallel": self.data_parallel,
            "num_iterations": self.num_iterations,
            "priority": self.priority,
            "tenant": self.tenant,
            "submit_time_ms": self.submit_time_ms,
            "seed": self.seed,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TraceJob":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            name=str(payload["name"]),
            model=str(payload["model"]),
            data_parallel=int(payload["data_parallel"]),
            num_iterations=int(payload["num_iterations"]),
            priority=int(payload["priority"]),
            tenant=str(payload["tenant"]),
            submit_time_ms=float(payload["submit_time_ms"]),
            seed=int(payload["seed"]),
            max_retries=int(payload.get("max_retries", 2)),
        )

    def gang_size(self) -> int:
        """Devices the job's requested gang occupies."""
        model = _MODELS[self.model]
        return self.data_parallel * model.pipeline_parallel * model.tensor_parallel


@dataclass
class WorkloadTrace:
    """A generated multi-tenant workload: cluster shape, jobs and faults.

    Attributes:
        num_nodes / gpus_per_node: Cluster shape the trace targets.
        seed: Generator seed (provenance; replay does not re-draw).
        description: Human-readable provenance line.
        jobs: Jobs in submission order.
        faults: Fault events as dictionaries
            (:meth:`~repro.fleet.faults.FaultPlan.to_dicts` format).
    """

    num_nodes: int
    gpus_per_node: int
    seed: int
    description: str = ""
    jobs: list[TraceJob] = field(default_factory=list)
    faults: list[dict[str, Any]] = field(default_factory=list)

    @property
    def num_devices(self) -> int:
        """Total devices of the target cluster."""
        return self.num_nodes * self.gpus_per_node

    @property
    def span_ms(self) -> float:
        """Submission span of the trace (last arrival time)."""
        return self.jobs[-1].submit_time_ms if self.jobs else 0.0

    def topology(self, device_spec: DeviceSpec | None = None) -> ClusterTopology:
        """The cluster topology the trace targets."""
        return ClusterTopology(
            num_nodes=self.num_nodes,
            gpus_per_node=self.gpus_per_node,
            device_spec=device_spec or _TRACE_DEVICE,
        )

    def fault_plan(self) -> FaultPlan:
        """The trace's fault workload as a :class:`FaultPlan`."""
        return FaultPlan.from_dicts(
            self.faults, seed=self.seed, description=f"faults of {self.description}"
        )

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> dict[str, Any]:
        """Serialise the trace to a JSON-compatible dictionary."""
        return {
            "num_nodes": self.num_nodes,
            "gpus_per_node": self.gpus_per_node,
            "seed": self.seed,
            "description": self.description,
            "jobs": [job.to_dict() for job in self.jobs],
            "faults": [dict(event) for event in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WorkloadTrace":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            num_nodes=int(payload["num_nodes"]),
            gpus_per_node=int(payload["gpus_per_node"]),
            seed=int(payload["seed"]),
            description=str(payload.get("description", "")),
            jobs=[TraceJob.from_dict(j) for j in payload["jobs"]],
            faults=[dict(e) for e in payload.get("faults", [])],
        )

    def to_json(self) -> str:
        """Serialise the trace to a JSON string."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        """Rebuild a trace from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save(self, path: "str | Path") -> Path:
        """Write the trace as JSON; returns the resolved path."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "WorkloadTrace":
        """Read a trace written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


# -------------------------------------------------------------------- generator


def _arrival_times(
    rng: random.Random,
    num_jobs: int,
    base_rate_per_s: float,
    diurnal_period_ms: float,
    diurnal_amplitude: float,
    burst_every_ms: float,
    burst_duration_ms: float,
    burst_factor: float,
) -> list[float]:
    """First ``num_jobs`` arrivals of an inhomogeneous Poisson process.

    Sampled by thinning: candidate arrivals are drawn from a homogeneous
    process at the rate envelope ``base × (1 + amplitude) × burst_factor``
    and accepted with probability ``λ(t) / envelope``, where ``λ(t)`` is the
    diurnal sinusoid multiplied by the burst factor inside periodic burst
    windows.  Thinning is exact for any bounded ``λ(t)``.
    """
    envelope = base_rate_per_s * (1.0 + diurnal_amplitude) * burst_factor
    times: list[float] = []
    t_ms = 0.0
    while len(times) < num_jobs:
        t_ms += rng.expovariate(envelope) * 1000.0
        rate = base_rate_per_s * (
            1.0 + diurnal_amplitude * math.sin(2.0 * math.pi * t_ms / diurnal_period_ms)
        )
        if burst_every_ms > 0 and (t_ms % burst_every_ms) < burst_duration_ms:
            rate *= burst_factor
        if rng.random() * envelope <= rate:
            times.append(t_ms)
    return times


def _weighted_model(rng: random.Random, models: Sequence[WorkloadModel]) -> WorkloadModel:
    """Draw one catalog entry by weight."""
    total = sum(m.weight for m in models)
    pick = rng.random() * total
    for model in models:
        pick -= model.weight
        if pick <= 0.0:
            return model
    return models[-1]


def generate_trace(
    num_jobs: int,
    num_nodes: int,
    gpus_per_node: int = 8,
    seed: int = 0,
    base_rate_per_s: float = 2.0,
    diurnal_period_ms: float = 120_000.0,
    diurnal_amplitude: float = 0.6,
    burst_every_ms: float = 45_000.0,
    burst_duration_ms: float = 5_000.0,
    burst_factor: float = 4.0,
    min_iterations: int = 3,
    max_iterations: int = 10,
    priority_tiers: tuple[int, ...] = (0, 1, 2),
    priority_weights: tuple[float, ...] = (0.6, 0.3, 0.1),
    num_tenants: int = 4,
    storm_rate_per_s: float = 0.05,
    num_rack_outages: int = 1,
    repair_after_ms: float = 20_000.0,
) -> WorkloadTrace:
    """Generate a seeded synthetic multi-tenant workload trace.

    Args:
        num_jobs: Jobs to generate (arrival process runs until reached).
        num_nodes / gpus_per_node: Target cluster shape; jobs whose drawn
            gang would not fit the whole cluster are re-drawn narrower.
        seed: Master seed; equal seeds → bit-identical traces.
        base_rate_per_s: Mean arrival rate before modulation.
        diurnal_period_ms / diurnal_amplitude: Sinusoidal load swing.
        burst_every_ms / burst_duration_ms / burst_factor: Periodic
            submission-spike windows multiplying the arrival rate.
        min_iterations / max_iterations: Per-job iteration count range
            (uniform; bounded by the shared sample pool).
        priority_tiers / priority_weights: Priority mix of the jobs.
        num_tenants: Tenant names to spread jobs across.
        storm_rate_per_s: Device-failure storm rate over the trace span
            (0 disables the storm).
        num_rack_outages: Correlated whole-rack outages over the span.
        repair_after_ms: Repair delay of storm failures and rack outages.

    Returns:
        The generated :class:`WorkloadTrace`.
    """
    if num_jobs < 1:
        raise ValueError(f"num_jobs must be >= 1, got {num_jobs}")
    if not 1 <= min_iterations <= max_iterations <= TRACE_EPOCH_SAMPLES:
        raise ValueError(
            f"need 1 <= min_iterations <= max_iterations <= {TRACE_EPOCH_SAMPLES}, "
            f"got ({min_iterations}, {max_iterations})"
        )
    if len(priority_weights) != len(priority_tiers):
        raise ValueError("priority_weights must match priority_tiers")
    num_devices = num_nodes * gpus_per_node
    rng = random.Random(f"workload-trace:{seed}")
    arrivals = _arrival_times(
        rng,
        num_jobs,
        base_rate_per_s,
        diurnal_period_ms,
        diurnal_amplitude,
        burst_every_ms,
        burst_duration_ms,
        burst_factor,
    )
    fitting = [m for m in MODEL_CATALOG if min(m.dp_choices) * m.pipeline_parallel * m.tensor_parallel <= num_devices]
    if not fitting:
        raise ValueError(
            f"no catalog model fits a {num_devices}-device cluster"
        )
    jobs: list[TraceJob] = []
    for index, submit_ms in enumerate(arrivals):
        model = _weighted_model(rng, fitting)
        widths = [
            dp
            for dp in model.dp_choices
            if dp * model.pipeline_parallel * model.tensor_parallel <= num_devices
        ]
        data_parallel = rng.choice(widths)
        priority = rng.choices(priority_tiers, weights=priority_weights)[0]
        jobs.append(
            TraceJob(
                name=f"{model.key}-{index:04d}",
                model=model.key,
                data_parallel=data_parallel,
                num_iterations=rng.randint(min_iterations, max_iterations),
                priority=priority,
                tenant=f"tenant-{rng.randrange(num_tenants)}",
                submit_time_ms=round(submit_ms, 3),
                seed=rng.randrange(2**31),
            )
        )
    span_ms = max(jobs[-1].submit_time_ms, 1000.0)
    plan = FaultPlan(events=[], description="trace faults")
    if storm_rate_per_s > 0:
        plan = plan.merge(
            failure_storm(
                num_devices,
                seed=rng.randrange(2**31),
                start_ms=0.05 * span_ms,
                duration_ms=0.9 * span_ms,
                rate_per_s=storm_rate_per_s,
                repair_after_ms=repair_after_ms,
            )
        )
    for _ in range(num_rack_outages):
        plan = plan.merge(
            rack_outage(
                node=rng.randrange(num_nodes),
                time_ms=round(rng.uniform(0.2, 0.8) * span_ms, 3),
                repair_after_ms=repair_after_ms,
            )
        )
    description = (
        f"synthetic trace: {num_jobs} jobs over {num_nodes}x{gpus_per_node} "
        f"devices, seed {seed}"
    )
    return WorkloadTrace(
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        seed=seed,
        description=description,
        jobs=jobs,
        faults=plan.to_dicts(),
    )


# ---------------------------------------------------------------------- replay


def _trace_planner_factory(job: TraceJob, model: WorkloadModel):
    """Planner factory of one trace job (bound per job, not per attempt)."""
    cost_model = workload_cost_model(model.key)

    def factory(spec: JobSpec, data_parallel: int) -> SyntheticTracePlanner:
        return SyntheticTracePlanner(
            cost_model,
            data_parallel_size=data_parallel,
            requested_data_parallel=job.data_parallel,
            base_iteration_ms=model.base_iteration_ms,
            seed=job.seed,
        )

    return factory


def build_jobs(trace: WorkloadTrace) -> list[JobSpec]:
    """Materialise a trace's jobs into submittable :class:`JobSpec` s."""
    specs: list[JobSpec] = []
    for job in trace.jobs:
        model = _MODELS[job.model]
        specs.append(
            JobSpec(
                name=job.name,
                cost_model=workload_cost_model(model.key),
                samples=_sample_pool(model.arch),
                global_batch_tokens=GLOBAL_BATCH_TOKENS,
                parallel=ParallelConfig(
                    data_parallel=job.data_parallel,
                    pipeline_parallel=model.pipeline_parallel,
                    tensor_parallel=model.tensor_parallel,
                ),
                num_iterations=job.num_iterations,
                noise_std=0.0,
                seed=job.seed,
                execute_plans=False,
                max_retries=job.max_retries,
                priority=job.priority,
                submit_time_ms=job.submit_time_ms,
                est_iteration_ms=model.base_iteration_ms,
                planner_factory=_trace_planner_factory(job, model),
            )
        )
    return specs


def build_scheduler(
    trace: WorkloadTrace,
    policy: str = "fifo",
    config: FleetConfig | None = None,
) -> FleetScheduler:
    """A scheduler loaded with the trace's jobs and fault plan, ready to run.

    Args:
        trace: The workload to replay.
        policy: Admission policy name (ignored if ``config`` is given).
        config: Full fleet configuration override.
    """
    if config is None:
        config = FleetConfig(policy=policy)
    scheduler = FleetScheduler(trace.topology(), config)
    for spec in build_jobs(trace):
        scheduler.submit(spec)
    FaultInjector(trace.fault_plan()).apply(scheduler)
    return scheduler


def replay_trace(
    trace: WorkloadTrace,
    policy: str = "fifo",
    config: FleetConfig | None = None,
) -> FleetReport:
    """Replay a trace end-to-end; returns the run's :class:`FleetReport`."""
    return build_scheduler(trace, policy=policy, config=config).run()
