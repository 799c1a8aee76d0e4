"""repro — a from-scratch reproduction of DynaPipe (EuroSys 2024).

DynaPipe trains multi-task language models efficiently by replacing padding
and packing with *dynamic micro-batching*: each training iteration's
mini-batch is partitioned into variable-size, variable-sequence-length
micro-batches with a dynamic-programming optimiser, scheduled on the
pipeline with a memory-aware adaptive schedule robust to execution-time
variation, and executed with ahead-of-time planned, deadlock-free
communication.

The reproduction runs entirely on an analytic cluster simulator (no GPUs
required) while exercising the same planner/executor code paths as the real
system; see ``DESIGN.md`` for the substitution map and the per-experiment
index.

Quickstart::

    from repro import (
        CostModel, DynaPipePlanner, SyntheticFlanDataset, get_model_config,
    )

    model = get_model_config("gpt", num_gpus=8)
    cost_model = CostModel(model, num_stages=4)
    planner = DynaPipePlanner(cost_model, data_parallel_size=2)
    dataset = SyntheticFlanDataset(num_samples=2_000, seed=0)
    plan = planner.plan(dataset.samples[:128])
    print(plan.predicted_iteration_ms, plan.padding.overall_efficiency)
"""

from repro.baselines import BaselineConfig, MLMDeepSpeedBaseline
from repro.batching import (
    FixedSizeBatching,
    MicroBatch,
    NaivePaddingBatching,
    PackingBatching,
    TokenBasedBatching,
    padding_stats,
)
from repro.cluster import A100_40GB, ClusterTopology, DeviceSpec, NetworkModel, SimulatedGPU
from repro.core import (
    AdaptiveScheduler,
    DynamicMicroBatcher,
    DynaPipePlanner,
    ExecutionPlan,
    IterationPlan,
    OrderingMethod,
    PlannerConfig,
    ScheduleKind,
)
from repro.costmodel import CostModel
from repro.data import MiniBatchSampler, Sample, SyntheticFlanDataset, TaskSpec
from repro.model import (
    GPT_CONFIGS,
    T5_CONFIGS,
    MicroBatchShape,
    ModelArch,
    ModelConfig,
    RecomputeMode,
    get_model_config,
)
from repro.fleet import (
    FleetConfig,
    FleetReport,
    FleetScheduler,
    JobSpec,
    JobState,
    PreemptivePriorityPolicy,
)
from repro import obs
from repro.backends import ExecutionBackend, available_backends, get_backend
from repro.parallel import ParallelConfig, enumerate_parallel_configs, grid_search
from repro.runtime import PlannerPool
from repro.training import TrainerConfig, TrainingReport, TrainingSession

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model / substrate
    "ModelArch",
    "ModelConfig",
    "GPT_CONFIGS",
    "T5_CONFIGS",
    "get_model_config",
    "MicroBatchShape",
    "RecomputeMode",
    "DeviceSpec",
    "SimulatedGPU",
    "A100_40GB",
    "NetworkModel",
    "ClusterTopology",
    "CostModel",
    # data
    "Sample",
    "TaskSpec",
    "SyntheticFlanDataset",
    "MiniBatchSampler",
    # batching
    "MicroBatch",
    "NaivePaddingBatching",
    "PackingBatching",
    "TokenBasedBatching",
    "FixedSizeBatching",
    "padding_stats",
    # core contribution
    "DynamicMicroBatcher",
    "OrderingMethod",
    "AdaptiveScheduler",
    "ScheduleKind",
    "DynaPipePlanner",
    "PlannerConfig",
    "IterationPlan",
    "ExecutionPlan",
    # parallelism / baselines / training
    "ParallelConfig",
    "enumerate_parallel_configs",
    "grid_search",
    "MLMDeepSpeedBaseline",
    "BaselineConfig",
    "TrainingSession",
    "TrainerConfig",
    "TrainingReport",
    "PlannerPool",
    # fleet scheduling
    "FleetScheduler",
    "FleetConfig",
    "FleetReport",
    "JobSpec",
    "JobState",
    "PreemptivePriorityPolicy",
    # execution backends
    "ExecutionBackend",
    "available_backends",
    "get_backend",
    # observability
    "obs",
]
