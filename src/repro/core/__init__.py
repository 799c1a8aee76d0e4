"""DynaPipe's primary contribution.

The modules in this package implement the three techniques of the paper plus
the planner that composes them into per-iteration execution plans:

* **Micro-batch construction (§4)** — :mod:`repro.core.ordering`,
  :mod:`repro.core.dp_solver`, :mod:`repro.core.replica_balance`,
  :mod:`repro.core.microbatch`.
* **Memory-aware adaptive pipeline scheduling (§5)** —
  :mod:`repro.core.adaptive_schedule`, :mod:`repro.core.microbatch_ordering`.
* **Ahead-of-time communication planning (§6)** — composed from
  :mod:`repro.comm` by the planner.
* **Dynamic recomputation (§7)** — :mod:`repro.core.recomputation`.
* **Planner / execution plans (§3)** — :mod:`repro.core.planner`,
  :mod:`repro.core.execution_plan`.
"""

from repro.core.adaptive_schedule import AdaptiveScheduler, ScheduleKind, build_schedule
from repro.core.dp_solver import DPSolution, solve_partition
from repro.core.execution_plan import ExecutionPlan, PlanMetadata
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.microbatch_ordering import cluster_and_order
from repro.core.ordering import OrderingMethod, order_samples
from repro.core.planner import DynaPipePlanner, IterationPlan, PlannerConfig
from repro.core.replica_balance import karmarkar_karp_partition

__all__ = [
    "order_samples",
    "OrderingMethod",
    "solve_partition",
    "DPSolution",
    "karmarkar_karp_partition",
    "DynamicMicroBatcher",
    "AdaptiveScheduler",
    "ScheduleKind",
    "build_schedule",
    "cluster_and_order",
    "ExecutionPlan",
    "PlanMetadata",
    "DynaPipePlanner",
    "PlannerConfig",
    "IterationPlan",
]
