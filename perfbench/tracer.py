"""Per-layer timing of traced benchmark runs, from outside the program.

A :class:`Tracer` wraps the public entry point of each layer of the
program (listed in :data:`TIMED` and :data:`COUNTED`) while it is
installed, and removes every wrapper again on exit — nothing under
``src/`` knows it is being measured.  Each timed wrapper records a span on
an in-memory stack, so a layer's *self* time is its duration minus the part
covered by spans nested inside it.  A layer re-entered while already active
(the cost model calling itself) counts its wall time and its call only at
the outermost entry.

Only calls made on the thread that built the tracer are recorded: the
planner pool's collector thread runs concurrently and would corrupt the
span stack.  Entry points that no longer exist are skipped and listed in
:attr:`Tracer.missing`, so a refactor that moves one shows up as a missing
layer instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def _add(counter: str, value_of: Callable[[Any], float]) -> Callable:
    """Result hook adding ``value_of(result)`` to ``counts[counter]``."""

    def harvest(counts: dict, result: Any) -> None:
        counts[counter] += value_of(result)

    return harvest


def _order_search(counts: dict, result: Any) -> None:
    counts["order_search.searches"] += 1
    counts["order_search.permutations"] += result.evaluated
    counts["order_search.changed"] += result.order != list(range(len(result.order)))


#: ``(layer, "module:Owner.attribute", on_return)`` of every timed entry
#: point.  ``on_return(counts, result)`` harvests work counts from results.
TIMED: tuple[tuple[str, str, Callable | None], ...] = (
    ("costmodel", "repro.costmodel.cost_model:CostModel.window_costs_arrays", None),
    ("costmodel", "repro.costmodel.cost_model:CostModel.stage_costs_many", None),
    ("costmodel", "repro.costmodel.cost_model:CostModel.microbatch_times_ms", None),
    (
        "window_table",
        "repro.core.microbatch:DynamicMicroBatcher.build_window_cost_table",
        _add("window_table.unique_shapes", lambda table: table.unique_shape_evaluations),
    ),
    (
        "dp",
        "repro.core.microbatch:solve_partition",
        _add("dp.cost_evaluations", lambda solution: solution.cost_evaluations),
    ),
    ("balance", "repro.core.planner:karmarkar_karp_partition", None),
    ("schedule", "repro.core.adaptive_schedule:AdaptiveScheduler.build", None),
    ("simulate", "repro.core.planner:simulate_schedule", None),
    ("order_search", "repro.core.planner:cluster_and_order", _order_search),
    ("comm_streams", "repro.core.planner:build_instruction_streams", None),
    (
        "plan",
        "repro.core.planner:DynaPipePlanner.plan",
        _add("plan.replicas", lambda plan: len(plan.replicas)),
    ),
    ("execute", "repro.backends.sim:SimBackend.run", None),
    ("trainer", "repro.training.trainer:TrainingSession.run_iteration", None),
    ("fleet", "repro.fleet.scheduler:FleetScheduler.run", None),
    *(
        ("gang", f"repro.fleet.gang:BitmapGangAllocator.{method}", None)
        for method in ("allocate", "release", "fail_device", "repair_device")
    ),
    ("job_step", "repro.fleet.session:JobExecution.step", None),
    (
        "pool_wait",
        "repro.runtime.planner_pool:PlannerPool.wait_payload",
        _add("pool.plan_ms", lambda payload: 1e3 * float(payload["planning_time_s"])),
    ),
    ("plan_decode", "repro.core.execution_plan:ExecutionPlan.from_dict", None),
)

#: ``(counter, "module:Owner.attribute")`` of entry points that are only
#: counted: they run hundreds of times per iteration, where a timer would
#: cost more than the work it measures.
COUNTED: tuple[tuple[str, str], ...] = (
    ("execute.duration_calls", "repro.model.transformer:StageModel.forward_time_ms"),
    ("execute.duration_calls", "repro.model.transformer:StageModel.backward_time_ms"),
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of ``module:Owner.attr``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owner_path, name = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


def _rewrap(raw: Any, make: Callable[[Callable], Callable]) -> Any:
    """Wrap a function, keeping classmethod/staticmethod descriptors intact."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(make(raw.__func__))
    return make(raw)


class Tracer:
    """Busy time, self time and call counts per layer while installed.

    Attributes:
        ms: Inclusive busy ms per layer (outermost entries only).
        self_ms: Busy ms per layer minus nested spans.
        calls: Outermost entries per layer.
        counts: Work counters harvested from results and counted calls.
        missing: Entry points that could not be resolved.
    """

    def __init__(self) -> None:
        self.ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._thread = threading.get_ident()
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any, bool, Any]] = []
        for layer, target, on_return in TIMED:
            self._prepare(target, lambda fn, l=layer, h=on_return: self._timed(l, fn, h))
        for counter, target in COUNTED:
            self._prepare(target, lambda fn, k=counter: self._counted(k, fn))

    def _prepare(self, target: str, make: Callable[[Callable], Callable]) -> None:
        try:
            owner, name, raw = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        own = name in vars(owner)
        self._patches.append((owner, name, raw, own, _rewrap(raw, make)))

    def _timed(self, layer: str, fn: Callable, on_return: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[layer] -= 1
                self.self_ms[layer] += (elapsed - frame[0]) * 1e3
                if self._depth[layer] == 0:
                    self.ms[layer] += elapsed * 1e3
                    self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_return is not None:
                on_return(self.counts, result)
            return result

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper for the duration of the block."""
        for owner, name, _, _, wrapped in self._patches:
            setattr(owner, name, wrapped)
        try:
            yield self
        finally:
            for owner, name, raw, own, _ in reversed(self._patches):
                if own:
                    setattr(owner, name, raw)
                else:
                    delattr(owner, name)
