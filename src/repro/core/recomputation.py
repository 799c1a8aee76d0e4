"""Dynamic recomputation selection (paper §7).

Activation checkpointing trades compute for memory, and the right setting
differs per iteration because dynamic micro-batching makes the peak memory
vary.  DynaPipe therefore re-runs partitioning and scheduling under each
candidate recomputation mode, cheapest first, and keeps the first one whose
simulated peak memory fits the device; the planner
(:meth:`repro.core.planner.DynaPipePlanner.plan`) implements that policy.
"""

from __future__ import annotations

from repro.model.memory import RecomputeMode


class OutOfMemoryError(RuntimeError):
    """Raised when no recomputation mode allows the iteration to fit in memory."""


#: Order in which modes are tried: cheapest compute overhead first.
MODE_PREFERENCE: tuple[RecomputeMode, ...] = (
    RecomputeMode.NONE,
    RecomputeMode.SELECTIVE,
    RecomputeMode.FULL,
)
