"""Data-oriented (compiled) timeline representation of a pipeline schedule.

This module compiles a schedule's *geometry* — which op runs where, and
what it depends on — into flat numpy arrays once, and then solves the
timing recurrence of :mod:`repro.simulator.engine` wave-by-wave in
topological levels:

* ``op_stage`` / ``op_microbatch`` / ``op_is_forward`` describe every op in
  stage-major order (op id = position within the concatenated per-stage
  sequences);
* ``dep`` holds each op's cross-stage dependency (the upstream forward, the
  downstream backward, or the same-stage forward for the last stage's
  backward) as an op id, ``-1`` when the op has none;
* ``prev`` holds the same-device predecessor (devices execute their schedule
  in order, one op at a time);
* ops are grouped into *waves* (topological levels of the dependency DAG).
  All ops in one wave are independent, so each wave is solved with a handful
  of vectorized array operations instead of per-op Python dispatch.

Compilation is schedule-order only: durations and communication times are
*inputs to the solve*, so one compiled geometry can be re-solved for many
duration vectors (``solve_batch``) or for permuted micro-batch orders
(:mod:`repro.simulator.incremental`).  The arithmetic performed per op is
bit-identical to a per-op event loop's (same operand order, same ``max``
structure); the equivalence suite pins it against such a loop kept as a
test oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.registry import REGISTRY
from repro.schedule.events import OpType, PipelineSchedule
from repro.simulator.memory_tracker import MemoryAccountingError

#: Communication kind of an op's dependency edge (see ``comm_kind``).
COMM_NONE, COMM_ACT, COMM_GRAD = 0, 1, 2


class SimulationError(RuntimeError):
    """Raised when a schedule cannot be simulated: unsatisfiable
    dependencies, an op listed twice, or a negative micro-batch index."""


# --------------------------------------------------------------------------- stats

#: Hot-path counters, registered with (and snapshotted by) the process-wide
#: metrics registry as ``sim_engine.*`` while keeping the zero-overhead
#: plain-dict increment idiom on the solve paths.
_STATS = REGISTRY.counter_dict(
    "sim_engine",
    (
        "geometry_compiles",
        "geometry_cache_hits",
        "timeline_solves",
        "vector_simulations",
    ),
)


def engine_stats() -> dict[str, int]:
    """Snapshot of the engine's counters (compiles, cache hits, solves).

    The counters make reuse observable: a workload that re-simulates the same
    schedule geometry (the order search, fleet iterations with unchanged
    plans) should grow ``timeline_solves`` much faster than
    ``geometry_compiles``.

    This is a *process-local* shim over ``repro.obs.REGISTRY``'s
    ``sim_engine.*`` counters; planning that ran in pool worker processes is
    invisible here — use :meth:`repro.runtime.planner_pool.PlannerPool.engine_stats`
    for the aggregated fleet-wide view.
    """
    return dict(_STATS)


def reset_engine_stats() -> None:
    """Reset all engine counters to zero (used by tests and benchmarks)."""
    for key in _STATS:
        _STATS[key] = 0


def _op_name(microbatch: int, stage: int, is_forward: bool) -> str:
    return f"{'F' if is_forward else 'B'}{microbatch}@{stage}"


@dataclass
class TimelineSolution:
    """Start/end times of every op of one solve, in op-id (stage-major) order."""

    starts: np.ndarray
    ends: np.ndarray
    makespan_ms: float


class CompiledTimeline:
    """Array representation of one schedule geometry, solvable many times.

    Build with :meth:`from_schedule` or :meth:`from_stage_sequences`; both
    raise :class:`SimulationError` naming the offending op when the
    schedule lists an op twice, uses a negative micro-batch index, or has
    unsatisfiable dependencies (then also naming the unmet dependency).
    """

    def __init__(
        self,
        num_stages: int,
        op_stage: np.ndarray,
        op_microbatch: np.ndarray,
        op_is_forward: np.ndarray,
        stage_offsets: np.ndarray,
    ) -> None:
        self.num_stages = num_stages
        self.num_ops = int(op_stage.shape[0])
        self.op_stage = op_stage
        self.op_microbatch = op_microbatch
        self.op_is_forward = op_is_forward
        self.stage_offsets = stage_offsets
        self.num_microbatches = int(op_microbatch.max()) + 1 if self.num_ops else 0
        self._build_dependencies()
        self._build_waves()
        self._memory_order_checked = False
        _STATS["geometry_compiles"] += 1

    # ------------------------------------------------------------------ construction

    @classmethod
    def from_schedule(cls, schedule: PipelineSchedule) -> "CompiledTimeline":
        """Compile a :class:`~repro.schedule.events.PipelineSchedule`."""
        num_stages = schedule.num_stages
        stages_mb: list[list[int]] = []
        stages_fwd: list[list[bool]] = []
        for stage_schedule in schedule.stages:
            stages_mb.append([op.microbatch for op in stage_schedule.ops])
            stages_fwd.append([op.op_type is OpType.FORWARD for op in stage_schedule.ops])
        return cls._from_columns(num_stages, stages_mb, stages_fwd)

    @classmethod
    def from_stage_sequences(
        cls, num_stages: int, sequences: Sequence[Sequence[int]]
    ) -> "CompiledTimeline":
        """Compile from encoded per-stage sequences (``mb << 1 | is_forward``),
        the format produced by
        :func:`repro.schedule.cyclic.cyclic_stage_sequences`."""
        stages_mb = [[enc >> 1 for enc in seq] for seq in sequences]
        stages_fwd = [[bool(enc & 1) for enc in seq] for seq in sequences]
        return cls._from_columns(num_stages, stages_mb, stages_fwd)

    @classmethod
    def _from_columns(
        cls,
        num_stages: int,
        stages_mb: Sequence[Sequence[int]],
        stages_fwd: Sequence[Sequence[bool]],
    ) -> "CompiledTimeline":
        counts = [len(seq) for seq in stages_mb]
        stage_offsets = np.zeros(num_stages + 1, dtype=np.int64)
        if counts:
            np.cumsum(counts, out=stage_offsets[1:])
        total = int(stage_offsets[-1])
        op_stage = np.empty(total, dtype=np.int64)
        op_microbatch = np.empty(total, dtype=np.int64)
        op_is_forward = np.empty(total, dtype=bool)
        for stage in range(num_stages):
            a, b = stage_offsets[stage], stage_offsets[stage + 1]
            op_stage[a:b] = stage
            op_microbatch[a:b] = np.asarray(stages_mb[stage], dtype=np.int64)
            op_is_forward[a:b] = np.asarray(stages_fwd[stage], dtype=bool)
        if total and op_microbatch.min() < 0:
            i = int(np.argmin(op_microbatch))
            raise SimulationError(
                f"{_op_name(int(op_microbatch[i]), int(op_stage[i]), bool(op_is_forward[i]))}"
                " has a negative micro-batch index"
            )
        return cls(num_stages, op_stage, op_microbatch, op_is_forward, stage_offsets)

    def _build_dependencies(self) -> None:
        n, c = self.num_ops, self.num_stages
        mb, st, fwd = self.op_microbatch, self.op_stage, self.op_is_forward
        m = self.num_microbatches
        # (microbatch, stage, type) -> op id; detect duplicates.
        index = np.full((max(m, 1), max(c, 1), 2), -1, dtype=np.int64)
        type_col = fwd.astype(np.int64)
        if n:
            seen: set[tuple[int, int, bool]] = set()
            for key in zip(mb.tolist(), st.tolist(), fwd.tolist()):
                if key in seen:
                    raise SimulationError(f"{_op_name(*key)} appears twice in the schedule")
                seen.add(key)
            index[mb, st, type_col] = np.arange(n, dtype=np.int64)

        dep = np.full(n, -1, dtype=np.int64)
        comm_kind = np.zeros(n, dtype=np.int8)
        comm_src = np.full(n, -1, dtype=np.int64)
        if n:
            f_up = fwd & (st > 0)  # forward waits on upstream forward
            dep[f_up] = index[mb[f_up], st[f_up] - 1, 1]
            comm_kind[f_up] = COMM_ACT
            comm_src[f_up] = st[f_up] - 1
            b_last = ~fwd & (st == c - 1)  # last stage's backward waits on its forward
            dep[b_last] = index[mb[b_last], st[b_last], 1]
            b_down = ~fwd & (st < c - 1)  # backward waits on downstream backward
            dep[b_down] = index[mb[b_down], st[b_down] + 1, 0]
            comm_kind[b_down] = COMM_GRAD
            comm_src[b_down] = st[b_down] + 1
            needs_dep = f_up | b_last | b_down
            missing = needs_dep & (dep < 0)
            if missing.any():
                i = int(np.flatnonzero(missing)[0])
                raise SimulationError(
                    "simulation cannot make progress: "
                    f"{_op_name(int(mb[i]), int(st[i]), bool(fwd[i]))} depends on "
                    f"{self._dep_name(i)}, which never appears in the schedule"
                )
        self.dep = dep
        self.comm_kind = comm_kind
        self.comm_src = comm_src
        # Same-device predecessor: previous op on the stage.
        prev = np.arange(-1, n - 1, dtype=np.int64)
        firsts = self.stage_offsets[:-1]
        prev[firsts[firsts < n]] = -1
        self.prev = prev

    def _dep_name(self, i: int) -> str:
        """Name of op ``i``'s cross-stage dependency (for diagnostics)."""
        mb = int(self.op_microbatch[i])
        st = int(self.op_stage[i])
        if self.op_is_forward[i]:
            return _op_name(mb, st - 1, True)
        if st == self.num_stages - 1:
            return _op_name(mb, st, True)
        return _op_name(mb, st + 1, False)

    def _build_waves(self) -> None:
        """Topologically level the dependency DAG (Kahn), detect deadlocks,
        and lay the solver arrays out in wave-major order."""
        n = self.num_ops
        dep, prev = self.dep, self.prev
        level = np.zeros(n, dtype=np.int64)
        indegree = ((dep >= 0).astype(np.int64) + (prev >= 0)).tolist()
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            if dep[i] >= 0:
                children[dep[i]].append(i)
            if prev[i] >= 0:
                children[prev[i]].append(i)
        queue: deque[int] = deque(i for i in range(n) if indegree[i] == 0)
        resolved = np.zeros(n, dtype=bool)
        while queue:
            i = queue.popleft()
            resolved[i] = True
            level_i = level[i]
            for j in children[i]:
                if level_i + 1 > level[j]:
                    level[j] = level_i + 1
                indegree[j] -= 1
                if indegree[j] == 0:
                    queue.append(j)
        if n and not resolved.all():
            i = int(np.flatnonzero(~resolved)[0])  # first blocked, stage-major
            blocker = None
            if dep[i] >= 0 and not resolved[dep[i]]:
                blocker = int(dep[i])
            elif prev[i] >= 0 and not resolved[prev[i]]:
                blocker = int(prev[i])
            blocker_name = (
                _op_name(
                    int(self.op_microbatch[blocker]),
                    int(self.op_stage[blocker]),
                    bool(self.op_is_forward[blocker]),
                )
                if blocker is not None
                else "an unresolved dependency"
            )
            raise SimulationError(
                "simulation cannot make progress: "
                f"{_op_name(int(self.op_microbatch[i]), int(self.op_stage[i]), bool(self.op_is_forward[i]))}"
                f" is blocked waiting for {blocker_name}, which cannot execute "
                "(circular or misordered schedule dependencies)"
            )
        # Wave-major layout: `order` maps wave position -> op id.
        order = np.argsort(level, kind="stable")
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.arange(n, dtype=np.int64)
        sorted_levels = level[order]
        boundaries = np.flatnonzero(np.diff(sorted_levels)) + 1
        offsets = np.concatenate(([0], boundaries, [n])).astype(np.int64)
        self.order = order
        self.inverse = inverse
        self.wave_offsets = offsets
        dep_w = np.where(dep[order] >= 0, inverse[np.maximum(dep[order], 0)], -1)
        prev_w = np.where(prev[order] >= 0, inverse[np.maximum(prev[order], 0)], -1)
        self._has_dep_w = dep_w >= 0
        self._dep_clip_w = np.maximum(dep_w, 0)
        self._has_prev_w = prev_w >= 0
        self._prev_clip_w = np.maximum(prev_w, 0)

    # ------------------------------------------------------------------ gathers

    def durations_from(self, duration_fn, schedule: PipelineSchedule | None = None) -> np.ndarray:
        """Per-op duration array from a mapping/callable over compute ops.

        When the originating ``schedule`` is given, its existing
        :class:`~repro.schedule.events.ComputeOp` objects are reused for the
        lookups (no per-op object construction).
        """
        if schedule is not None:
            if callable(duration_fn):
                values = [duration_fn(op) for op in schedule.all_ops()]
            else:
                values = [duration_fn[op] for op in schedule.all_ops()]
            return np.asarray(values, dtype=np.float64)
        from repro.schedule.events import ComputeOp

        values = []
        for i in range(self.num_ops):
            op = ComputeOp(
                int(self.op_microbatch[i]),
                int(self.op_stage[i]),
                OpType.FORWARD if self.op_is_forward[i] else OpType.BACKWARD,
            )
            values.append(duration_fn(op) if callable(duration_fn) else duration_fn[op])
        return np.asarray(values, dtype=np.float64)

    def comm_from(self, comm_time_fn) -> np.ndarray:
        """Per-op dependency-edge communication times from a callback."""
        comm = np.zeros(self.num_ops, dtype=np.float64)
        mb, st = self.op_microbatch, self.op_stage
        for i in np.flatnonzero(self.comm_kind == COMM_ACT):
            comm[i] = comm_time_fn(int(mb[i]), int(st[i]) - 1, int(st[i]), False)
        for i in np.flatnonzero(self.comm_kind == COMM_GRAD):
            comm[i] = comm_time_fn(int(mb[i]), int(st[i]) + 1, int(st[i]), True)
        return comm

    # ------------------------------------------------------------------ solving

    def solve(self, durations: np.ndarray, comm: np.ndarray | None = None) -> TimelineSolution:
        """Solve the timing recurrence for one duration vector.

        Args:
            durations: Per-op durations in op-id (stage-major) order.
            comm: Optional per-op communication times added to the
                cross-stage dependency edge (zero where the op has none).

        Returns:
            A :class:`TimelineSolution` with starts/ends in op-id order.
        """
        n = self.num_ops
        d_w = np.maximum(np.asarray(durations, dtype=np.float64), 0.0)[self.order]
        c_w = None if comm is None else np.asarray(comm, dtype=np.float64)[self.order]
        starts_w = np.zeros(n, dtype=np.float64)
        ends_w = np.zeros(n, dtype=np.float64)
        offsets = self.wave_offsets
        for w in range(len(offsets) - 1):
            a, b = int(offsets[w]), int(offsets[w + 1])
            dep_ready = ends_w[self._dep_clip_w[a:b]]
            if c_w is not None:
                dep_ready = dep_ready + c_w[a:b]
            dep_ready = np.where(self._has_dep_w[a:b], dep_ready, 0.0)
            prev_ready = np.where(
                self._has_prev_w[a:b], ends_w[self._prev_clip_w[a:b]], 0.0
            )
            start = np.maximum(prev_ready, dep_ready)
            starts_w[a:b] = start
            ends_w[a:b] = start + d_w[a:b]
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)
        starts[self.order] = starts_w
        ends[self.order] = ends_w
        makespan = float(ends_w.max()) if n else 0.0
        _STATS["timeline_solves"] += 1
        return TimelineSolution(starts=starts, ends=ends, makespan_ms=makespan)

    def solve_batch(
        self, durations: np.ndarray, comm: np.ndarray | None = None
    ) -> TimelineSolution:
        """Solve many duration vectors at once.

        Args:
            durations: ``(num_solves, num_ops)`` duration matrix.
            comm: Optional comm times, either ``(num_ops,)`` (shared) or
                ``(num_solves, num_ops)``.

        Returns:
            A :class:`TimelineSolution` whose ``starts``/``ends`` have shape
            ``(num_solves, num_ops)`` and whose ``makespan_ms`` is an array of
            per-solve makespans.
        """
        n = self.num_ops
        d = np.maximum(np.asarray(durations, dtype=np.float64), 0.0)
        if d.ndim != 2:
            raise ValueError(f"expected a (num_solves, num_ops) matrix, got shape {d.shape}")
        d_w = d[:, self.order]
        c_w = None
        if comm is not None:
            c = np.asarray(comm, dtype=np.float64)
            c_w = c[self.order] if c.ndim == 1 else c[:, self.order]
        num_solves = d_w.shape[0]
        starts_w = np.zeros((num_solves, n), dtype=np.float64)
        ends_w = np.zeros((num_solves, n), dtype=np.float64)
        offsets = self.wave_offsets
        for w in range(len(offsets) - 1):
            a, b = int(offsets[w]), int(offsets[w + 1])
            dep_ready = ends_w[:, self._dep_clip_w[a:b]]
            if c_w is not None:
                dep_ready = dep_ready + (c_w[a:b] if c_w.ndim == 1 else c_w[:, a:b])
            dep_ready = np.where(self._has_dep_w[a:b], dep_ready, 0.0)
            prev_ready = np.where(
                self._has_prev_w[a:b], ends_w[:, self._prev_clip_w[a:b]], 0.0
            )
            start = np.maximum(prev_ready, dep_ready)
            starts_w[:, a:b] = start
            ends_w[:, a:b] = start + d_w[:, a:b]
        starts = np.empty_like(starts_w)
        ends = np.empty_like(ends_w)
        starts[:, self.order] = starts_w
        ends[:, self.order] = ends_w
        makespans = ends_w.max(axis=1) if n else np.zeros(num_solves)
        _STATS["timeline_solves"] += num_solves
        return TimelineSolution(starts=starts, ends=ends, makespan_ms=makespans)

    # ------------------------------------------------------------------ accounting

    def device_busy_idle(
        self, starts: np.ndarray, ends: np.ndarray, makespan: float
    ) -> tuple[list[float], list[float]]:
        """Per-device busy and idle time for one solve.

        Sequential (cumsum) accumulation in stage order keeps the floats
        bit-identical to per-op running sums.
        """
        busy: list[float] = []
        idle: list[float] = []
        spans = ends - starts
        for stage in range(self.num_stages):
            a, b = int(self.stage_offsets[stage]), int(self.stage_offsets[stage + 1])
            total = float(np.cumsum(spans[a:b])[-1]) if b > a else 0.0
            busy.append(total)
            idle.append(max(makespan - total, 0.0))
        return busy, idle

    def _check_memory_order(self) -> None:
        """Validate that every backward is preceded by its own forward on the
        same stage — the invariant
        :class:`~repro.simulator.memory_tracker.MemoryTracker` enforces op
        by op."""
        if self._memory_order_checked:
            return
        m = self.num_microbatches
        for stage in range(self.num_stages):
            a, b = int(self.stage_offsets[stage]), int(self.stage_offsets[stage + 1])
            mbs = self.op_microbatch[a:b]
            fwd = self.op_is_forward[a:b]
            positions = np.arange(b - a, dtype=np.int64)
            pos_f = np.full(max(m, 1), -1, dtype=np.int64)
            pos_b = np.full(max(m, 1), -1, dtype=np.int64)
            pos_f[mbs[fwd]] = positions[fwd]
            pos_b[mbs[~fwd]] = positions[~fwd]
            bad = (pos_b >= 0) & ((pos_f < 0) | (pos_f > pos_b))
            if bad.any():
                mb = int(np.flatnonzero(bad)[0])
                raise MemoryAccountingError(
                    f"backward of micro-batch {mb} on stage {stage} executes "
                    "before (or without) its forward"
                )
        self._memory_order_checked = True

    def peak_activation(
        self,
        activation_bytes: np.ndarray,
        static_bytes: Sequence[float] | None = None,
    ) -> list[float]:
        """Per-device peak activation memory (order-only; timing-independent).

        Args:
            activation_bytes: ``[microbatch][stage]`` activation footprints.
            static_bytes: Optional per-device static memory.

        Returns:
            Peak bytes per device, bit-identical to replaying the ops through
            a :class:`~repro.simulator.memory_tracker.MemoryTracker`.
        """
        self._check_memory_order()
        act = np.asarray(activation_bytes, dtype=np.float64)
        peaks: list[float] = []
        for stage in range(self.num_stages):
            a, b = int(self.stage_offsets[stage]), int(self.stage_offsets[stage + 1])
            static = float(static_bytes[stage]) if static_bytes else 0.0
            mbs = self.op_microbatch[a:b]
            fwd = self.op_is_forward[a:b]
            values = act[mbs, stage]
            deltas = np.where(fwd, values, -values)
            running = np.cumsum(np.concatenate(([static], deltas)))
            allocated = running[1:][fwd]
            peak = float(allocated.max()) if allocated.size else static
            peaks.append(max(static, peak))
        return peaks
