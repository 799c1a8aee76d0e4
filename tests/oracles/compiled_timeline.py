"""Compiled timeline: the timeline walk's bit-identity oracle.

This is the schedule compiler and solver that
:func:`repro.simulator.engine.walk_timeline` replaced.  It compiles a
schedule's *geometry* — which op runs where, and what it depends on — into
flat numpy arrays, orders the dependency DAG with Kahn's algorithm, and
solves the timing recurrence op by op in that topological order:

* ``op_stage`` / ``op_microbatch`` / ``op_is_forward`` describe every op in
  stage-major order (op id = position within the concatenated per-stage
  sequences);
* ``dep`` holds each op's cross-stage dependency (the upstream forward, the
  downstream backward, or the same-stage forward for the last stage's
  backward) as an op id, ``-1`` when the op has none;
* ``prev`` holds the same-device predecessor (devices execute their schedule
  in order, one op at a time);
* ``solve`` walks the ops of one duration vector in a topological order of
  the dependency DAG with scalar floats.

:func:`simulate_schedule_compiled` is the compile-and-solve
``simulate_schedule`` it served: it compiles the schedule before drawing
any callback, so the equivalence suites compare error texts and callback
sequences as well as the floats.  It lives in ``tests/`` because nothing in
the library selects it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.schedule.events import ComputeOp, OpType, PipelineSchedule
from repro.simulator.engine import (
    CommTimeFn,
    DurationFn,
    SimulationError,
    SimulationResult,
)
from repro.simulator.memory_tracker import MemoryAccountingError

#: Communication kind of an op's dependency edge (see ``comm_kind``).
COMM_NONE, COMM_ACT, COMM_GRAD = 0, 1, 2


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
        self._build_order()

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
        the format produced by :func:`repro.schedule.cyclic.cyclic_walk`."""
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

    def _build_order(self) -> None:
        """Topologically order the dependency DAG (Kahn) and detect deadlocks."""
        n = self.num_ops
        dep, prev = self.dep.tolist(), self.prev.tolist()
        indegree = [(d >= 0) + (p >= 0) for d, p in zip(dep, prev)]
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            if dep[i] >= 0:
                children[dep[i]].append(i)
            if prev[i] >= 0:
                children[prev[i]].append(i)
        queue: deque[int] = deque(i for i in range(n) if indegree[i] == 0)
        order: list[int] = []
        resolved = [False] * n
        while queue:
            i = queue.popleft()
            order.append(i)
            resolved[i] = True
            for j in children[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    queue.append(j)
        if len(order) < n:
            i = resolved.index(False)  # first blocked, stage-major
            blocker = None
            if dep[i] >= 0 and not resolved[dep[i]]:
                blocker = dep[i]
            elif prev[i] >= 0 and not resolved[prev[i]]:
                blocker = prev[i]
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
        # Scalar-walk layouts of :meth:`solve` (op ids in topological order)
        # and :meth:`peak_activation` (stage-major).
        self._order_list = order
        self._dep_list = dep
        self._prev_list = prev
        self._microbatch_list = self.op_microbatch.tolist()
        self._forward_list = self.op_is_forward.tolist()
        self._offset_list = self.stage_offsets.tolist()

    # ------------------------------------------------------------------ gathers

    def durations_from(self, duration_fn, schedule: PipelineSchedule) -> np.ndarray:
        """Per-op duration array from a mapping/callable over the compute ops
        of ``schedule``, the schedule this timeline was compiled from."""
        lookup = duration_fn if callable(duration_fn) else duration_fn.__getitem__
        return np.asarray([lookup(op) for op in schedule.all_ops()], dtype=np.float64)

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

        Walks the ops once in topological order with scalar floats: each
        op's start is the later of its cross-stage dependency's end (plus
        the edge's communication time) and its same-device predecessor's
        end.

        Args:
            durations: Per-op durations in op-id (stage-major) order.
            comm: Optional per-op communication times added to the
                cross-stage dependency edge (zero where the op has none).

        Returns:
            A :class:`TimelineSolution` with starts/ends in op-id order.
        """
        d = np.maximum(np.asarray(durations, dtype=np.float64), 0.0).tolist()
        c = None if comm is None else np.asarray(comm, dtype=np.float64).tolist()
        dep, prev = self._dep_list, self._prev_list
        starts = [0.0] * self.num_ops
        ends = [0.0] * self.num_ops
        for i in self._order_list:
            j = dep[i]
            dep_ready = 0.0 if j < 0 else ends[j] if c is None else ends[j] + c[i]
            j = prev[i]
            prev_ready = 0.0 if j < 0 else ends[j]
            start = dep_ready if dep_ready > prev_ready else prev_ready  # max()
            starts[i] = start
            ends[i] = start + d[i]
        return TimelineSolution(
            starts=np.array(starts),
            ends=np.array(ends),
            makespan_ms=max(ends) if ends else 0.0,
        )

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

    def peak_activation(
        self,
        activation_bytes: np.ndarray,
        static_bytes: Sequence[float] | None = None,
    ) -> list[float]:
        """Per-device peak activation memory (order-only; timing-independent).

        Walks each stage's ops with scalar floats, adding a forward's
        activation and subtracting it again at its backward, so the peaks are
        bit-identical to replaying the ops through a
        :class:`~repro.simulator.memory_tracker.MemoryTracker`.

        Args:
            activation_bytes: ``[microbatch][stage]`` activation footprints.
            static_bytes: Optional per-device static memory.

        Raises:
            MemoryAccountingError: If a backward runs before (or without)
                its forward on the same stage, the invariant the tracker
                enforces op by op.
        """
        act = np.asarray(activation_bytes, dtype=np.float64)
        values = act[self.op_microbatch, self.op_stage].tolist()
        microbatches, forward = self._microbatch_list, self._forward_list
        peaks: list[float] = []
        for stage in range(self.num_stages):
            running = peak = float(static_bytes[stage]) if static_bytes else 0.0
            live = set()
            for i in range(self._offset_list[stage], self._offset_list[stage + 1]):
                if forward[i]:
                    live.add(microbatches[i])
                    running += values[i]
                    if running > peak:
                        peak = running
                elif microbatches[i] in live:
                    running -= values[i]
                else:
                    raise MemoryAccountingError(
                        f"backward of micro-batch {microbatches[i]} on stage {stage} "
                        "executes before (or without) its forward"
                    )
            peaks.append(peak)
        return peaks


def timeline_result(
    ops: Callable[[], Iterable[ComputeOp]],
    timeline: CompiledTimeline,
    solution: TimelineSolution,
    peak_activation_bytes: list[float],
) -> SimulationResult:
    """Wrap one solve of ``timeline`` as a :class:`SimulationResult`.

    ``ops()`` yields the compute ops in op-id (stage-major) order; it is
    only called when ``op_times`` is first read.
    """
    starts, ends = solution.starts, solution.ends
    busy, idle = timeline.device_busy_idle(starts, ends, solution.makespan_ms)
    return SimulationResult(
        makespan_ms=solution.makespan_ms,
        device_busy_ms=busy,
        device_idle_ms=idle,
        peak_activation_bytes=peak_activation_bytes,
        materialize=lambda: dict(zip(ops(), zip(starts.tolist(), ends.tolist()))),
    )


def simulate_schedule_compiled(
    schedule: PipelineSchedule,
    duration_fn: DurationFn | Mapping[ComputeOp, float],
    comm_time_fn: CommTimeFn | None = None,
    activation_bytes: Sequence[Sequence[float]] | None = None,
    static_bytes: Sequence[float] | None = None,
) -> SimulationResult:
    """Compile ``schedule``, solve it once and walk its peak memory."""
    timeline = CompiledTimeline.from_schedule(schedule)
    durations = timeline.durations_from(duration_fn, schedule)
    comm = timeline.comm_from(comm_time_fn) if comm_time_fn is not None else None
    solution = timeline.solve(durations, comm)
    if activation_bytes is not None:
        peaks = timeline.peak_activation(activation_bytes, static_bytes)
    else:
        peaks = [
            (static_bytes[j] if static_bytes else 0.0) for j in range(schedule.num_stages)
        ]
    return timeline_result(schedule.all_ops, timeline, solution, peaks)
