"""Instruction-stream executor with NCCL-like communication semantics.

Each (virtual) device executes its instruction stream in order:

* ``ForwardPass`` / ``BackwardPass`` occupy the compute stream for the
  duration given by the caller's duration function;
* ``*Start`` communication instructions post a transfer onto the single
  communication channel shared with the peer device and return immediately
  (asynchronous launch on the communication stream);
* ``Wait*`` instructions block the compute stream until the corresponding
  transfer has completed.

The channel between each pair of adjacent devices processes transfers
strictly in the order they were posted by each side — the NCCL constraint
the paper describes in §2.3/§6.  If the two sides post mismatching heads
(device 1's next posted op is "send activation of micro-batch 1" while
device 2's next posted op is "send gradient of micro-batch 7"), neither
transfer can ever complete and the execution deadlocks.  The executor
detects this and raises :class:`CommunicationDeadlockError`, which is how
the reproduction demonstrates that naive communication ordering breaks
dynamic pipelines while DynaPipe's planned ordering does not.

Execution is one sweep over streams decoded once; the trace is built only
when read.  ``tests/oracles/executor_interpreted.py`` keeps the original
``isinstance`` interpreter as the bit-identity oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.instructions.ops import (
    BackwardPass,
    CommDirection,
    ForwardPass,
    PipelineInstruction,
    RecvActStart,
    RecvGradStart,
    SendActStart,
    SendGradStart,
    WaitRecvAct,
    WaitRecvGrad,
    WaitSendAct,
    WaitSendGrad,
)
from repro.simulator.memory_tracker import MemoryAccountingError
from repro.simulator.trace import ExecutionTrace, TraceEvent

#: Duration provider for compute instructions, in milliseconds.
ComputeDurationFn = Callable[[PipelineInstruction], float]
#: Transfer time provider: (nbytes, src_stage, dst_stage) -> milliseconds.
TransferTimeFn = Callable[[float, int, int], float]

#: A transfer is identified by (sender, receiver, microbatch, direction).
TransferKey = tuple[int, int, int, CommDirection]


class CommunicationDeadlockError(RuntimeError):
    """Raised when the posted communication orders can never be matched.

    Attributes:
        blocked_devices: Devices whose streams could not run to completion.
        blocked_detail: One dictionary per blocked device describing the
            instruction it is stuck on (a ``Wait*`` op): ``device``, ``kind``
            (:class:`~repro.instructions.ops.InstructionKind` value),
            ``microbatch``, ``stage`` and ``peer``.  Execution backends other
            than the simulator raise the same type with the same fields, so
            differential harnesses can assert on *which* op hung.
    """

    def __init__(
        self,
        message: str,
        blocked_devices: list[int] | None = None,
        blocked_detail: list[dict] | None = None,
    ) -> None:
        super().__init__(message)
        self.blocked_devices = blocked_devices or []
        self.blocked_detail = blocked_detail or []


def blocked_instruction_detail(
    device: int, instr: PipelineInstruction
) -> dict:
    """The :attr:`CommunicationDeadlockError.blocked_detail` entry for a
    device stuck on ``instr`` (shared by the simulator and real backends)."""
    return {
        "device": device,
        "kind": instr.kind.value,
        "microbatch": instr.microbatch,
        "stage": instr.stage,
        "peer": getattr(instr, "peer", -1),
    }


def describe_blocked_detail(blocked_detail: list[dict]) -> str:
    """Human-readable summary of blocked instructions for error messages."""
    return "; ".join(
        f"device {d['device']} stuck on {d['kind']} "
        f"(microbatch={d['microbatch']}, stage={d['stage']}, peer={d['peer']})"
        for d in blocked_detail
    )


@dataclass
class ExecutionResult:
    """Output of :meth:`InstructionExecutor.run`.

    Attributes:
        makespan_ms: Completion time of the last instruction.
        device_finish_ms: Per-device completion time.
        device_compute_ms: Per-device total compute-stream busy time.
        peak_memory_bytes: Per-device peak (static + activation) memory.
        transfer_log: Completed transfers as (key, start, end) tuples.
        trace: Execution trace of compute and communication events.
    """

    makespan_ms: float
    device_finish_ms: list[float]
    device_compute_ms: list[float]
    peak_memory_bytes: list[float]
    transfer_log: list[tuple[TransferKey, float, float]]
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)

    @property
    def bubble_fraction(self) -> float:
        """Average idle fraction of the compute streams."""
        if self.makespan_ms <= 0:
            return 0.0
        idle = [
            max(self.makespan_ms - busy, 0.0) for busy in self.device_compute_ms
        ]
        return sum(idle) / (len(idle) * self.makespan_ms)


class _DeferredTrace(ExecutionTrace):
    """An :class:`ExecutionTrace` built on first read from raw
    ``(device, label, microbatch, start, end)`` tuples; a one-character
    label (``F``/``B``) marks a compute event."""

    def __init__(self, raw: list[tuple[int, str, int, float, float]]) -> None:
        self._raw = raw
        self._events: list[TraceEvent] | None = None

    @property
    def events(self) -> list[TraceEvent]:  # type: ignore[override]
        if self._events is None:
            self._events = [
                TraceEvent(d, f"{label}{mb}", s, e, "compute" if len(label) == 1 else "comm", mb)
                for d, label, mb, s, e in self._raw
            ]
        return self._events


#: Op codes of a decoded instruction.
_FORWARD, _BACKWARD, _START, _WAIT = range(4)
_DIRECTIONS = (CommDirection.ACTIVATION, CommDirection.GRADIENT)

#: ``instruction class -> (op code, direction index, whether this side sends)``.
_DECODE: dict[type, tuple[int, int, bool]] = {
    ForwardPass: (_FORWARD, 0, False),
    BackwardPass: (_BACKWARD, 0, False),
    SendActStart: (_START, 0, True),
    RecvActStart: (_START, 0, False),
    SendGradStart: (_START, 1, True),
    RecvGradStart: (_START, 1, False),
    WaitSendAct: (_WAIT, 0, True),
    WaitRecvAct: (_WAIT, 0, False),
    WaitSendGrad: (_WAIT, 1, True),
    WaitRecvGrad: (_WAIT, 1, False),
}


def transfer_key(instr: PipelineInstruction) -> TransferKey:
    """Canonical ``(sender, receiver, microbatch, direction)`` of a Start/Wait op."""
    _, direction, sends = _DECODE[type(instr)]
    ends = (instr.stage, instr.peer) if sends else (instr.peer, instr.stage)
    return (*ends, instr.microbatch, _DIRECTIONS[direction])


def _decode(
    stream: Sequence[PipelineInstruction],
    key_ids: dict[tuple[int, int, int, int], int],
    keys: list[TransferKey],
) -> list[tuple]:
    """``(code, microbatch, key id, sends, nbytes, channel)`` per op; ``keys[key
    id]`` is the canonical key of an interned transfer."""
    ops = []
    for instr in stream:
        decoded = _DECODE.get(type(instr))
        if decoded is None:
            raise TypeError(f"unknown instruction type {type(instr).__name__}")
        code, direction, sends = decoded
        if code <= _BACKWARD:
            ops.append((code, instr.microbatch, -1, False, 0.0, None))
            continue
        stage, peer, mb = instr.stage, instr.peer, instr.microbatch
        key = (stage, peer, mb, direction) if sends else (peer, stage, mb, direction)
        kid = key_ids.get(key)
        if kid is None:
            kid = key_ids[key] = len(keys)
            keys.append((key[0], key[1], mb, _DIRECTIONS[direction]))
        channel = (stage, peer) if stage < peer else (peer, stage)
        ops.append((code, mb, kid, sends, instr.nbytes if code == _START else 0.0, channel))
    return ops


class InstructionExecutor:
    """Executes per-device instruction streams against simulated devices.

    Each round runs device 0 until it blocks on a ``Wait*``, then device 1,
    and so on, then completes every channel's matching heads; a round
    without progress is a deadlock.  ``compute_duration_fn`` is called once
    per compute op in that fixed order, so noise draws are reproducible.

    Args:
        compute_duration_fn: Maps Forward/Backward instructions to ms.
        transfer_time_fn: Maps (nbytes, src, dst) to transfer ms.
        activation_bytes_fn: Maps Forward instructions to the activation bytes
            they allocate (the matching Backward frees them); optional.
        static_bytes: Per-device static memory, the floor of each peak.
    """

    def __init__(
        self,
        compute_duration_fn: ComputeDurationFn,
        transfer_time_fn: TransferTimeFn | None = None,
        activation_bytes_fn: Callable[[PipelineInstruction], float] | None = None,
        static_bytes: Sequence[float] | None = None,
    ) -> None:
        self.compute_duration_fn = compute_duration_fn
        self.transfer_time_fn = transfer_time_fn or (lambda nbytes, src, dst: 0.0)
        self.activation_bytes_fn = activation_bytes_fn
        self.static_bytes = static_bytes

    def run(self, device_instructions: Sequence[Sequence[PipelineInstruction]]) -> ExecutionResult:
        """Execute the instruction streams of all devices.

        Raises:
            CommunicationDeadlockError: If the communication orders posted by
                adjacent devices can never be matched, or every device is
                blocked on a transfer that will never be posted.
            MemoryAccountingError: If a Forward allocates a micro-batch that
                is already live, or a Backward frees one that is not.
        """
        duration_fn = self.compute_duration_fn
        transfer_time_fn = self.transfer_time_fn
        activation_fn = self.activation_bytes_fn
        num_devices = len(device_instructions)
        key_ids: dict[tuple[int, int, int, int], int] = {}
        keys: list[TransferKey] = []
        decoded = [_decode(stream, key_ids, keys) for stream in device_instructions]
        done_at: list[float | None] = [None] * len(keys)
        pointers = [0] * num_devices
        clocks = [0.0] * num_devices
        compute_busy = [0.0] * num_devices
        peaks = [self.static_bytes[d] if self.static_bytes else 0.0 for d in range(num_devices)]
        current = list(peaks)
        live: list[dict[int, float]] = [{} for _ in range(num_devices)]
        # Per channel in first-post order, each side's (key id, sends, post time, nbytes).
        posted: dict[tuple[int, int], dict[int, deque]] = {}
        channel_free: dict[tuple[int, int], float] = {}
        transfer_log: list[tuple[TransferKey, float, float]] = []
        raw_trace: list[tuple[int, str, int, float, float]] = []
        record = raw_trace.append
        remaining = sum(len(ops) for ops in decoded)

        while remaining:
            progressed = False
            for device, ops in enumerate(decoded):
                first = pointer = pointers[device]
                stream = device_instructions[device]
                clock = clocks[device]
                while pointer < len(ops):
                    code, mb, kid, sends, nbytes, channel = ops[pointer]
                    # Each ``if a > b`` below is ``max(b, a)``, tie-breaking included.
                    if code <= _BACKWARD:
                        instr = stream[pointer]
                        duration = duration_fn(instr)
                        if 0.0 > duration:
                            duration = 0.0
                        start = clock
                        clock = start + duration
                        compute_busy[device] += duration
                        if activation_fn is not None and code == _FORWARD:
                            size = activation_fn(instr)
                            if size < 0:
                                raise ValueError(f"allocation size must be >= 0, got {size}")
                            if mb in live[device]:
                                raise MemoryAccountingError(
                                    f"allocation key {('act', mb)!r} is already live"
                                )
                            live[device][mb] = size
                            current[device] += size
                            if current[device] > peaks[device]:
                                peaks[device] = current[device]
                        elif activation_fn is not None:
                            if mb not in live[device]:
                                raise MemoryAccountingError(
                                    f"freeing unknown allocation key {('act', mb)!r}"
                                )
                            current[device] -= live[device].pop(mb)
                        record((device, "F" if code == _FORWARD else "B", mb, start, clock))
                    elif code == _START:
                        queues = posted.get(channel)
                        if queues is None:
                            queues = posted[channel] = {channel[0]: deque(), channel[1]: deque()}
                        queues[device].append((kid, sends, clock, nbytes))
                    elif done_at[kid] is None:
                        break  # device blocked on an incomplete transfer
                    elif done_at[kid] > clock:
                        clock = done_at[kid]
                    pointer += 1
                if pointer != first:
                    progressed = True
                    remaining -= pointer - first
                    pointers[device] = pointer
                    clocks[device] = clock
            for channel, queues in posted.items():
                side_a, side_b = queues[channel[0]], queues[channel[1]]
                while side_a and side_b:
                    kid, sends, post_a, bytes_a = side_a[0]
                    other, other_sends, post_b, bytes_b = side_b[0]
                    if kid != other or sends == other_sends:
                        break
                    key = keys[kid]
                    start = max(post_a, post_b, channel_free.get(channel, 0.0))
                    transfer_ms = transfer_time_fn(max(bytes_a, bytes_b), key[0], key[1])
                    end = start + max(transfer_ms, 0.0)
                    done_at[kid] = end
                    transfer_log.append((key, start, end))
                    channel_free[channel] = end
                    label = "send-act-" if key[3] is CommDirection.ACTIVATION else "send-grad-"
                    record((key[0], label, key[2], start, end))
                    side_a.popleft()
                    side_b.popleft()
                    progressed = True
            if not progressed:
                raise self._deadlock(device_instructions, pointers, posted)

        return ExecutionResult(
            makespan_ms=max(clocks) if clocks else 0.0,
            device_finish_ms=clocks,
            device_compute_ms=compute_busy,
            peak_memory_bytes=peaks,
            transfer_log=transfer_log,
            trace=_DeferredTrace(raw_trace),
        )

    @staticmethod
    def _deadlock(
        device_instructions: Sequence[Sequence[PipelineInstruction]],
        pointers: list[int],
        posted: dict[tuple[int, int], dict[int, deque]],
    ) -> CommunicationDeadlockError:
        """The error for a round without progress."""
        mismatched = []
        for (a, b), queues in posted.items():
            if queues[a] and queues[b]:
                head_a, head_b = queues[a][0], queues[b][0]
                if head_a[0] != head_b[0] or head_a[1] == head_b[1]:
                    mismatched.append((a, b))
        blocked = [
            d for d, stream in enumerate(device_instructions) if pointers[d] < len(stream)
        ]
        # A blocked device always sits on a Wait (everything else executes
        # eagerly), so the head of its remaining stream is the op that hung.
        blocked_detail = [
            blocked_instruction_detail(d, device_instructions[d][pointers[d]]) for d in blocked
        ]
        if mismatched:
            channels = ", ".join(f"devices {a}<->{b}" for a, b in mismatched)
            message = (
                f"communication order mismatch on channel(s): {channels}; the posted "
                "send/receive orders of the two sides can never match: "
            )
        else:
            message = (
                "execution stalled: devices are waiting on transfers whose peer "
                "operation is never posted (missing or mis-ordered Start ops): "
            )
        return CommunicationDeadlockError(
            message + describe_blocked_detail(blocked_detail), blocked, blocked_detail
        )
