"""Interpreted instruction executor: the one-pass executor's bit-identity oracle.

This is the original ``isinstance`` interpreter that
:class:`repro.simulator.executor.InstructionExecutor` replaced with a
single sweep over decoded streams.  It visits ops in the same order (device
0 until it blocks, then device 1, ..., then the channel heads), so the
equivalence suite compares the two field by field: every
:class:`~repro.simulator.executor.ExecutionResult` field, the transfer log,
the trace events in order, deadlock verdicts and the sequence of
``compute_duration_fn`` calls.  It lives in ``tests/`` because nothing in
the library selects it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.instructions.ops import (
    BackwardPass,
    CommDirection,
    ForwardPass,
    PipelineInstruction,
    WaitRecvAct,
    WaitSendAct,
    WaitSendGrad,
    _CommStart,
    _CommWait,
)
from repro.simulator.executor import (
    CommunicationDeadlockError,
    ComputeDurationFn,
    ExecutionResult,
    TransferKey,
    TransferTimeFn,
    blocked_instruction_detail,
    describe_blocked_detail,
)
from repro.simulator.memory_tracker import MemoryTracker
from repro.simulator.trace import ExecutionTrace, TraceEvent


def _transfer_key_for_start(instr: _CommStart) -> TransferKey:
    """Canonical transfer key for a Start instruction."""
    if instr.is_send:
        return (instr.stage, instr.peer, instr.microbatch, instr.direction)
    return (instr.peer, instr.stage, instr.microbatch, instr.direction)


def _transfer_key_for_wait(instr: _CommWait) -> TransferKey:
    """Canonical transfer key for a Wait instruction."""
    if isinstance(instr, (WaitSendAct, WaitSendGrad)):
        direction = (
            CommDirection.ACTIVATION if isinstance(instr, WaitSendAct) else CommDirection.GRADIENT
        )
        return (instr.stage, instr.peer, instr.microbatch, direction)
    direction = (
        CommDirection.ACTIVATION if isinstance(instr, WaitRecvAct) else CommDirection.GRADIENT
    )
    return (instr.peer, instr.stage, instr.microbatch, direction)


@dataclass
class _PostedOp:
    """A communication op posted to a channel by one device."""

    key: TransferKey
    is_send: bool
    post_time: float
    nbytes: float


class InstructionExecutor:
    """Executes per-device instruction streams against simulated devices.

    Args:
        compute_duration_fn: Maps Forward/Backward instructions to ms.
        transfer_time_fn: Maps (nbytes, src, dst) to transfer ms.
        activation_bytes_fn: Maps Forward/Backward instructions to the
            activation bytes they allocate/free on their stage; optional.
        static_bytes: Per-device static memory for the trackers.
        device_capacity: Optional per-device capacity; exceeding it is
            recorded in the memory trackers (not fatal, matching how the
            planner treats predicted OOM as a constraint rather than the
            executor crashing).
    """

    def __init__(
        self,
        compute_duration_fn: ComputeDurationFn,
        transfer_time_fn: TransferTimeFn | None = None,
        activation_bytes_fn: Callable[[PipelineInstruction], float] | None = None,
        static_bytes: Sequence[float] | None = None,
        device_capacity: float | None = None,
    ) -> None:
        self.compute_duration_fn = compute_duration_fn
        self.transfer_time_fn = transfer_time_fn or (lambda nbytes, src, dst: 0.0)
        self.activation_bytes_fn = activation_bytes_fn
        self.static_bytes = static_bytes
        self.device_capacity = device_capacity

    def run(self, device_instructions: Sequence[Sequence[PipelineInstruction]]) -> ExecutionResult:
        """Execute the instruction streams of all devices.

        Raises:
            CommunicationDeadlockError: If the communication orders posted by
                adjacent devices can never be matched, or every device is
                blocked on a transfer that will never be posted.
        """
        num_devices = len(device_instructions)
        pointers = [0] * num_devices
        clocks = [0.0] * num_devices
        compute_busy = [0.0] * num_devices
        trackers = [
            MemoryTracker(
                capacity=self.device_capacity,
                static_bytes=(self.static_bytes[d] if self.static_bytes else 0.0),
            )
            for d in range(num_devices)
        ]
        trace = ExecutionTrace()

        # Channel state: per unordered device pair, a FIFO of posted ops per side.
        posted: dict[tuple[int, int], dict[int, deque[_PostedOp]]] = {}
        channel_free: dict[tuple[int, int], float] = {}
        completed: dict[TransferKey, tuple[float, float]] = {}
        transfer_log: list[tuple[TransferKey, float, float]] = []

        def pair_of(a: int, b: int) -> tuple[int, int]:
            return (a, b) if a < b else (b, a)

        def post(device: int, instr: _CommStart) -> None:
            key = _transfer_key_for_start(instr)
            pair = pair_of(instr.stage, instr.peer)
            queues = posted.setdefault(pair, {pair[0]: deque(), pair[1]: deque()})
            queues[device].append(
                _PostedOp(key=key, is_send=instr.is_send, post_time=clocks[device], nbytes=instr.nbytes)
            )

        def try_match_channels() -> bool:
            """Complete transfers whose heads match on both sides."""
            progressed = False
            for pair, queues in posted.items():
                a, b = pair
                while queues[a] and queues[b]:
                    head_a, head_b = queues[a][0], queues[b][0]
                    if head_a.key == head_b.key and head_a.is_send != head_b.is_send:
                        start = max(
                            head_a.post_time, head_b.post_time, channel_free.get(pair, 0.0)
                        )
                        nbytes = max(head_a.nbytes, head_b.nbytes)
                        sender, receiver = head_a.key[0], head_a.key[1]
                        end = start + max(self.transfer_time_fn(nbytes, sender, receiver), 0.0)
                        completed[head_a.key] = (start, end)
                        transfer_log.append((head_a.key, start, end))
                        channel_free[pair] = end
                        direction = "act" if head_a.key[3] is CommDirection.ACTIVATION else "grad"
                        trace.add(
                            TraceEvent(
                                device=sender,
                                name=f"send-{direction}-{head_a.key[2]}",
                                start_ms=start,
                                end_ms=end,
                                category="comm",
                                microbatch=head_a.key[2],
                            )
                        )
                        queues[a].popleft()
                        queues[b].popleft()
                        progressed = True
                    else:
                        break
            return progressed

        def head_mismatch_pairs() -> list[tuple[int, int]]:
            """Pairs whose heads are both posted but can never match."""
            mismatched = []
            for pair, queues in posted.items():
                a, b = pair
                if queues[a] and queues[b]:
                    head_a, head_b = queues[a][0], queues[b][0]
                    if not (head_a.key == head_b.key and head_a.is_send != head_b.is_send):
                        mismatched.append(pair)
            return mismatched

        total_instructions = sum(len(stream) for stream in device_instructions)
        executed = 0

        while executed < total_instructions:
            progressed = False
            for device in range(num_devices):
                stream = device_instructions[device]
                while pointers[device] < len(stream):
                    instr = stream[pointers[device]]
                    if isinstance(instr, (ForwardPass, BackwardPass)):
                        duration = max(self.compute_duration_fn(instr), 0.0)
                        start = clocks[device]
                        end = start + duration
                        clocks[device] = end
                        compute_busy[device] += duration
                        if self.activation_bytes_fn is not None:
                            nbytes = self.activation_bytes_fn(instr)
                            if isinstance(instr, ForwardPass):
                                trackers[device].allocate(("act", instr.microbatch), nbytes)
                            else:
                                trackers[device].free(("act", instr.microbatch))
                        label = "F" if isinstance(instr, ForwardPass) else "B"
                        trace.add(
                            TraceEvent(
                                device=device,
                                name=f"{label}{instr.microbatch}",
                                start_ms=start,
                                end_ms=end,
                                category="compute",
                                microbatch=instr.microbatch,
                            )
                        )
                        pointers[device] += 1
                        executed += 1
                        progressed = True
                    elif isinstance(instr, _CommStart):
                        post(device, instr)
                        pointers[device] += 1
                        executed += 1
                        progressed = True
                    elif isinstance(instr, _CommWait):
                        key = _transfer_key_for_wait(instr)
                        if key in completed:
                            clocks[device] = max(clocks[device], completed[key][1])
                            pointers[device] += 1
                            executed += 1
                            progressed = True
                        else:
                            break  # device blocked on an incomplete transfer
                    else:  # pragma: no cover - defensive
                        raise TypeError(f"unknown instruction type {type(instr).__name__}")
            if try_match_channels():
                progressed = True
            if not progressed:
                mismatched = head_mismatch_pairs()
                blocked = [d for d in range(num_devices) if pointers[d] < len(device_instructions[d])]
                # A blocked device always sits on a Wait (everything else
                # executes eagerly), so the head of its remaining stream is
                # the op that hung.
                blocked_detail = [
                    blocked_instruction_detail(d, device_instructions[d][pointers[d]])
                    for d in blocked
                ]
                blocked_summary = describe_blocked_detail(blocked_detail)
                if mismatched:
                    detail = ", ".join(f"devices {a}<->{b}" for a, b in mismatched)
                    raise CommunicationDeadlockError(
                        f"communication order mismatch on channel(s): {detail}; "
                        "the posted send/receive orders of the two sides can never "
                        f"match: {blocked_summary}",
                        blocked_devices=blocked,
                        blocked_detail=blocked_detail,
                    )
                raise CommunicationDeadlockError(
                    "execution stalled: devices are waiting on transfers whose peer "
                    "operation is never posted (missing or mis-ordered Start ops): "
                    f"{blocked_summary}",
                    blocked_devices=blocked,
                    blocked_detail=blocked_detail,
                )

        makespan = max(clocks) if clocks else 0.0
        return ExecutionResult(
            makespan_ms=makespan,
            device_finish_ms=list(clocks),
            device_compute_ms=compute_busy,
            peak_memory_bytes=[tracker.peak_bytes for tracker in trackers],
            transfer_log=transfer_log,
            trace=trace,
        )
