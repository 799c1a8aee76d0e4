"""Execution-backend interface.

The instruction layer (:mod:`repro.instructions.ops`) is an ISA: an
execution plan is one ordered stream of instructions per (virtual) device.
An *execution backend* is anything that can run those streams end to end
under the paper's channel semantics (§2.3/§6):

* ``Forward``/``Backward`` occupy the device's compute stream;
* ``*Start`` ops post a transfer asynchronously onto the single FIFO
  channel shared with the peer device;
* ``Wait*`` ops block the compute stream until the transfer completed;
* a channel completes a transfer only when the *heads* of both sides'
  posted FIFOs name the same transfer from opposite ends (the NCCL
  constraint) — mismatched heads mean the execution can never finish.

Two backends ship with the reproduction:

* ``"sim"`` — :class:`repro.simulator.executor.InstructionExecutor`, the
  one-pass reference implementation (deterministic virtual time,
  deadlocks *detected analytically*);
* ``"local"`` — :class:`repro.backends.local.LocalBackend`, one worker
  process per device with real queues, where a mis-ordered stream really
  hangs and a watchdog converts the hang into the same structured
  :class:`~repro.simulator.executor.CommunicationDeadlockError`.

Every backend reports through :class:`BackendExecutionReport`, whose
:meth:`~BackendExecutionReport.conformance_fingerprint` is the structure the
differential ISA-conformance suite compares across backends: per-device
instruction completion order and per-channel transfer matching order.
Timing (makespans, wall clocks) is deliberately *not* part of the
fingerprint — the simulator runs in virtual milliseconds, the local backend
in real wall time — but the ordering contract is backend-independent.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.instructions.ops import PipelineInstruction
from repro.simulator.executor import (
    ComputeDurationFn,
    ExecutionResult,
    TransferKey,
    TransferTimeFn,
)

#: A channel is the unordered pair of devices it connects.
ChannelId = tuple[int, int]


def normalize_transfer_key(
    key: TransferKey | tuple[int, int, int, str],
) -> tuple[int, int, int, str]:
    """JSON-safe, backend-independent form of a transfer key.

    Accepts both the simulator's in-memory keys (``CommDirection`` member)
    and already-normalised wire keys (direction value string).
    """
    sender, receiver, microbatch, direction = key
    value = direction.value if hasattr(direction, "value") else str(direction)
    return (int(sender), int(receiver), int(microbatch), value)


def channel_of_key(key: TransferKey | tuple[int, int, int, str]) -> ChannelId:
    """The channel (unordered device pair) a transfer key belongs to."""
    sender, receiver = int(key[0]), int(key[1])
    return (sender, receiver) if sender < receiver else (receiver, sender)


def channel_order_from_log(
    transfer_log: Sequence[tuple[TransferKey, float, float]],
) -> dict[ChannelId, list[tuple[int, int, int, str]]]:
    """Per-channel transfer completion order from an executor transfer log.

    The log is appended in match order, so its per-channel subsequence *is*
    the order in which the channel's FIFO heads matched.
    """
    order: dict[ChannelId, list[tuple[int, int, int, str]]] = {}
    for key, _start, _end in transfer_log:
        order.setdefault(channel_of_key(key), []).append(normalize_transfer_key(key))
    return order


@dataclass
class BackendExecutionReport:
    """What a backend reports for one executed set of instruction streams.

    Attributes:
        backend: Registry name of the backend that produced the report.
        result: The :class:`~repro.simulator.executor.ExecutionResult`
            (makespan, per-device busy time, memory peaks, transfer log,
            trace).  For the local backend, times are wall-clock ms.
        device_event_order: Per device, the signatures (see
            :func:`repro.instructions.serialization.instruction_signature`)
            of the instructions it completed, in completion order.
        channel_transfer_order: Per channel, the normalised transfer keys in
            the order the channel matched them.
        wall_time_s: Real time the run took.
        payload_errors: Transfers whose delivered payload did not verify
            against the expected contents (always 0 for the simulator,
            which moves no payloads).
    """

    backend: str
    result: ExecutionResult
    device_event_order: list[list[tuple[str, int, int, int]]]
    channel_transfer_order: dict[ChannelId, list[tuple[int, int, int, str]]]
    wall_time_s: float = 0.0
    payload_errors: int = 0

    def conformance_fingerprint(self) -> dict[str, Any]:
        """The backend-independent portion of the report.

        Two conforming backends running the same streams must produce equal
        fingerprints; the differential suite asserts exactly this.
        """
        return {
            "device_event_order": [list(events) for events in self.device_event_order],
            "channel_transfer_order": {
                channel: list(keys)
                for channel, keys in sorted(self.channel_transfer_order.items())
            },
            "completed_transfers": sorted(
                normalize_transfer_key(key) for key, _s, _e in self.result.transfer_log
            ),
        }


@dataclass
class BackendOptions:
    """Constructor arguments shared by every execution backend.

    Mirrors :class:`~repro.simulator.executor.InstructionExecutor`'s
    signature so the simulator is simply the reference implementation of
    the interface.

    Attributes:
        compute_duration_fn: Maps Forward/Backward instructions to ms of
            (virtual) compute.  Backends that run out-of-process evaluate
            this in the parent and ship plain floats to the workers.
        transfer_time_fn: Maps (nbytes, src, dst) to transfer ms (virtual
            backends only; real backends move actual payloads instead).
        activation_bytes_fn: Maps compute instructions to the activation
            bytes they allocate/free on their stage.
        static_bytes: Per-device static memory for the trackers.
    """

    compute_duration_fn: ComputeDurationFn = field(default=lambda instr: 0.0)
    transfer_time_fn: TransferTimeFn | None = None
    activation_bytes_fn: Callable[[PipelineInstruction], float] | None = None
    static_bytes: Sequence[float] | None = None


class ExecutionBackend(abc.ABC):
    """A consumer of the instruction ISA that can run streams end to end."""

    #: Registry name (``"sim"``, ``"local"``, ...).
    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self, device_instructions: Sequence[Sequence[PipelineInstruction]]
    ) -> ExecutionResult:
        """Execute the streams; raise
        :class:`~repro.simulator.executor.CommunicationDeadlockError` when
        they cannot run to completion."""

    @abc.abstractmethod
    def run_report(
        self, device_instructions: Sequence[Sequence[PipelineInstruction]]
    ) -> BackendExecutionReport:
        """Execute the streams and return the full conformance report."""
