"""Local multiprocess execution backend: really runs instruction streams.

One worker **process** per virtual device executes its stream in order over
real OS-level IPC, following the BMTrain/vllm shape of a pipeline driver
(init channels → run stream → collectives through a module API → destroy):

* ``Forward``/``Backward`` run on the worker (optionally sleeping a scaled
  fraction of their virtual duration) and update a real
  :class:`~repro.simulator.memory_tracker.MemoryTracker`;
* ``*Start`` ops post asynchronously: the worker appends the op to its own
  per-channel FIFO and pushes a small record — with a deterministic numpy
  payload for sends — through a :class:`multiprocessing.Queue` to the peer,
  then continues immediately (communication overlaps compute for real);
* ``Wait*`` ops block the worker until the transfer completed.

A channel (one per adjacent device pair) completes a transfer only when the
heads of both sides' posted FIFOs name the same transfer from opposite ends
— the executor's NCCL constraint.  Each worker evaluates the matching rule
locally over (its own FIFO, the peer records it drained); both sides see the
same two FIFOs, so they reach identical matching decisions without any
coordinator.  The payoff: a stream the simulator calls deadlocked does not
raise here — it **actually hangs**, with a worker parked on a queue read
that will never be satisfied.

The watchdog turns that real hang back into a structured error.  A worker
blocked on a ``Wait*`` reports itself blocked — immediately when it can see
its channel heads are present but permanently mismatched, after
``block_report_s`` otherwise — and reports again if it later unblocks.  The
parent declares deadlock only when every unfinished worker is blocked and a
grace re-check drains no progress, then terminates the workers and raises
:class:`~repro.simulator.executor.CommunicationDeadlockError` with the same
``blocked_devices``/``blocked_detail`` fields the simulator produces, so
differential harnesses can compare verdicts field by field.

Times in the returned :class:`~repro.simulator.executor.ExecutionResult`
are real wall-clock milliseconds (the simulator's are virtual), which is
why the conformance fingerprint compares ordering, never timing.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.backends.base import (
    BackendExecutionReport,
    BackendOptions,
    ChannelId,
    ExecutionBackend,
    normalize_transfer_key,
)
from repro.instructions.ops import (
    BackwardPass,
    ForwardPass,
    PipelineInstruction,
    _CommStart,
    _CommWait,
)
from repro.instructions.serialization import (
    instruction_signature,
    instructions_from_dicts,
    instructions_to_dicts,
)
from repro.simulator.executor import (
    CommunicationDeadlockError,
    ExecutionResult,
    blocked_instruction_detail,
    describe_blocked_detail,
    transfer_key,
)
from repro.simulator.memory_tracker import MemoryTracker
from repro.simulator.trace import ExecutionTrace, TraceEvent

#: JSON/pickle-safe transfer key: (sender, receiver, microbatch, direction value).
WireKey = tuple[int, int, int, str]

#: Directions, indexed for payload encoding.
_DIRECTIONS = ("activation", "gradient")


class LocalBackendTimeoutError(RuntimeError):
    """The run exceeded the hard wall-clock budget without a stable verdict.

    Distinct from :class:`CommunicationDeadlockError`: the deadlock error
    means the watchdog *positively* concluded no progress is possible; this
    one means the run was still (apparently) progressing when the budget
    ran out — raise ``timeout_s`` for big streams or slow machines.
    """


class BackendWorkerError(RuntimeError):
    """A worker process died on an unexpected exception (not a deadlock)."""


def expected_payload(key: WireKey) -> np.ndarray:
    """Deterministic small-numpy payload both sides derive from the key.

    The sender ships it, the receiver re-derives and verifies it — the
    cheapest possible stand-in for "the right tensor arrived".
    """
    sender, receiver, microbatch, direction = key
    header = np.array(
        [sender, receiver, microbatch, _DIRECTIONS.index(direction)], dtype=np.float64
    )
    seed = (sender * 73856093) ^ (receiver * 19349663) ^ (microbatch * 83492791)
    body = np.arange(8, dtype=np.float64) * ((seed % 1024) + 1)
    return np.concatenate([header, body])


@dataclass
class _PostRecord:
    """One side's posted Start op, as shipped to the peer."""

    key: WireKey
    is_send: bool
    post_ms: float
    payload: np.ndarray | None = None


class _ChannelView:
    """One worker's view of the FIFO channel it shares with a peer."""

    def __init__(self) -> None:
        self.mine: deque[_PostRecord] = deque()
        self.theirs: deque[_PostRecord] = deque()
        self.completed: dict[WireKey, tuple[float, float]] = {}
        self.order: list[WireKey] = []

    def heads_mismatched(self) -> bool:
        """Both heads posted but they can never match (permanent: FIFO
        heads only ever pop on a match)."""
        if not self.mine or not self.theirs:
            return False
        a, b = self.mine[0], self.theirs[0]
        return not (a.key == b.key and a.is_send != b.is_send)

    def match(self, now_ms: float) -> tuple[list[tuple[WireKey, float, float]], int]:
        """Pop every matching head pair; returns (received transfers by me,
        payload verification failures)."""
        received: list[tuple[WireKey, float, float]] = []
        errors = 0
        while self.mine and self.theirs:
            a, b = self.mine[0], self.theirs[0]
            if a.key != b.key or a.is_send == b.is_send:
                break
            span = (max(a.post_ms, b.post_ms), now_ms)
            self.completed[a.key] = span
            self.order.append(a.key)
            if not a.is_send:  # I am the receiver: verify the shipped payload.
                if b.payload is None or not np.array_equal(
                    b.payload, expected_payload(a.key)
                ):
                    errors += 1
                received.append((a.key, span[0], span[1]))
            self.mine.popleft()
            self.theirs.popleft()
        return received, errors


# --------------------------------------------------------------------- worker


def _worker_main(device: int, cfg: dict[str, Any]) -> None:
    """Entry point of one device process; communicates only through queues."""
    report: mp.Queue = cfg["report_queue"]
    try:
        _run_device(device, cfg, report)
    except Exception:  # pragma: no cover - defensive; surfaced by the parent
        report.put(("error", device, traceback.format_exc()))


def _run_device(device: int, cfg: dict[str, Any], report: mp.Queue) -> None:
    instructions = instructions_from_dicts(cfg["stream"])
    durations: list[float | None] = cfg["durations"]
    act_bytes: list[float | None] = cfg["act_bytes"]
    in_queues: dict[int, mp.Queue] = cfg["in_queues"]
    out_queues: dict[int, mp.Queue] = cfg["out_queues"]
    t0: float = cfg["t0"]
    block_report_s: float = cfg["block_report_s"]
    poll_s: float = cfg["poll_s"]
    time_scale: float = cfg["compute_time_scale"]
    ship_payloads: bool = cfg["ship_payloads"]

    def now_ms() -> float:
        return (time.time() - t0) * 1000.0

    tracker = MemoryTracker(static_bytes=cfg["static_bytes"])
    channels: dict[int, _ChannelView] = {peer: _ChannelView() for peer in in_queues}
    executed: list[tuple[str, int, int, int]] = []
    events: list[tuple[tuple[str, int, int, int], float, float, str, int]] = []
    transfers: list[tuple[WireKey, float, float]] = []
    payload_errors = 0
    busy_ms = 0.0

    def drain(peer: int, timeout: float | None) -> bool:
        """Pull at most one peer record; returns whether one arrived."""
        try:
            if timeout is None:
                record = in_queues[peer].get_nowait()
            else:
                record = in_queues[peer].get(timeout=timeout)
        except queue_mod.Empty:
            return False
        channels[peer].theirs.append(record)
        return True

    def match(peer: int) -> None:
        nonlocal payload_errors
        received, errors = channels[peer].match(now_ms())
        transfers.extend(received)
        payload_errors += errors

    for index, instr in enumerate(instructions):
        start_ms = now_ms()
        if isinstance(instr, (ForwardPass, BackwardPass)):
            duration_ms = max(durations[index] or 0.0, 0.0)
            if time_scale > 0.0:
                time.sleep(duration_ms * time_scale)
            nbytes = act_bytes[index]
            if nbytes is not None:
                if isinstance(instr, ForwardPass):
                    tracker.allocate(("act", instr.microbatch), nbytes)
                else:
                    tracker.free(("act", instr.microbatch))
            end_ms = now_ms()
            busy_ms += end_ms - start_ms
            events.append(
                (instruction_signature(instr), start_ms, end_ms, "compute", instr.microbatch)
            )
        elif isinstance(instr, _CommStart):
            key = normalize_transfer_key(transfer_key(instr))
            payload = (
                expected_payload(key) if (instr.is_send and ship_payloads) else None
            )
            record = _PostRecord(
                key=key, is_send=instr.is_send, post_ms=start_ms, payload=payload
            )
            channels[instr.peer].mine.append(record)
            out_queues[instr.peer].put(record)
            # Opportunistic, non-blocking progress on this channel.
            while drain(instr.peer, None):
                pass
            match(instr.peer)
            events.append(
                (instruction_signature(instr), start_ms, now_ms(), "comm_start", instr.microbatch)
            )
        elif isinstance(instr, _CommWait):
            key = normalize_transfer_key(transfer_key(instr))
            peer = instr.peer
            channel = channels[peer]
            reported_blocked = False
            report_at = time.time() + block_report_s
            while key not in channel.completed:
                if not reported_blocked and (
                    channel.heads_mismatched() or time.time() >= report_at
                ):
                    detail = blocked_instruction_detail(device, instr)
                    detail["head_mismatch"] = channel.heads_mismatched()
                    report.put(("blocked", device, detail))
                    reported_blocked = True
                drain(peer, poll_s)
                match(peer)
            if reported_blocked:
                report.put(("unblocked", device))
            events.append(
                (instruction_signature(instr), start_ms, now_ms(), "comm_wait", instr.microbatch)
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction type {type(instr).__name__}")
        executed.append(instruction_signature(instr))

    report.put(
        (
            "done",
            device,
            {
                "executed": executed,
                "events": events,
                "busy_ms": busy_ms,
                "finish_ms": now_ms(),
                "peak_bytes": tracker.peak_bytes,
                "channel_order": {peer: list(view.order) for peer, view in channels.items()},
                "transfers": transfers,
                "payload_errors": payload_errors,
            },
        )
    )


# ---------------------------------------------------------------- coordinator


class LocalBackend(ExecutionBackend):
    """Multiprocess backend: one process per device, real queues per channel.

    Args:
        options: Shared backend options.  ``compute_duration_fn`` and
            ``activation_bytes_fn`` are evaluated in the parent and shipped
            to the workers as plain floats; ``transfer_time_fn`` is ignored
            (transfers take however long the real IPC takes).
        block_report_s: How long a worker waits on an incomplete transfer
            before reporting itself blocked (a head mismatch is reported
            immediately — it is conclusive).
        grace_s: Extra drain window the parent gives an all-blocked state
            before declaring deadlock, absorbing in-flight progress.
        timeout_s: Hard wall-clock budget for the whole run.
        poll_s: Queue poll granularity inside blocked workers.
        compute_time_scale: Real seconds slept per virtual millisecond of
            compute (0 = compute completes instantly; ordering semantics do
            not depend on it).
        ship_payloads: Whether sends carry verifiable numpy payloads.
        mp_start_method: ``multiprocessing`` start method (None = platform
            default — ``fork`` on Linux, ``spawn`` elsewhere).
    """

    name = "local"

    def __init__(
        self,
        options: BackendOptions | None = None,
        *,
        block_report_s: float = 1.0,
        grace_s: float = 0.4,
        timeout_s: float = 60.0,
        poll_s: float = 0.02,
        compute_time_scale: float = 0.0,
        ship_payloads: bool = True,
        mp_start_method: str | None = None,
    ) -> None:
        self.options = options or BackendOptions()
        self.block_report_s = block_report_s
        self.grace_s = grace_s
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.compute_time_scale = compute_time_scale
        self.ship_payloads = ship_payloads
        self.mp_start_method = mp_start_method

    # ------------------------------------------------------------- plumbing

    def _channels(
        self, device_instructions: Sequence[Sequence[PipelineInstruction]]
    ) -> set[ChannelId]:
        pairs: set[ChannelId] = set()
        for stream in device_instructions:
            for instr in stream:
                if isinstance(instr, (_CommStart, _CommWait)):
                    a, b = instr.stage, instr.peer
                    pairs.add((a, b) if a < b else (b, a))
        return pairs

    def _worker_cfg(
        self,
        device: int,
        stream: Sequence[PipelineInstruction],
        queues: dict[tuple[int, int], mp.Queue],
        report_queue: mp.Queue,
        t0: float,
    ) -> dict[str, Any]:
        durations: list[float | None] = []
        act_bytes: list[float | None] = []
        for instr in stream:
            if isinstance(instr, (ForwardPass, BackwardPass)):
                durations.append(max(self.options.compute_duration_fn(instr), 0.0))
                act_bytes.append(
                    self.options.activation_bytes_fn(instr)
                    if self.options.activation_bytes_fn is not None
                    else None
                )
            else:
                durations.append(None)
                act_bytes.append(None)
        peers = {
            instr.peer
            for instr in stream
            if isinstance(instr, (_CommStart, _CommWait))
        }
        static = 0.0
        if self.options.static_bytes is not None:
            static = self.options.static_bytes[device]
        return {
            "stream": instructions_to_dicts(stream),
            "durations": durations,
            "act_bytes": act_bytes,
            "in_queues": {peer: queues[(peer, device)] for peer in peers},
            "out_queues": {peer: queues[(device, peer)] for peer in peers},
            "report_queue": report_queue,
            "t0": t0,
            "static_bytes": static,
            "block_report_s": self.block_report_s,
            "poll_s": self.poll_s,
            "compute_time_scale": self.compute_time_scale,
            "ship_payloads": self.ship_payloads,
        }

    # ------------------------------------------------------------- execution

    def run(
        self, device_instructions: Sequence[Sequence[PipelineInstruction]]
    ) -> ExecutionResult:
        return self.run_report(device_instructions).result

    def run_report(
        self, device_instructions: Sequence[Sequence[PipelineInstruction]]
    ) -> BackendExecutionReport:
        started = time.perf_counter()
        num_devices = len(device_instructions)
        if num_devices == 0:
            return BackendExecutionReport(
                backend=self.name,
                result=ExecutionResult(
                    makespan_ms=0.0,
                    device_finish_ms=[],
                    device_compute_ms=[],
                    peak_memory_bytes=[],
                    transfer_log=[],
                ),
                device_event_order=[],
                channel_transfer_order={},
                wall_time_s=0.0,
            )

        ctx = mp.get_context(self.mp_start_method)
        report_queue: mp.Queue = ctx.Queue()
        queues: dict[tuple[int, int], mp.Queue] = {}
        for a, b in self._channels(device_instructions):
            queues[(a, b)] = ctx.Queue()
            queues[(b, a)] = ctx.Queue()
        t0 = time.time()
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(
                    device,
                    self._worker_cfg(device, stream, queues, report_queue, t0),
                ),
                daemon=True,
            )
            for device, stream in enumerate(device_instructions)
        ]
        for worker in workers:
            worker.start()

        try:
            done = self._collect(report_queue, num_devices)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for worker in workers:
                worker.join(timeout=5.0)
            report_queue.cancel_join_thread()

        return self._assemble(device_instructions, done, time.perf_counter() - started)

    def _collect(self, report_queue: mp.Queue, num_devices: int) -> dict[int, dict]:
        """Watchdog loop: wait for done-reports, convert stable all-blocked
        states into :class:`CommunicationDeadlockError`."""
        states = {device: "running" for device in range(num_devices)}
        blocked_details: dict[int, dict] = {}
        done: dict[int, dict] = {}
        deadline = time.time() + self.timeout_s

        def handle(message: tuple) -> None:
            kind, device = message[0], message[1]
            if kind == "done":
                states[device] = "done"
                blocked_details.pop(device, None)
                done[device] = message[2]
            elif kind == "blocked":
                states[device] = "blocked"
                blocked_details[device] = message[2]
            elif kind == "unblocked":
                states[device] = "running"
                blocked_details.pop(device, None)
            elif kind == "error":
                raise BackendWorkerError(
                    f"device {device} worker crashed:\n{message[2]}"
                )

        def stable_deadlock() -> bool:
            """All unfinished workers blocked, and a grace drain moves nothing."""
            grace_deadline = time.time() + self.grace_s
            while time.time() < grace_deadline:
                try:
                    handle(report_queue.get(timeout=self.grace_s / 4))
                except queue_mod.Empty:
                    continue
                if any(state == "running" for state in states.values()) or len(
                    done
                ) == num_devices:
                    return False
            return all(state != "running" for state in states.values()) and bool(
                blocked_details
            )

        while len(done) < num_devices:
            remaining = deadline - time.time()
            if remaining <= 0:
                raise LocalBackendTimeoutError(
                    f"local backend exceeded its {self.timeout_s:.1f}s budget "
                    f"(worker states: {states})"
                )
            try:
                handle(report_queue.get(timeout=min(self.poll_s * 4, remaining)))
            except queue_mod.Empty:
                pass
            if (
                len(done) < num_devices
                and all(state != "running" for state in states.values())
                and blocked_details
                and stable_deadlock()
            ):
                detail = [blocked_details[d] for d in sorted(blocked_details)]
                blocked = sorted(blocked_details)
                blocked_summary = describe_blocked_detail(detail)
                if any(entry.get("head_mismatch") for entry in detail):
                    message = (
                        "communication order mismatch: the posted send/receive "
                        "orders of adjacent workers can never match: "
                        f"{blocked_summary}"
                    )
                else:
                    message = (
                        "execution stalled: workers are waiting on transfers "
                        "whose peer operation is never posted: "
                        f"{blocked_summary}"
                    )
                raise CommunicationDeadlockError(
                    message, blocked_devices=blocked, blocked_detail=detail
                )
        return done

    def _settle_trailing_matches(
        self,
        device_instructions: Sequence[Sequence[PipelineInstruction]],
        done: dict[int, dict],
        channel_order: dict[ChannelId, list[WireKey]],
        transfer_log: list[tuple],
    ) -> None:
        """Complete matches neither worker stayed around to observe.

        A worker only *discovers* matches while draining its queues; a
        sender whose stream ends right after its last post can exit before
        the peer's record arrives.  The transfer still physically completed
        (both records are in the queues, heads matched) — and the simulator
        counts it — so the parent finishes the FIFO matching analytically.
        This only runs for fully completed runs, where every worker posted
        its whole stream, making the per-channel posted sequences exactly
        the Start ops in stream order.
        """
        posted: dict[ChannelId, dict[int, list[tuple[WireKey, bool]]]] = {}
        for device, stream in enumerate(device_instructions):
            for instr in stream:
                if not isinstance(instr, _CommStart):
                    continue
                channel = (
                    (device, instr.peer) if device < instr.peer else (instr.peer, device)
                )
                posted.setdefault(channel, {}).setdefault(device, []).append(
                    (normalize_transfer_key(transfer_key(instr)), instr.is_send)
                )
        settle_ms = max((done[d]["finish_ms"] for d in done), default=0.0)
        for channel, sides in posted.items():
            matched = channel_order.get(channel, [])
            a, b = channel
            remaining_a = sides.get(a, [])[len(matched):]
            remaining_b = sides.get(b, [])[len(matched):]
            index = 0
            while index < len(remaining_a) and index < len(remaining_b):
                (key_a, send_a), (key_b, send_b) = remaining_a[index], remaining_b[index]
                if key_a != key_b or send_a == send_b:
                    break
                channel_order.setdefault(channel, []).append(key_a)
                transfer_log.append((key_a, settle_ms, settle_ms))
                index += 1

    def _assemble(
        self,
        device_instructions: Sequence[Sequence[PipelineInstruction]],
        done: dict[int, dict],
        wall_time_s: float,
    ) -> BackendExecutionReport:
        num_devices = len(device_instructions)
        trace = ExecutionTrace()
        transfer_log: list[tuple] = []
        channel_order: dict[ChannelId, list[WireKey]] = {}
        payload_errors = 0
        for device in range(num_devices):
            payload = done[device]
            payload_errors += payload["payload_errors"]
            for signature, start_ms, end_ms, category, microbatch in payload["events"]:
                if category != "compute":
                    continue
                label = "F" if signature[0] == "forward" else "B"
                trace.add(
                    TraceEvent(
                        device=device,
                        name=f"{label}{microbatch}",
                        start_ms=start_ms,
                        end_ms=end_ms,
                        category="compute",
                        microbatch=microbatch,
                    )
                )
            for key, start_ms, end_ms in payload["transfers"]:
                transfer_log.append((key, start_ms, end_ms))
                direction = "act" if key[3] == "activation" else "grad"
                trace.add(
                    TraceEvent(
                        device=key[0],
                        name=f"send-{direction}-{key[2]}",
                        start_ms=start_ms,
                        end_ms=end_ms,
                        category="comm",
                        microbatch=key[2],
                    )
                )
            for peer, order in payload["channel_order"].items():
                channel = (device, peer) if device < peer else (peer, device)
                known = channel_order.get(channel)
                if known is None:
                    channel_order[channel] = list(order)
                else:
                    # A worker that exits early observes a prefix of the
                    # channel's matches; the two sides must agree on the
                    # shared prefix (a divergence is a protocol bug), and
                    # the longer observation wins.
                    short, long = sorted((known, list(order)), key=len)
                    if long[: len(short)] != short:
                        raise BackendWorkerError(
                            f"channel {channel} matched in different orders on "
                            f"its two sides: {known} vs {list(order)}"
                        )
                    channel_order[channel] = long
        self._settle_trailing_matches(
            device_instructions, done, channel_order, transfer_log
        )
        transfer_log.sort(key=lambda entry: (entry[2], entry[0]))
        result = ExecutionResult(
            makespan_ms=max((done[d]["finish_ms"] for d in range(num_devices)), default=0.0),
            device_finish_ms=[done[d]["finish_ms"] for d in range(num_devices)],
            device_compute_ms=[done[d]["busy_ms"] for d in range(num_devices)],
            peak_memory_bytes=[done[d]["peak_bytes"] for d in range(num_devices)],
            transfer_log=transfer_log,
            trace=trace,
        )
        return BackendExecutionReport(
            backend=self.name,
            result=result,
            device_event_order=[list(done[d]["executed"]) for d in range(num_devices)],
            channel_transfer_order=channel_order,
            wall_time_s=wall_time_s,
            payload_errors=payload_errors,
        )
