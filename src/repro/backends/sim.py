"""The simulator as an execution backend (the conformance oracle).

:class:`SimBackend` is a thin adapter putting
:class:`~repro.simulator.executor.InstructionExecutor` behind the
:class:`~repro.backends.base.ExecutionBackend` interface.  It adds no
semantics of its own: the executor already implements the full channel
model, so the adapter only derives the conformance report fields (event
order, per-channel matching order) from the executor's output.

Because the simulator executes each device's stream strictly in order, the
reported ``device_event_order`` of a completed run is the stream itself —
which is exactly the point: any backend that *really* runs the streams
concurrently must still complete each device's instructions in stream
order, and the differential suite checks that it reports the same.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.backends.base import (
    BackendExecutionReport,
    BackendOptions,
    ExecutionBackend,
    channel_order_from_log,
)
from repro.instructions.ops import PipelineInstruction
from repro.instructions.serialization import instruction_signature
from repro.simulator.executor import ExecutionResult, InstructionExecutor


class SimBackend(ExecutionBackend):
    """Discrete-event reference backend (virtual time, analytic deadlocks)."""

    name = "sim"

    def __init__(self, options: BackendOptions | None = None) -> None:
        self.options = options or BackendOptions()
        self._executor = InstructionExecutor(
            compute_duration_fn=self.options.compute_duration_fn,
            transfer_time_fn=self.options.transfer_time_fn,
            activation_bytes_fn=self.options.activation_bytes_fn,
            static_bytes=self.options.static_bytes,
        )

    def run(
        self, device_instructions: Sequence[Sequence[PipelineInstruction]]
    ) -> ExecutionResult:
        return self._executor.run(device_instructions)

    def run_report(
        self, device_instructions: Sequence[Sequence[PipelineInstruction]]
    ) -> BackendExecutionReport:
        started = time.perf_counter()
        result = self.run(device_instructions)
        wall = time.perf_counter() - started
        return BackendExecutionReport(
            backend=self.name,
            result=result,
            device_event_order=[
                [instruction_signature(instr) for instr in stream]
                for stream in device_instructions
            ],
            channel_transfer_order=channel_order_from_log(result.transfer_log),
            wall_time_s=wall,
        )
