"""Discrete-event simulation of pipeline execution.

Two levels of fidelity are provided:

* :mod:`repro.simulator.engine` simulates a *compute-op schedule* (the
  output of 1F1B / adaptive scheduling) against per-op durations and
  cross-stage dependencies, producing a timeline, makespan, bubble (idle)
  time and peak activation memory, in one scalar walk over the per-stage op
  sequences.  The planner walks each replica's chosen sequences with it
  (cyclic injection orders are scored by timed walks of Algorithm 1,
  :mod:`repro.simulator.incremental`), and the schedule robustness
  experiments (Fig. 7) re-simulate schedules with it.

* :mod:`repro.simulator.executor` runs full *instruction streams* in one
  sweep (compute + communication Start/Wait ops) with NCCL-like single-channel
  semantics per device pair.  It faithfully reproduces the deadlocks that
  naive communication ordering causes in dynamic pipelines (§6) and is used
  to validate DynaPipe's communication plans and to "run" training
  iterations with execution-time noise.
"""

from repro.simulator.engine import (
    SimulationError,
    SimulationResult,
    engine_stats,
    reset_engine_stats,
    simulate_schedule,
)
from repro.simulator.executor import (
    CommunicationDeadlockError,
    ExecutionResult,
    InstructionExecutor,
)
from repro.simulator.incremental import IncrementalOrderSimulator
from repro.simulator.memory_tracker import MemoryTracker
from repro.simulator.trace import ExecutionTrace, TraceEvent

__all__ = [
    "simulate_schedule",
    "engine_stats",
    "reset_engine_stats",
    "IncrementalOrderSimulator",
    "SimulationError",
    "SimulationResult",
    "InstructionExecutor",
    "ExecutionResult",
    "CommunicationDeadlockError",
    "MemoryTracker",
    "ExecutionTrace",
    "TraceEvent",
]
