"""Pluggable execution backends for the instruction ISA.

The instruction layer (:mod:`repro.instructions.ops`) has two consumers:

* ``"sim"`` — the one-pass :class:`~repro.simulator.executor.InstructionExecutor`
  behind :class:`~repro.backends.sim.SimBackend`: deterministic virtual
  time, deadlocks detected analytically.  This is the **oracle**.
* ``"local"`` — :class:`~repro.backends.local.LocalBackend`: one worker
  process per device, real queues per channel, sends carrying verifiable
  numpy payloads; a mis-ordered stream really hangs and the watchdog
  converts the hang into the same structured
  :class:`~repro.simulator.executor.CommunicationDeadlockError`.

Both report through :class:`~repro.backends.base.BackendExecutionReport`,
whose conformance fingerprint (per-device completion order + per-channel
transfer matching order) must be identical across backends — the contract
enforced by ``tests/test_backend_conformance.py``.

Usage::

    from repro.backends import BackendOptions, get_backend

    backend = get_backend("local", BackendOptions(compute_duration_fn=f))
    report = backend.run_report(plan.device_instructions)

New backends (e.g. a torch-process one) register with
:func:`register_backend` and become selectable by name everywhere a
backend name is accepted (e.g. ``TrainerConfig.execution_backend``).
"""

from __future__ import annotations

from repro.backends.base import (
    BackendExecutionReport,
    BackendOptions,
    ExecutionBackend,
    channel_order_from_log,
    normalize_transfer_key,
)
from repro.backends.local import (
    BackendWorkerError,
    LocalBackend,
    LocalBackendTimeoutError,
)
from repro.backends.sim import SimBackend

_REGISTRY: dict[str, type[ExecutionBackend]] = {
    SimBackend.name: SimBackend,
    LocalBackend.name: LocalBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered execution backends."""
    return tuple(sorted(_REGISTRY))


def register_backend(name: str, backend_cls: type[ExecutionBackend]) -> None:
    """Register a backend class under ``name`` (overwrites are rejected)."""
    if name in _REGISTRY and _REGISTRY[name] is not backend_cls:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend_cls


def get_backend(
    name: str, options: BackendOptions | None = None, **kwargs
) -> ExecutionBackend:
    """Instantiate a registered backend.

    Args:
        name: Registry name (``"sim"``, ``"local"``, ...).
        options: Shared :class:`~repro.backends.base.BackendOptions`.
        **kwargs: Backend-specific knobs (e.g. the local backend's
            ``timeout_s``), passed through to the constructor.
    """
    try:
        backend_cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; available: {available_backends()}"
        ) from None
    return backend_cls(options, **kwargs)


__all__ = [
    "BackendExecutionReport",
    "BackendOptions",
    "BackendWorkerError",
    "ExecutionBackend",
    "LocalBackend",
    "LocalBackendTimeoutError",
    "SimBackend",
    "available_backends",
    "channel_order_from_log",
    "get_backend",
    "normalize_transfer_key",
    "register_backend",
]
