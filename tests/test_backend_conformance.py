"""Differential ISA-conformance suite: local backend vs the simulator.

The simulator (:mod:`repro.simulator.executor`) is the reference
implementation of the instruction ISA's channel semantics; the local
backend (:mod:`repro.backends.local`) really executes the same streams on
worker processes with real IPC.  A third party, the interpreted executor
the simulator's one-pass sweep replaced
(``tests/oracles/executor_interpreted.py``), runs them too.  This suite
runs the *same* programs through all three and asserts they agree on
everything timing-independent:

* per-device instruction completion order,
* per-channel transfer matching order and the completed-transfer set,
* the deadlock verdict — including *which* devices block on *which*
  instruction — for streams that cannot run to completion.

Programs come from three sources: the real planner (GPT and T5 models over
several mini-batch "seeds"), hypothesis-generated schedules
(``tests/strategies_instructions.py``), and a fixed known-mismatched
program used as the detection-latency regression.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings

import strategies_instructions
from oracles.executor_interpreted import InstructionExecutor as InterpretedExecutor
from repro.backends import (
    BackendOptions,
    ExecutionBackend,
    LocalBackendTimeoutError,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backends.base import BackendExecutionReport, channel_order_from_log
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.instructions.serialization import instruction_signature
from repro.simulator.executor import CommunicationDeadlockError
from repro.training.trainer import TrainerConfig, TrainingSession

#: Watchdog knobs tuned for tiny test programs: report blocks fast, keep a
#: hard budget far above any observed detection latency (< 1 s).
FAST_LOCAL = dict(block_report_s=0.25, grace_s=0.15, timeout_s=30.0, poll_s=0.005)

#: The structured deadlock fields both backends must agree on.
DETAIL_KEYS = ("device", "kind", "microbatch", "stage", "peer")


def unit_options() -> BackendOptions:
    return BackendOptions(
        compute_duration_fn=lambda instr: 1.0,
        transfer_time_fn=lambda nbytes, src, dst: 0.1,
    )


def interpreted(options: BackendOptions) -> InterpretedExecutor:
    return InterpretedExecutor(
        compute_duration_fn=options.compute_duration_fn,
        transfer_time_fn=options.transfer_time_fn,
        activation_bytes_fn=options.activation_bytes_fn,
        static_bytes=options.static_bytes,
    )


def oracle_report(streams, options) -> BackendExecutionReport:
    """The interpreted oracle's run, reported like the sim backend's."""
    result = interpreted(options).run(streams)
    return BackendExecutionReport(
        backend="oracle",
        result=result,
        device_event_order=[
            [instruction_signature(instr) for instr in stream] for stream in streams
        ],
        channel_transfer_order=channel_order_from_log(result.transfer_log),
    )


def run_both(streams, options=None):
    """Run the streams on both backends; returns (sim_report, local_report)."""
    options = options or unit_options()
    sim = get_backend("sim", options).run_report(streams)
    local = get_backend("local", options, **FAST_LOCAL).run_report(streams)
    return sim, local


def assert_conformant(streams, options=None):
    options = options or unit_options()
    sim, local = run_both(streams, options)
    assert local.conformance_fingerprint() == sim.conformance_fingerprint()
    assert oracle_report(streams, options).conformance_fingerprint() == (
        sim.conformance_fingerprint()
    )
    assert local.payload_errors == 0
    return sim, local


def deadlock_verdict(backend_name, streams, options=None):
    """Run expecting a deadlock; returns the structured error.

    ``"oracle"`` names the interpreted executor."""
    options = options or unit_options()
    if backend_name == "oracle":
        backend = interpreted(options)
    else:
        backend = get_backend(
            backend_name, options, **(FAST_LOCAL if backend_name == "local" else {})
        )
    with pytest.raises(CommunicationDeadlockError) as excinfo:
        backend.run(streams)
    return excinfo.value


def shared_detail(error):
    """The backend-independent projection of ``blocked_detail``."""
    return sorted(
        tuple(entry[key] for key in DETAIL_KEYS) for entry in error.blocked_detail
    )


def assert_same_verdict(streams, options=None):
    sim_err = deadlock_verdict("sim", streams, options)
    oracle_err = deadlock_verdict("oracle", streams, options)
    assert str(oracle_err) == str(sim_err)
    assert oracle_err.blocked_devices == sim_err.blocked_devices
    assert oracle_err.blocked_detail == sim_err.blocked_detail
    local_err = deadlock_verdict("local", streams, options)
    assert local_err.blocked_devices == sim_err.blocked_devices
    assert shared_detail(local_err) == shared_detail(sim_err)
    return sim_err, local_err


# --------------------------------------------------------------- planner streams


@pytest.fixture(scope="module")
def gpt_planner(gpt_cost_model):
    return DynaPipePlanner(
        gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
    )


@pytest.fixture(scope="module")
def t5_planner(t5_cost_model):
    return DynaPipePlanner(
        t5_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
    )


def cost_model_options(cost_model) -> BackendOptions:
    def duration(instr):
        cost = cost_model.stage_cost(instr.stage, instr.shape, instr.recompute)
        if type(instr).__name__ == "ForwardPass":
            return cost.forward_ms
        return cost.backward_ms

    return BackendOptions(
        compute_duration_fn=duration,
        transfer_time_fn=lambda nbytes, src, dst: 0.05,
    )


#: Three disjoint mini-batch draws per model — the "seeds" of the
#: acceptance criterion (the planner is deterministic given its samples).
SAMPLE_SEEDS = [slice(0, 40), slice(60, 110), slice(150, 210)]


class TestPlannerStreamConformance:
    """Local, sim and the oracle agree on every real planner-produced program."""

    @pytest.mark.parametrize("seed_slice", SAMPLE_SEEDS, ids=["s0", "s1", "s2"])
    def test_gpt_plan_conformance(self, gpt_planner, flan_samples_gpt, seed_slice):
        plan = gpt_planner.plan(flan_samples_gpt[seed_slice])
        for replica in plan.plans:
            sim, local = assert_conformant(
                replica.device_instructions,
                cost_model_options(gpt_planner.cost_model),
            )
            assert len(local.result.transfer_log) == len(sim.result.transfer_log)

    @pytest.mark.parametrize("seed_slice", SAMPLE_SEEDS, ids=["s0", "s1", "s2"])
    def test_t5_plan_conformance(self, t5_planner, flan_samples, seed_slice):
        plan = t5_planner.plan(flan_samples[seed_slice])
        for replica in plan.plans:
            assert_conformant(
                replica.device_instructions,
                cost_model_options(t5_planner.cost_model),
            )


# ------------------------------------------------------------ hypothesis streams


class TestHypothesisConformance:
    """Property-based differential testing over the shared strategies
    (>= 50 generated programs per full run)."""

    @given(strategies_instructions.planned_streams())
    @settings(max_examples=35, deadline=None)
    def test_planned_streams_conform(self, streams):
        assert_conformant(streams)

    @given(strategies_instructions.head_mismatched_streams())
    @settings(max_examples=8, deadline=None)
    def test_mismatched_streams_same_deadlock_verdict(self, corrupted):
        streams, _where = corrupted
        assert_same_verdict(streams)

    @given(strategies_instructions.naive_streams())
    @settings(max_examples=7, deadline=None)
    def test_naive_streams_agree_either_way(self, streams):
        """Naive-order streams may or may not deadlock; the backends must
        agree on which, and on the details of whichever it is."""
        options = unit_options()
        try:
            sim = get_backend("sim", options).run_report(streams)
        except CommunicationDeadlockError:
            assert_same_verdict(streams, options)
        else:
            local = get_backend("local", options, **FAST_LOCAL).run_report(streams)
            oracle = oracle_report(streams, options)
            assert local.conformance_fingerprint() == sim.conformance_fingerprint()
            assert oracle.conformance_fingerprint() == sim.conformance_fingerprint()


# ------------------------------------------------------------------ known hang


class TestKnownMismatchDetection:
    """The fixed corrupted program really hangs and is detected promptly."""

    def test_local_detects_within_timeout(self):
        streams, (device, i, j) = strategies_instructions.known_head_mismatch_streams()
        started = time.monotonic()
        try:
            local_err = deadlock_verdict("local", streams)
        except LocalBackendTimeoutError as err:  # pragma: no cover - diagnostic
            pytest.fail(f"watchdog timed out instead of detecting the hang: {err}")
        elapsed = time.monotonic() - started
        # Positive verdict, well inside the hard budget: the watchdog saw the
        # conclusive head mismatch rather than waiting out the clock.
        assert elapsed < FAST_LOCAL["timeout_s"] / 2
        assert local_err.blocked_devices
        assert any(entry.get("head_mismatch") for entry in local_err.blocked_detail)
        assert "order mismatch" in str(local_err)

    def test_verdict_matches_simulator(self):
        streams, _where = strategies_instructions.known_head_mismatch_streams()
        sim_err, local_err = assert_same_verdict(streams)
        # Every blocked entry names the hung Wait op's coordinates.
        for entry in sim_err.blocked_detail + local_err.blocked_detail:
            assert entry["kind"].startswith("wait_")
            assert entry["microbatch"] >= 0 and entry["stage"] >= 0


# -------------------------------------------------------------------- registry


class TestBackendRegistry:
    def test_available_backends(self):
        names = available_backends()
        assert "sim" in names and "local" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("cuda")

    def test_error_lists_available(self):
        with pytest.raises(ValueError, match="sim"):
            get_backend("nope")

    def test_register_and_get_custom_backend(self):
        class NullBackend(ExecutionBackend):
            name = "null-test"

            def __init__(self, options=None):
                self.options = options

            def run(self, device_instructions):
                raise NotImplementedError

            def run_report(self, device_instructions):
                raise NotImplementedError

        register_backend("null-test", NullBackend)
        assert "null-test" in available_backends()
        assert isinstance(get_backend("null-test"), NullBackend)
        # Re-registering the same class is a no-op ...
        register_backend("null-test", NullBackend)
        # ... but shadowing an existing name with a different class is not.
        with pytest.raises(ValueError, match="already registered"):
            register_backend("null-test", type("Other", (NullBackend,), {}))

    def test_builtin_names_are_protected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("sim", type("FakeSim", (ExecutionBackend,), {}))


# ------------------------------------------------------------------- trainer


class TestTrainerThroughLocalBackend:
    def test_iteration_executes_on_local_backend(self, gpt_planner, flan_samples_gpt):
        session = TrainingSession(
            gpt_planner,
            flan_samples_gpt[:80],
            global_batch_tokens=8192,
            config=TrainerConfig(
                max_iterations=1,
                noise_std=0.0,
                seed=0,
                max_seq_len=1024,
                execution_backend="local",
                backend_options=dict(FAST_LOCAL),
            ),
            system_name="dynapipe-local",
        )
        report = session.run()
        assert len(report.records) == 1
        # Local-backend times are real wall-clock ms of the tiny run.
        assert report.records[0].measured_ms > 0
        assert report.records[0].measured_peak_bytes > 0

    def test_unknown_backend_fails_at_execution(self, gpt_planner, flan_samples_gpt):
        session = TrainingSession(
            gpt_planner,
            flan_samples_gpt[:40],
            global_batch_tokens=8192,
            config=TrainerConfig(
                max_iterations=1,
                seed=0,
                max_seq_len=1024,
                execution_backend="does-not-exist",
            ),
        )
        with pytest.raises(ValueError, match="unknown execution backend"):
            session.run()
