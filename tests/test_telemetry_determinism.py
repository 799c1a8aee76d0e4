"""Telemetry must never change results: on-vs-off bit-identity + stream determinism.

The observability contract of this codebase is that telemetry is purely
additive: plans, fleet reports and simulated makespans are bit-identical
whether the flag is on or off, and with the flag on the event/span streams
of a seeded run are themselves deterministic (fleet clock + structural span
comparison — wall-clock timestamps are excluded via ``structure()``).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.planner import PlannerConfig
from repro.fleet import FleetScheduler, JobSpec
from repro.parallel.config import ParallelConfig

from test_fleet_checkpoint import (
    assert_reports_identical,
    build_scheduler,
    crash_specs,
    make_config,
    run_killed_and_restored,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


@pytest.fixture(scope="module")
def planner_config():
    return PlannerConfig(order_search=True, tmax_sample_count=8)


# ----------------------------------------------------------------- planner plans


def _strip_timing(plan_dict):
    """Drop wall-clock planning-time fields (the only legitimately
    run-dependent values in a plan dict)."""
    stripped = dict(plan_dict)
    stripped.pop("planning_time_s", None)
    if "metadata" in stripped:
        stripped["metadata"] = {
            key: value
            for key, value in stripped["metadata"].items()
            if key != "planning_time_s"
        }
    if "replicas" in stripped:
        stripped["replicas"] = [_strip_timing(replica) for replica in stripped["replicas"]]
    return stripped


class TestPlannerBitIdentity:
    def _plan(self, pp2_cost_model, fleet_samples, planner_config):
        spec = JobSpec(
            name="probe",
            cost_model=pp2_cost_model,
            samples=fleet_samples,
            global_batch_tokens=4096,
            parallel=ParallelConfig(1, 2, 1),
            num_iterations=1,
            planner_config=planner_config,
        )
        planner = spec.build_planner(1)
        return planner.plan(fleet_samples[:32], 0)

    def test_plan_identical_on_vs_off(self, pp2_cost_model, fleet_samples, planner_config):
        baseline = self._plan(pp2_cost_model, fleet_samples, planner_config)
        with obs.telemetry():
            traced = self._plan(pp2_cost_model, fleet_samples, planner_config)
        assert _strip_timing(traced.to_dict()) == _strip_timing(baseline.to_dict())

    def test_plan_spans_recorded_only_when_on(
        self, pp2_cost_model, fleet_samples, planner_config
    ):
        self._plan(pp2_cost_model, fleet_samples, planner_config)
        assert obs.RECORDER.spans() == []
        with obs.telemetry():
            self._plan(pp2_cost_model, fleet_samples, planner_config)
        names = [record.name for record in obs.RECORDER.spans()]
        assert "plan" in names and "order_search" in names


# ------------------------------------------------------------------- fleet runs


def _run_crash_scenario(pp2_cost_model, fleet_samples, planner_config, small_device):
    specs = crash_specs(pp2_cost_model, fleet_samples, planner_config)
    scheduler = build_scheduler(specs, small_device, make_config("priority"))
    return scheduler.run()


class TestFleetBitIdentity:
    def test_chaos_run_identical_on_vs_off(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        baseline = _run_crash_scenario(
            pp2_cost_model, fleet_samples, planner_config, small_device
        )
        with obs.telemetry():
            traced = _run_crash_scenario(
                pp2_cost_model, fleet_samples, planner_config, small_device
            )
        assert_reports_identical(traced, baseline)
        assert traced.summary() == baseline.summary()

    def test_kill_restore_identical_with_telemetry_on(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        baseline = _run_crash_scenario(
            pp2_cost_model, fleet_samples, planner_config, small_device
        )
        with obs.telemetry():
            _, restored_report = run_killed_and_restored(
                pp2_cost_model, fleet_samples, planner_config, small_device, "priority", 3
            )
        assert_reports_identical(restored_report, baseline)


# ------------------------------------------------------------ stream determinism


class TestStreamDeterminism:
    def _traced_run(self, pp2_cost_model, fleet_samples, planner_config, small_device):
        """One telemetry-on chaos run; returns structural stream signatures."""
        obs.reset()
        with obs.telemetry():
            _run_crash_scenario(
                pp2_cost_model, fleet_samples, planner_config, small_device
            )
            events = obs.BUS.structure()
            spans = obs.RECORDER.structure()
            counters = dict(obs.REGISTRY.snapshot()["counters"])
        obs.reset()
        return events, spans, counters

    def test_streams_identical_across_identical_seeded_runs(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        first = self._traced_run(
            pp2_cost_model, fleet_samples, planner_config, small_device
        )
        second = self._traced_run(
            pp2_cost_model, fleet_samples, planner_config, small_device
        )
        events_a, spans_a, counters_a = first
        events_b, spans_b, counters_b = second
        assert events_a == events_b
        assert spans_a == spans_b
        assert counters_a == counters_b

    def test_event_stream_covers_the_scenario(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        events, spans, counters = self._traced_run(
            pp2_cost_model, fleet_samples, planner_config, small_device
        )
        kinds = {kind for kind, _, _ in events}
        # The crash scenario preempts, shrinks and regrows the elastic job
        # around a failure/repair pair and runs a priority job to completion.
        for expected in (
            "job_submitted",
            "job_admitted",
            "iteration_committed",
            "device_failure",
            "device_repair",
            "job_preempted",
            "job_finished",
        ):
            assert expected in kinds, f"missing {expected}"
        assert counters["fleet.device_failures"] == 1
        assert counters["fleet.jobs_submitted"] == 2
        assert counters["planner.plans"] > 0
        assert any(name == "job.step" for _, name, _ in spans)


# ------------------------------------------------------ engine stats aggregation


class TestPooledEngineStats:
    def test_pool_aggregates_worker_engine_stats(self, gpt_cost_model, flan_samples):
        """`engine_stats()` on the pool sums worker-process counters —
        the process-local module shim sees none of the workers' work."""
        from repro.core.planner import DynaPipePlanner
        from repro.runtime.planner_pool import PlannerPool
        from repro.simulator.engine import engine_stats, reset_engine_stats

        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(order_search=False, tmax_sample_count=8),
        )
        minibatches = [flan_samples[i * 16 : (i + 1) * 16] for i in range(3)]
        reset_engine_stats()
        pool = PlannerPool(num_workers=1, lookahead=3)
        pool.submit_job("job", planner, minibatches)
        pool.start()
        try:
            for iteration in range(3):
                pool.wait_payload("job", iteration, timeout=120.0)
                pool.notify_consumed("job", iteration)
        finally:
            pool.stop()
        aggregated = pool.engine_stats()
        assert aggregated["timeline_solves"] > 0
        # The parent process never simulated anything itself.
        assert engine_stats()["timeline_solves"] == 0
