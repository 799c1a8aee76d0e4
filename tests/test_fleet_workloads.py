"""Trace-driven workload generator: determinism, serialisation, replay.

The generator must be bit-stable across processes (string-seeded RNG
streams only), traces must round-trip through JSON unchanged, and replay
must drive the full scheduler machinery deterministically — equal traces
replay to bit-identical fleet reports, matching the golden report recorded
under both of the scheduler's former cores.
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    FleetConfig,
    SyntheticTracePlanner,
    TraceJob,
    WorkloadTrace,
    build_jobs,
    build_scheduler,
    generate_trace,
    replay_trace,
    workload_cost_model,
)
from repro.fleet.workloads import (
    GLOBAL_BATCH_TOKENS,
    MODEL_CATALOG,
    TRACE_EPOCH_SAMPLES,
    _sample_pool,
)

from fleet_golden import assert_matches_golden, load_golden


@pytest.fixture(scope="module")
def trace():
    return generate_trace(num_jobs=30, num_nodes=2, gpus_per_node=8, seed=11)


# ------------------------------------------------------------------- generator


def test_trace_generation_is_deterministic(trace):
    again = generate_trace(num_jobs=30, num_nodes=2, gpus_per_node=8, seed=11)
    assert again.to_dict() == trace.to_dict()
    different = generate_trace(num_jobs=30, num_nodes=2, gpus_per_node=8, seed=12)
    assert different.to_dict() != trace.to_dict()


def test_trace_shape_and_structure(trace):
    assert len(trace.jobs) == 30
    assert trace.num_devices == 16
    catalog = {m.key for m in MODEL_CATALOG}
    submit_times = [job.submit_time_ms for job in trace.jobs]
    assert submit_times == sorted(submit_times)
    for job in trace.jobs:
        assert job.model in catalog
        # Every drawn gang fits the target cluster.
        assert 1 <= job.gang_size() <= trace.num_devices
        assert 1 <= job.num_iterations <= TRACE_EPOCH_SAMPLES
        assert job.tenant.startswith("tenant-")
    # The default mix includes both architectures and several priorities.
    assert len({job.model for job in trace.jobs}) >= 2
    assert len({job.priority for job in trace.jobs}) >= 2
    # The fault plan parsed from the trace is non-empty and in time order.
    plan = trace.fault_plan()
    assert len(plan) == len(trace.faults) >= 1
    times = [event.time_ms for event in plan.events]
    assert times == sorted(times)


def test_trace_json_round_trip(trace, tmp_path):
    rebuilt = WorkloadTrace.from_json(trace.to_json())
    assert rebuilt.to_dict() == trace.to_dict()
    assert rebuilt.jobs == trace.jobs
    path = trace.save(tmp_path / "trace.json")
    assert WorkloadTrace.load(path).to_dict() == trace.to_dict()


def test_generation_validation():
    with pytest.raises(ValueError, match="num_jobs"):
        generate_trace(num_jobs=0, num_nodes=1)
    with pytest.raises(ValueError, match="min_iterations"):
        generate_trace(num_jobs=1, num_nodes=1, min_iterations=5, max_iterations=4)
    with pytest.raises(ValueError, match="priority_weights"):
        generate_trace(num_jobs=1, num_nodes=1, priority_weights=(1.0,))


# --------------------------------------------------------------------- planner


def test_synthetic_planner_is_seed_stable():
    cost_model = workload_cost_model("gpt-small")
    planner = SyntheticTracePlanner(
        cost_model,
        data_parallel_size=2,
        requested_data_parallel=2,
        base_iteration_ms=100.0,
        seed=7,
    )
    times = [planner.iteration_ms(i) for i in range(5)]
    again = [planner.iteration_ms(i) for i in range(5)]
    assert times == again
    # Jitter is bounded and iteration-dependent.
    assert all(90.0 <= t <= 110.0 for t in times)
    assert len(set(times)) > 1
    # Elastic shrink slows the job proportionally to the lost replicas,
    # with the identical per-iteration jitter stream.
    shrunk = SyntheticTracePlanner(
        cost_model,
        data_parallel_size=1,
        requested_data_parallel=2,
        base_iteration_ms=100.0,
        seed=7,
    )
    for i, t in enumerate(times):
        assert shrunk.iteration_ms(i) == pytest.approx(2.0 * t)


def test_synthetic_planner_plan_payload():
    cost_model = workload_cost_model("gpt-medium")
    planner = SyntheticTracePlanner(
        cost_model,
        data_parallel_size=2,
        requested_data_parallel=2,
        base_iteration_ms=100.0,
        seed=3,
    )
    samples = _sample_pool("gpt")[:1]
    plan = planner.plan(samples, iteration=4)
    assert plan.predicted_iteration_ms == planner.iteration_ms(4)
    assert len(plan.replicas) == 2
    assert plan.plans[0].num_stages == cost_model.num_stages
    assert plan.padding.actual_tokens == GLOBAL_BATCH_TOKENS
    assert plan.padding.overall_efficiency == 1.0


# ---------------------------------------------------------------------- replay


def test_build_jobs_materialises_specs(trace):
    specs = build_jobs(trace)
    assert [spec.name for spec in specs] == [job.name for job in trace.jobs]
    for spec, job in zip(specs, trace.jobs):
        assert spec.parallel.data_parallel == job.data_parallel
        assert spec.priority == job.priority
        assert spec.submit_time_ms == job.submit_time_ms
        assert spec.execute_plans is False
        assert spec.noise_std == 0.0
        # One sample fills one mini-batch, so the epoch covers the spec.
        assert spec.num_iterations <= TRACE_EPOCH_SAMPLES


def test_replay_is_deterministic_and_core_identical(trace):
    first = replay_trace(trace, policy="priority")
    second = replay_trace(trace, policy="priority")
    assert first.summary() == second.summary()
    assert first.jobs == second.jobs
    assert_matches_golden(first, load_golden()["entries"]["trace_replay"])
    assert first.finished_jobs + first.failed_jobs == len(trace.jobs)
    assert first.events_processed > 0


def test_replay_policies_differ_on_contended_trace():
    contended = generate_trace(
        num_jobs=40, num_nodes=1, gpus_per_node=8, seed=5, base_rate_per_s=20.0
    )
    fifo = replay_trace(contended, policy="fifo")
    priority = replay_trace(contended, policy="priority")
    assert fifo.policy == "fifo"
    assert priority.policy == "priority"
    # The contended cluster forces real queueing, and the preemptive
    # policy actually preempts.
    assert fifo.mean_queueing_delay_ms > 0.0
    assert priority.total_evictions > 0


def test_build_scheduler_respects_config_override(trace):
    scheduler = build_scheduler(
        trace, policy="fifo", config=FleetConfig(policy="srw", max_events=50)
    )
    assert scheduler.policy.name == "srw"
    assert scheduler.config.max_events == 50
    assert len(scheduler._pending) == len(trace.jobs)


def test_trace_job_round_trip():
    job = TraceJob(
        name="gpt-small-0001",
        model="gpt-small",
        data_parallel=2,
        num_iterations=4,
        priority=1,
        tenant="tenant-0",
        submit_time_ms=12.5,
        seed=99,
    )
    assert TraceJob.from_dict(job.to_dict()) == job
