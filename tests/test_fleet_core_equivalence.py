"""Bit-identity of the fleet scheduler core against its recorded oracles.

The scheduler once shipped two cores: the data-oriented bitmap core it runs
today, and the original object/set allocator with a scan-based event loop.
This suite pins the remaining core at three levels:

* **allocator** — hypothesis-driven random operation sequences
  (allocate / release / fail / repair / absent / arrive) applied in
  lockstep to :class:`~repro.fleet.gang.GangAllocator` and the object
  allocator kept in ``tests/oracles/gang_object.py`` must produce identical
  placements, identical snapshots, the exact 4-way partition, and
  round-trip through ``snapshot_state``/``restore_state``;
* **scheduler** — full fleet runs must reproduce the golden reports in
  ``tests/golden/fleet_reports.json``, each recorded under both cores with
  both agreeing (see ``fleet_golden.py``);
* **event ordering** — the tie-break contract at equal timestamps
  (completion ≤ capacity ≤ job arrival ≤ failure) is pinned by a scripted
  scenario with every event class colliding on one fleet-clock instant.

Crash-resilience rides along: the recorded version-2 snapshot restores —
as written, without its ``core`` field, and as version 1 — and finishes
bit-identically to the uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.fleet import (
    FleetConfig,
    GangAllocator,
    SchedulerKilled,
    restore_scheduler,
    snapshot_scheduler,
)

from fleet_golden import (
    CHAOS_SEEDS,
    KILL_AT_EVENT,
    assert_matches_golden,
    chaos_topology,
    equal_time_scheduler,
    kill_restore_scheduler,
    load_golden,
    report_fields,
    run_chaos,
)
from oracles.gang_object import ObjectGangAllocator


@pytest.fixture(scope="module")
def golden():
    return load_golden()["entries"]


# ------------------------------------------------------------------- allocator


def _assert_allocators_identical(obj: ObjectGangAllocator, bit: GangAllocator):
    assert obj.snapshot_state() == bit.snapshot_state()
    assert obj.free_count == bit.free_count
    assert obj.busy_count == bit.busy_count
    assert obj.alive_count == bit.alive_count
    assert obj.failed_devices == bit.failed_devices
    assert obj.absent_devices == bit.absent_devices
    for device in range(obj.num_devices):
        owner_obj = obj.owner_of(device)
        owner_bit = bit.owner_of(device)
        assert (owner_obj is None) == (owner_bit is None), device
        if owner_obj is not None:
            assert owner_obj.job == owner_bit.job
            assert owner_obj.devices == owner_bit.devices
        assert obj.is_failed(device) == bit.is_failed(device)
        assert obj.is_absent(device) == bit.is_absent(device)
    obj.check_consistent()
    bit.check_consistent()
    # The 4-way partition is exact on both.
    for allocator in (obj, bit):
        partition = (
            allocator.free_count
            + allocator.busy_count
            + len(allocator.failed_devices)
            + len(allocator.absent_devices)
        )
        assert partition == allocator.num_devices


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_nodes=st.integers(min_value=1, max_value=4),
    gpus_per_node=st.integers(min_value=2, max_value=8),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["allocate", "release", "fail", "repair", "absent", "arrive"]
            ),
            st.integers(min_value=0, max_value=2**16),
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_allocator_cores_equivalent_under_random_ops(
    num_nodes, gpus_per_node, ops, small_device
):
    """Random lockstep op sequences leave both allocators bit-identical."""
    topology = ClusterTopology(
        num_nodes=num_nodes, gpus_per_node=gpus_per_node, device_spec=small_device
    )
    obj = ObjectGangAllocator(topology)
    bit = GangAllocator(topology)
    gangs: list[tuple] = []  # parallel (object gang, bitmap gang) pairs
    counter = 0
    for op, arg in ops:
        if op == "allocate":
            dp = 1 + arg % 3
            pp = 1 + (arg // 3) % 2
            counter += 1
            gang_obj = obj.allocate(f"job{counter}", dp, pp, 1)
            gang_bit = bit.allocate(f"job{counter}", dp, pp, 1)
            # allocate succeeds iff the gang fits — on both allocators, with
            # the exact same device choice.
            assert (gang_obj is None) == (gang_bit is None)
            if gang_obj is not None:
                assert gang_obj.devices == gang_bit.devices
                gangs.append((gang_obj, gang_bit))
        elif op == "release" and gangs:
            gang_obj, gang_bit = gangs.pop(arg % len(gangs))
            assert sorted(obj.release(gang_obj)) == sorted(bit.release(gang_bit))
        elif op == "fail":
            device = arg % topology.num_gpus
            if obj.is_failed(device) or obj.is_absent(device):
                continue
            hit_obj = obj.fail_device(device)
            hit_bit = bit.fail_device(device)
            assert (hit_obj is None) == (hit_bit is None)
            if hit_obj is not None:
                # The hit gang keeps its surviving devices until released.
                assert hit_obj.devices == hit_bit.devices
        elif op == "repair":
            device = arg % topology.num_gpus
            assert obj.repair_device(device) == bit.repair_device(device)
        elif op == "absent":
            device = arg % topology.num_gpus
            if obj.owner_of(device) is None and not (
                obj.is_failed(device) or obj.is_absent(device)
            ):
                obj.mark_absent(device)
                bit.mark_absent(device)
        elif op == "arrive":
            device = arg % topology.num_gpus
            if obj.is_absent(device):
                obj.arrive_device(device)
                bit.arrive_device(device)
        _assert_allocators_identical(obj, bit)
    # Snapshots round-trip across allocators: either snapshot restores
    # either allocator (live gangs transfer with their currently owned
    # devices).
    snapshot = bit.snapshot_state()
    owned = {id(o): [d for d in range(topology.num_gpus) if obj.owner_of(d) is o] for o, _ in gangs}
    restored = []
    for cls in (ObjectGangAllocator, GangAllocator):
        fresh = cls(topology)
        fresh.restore_state(
            snapshot["free"],
            snapshot["failed"],
            snapshot["absent"],
            [(o, owned[id(o)]) for o, _ in gangs],
        )
        restored.append(fresh)
    _assert_allocators_identical(*restored)


# ------------------------------------------------------------------- scheduler


def test_scheduler_cores_bit_identical_under_chaos(
    golden, pp2_cost_model, fleet_samples, small_device
):
    """Seeded chaos runs reproduce the reports both cores recorded."""
    for seed in CHAOS_SEEDS:
        report = run_chaos(seed, pp2_cost_model, fleet_samples, small_device)
        assert_matches_golden(report, golden[f"chaos/{seed}"])


# ---------------------------------------------------------------- tie breaking


@pytest.mark.parametrize("core", ["bitmap", "object"])
def test_equal_time_event_ordering_contract(core, golden, small_device):
    """Completion ≤ capacity ≤ job arrival ≤ failure at equal timestamps.

    Everything collides at t=100 on a 2-device cluster: job A's only
    iteration completes, device 1's repair fires, job B arrives, and
    device 0 fails.  The contract fixes the outcome: A finishes untouched
    (completion first), the repair lands before B is considered, B admits
    onto the cluster at t=100 with zero queueing delay, and the failure —
    processed last — preempts B's freshly started attempt, which then
    retries and still finishes.  ``bitmap`` checks a live run of the
    scheduler; ``object`` checks the report recorded from the object core.
    """
    if core == "bitmap":
        scheduler = equal_time_scheduler(small_device)
        report = report_fields(scheduler.run())
        records = scheduler.jobs
        assert records["job-a"].checkpoint.completed_iterations == 1
        assert records["job-b"].checkpoint.completed_iterations == 1
    else:
        report = golden["equal_time"]["report"]

    summaries = {job["name"]: job for job in report["jobs"]}
    # Completion first: A committed its iteration untouched by the failure.
    assert summaries["job-a"]["state"] == "finished"
    assert summaries["job-a"]["preemptions"] == 0
    assert summaries["job-a"]["attempts"] == 1
    # Capacity before arrival: the repaired device is visible when B is
    # admitted, so B starts at t=100 with zero queueing delay...
    assert summaries["job-b"]["queueing_delay_ms"] == 0.0
    # ...and failure last: it preempts B's first attempt (B sits on device
    # 0, the lowest free index after A's completion freed it).
    assert summaries["job-b"]["preemptions"] == 1
    assert summaries["job-b"]["attempts"] == 2
    assert summaries["job-b"]["state"] == "finished"
    assert all(job["iterations_completed"] == 1 for job in report["jobs"])
    # The capacity timeline pins the repair-before-failure order at t=100.
    at_100 = [e["event"] for e in report["capacity_timeline"] if e["time_ms"] == 100.0]
    assert at_100 == ["repair", "failure"]


def test_equal_time_ordering_identical_across_cores(golden, small_device):
    assert_matches_golden(equal_time_scheduler(small_device).run(), golden["equal_time"])


# ------------------------------------------------------------- kill / restore


def _restored_report(snapshot, pp2_cost_model, fleet_samples, small_device):
    _, specs = kill_restore_scheduler(pp2_cost_model, fleet_samples, small_device)
    restored = restore_scheduler(
        snapshot,
        chaos_topology(small_device),
        {spec.name: spec for spec in specs},
        config=FleetConfig(policy="priority"),
    )
    return restored.run()


def test_snapshot_restores_across_cores(
    golden, pp2_cost_model, fleet_samples, small_device
):
    """Snapshots restore and finish identically to the uninterrupted run:
    a fresh one, and the one recorded under the bitmap core — which the
    object core also finished identically — in every accepted layout."""
    expected = golden["kill_restore"]
    args = (pp2_cost_model, fleet_samples, small_device)
    reference, _ = kill_restore_scheduler(*args)
    assert_matches_golden(reference.run(), expected)

    snapshots = {}

    def kill(scheduler):
        if scheduler._events_processed == KILL_AT_EVENT:
            snapshots["fresh"] = json.loads(json.dumps(snapshot_scheduler(scheduler)))
            raise SchedulerKilled("scripted crash")

    crashing, _ = kill_restore_scheduler(*args, on_event=kill)
    with pytest.raises(SchedulerKilled):
        crashing.run()
    assert snapshots["fresh"]["version"] == 2
    assert "core" not in snapshots["fresh"]

    recorded = expected["snapshot"]
    assert recorded["version"] == 2 and recorded["core"] == "bitmap"
    without_core = {k: v for k, v in recorded.items() if k != "core"}
    snapshots["recorded"] = recorded
    snapshots["recorded, core=object"] = dict(recorded, core="object")
    snapshots["recorded, no core"] = without_core
    snapshots["recorded as version 1"] = dict(without_core, version=1)
    for name, snapshot in snapshots.items():
        report = _restored_report(snapshot, *args)
        assert report_fields(report) == expected["report"], name
