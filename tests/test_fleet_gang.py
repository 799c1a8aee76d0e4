"""Tests for gang allocation and admission policies of the fleet scheduler."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.planner import PlannerConfig
from repro.fleet.gang import GangAllocator, GangInvariantError
from repro.fleet.job import JobCheckpoint, JobRecord, JobSpec
from repro.fleet.policies import FifoPolicy, ShortestRemainingWorkPolicy, make_policy
from repro.parallel.config import ParallelConfig
from repro.training.throughput import IterationRecord


def make_allocator(num_gpus: int = 8) -> GangAllocator:
    return GangAllocator(ClusterTopology.for_num_gpus(num_gpus))


class TestGangAllocator:
    def test_allocate_prefers_contiguous_run(self):
        allocator = make_allocator(8)
        first = allocator.allocate("a", 1, 2, 1)
        assert first.devices == (0, 1)
        second = allocator.allocate("b", 2, 2, 1)
        assert second.devices == (2, 3, 4, 5)

    def test_allocation_is_all_or_nothing(self):
        allocator = make_allocator(4)
        assert allocator.allocate("a", 1, 2, 1).size == 2
        assert allocator.allocate("b", 2, 2, 1) is None  # only 2 devices left
        assert allocator.free_count == 2
        allocator.check_consistent()

    def test_release_returns_devices(self):
        allocator = make_allocator(4)
        gang = allocator.allocate("a", 2, 2, 1)
        assert allocator.free_count == 0
        released = allocator.release(gang)
        assert sorted(released) == [0, 1, 2, 3]
        assert allocator.free_count == 4
        allocator.check_consistent()

    def test_prefers_node_aligned_contiguous_window(self):
        """(3, 4) is the lowest contiguous pair but straddles the two
        4-GPU nodes; the allocator takes the intra-node (4, 5) instead."""
        allocator = GangAllocator(ClusterTopology(num_nodes=2, gpus_per_node=4))
        allocator.allocate("a", 1, 3, 1)  # occupies (0, 1, 2)
        gang = allocator.allocate("b", 1, 2, 1)
        assert gang.devices == (4, 5)
        allocator.check_consistent()

    def test_node_straddling_window_used_when_nothing_aligned_fits(self):
        allocator = GangAllocator(ClusterTopology(num_nodes=2, gpus_per_node=2))
        allocator.allocate("a", 1, 1, 1)  # (0,)
        # Free {1, 2, 3}: size-2 windows are (1, 2) straddling and (2, 3)
        # aligned; a size-3 gang has only the straddling option.
        gang = allocator.allocate("b", 1, 3, 1)
        assert gang.devices == (1, 2, 3)
        allocator.check_consistent()

    def test_fragmented_fallback_uses_lowest_free_indices(self):
        allocator = make_allocator(6)
        a = allocator.allocate("a", 1, 2, 1)  # (0, 1)
        b = allocator.allocate("b", 1, 2, 1)  # (2, 3)
        allocator.allocate("c", 1, 2, 1)  # (4, 5)
        allocator.release(a)
        allocator.release(b)
        assert allocator.fail_device(1) is None  # free device dies
        # Free devices are now {0, 2, 3}: no contiguous run of 3.
        gang = allocator.allocate("d", 1, 3, 1)
        assert gang.devices == (0, 2, 3)
        allocator.check_consistent()

    def test_fail_busy_device_returns_gang_and_keeps_it_failed(self):
        allocator = make_allocator(4)
        gang = allocator.allocate("a", 2, 2, 1)
        interrupted = allocator.fail_device(1)
        assert interrupted is gang
        assert allocator.failed_devices == {1}
        # Releasing the gang must not resurrect the failed device.
        released = allocator.release(gang)
        assert sorted(released) == [0, 2, 3]
        assert allocator.free_count == 3
        assert allocator.alive_count == 3
        allocator.check_consistent()

    def test_fail_idle_and_double_fail(self):
        allocator = make_allocator(4)
        assert allocator.fail_device(3) is None
        assert allocator.fail_device(3) is None  # already failed: no-op
        assert allocator.failed_devices == {3}
        assert allocator.alive_count == 3
        allocator.check_consistent()

    def test_invalid_device_rejected(self):
        allocator = make_allocator(4)
        with pytest.raises(ValueError):
            allocator.fail_device(4)
        with pytest.raises(ValueError):
            allocator.fail_device(-1)

    def test_owner_of(self):
        allocator = make_allocator(4)
        gang = allocator.allocate("a", 1, 2, 1)
        assert allocator.owner_of(0) is gang
        assert allocator.owner_of(3) is None


class TestRepairAndArrival:
    def test_repair_returns_failed_device_to_the_pool(self):
        allocator = make_allocator(4)
        allocator.fail_device(2)
        assert allocator.alive_count == 3
        assert allocator.repair_device(2) is True
        assert allocator.failed_devices == frozenset()
        assert allocator.free_count == 4
        assert allocator.alive_count == 4
        allocator.check_consistent()

    def test_repair_of_alive_device_is_a_noop(self):
        allocator = make_allocator(4)
        assert allocator.repair_device(1) is False  # never failed
        allocator.fail_device(1)
        assert allocator.repair_device(1) is True
        assert allocator.repair_device(1) is False  # double repair
        with pytest.raises(ValueError):
            allocator.repair_device(9)
        allocator.check_consistent()

    def test_repaired_device_is_allocatable_again(self):
        allocator = make_allocator(2)
        allocator.fail_device(0)
        assert allocator.allocate("a", 1, 2, 1) is None  # only 1 alive
        allocator.repair_device(0)
        gang = allocator.allocate("a", 1, 2, 1)
        assert gang is not None and gang.devices == (0, 1)
        allocator.check_consistent()

    def test_absent_devices_are_outside_the_cluster(self):
        allocator = make_allocator(4)
        allocator.mark_absent(2)
        allocator.mark_absent(3)
        assert allocator.alive_count == 2
        assert allocator.absent_devices == frozenset({2, 3})
        assert allocator.allocate("a", 2, 2, 1) is None  # only 2 free
        # An absent device can neither fail nor be marked absent twice.
        assert allocator.fail_device(2) is None
        assert allocator.absent_devices == frozenset({2, 3})
        with pytest.raises(ValueError, match="not free"):
            allocator.mark_absent(2)
        allocator.check_consistent()

    def test_arrival_moves_absent_to_free(self):
        allocator = make_allocator(4)
        allocator.mark_absent(3)
        allocator.arrive_device(3)
        assert allocator.free_count == 4
        with pytest.raises(ValueError, match="not absent"):
            allocator.arrive_device(3)
        allocator.check_consistent()

    def test_allocated_device_cannot_be_marked_absent(self):
        allocator = make_allocator(4)
        allocator.allocate("a", 1, 2, 1)
        with pytest.raises(ValueError, match="not free"):
            allocator.mark_absent(0)

    def test_partition_invariant_over_full_lifecycle(self):
        """free/allocated/failed/absent stay a partition through a mixed
        sequence of allocation, failure, release, repair and arrival."""
        allocator = make_allocator(8)
        allocator.mark_absent(6)
        allocator.mark_absent(7)
        gang = allocator.allocate("a", 2, 2, 1)
        allocator.check_consistent()
        assert allocator.fail_device(1) is gang
        allocator.check_consistent()
        allocator.release(gang)
        allocator.check_consistent()
        allocator.repair_device(1)
        allocator.arrive_device(6)
        allocator.check_consistent()
        assert allocator.alive_count == 7
        assert allocator.free_count == 7
        assert allocator.absent_devices == frozenset({7})


class TestRestoreValidation:
    """Snapshots come from outside the process: restore_state rejects any
    partition that is not exactly the cluster, naming the device, and
    leaves the allocator untouched."""

    @pytest.mark.parametrize(
        "free, failed, absent, message",
        [
            ([0, 1, 2, -1], [], [], "free device -1 out of range"),
            ([0, 1, 2, 4], [], [], "free device 4 out of range"),
            ([0, 1, 2], [2, 3], [], r"device 2 is listed twice \(free, failed\)"),
            ([0, 1, 1, 2, 3], [], [], r"device 1 is listed twice \(free, free\)"),
            ([0, 1], [2], [], r"devices \[3\] are missing"),
            ([0, 1, 2], [], ["3"], "absent device '3' is not an integer"),
        ],
    )
    def test_bad_partition_rejected(self, free, failed, absent, message):
        allocator = make_allocator(4)
        gang = allocator.allocate("a", 1, 2, 1)
        before = allocator.snapshot_state()
        with pytest.raises(ValueError, match=message):
            allocator.restore_state(free, failed, absent)
        assert allocator.snapshot_state() == before
        assert allocator.owner_of(0) is gang
        allocator.check_consistent()

    def test_owned_device_outside_its_gang_rejected(self):
        allocator = make_allocator(4)
        gang = allocator.allocate("a", 1, 2, 1)  # devices (0, 1)
        with pytest.raises(ValueError, match="device 3 is allocated to a but not part"):
            allocator.restore_state([0, 1, 2], [], [], [(gang, [3])])

    def test_valid_restore_round_trips(self):
        allocator = make_allocator(4)
        gang = allocator.allocate("a", 1, 2, 1)
        allocator.fail_device(1)
        fresh = make_allocator(4)
        state = allocator.snapshot_state()
        fresh.restore_state(state["free"], state["failed"], state["absent"], [(gang, [0])])
        assert fresh.snapshot_state() == state
        assert fresh.owner_of(0) is gang and fresh.owner_of(1) is None
        fresh.check_consistent()

    @pytest.mark.parametrize("device", [-4, -1, 4])
    def test_queries_reject_out_of_range_devices(self, device):
        allocator = make_allocator(4)
        allocator.allocate("a", 1, 1, 1)
        for query in (allocator.owner_of, allocator.is_failed, allocator.is_absent):
            with pytest.raises(ValueError, match=f"device {device} out of range"):
                query(device)


class TestInvariantCheck:
    """check_consistent raises a typed error, not an ``assert`` that
    ``python -O`` strips."""

    @pytest.mark.parametrize(
        "counter, message",
        [
            ("_free_count", "free count out of sync"),
            ("_busy_count", "busy count out of sync"),
        ],
    )
    def test_corrupted_count_raises(self, counter, message):
        allocator = make_allocator(4)
        allocator.allocate("a", 1, 2, 1)
        setattr(allocator, counter, getattr(allocator, counter) + 1)
        with pytest.raises(GangInvariantError, match=message):
            allocator.check_consistent()

    def test_double_owned_device_raises(self):
        allocator = make_allocator(4)
        allocator.allocate("a", 1, 2, 1)  # devices (0, 1)
        allocator._free_mask[0] = True
        with pytest.raises(GangInvariantError, match=r"devices both allocated and free: \{0\}"):
            allocator.check_consistent()

    def test_is_a_runtime_error(self):
        assert issubclass(GangInvariantError, RuntimeError)
        assert not issubclass(GangInvariantError, AssertionError)

    def test_checks_under_optimized_python(self):
        code = (
            "from repro.cluster.topology import ClusterTopology\n"
            "from repro.fleet.gang import GangAllocator, GangInvariantError\n"
            "allocator = GangAllocator(ClusterTopology.for_num_gpus(4))\n"
            "allocator._free_count += 1\n"
            "try:\n"
            "    allocator.check_consistent()\n"
            "except GangInvariantError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "free count out of sync"


def _record(spec: JobSpec, sequence: int, measured: list[float] | None = None) -> JobRecord:
    record = JobRecord(spec=spec, sequence=sequence, checkpoint=JobCheckpoint())
    for index, measured_ms in enumerate(measured or []):
        record.checkpoint.commit(
            IterationRecord(
                iteration=index,
                actual_tokens=100,
                padded_tokens=120,
                predicted_ms=measured_ms,
                measured_ms=measured_ms,
                predicted_peak_bytes=1.0,
                measured_peak_bytes=1.0,
                planning_time_s=0.0,
                num_microbatches=1,
                recompute="none",
            ),
            encoder_eff=0.9,
            decoder_eff=None,
        )
    return record


class TestPolicies:
    @pytest.fixture()
    def specs(self, pp2_cost_model, fleet_samples):
        def spec(name, submit_ms=0.0, iterations=4, est_ms=1000.0):
            return JobSpec(
                name=name,
                cost_model=pp2_cost_model,
                samples=fleet_samples,
                global_batch_tokens=4096,
                parallel=ParallelConfig(1, 2, 1),
                num_iterations=iterations,
                planner_config=PlannerConfig(order_search=False, tmax_sample_count=8),
                submit_time_ms=submit_ms,
                est_iteration_ms=est_ms,
            )

        return spec

    def test_fifo_orders_by_submission(self, specs):
        records = [
            _record(specs("late", submit_ms=10.0), 0),
            _record(specs("early", submit_ms=1.0), 1),
            _record(specs("tie", submit_ms=1.0), 2),
        ]
        ordered = FifoPolicy().order(records, now_ms=20.0)
        assert [r.spec.name for r in ordered] == ["early", "tie", "late"]

    def test_srw_prefers_less_remaining_work(self, specs):
        long_job = _record(specs("long", iterations=8, est_ms=100.0), 0)
        short_job = _record(specs("short", iterations=2, est_ms=100.0), 1)
        ordered = ShortestRemainingWorkPolicy().order([long_job, short_job], now_ms=0.0)
        assert [r.spec.name for r in ordered] == ["short", "long"]

    def test_srw_uses_measured_iteration_times(self, specs):
        # 6 remaining × 50 ms measured < 2 remaining × 1000 ms prior.
        nearly_done = _record(specs("prior", iterations=2, est_ms=1000.0), 0)
        fast = _record(specs("measured", iterations=8, est_ms=1000.0), 1, measured=[50.0, 50.0])
        assert fast.remaining_iterations == 6
        ordered = ShortestRemainingWorkPolicy().order([nearly_done, fast], now_ms=0.0)
        assert [r.spec.name for r in ordered] == ["measured", "prior"]

    def test_make_policy(self):
        assert make_policy("fifo").name == "fifo"
        assert make_policy("srw").name == "srw"
        custom = FifoPolicy()
        assert make_policy(custom) is custom
        with pytest.raises(ValueError):
            make_policy("lifo")
