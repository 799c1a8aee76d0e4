"""Gang scheduling of pipeline-parallel device groups on a shared cluster.

A job's replicas must start together on ``dp × pp × tp`` devices (pipeline
stages deadlock if only part of the group is placed), so allocation is
all-or-nothing.  The :class:`GangAllocator` partitions the cluster's devices
into four disjoint sets:

* **free** — alive and idle, available for allocation;
* **allocated** — alive and owned by exactly one :class:`DeviceGang`;
* **failed** — dead; a failed device leaves its gang immediately and stays
  out of the pool until (and unless) :meth:`GangAllocator.repair_device`
  returns it;
* **absent** — not yet part of the cluster: a device with a scheduled late
  arrival starts here and joins the free pool through
  :meth:`GangAllocator.arrive_device`.

**Partition invariant**: ``free ∪ allocated ∪ failed ∪ absent`` equals the
cluster's device set and the four sets are pairwise disjoint — checked by
:meth:`GangAllocator.check_consistent`, which is what the fleet tests lean
on to prove that preemption, repair, elastic shrinking and regrowth never
leak or double-own a device.  Release-and-regrow bookkeeping rests on the
same invariant: releasing a gang returns only its still-alive devices, a
repair resurrects a device *only* through the explicit failed → free
transition, and an absent device can neither fail nor be allocated before
it arrives.

The partition is held as numpy bool masks with an O(1) device→gang owner
index, and placements are searched vectorized over the sorted free
indices.  Snapshots come from outside the process, so
:meth:`GangAllocator.restore_state` rejects out-of-range, duplicated or
missing devices with a :class:`ValueError` naming the device.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import ClusterTopology


@dataclass(frozen=True)
class DeviceGang:
    """A set of devices running one job's pipeline-parallel replica group.

    Attributes:
        job: Name of the owning job.
        devices: Global device indices of the gang, ascending.
        data_parallel: Replica count placed on the gang (the *admitted*
            degree, which elastic jobs may have shrunk below the request).
        pipeline_parallel: Pipeline stages per replica.
        tensor_parallel: Tensor-parallel degree per stage.
    """

    job: str
    devices: tuple[int, ...]
    data_parallel: int
    pipeline_parallel: int
    tensor_parallel: int

    @property
    def size(self) -> int:
        """Number of devices in the gang."""
        return len(self.devices)


class GangAllocator:
    """Tracks device ownership on the shared cluster.

    The 4-way partition is held as numpy bool masks
    (``free``/``failed``/``absent``; a device is *allocated* iff its slot in
    the owner index is set).

    Gang ownership uses integer *slots*: ``_owner[device]`` is the slot of
    the owning gang (-1 when unowned) and ``_gangs[slot]`` holds the gang
    object, so :meth:`owner_of` is a single array load + dict get.  A slot
    is retired when its last device leaves the gang (release or failure);
    the slot table keeps a strong reference to the gang while any device
    points at it, so ``id()`` reuse can never alias two live gangs.

    Args:
        topology: The cluster whose devices are managed.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        count = topology.num_gpus
        self._count = count
        self._free_mask = np.ones(count, dtype=bool)
        self._failed_mask = np.zeros(count, dtype=bool)
        self._absent_mask = np.zeros(count, dtype=bool)
        #: Slot of the owning gang per device; -1 = unowned.
        self._owner = np.full(count, -1, dtype=np.int64)
        #: Node of each device, precomputed for the alignment test.
        self._node_index = np.arange(count, dtype=np.int64) // topology.gpus_per_node
        self._gangs: dict[int, DeviceGang] = {}
        self._owned_count: dict[int, int] = {}
        self._slot_of: dict[int, int] = {}
        self._next_slot = 0
        self._free_count = count
        self._failed_count = 0
        self._absent_count = 0
        self._busy_count = 0

    # ------------------------------------------------------------------ queries

    @property
    def num_devices(self) -> int:
        """Total devices in the cluster (alive, failed or absent)."""
        return self._count

    @property
    def alive_count(self) -> int:
        """Devices currently part of the cluster and not failed."""
        return self._count - self._failed_count - self._absent_count

    @property
    def free_count(self) -> int:
        """Devices currently idle and alive."""
        return self._free_count

    @property
    def busy_count(self) -> int:
        """Devices currently allocated to gangs."""
        return self._busy_count

    @property
    def failed_devices(self) -> frozenset[int]:
        """Devices that failed and have not (yet) been repaired."""
        return frozenset(np.flatnonzero(self._failed_mask).tolist())

    @property
    def absent_devices(self) -> frozenset[int]:
        """Devices that have not (yet) arrived in the cluster."""
        return frozenset(np.flatnonzero(self._absent_mask).tolist())

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self._count:
            raise ValueError(f"device {device} out of range [0, {self._count})")

    def owner_of(self, device: int) -> DeviceGang | None:
        """The gang holding ``device``, if any (O(1))."""
        self._check_device(device)
        slot = int(self._owner[device])
        return self._gangs[slot] if slot >= 0 else None

    def is_failed(self, device: int) -> bool:
        """Whether ``device`` is currently failed (O(1))."""
        self._check_device(device)
        return bool(self._failed_mask[device])

    def is_absent(self, device: int) -> bool:
        """Whether ``device`` has not (yet) arrived in the cluster (O(1))."""
        self._check_device(device)
        return bool(self._absent_mask[device])

    # ------------------------------------------------------------------ allocation

    def _find_devices(self, size: int) -> tuple[int, ...]:
        """Vectorized placement search over the sorted free indices.

        The first (lowest-start) contiguous index window that does not
        straddle a node boundary, else the first contiguous window, else
        the lowest free indices.  Windows of sorted free indices are
        contiguous iff ``free[start+size-1] - free[start] == size-1``.
        """
        free = np.flatnonzero(self._free_mask)
        if size == 1:
            # Every single free device is a node-aligned window of one;
            # the lowest index wins.
            return (int(free[0]),)
        spans = free[size - 1 :] - free[: free.size - size + 1]
        starts = np.flatnonzero(spans == size - 1)
        if starts.size:
            aligned = starts[
                self._node_index[free[starts]]
                == self._node_index[free[starts + size - 1]]
            ]
            start = int(aligned[0]) if aligned.size else int(starts[0])
            window = free[start : start + size]
        else:
            window = free[:size]
        return tuple(int(device) for device in window)

    def allocate(
        self, job: str, data_parallel: int, pipeline_parallel: int, tensor_parallel: int
    ) -> DeviceGang | None:
        """Allocate a gang for ``job``, or return ``None`` if it cannot fit.

        All-or-nothing (gang scheduling): either every device of the
        ``dp × pp × tp`` group is claimed or none is.  A contiguous run of
        free device indices is preferred — with the Megatron-style packing
        of :class:`~repro.cluster.topology.ClusterTopology` that keeps
        tensor groups intra-node — and among contiguous runs one that does
        not straddle a node boundary wins (a gang that fits in one node
        should use one node's fast links).  When fragmentation (from
        released and failed gangs) leaves no contiguous window at all, the
        lowest free indices are taken.
        """
        size = data_parallel * pipeline_parallel * tensor_parallel
        if size < 1:
            raise ValueError(f"gang size must be >= 1, got {size}")
        if self._free_count < size:
            return None
        devices = self._find_devices(size)
        gang = DeviceGang(
            job=job,
            devices=devices,
            data_parallel=data_parallel,
            pipeline_parallel=pipeline_parallel,
            tensor_parallel=tensor_parallel,
        )
        slot = self._next_slot
        self._next_slot += 1
        index = np.fromiter(devices, count=size, dtype=np.int64)
        self._free_mask[index] = False
        self._owner[index] = slot
        self._free_count -= size
        self._busy_count += size
        self._gangs[slot] = gang
        self._owned_count[slot] = size
        self._slot_of[id(gang)] = slot
        return gang

    def _retire_device(self, slot: int, gang: DeviceGang) -> None:
        """One device left ``gang``; drop the slot when it was the last."""
        self._owned_count[slot] -= 1
        self._busy_count -= 1
        if self._owned_count[slot] == 0:
            del self._gangs[slot]
            del self._owned_count[slot]
            del self._slot_of[id(gang)]

    def release(self, gang: DeviceGang) -> list[int]:
        """Return a gang's devices to the free pool; returns those released.

        Devices of the gang that failed while allocated were already moved
        to the failed set by :meth:`fail_device` and stay there — they are
        *not* resurrected (only :meth:`repair_device` can do that), which is
        exactly the accounting the no-device-leaked tests pin down.
        """
        slot = self._slot_of.get(id(gang))
        released: list[int] = []
        if slot is None or self._gangs.get(slot) is not gang:
            return released
        for device in gang.devices:
            if self._owner[device] != slot:
                continue  # failed mid-run (already removed) — stays failed
            self._owner[device] = -1
            self._free_mask[device] = True
            released.append(device)
            self._retire_device(slot, gang)
        self._free_count += len(released)
        return released

    def fail_device(self, device: int) -> DeviceGang | None:
        """Mark ``device`` failed; returns the gang it interrupts, if any.

        A free device simply leaves the pool (capacity shrinks).  An
        allocated device is pulled out of its gang and the gang is returned
        so the scheduler can preempt the owning job; the gang's surviving
        devices stay allocated until the scheduler releases them.  Failing
        an already-failed or absent device is a no-op — a device that has
        not arrived cannot die.
        """
        self._check_device(device)
        if self._failed_mask[device] or self._absent_mask[device]:
            return None
        slot = int(self._owner[device])
        gang: DeviceGang | None = None
        if slot >= 0:
            gang = self._gangs[slot]
            self._owner[device] = -1
            self._retire_device(slot, gang)
        elif self._free_mask[device]:
            self._free_mask[device] = False
            self._free_count -= 1
        self._failed_mask[device] = True
        self._failed_count += 1
        return gang

    # ------------------------------------------------------------------ repair / arrival

    def repair_device(self, device: int) -> bool:
        """Return a failed device to the free pool.

        Returns:
            True if the device was failed and is now free; False if the
            device was not failed (a stale repair event is a no-op — the
            scheduler may schedule repairs for devices that never die, or
            repair a device twice).
        """
        self._check_device(device)
        if not self._failed_mask[device]:
            return False
        self._failed_mask[device] = False
        self._failed_count -= 1
        self._free_mask[device] = True
        self._free_count += 1
        return True

    def mark_absent(self, device: int) -> None:
        """Move a free device out of the cluster (pre-run setup only).

        The scheduler calls this at the start of a run for every device
        with a scheduled late arrival; an allocated or failed device cannot
        be marked absent.
        """
        if not 0 <= device < self._count or not self._free_mask[device]:
            raise ValueError(
                f"device {device} is not free; only idle devices can start absent"
            )
        self._free_mask[device] = False
        self._free_count -= 1
        self._absent_mask[device] = True
        self._absent_count += 1

    def arrive_device(self, device: int) -> None:
        """An absent device joins the cluster: absent → free."""
        if not 0 <= device < self._count or not self._absent_mask[device]:
            raise ValueError(f"device {device} is not absent; cannot arrive")
        self._absent_mask[device] = False
        self._absent_count -= 1
        self._free_mask[device] = True
        self._free_count += 1

    # ------------------------------------------------------------------ snapshot / restore

    def snapshot_state(self) -> dict[str, list[int]]:
        """JSON-safe snapshot of the free/failed/absent sets.

        Allocated devices are *not* listed here: ownership is restored from
        the running jobs' gangs (see :meth:`restore_state`), which keeps a
        single source of truth for who holds what.
        """
        return {
            "free": np.flatnonzero(self._free_mask).tolist(),
            "failed": np.flatnonzero(self._failed_mask).tolist(),
            "absent": np.flatnonzero(self._absent_mask).tolist(),
        }

    def restore_state(
        self,
        free: "list[int] | set[int]",
        failed: "list[int] | set[int]",
        absent: "list[int] | set[int]",
        allocated: "list[tuple[DeviceGang, list[int]]]" = (),
    ) -> None:
        """Overwrite the partition from a snapshot (scheduler restore path).

        ``allocated`` maps each live gang to the devices it *currently*
        owns — which may be fewer than ``gang.devices`` when a member
        failed mid-run (the failed device moved to the failed set and must
        not be resurrected by restore).

        Raises:
            ValueError: Naming the device, if an index is not an integer,
                is out of range, is listed twice, is owned by a gang that
                does not contain it, or if the lists leave a device out of
                the partition.  The allocator is unchanged on error.
        """
        groups = self._checked_partition(free, failed, absent, allocated)
        self._free_mask[:] = False
        self._failed_mask[:] = False
        self._absent_mask[:] = False
        self._owner[:] = -1
        self._free_mask[groups[0]] = True
        self._failed_mask[groups[1]] = True
        self._absent_mask[groups[2]] = True
        self._free_count = len(groups[0])
        self._failed_count = len(groups[1])
        self._absent_count = len(groups[2])
        self._gangs.clear()
        self._owned_count.clear()
        self._slot_of.clear()
        self._busy_count = 0
        for (gang, _), owned in zip(allocated, groups[3:]):
            if not owned:
                continue  # fully failed mid-run: nothing left to own
            slot = self._next_slot
            self._next_slot += 1
            self._owner[owned] = slot
            self._gangs[slot] = gang
            self._owned_count[slot] = len(owned)
            self._slot_of[id(gang)] = slot
            self._busy_count += len(owned)
        self.check_consistent()

    def _checked_partition(
        self,
        free: "list[int] | set[int]",
        failed: "list[int] | set[int]",
        absent: "list[int] | set[int]",
        allocated: "list[tuple[DeviceGang, list[int]]]",
    ) -> list[list[int]]:
        """Validated device lists of a snapshot partition, one per group
        (free, failed, absent, then each allocated gang's owned devices)."""
        groups = [("free", free, None), ("failed", failed, None), ("absent", absent, None)]
        groups += [(f"allocated to {gang.job}", owned, gang.devices) for gang, owned in allocated]
        where: dict[int, str] = {}
        checked: list[list[int]] = []
        for name, devices, members in groups:
            indices: list[int] = []
            for device in devices:
                try:
                    index = operator.index(device)
                except TypeError:
                    raise ValueError(f"{name} device {device!r} is not an integer") from None
                if not 0 <= index < self._count:
                    raise ValueError(f"{name} device {index} out of range [0, {self._count})")
                if index in where:
                    raise ValueError(f"device {index} is listed twice ({where[index]}, {name})")
                if members is not None and index not in members:
                    raise ValueError(f"device {index} is {name} but not part of its gang")
                where[index] = name
                indices.append(index)
            checked.append(indices)
        if len(where) < self._count:
            missing = sorted(set(range(self._count)) - where.keys())
            raise ValueError(f"devices {missing} are missing from the snapshot partition")
        return checked

    # ------------------------------------------------------------------ invariants

    def check_consistent(self) -> None:
        """Assert free/allocated/failed/absent partition the cluster."""
        free = set(np.flatnonzero(self._free_mask).tolist())
        allocated = set(np.flatnonzero(self._owner >= 0).tolist())
        failed = set(np.flatnonzero(self._failed_mask).tolist())
        absent = set(np.flatnonzero(self._absent_mask).tolist())
        sets = {"free": free, "allocated": allocated, "failed": failed, "absent": absent}
        names = sorted(sets)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                overlap = sets[a] & sets[b]
                assert not overlap, f"devices both {a} and {b}: {overlap}"
        union = free | allocated | failed | absent
        expected = set(range(self.num_devices))
        assert union == expected, f"device leak: missing {expected - union}, extra {union - expected}"
        assert self._free_count == len(free), "free count out of sync"
        assert self._failed_count == len(failed), "failed count out of sync"
        assert self._absent_count == len(absent), "absent count out of sync"
        assert self._busy_count == len(allocated), "busy count out of sync"
        assert self._busy_count == sum(self._owned_count.values()), "slot counts out of sync"


#: Former name of :class:`GangAllocator`, still resolved by the end-to-end
#: benchmark's per-layer tracer (``perfbench/tracer.py``) for its ``gang``
#: layer.
BitmapGangAllocator = GangAllocator
