"""Object/set gang allocator: the production allocator's lockstep oracle.

This is the original :class:`~repro.fleet.gang.GangAllocator`, which kept
the free/allocated/failed/absent partition in Python sets and a
per-device dict and scanned placement windows in Python.  The production
allocator now holds the same partition as numpy bitmaps with an O(1)
owner index; the allocator equivalence suite drives both with identical
random operation sequences and requires identical placements, snapshots
and partitions.  It lives in ``tests/`` because nothing in the library
selects it.
"""

from __future__ import annotations

from repro.cluster.topology import ClusterTopology
from repro.fleet.gang import DeviceGang


class ObjectGangAllocator:
    """Tracks device ownership on the shared cluster.

    Args:
        topology: The cluster whose devices are managed.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._free: set[int] = set(range(topology.num_gpus))
        self._allocated: dict[int, DeviceGang] = {}
        self._failed: set[int] = set()
        self._absent: set[int] = set()

    # ------------------------------------------------------------------ queries

    @property
    def num_devices(self) -> int:
        """Total devices in the cluster (alive, failed or absent)."""
        return self.topology.num_gpus

    @property
    def alive_count(self) -> int:
        """Devices currently part of the cluster and not failed."""
        return self.num_devices - len(self._failed) - len(self._absent)

    @property
    def free_count(self) -> int:
        """Devices currently idle and alive."""
        return len(self._free)

    @property
    def busy_count(self) -> int:
        """Devices currently allocated to gangs."""
        return len(self._allocated)

    @property
    def failed_devices(self) -> frozenset[int]:
        """Devices that failed and have not (yet) been repaired."""
        return frozenset(self._failed)

    @property
    def absent_devices(self) -> frozenset[int]:
        """Devices that have not (yet) arrived in the cluster."""
        return frozenset(self._absent)

    def owner_of(self, device: int) -> DeviceGang | None:
        """The gang holding ``device``, if any."""
        return self._allocated.get(device)

    def is_failed(self, device: int) -> bool:
        """Whether ``device`` is currently failed (O(1))."""
        return device in self._failed

    def is_absent(self, device: int) -> bool:
        """Whether ``device`` has not (yet) arrived in the cluster (O(1))."""
        return device in self._absent

    # ------------------------------------------------------------------ allocation

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
        if len(self._free) < size:
            return None
        free = sorted(self._free)
        devices: tuple[int, ...] | None = None
        contiguous: tuple[int, ...] | None = None
        for start in range(len(free) - size + 1):
            if free[start + size - 1] - free[start] != size - 1:
                continue
            window = tuple(free[start : start + size])
            if contiguous is None:
                contiguous = window
            if self.topology.node_of(window[0]) == self.topology.node_of(window[-1]):
                devices = window
                break
        if devices is None:
            devices = contiguous
        if devices is None:
            devices = tuple(free[:size])
        gang = DeviceGang(
            job=job,
            devices=devices,
            data_parallel=data_parallel,
            pipeline_parallel=pipeline_parallel,
            tensor_parallel=tensor_parallel,
        )
        for device in devices:
            self._free.remove(device)
            self._allocated[device] = gang
        return gang

    def release(self, gang: DeviceGang) -> list[int]:
        """Return a gang's devices to the free pool; returns those released.

        Devices of the gang that failed while allocated were already moved
        to the failed set by :meth:`fail_device` and stay there — they are
        *not* resurrected (only :meth:`repair_device` can do that), which is
        exactly the accounting the no-device-leaked tests pin down.
        """
        released: list[int] = []
        for device in gang.devices:
            current = self._allocated.get(device)
            if current is not gang:
                continue  # failed mid-run (already removed) — stays failed
            del self._allocated[device]
            self._free.add(device)
            released.append(device)
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
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range [0, {self.num_devices})")
        if device in self._failed or device in self._absent:
            return None
        gang = self._allocated.pop(device, None)
        self._free.discard(device)
        self._failed.add(device)
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
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range [0, {self.num_devices})")
        if device not in self._failed:
            return False
        self._failed.remove(device)
        self._free.add(device)
        return True

    def mark_absent(self, device: int) -> None:
        """Move a free device out of the cluster (pre-run setup only).

        The scheduler calls this at the start of a run for every device
        with a scheduled late arrival; an allocated or failed device cannot
        be marked absent.
        """
        if device not in self._free:
            raise ValueError(
                f"device {device} is not free; only idle devices can start absent"
            )
        self._free.remove(device)
        self._absent.add(device)

    def arrive_device(self, device: int) -> None:
        """An absent device joins the cluster: absent → free."""
        if device not in self._absent:
            raise ValueError(f"device {device} is not absent; cannot arrive")
        self._absent.remove(device)
        self._free.add(device)

    # ------------------------------------------------------------------ snapshot / restore

    def snapshot_state(self) -> dict[str, list[int]]:
        """JSON-safe snapshot of the free/failed/absent sets.

        Allocated devices are *not* listed here: ownership is restored from
        the running jobs' gangs (see :meth:`restore_state`), which keeps a
        single source of truth for who holds what.
        """
        return {
            "free": sorted(self._free),
            "failed": sorted(self._failed),
            "absent": sorted(self._absent),
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
        not be resurrected by restore).  The 4-way partition invariant is
        asserted before the state is accepted.
        """
        self._free = set(free)
        self._failed = set(failed)
        self._absent = set(absent)
        self._allocated = {
            device: gang for gang, owned in allocated for device in owned
        }
        self.check_consistent()

    # ------------------------------------------------------------------ invariants

    def check_consistent(self) -> None:
        """Assert free/allocated/failed/absent partition the cluster.

        Raises:
            AssertionError: If a device is leaked or double-owned.
        """
        free, allocated = self._free, set(self._allocated)
        failed, absent = self._failed, self._absent
        sets = {"free": free, "allocated": allocated, "failed": failed, "absent": absent}
        names = sorted(sets)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                overlap = sets[a] & sets[b]
                assert not overlap, f"devices both {a} and {b}: {overlap}"
        union = free | allocated | failed | absent
        expected = set(range(self.num_devices))
        assert union == expected, f"device leak: missing {expected - union}, extra {union - expected}"
