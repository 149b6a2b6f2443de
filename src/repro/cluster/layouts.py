"""Data layouts: how logical operations become device I/O.

These encode the write-amplification story of §2.1 and §4.5:

* RBD-style **replication**: every client write, however small, is
  performed immediately at three replicas, each pairing a write-ahead
  journal append (data + a little metadata) with the data write itself —
  six device I/Os per 16 KiB client write, exactly the 6x amplification
  the paper traces (half the backend writes 16 KiB, half 20-24 KiB from
  the journal entries).

* RGW-style **erasure coding** (k=4, m=2): a 4 MiB object PUT becomes
  k+m chunk writes of ~1 MiB plus a tail of small metadata/omap writes —
  the paper counts ~64 device writes per 4 MiB object, i.e. 0.25 backend
  I/Os per 16 KiB client write (1/24th of RBD's).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import StorageCluster
from repro.devices.base import QueuedDevice
from repro.sim.engine import AllOf, Event


def _meta_tail(disks: list[QueuedDevice], writes: int, nbytes: int) -> list[Event]:
    """Metadata log-write ``j`` lands on disk ``j % len(disks)``: each
    disk's share queues back to back, so it is one ``submit_many``."""
    return [
        disk.submit_many("logwrite", 3 * 2**30, nbytes, len(range(i, writes, len(disks))))
        for i, disk in enumerate(disks[:writes])
    ]


@dataclass
class ReplicationLayout:
    """Triple replication with per-write journaling (Ceph RBD default).

    Small writes are double-written: a write-ahead journal entry — made
    durable with a device flush, the dominant latency on consumer SSDs
    without power-loss protection — plus the in-place data write, at each
    of three replicas.  Writes at or above ``direct_write_threshold``
    bypass the journal (BlueStore-style deferred-write cutoff), which is
    why RBD "improves modestly with sequential operations" (§4.3) once
    the block layer has merged adjacent requests.

    Data writes exhibit *stream locality*: the paper's trace analysis
    found that after reordering only ~18 % of RBD's backend writes
    require real seeks, the rest clustering into per-placement-group
    streams.  With probability ``stream_locality`` a data write lands at
    the disk's current stream cursor instead of its logical offset.
    """

    copies: int = 3
    journal_overhead: int = 4096  # WAL entry framing per write
    journal_region: int = 2 * 2**30  # journals live in a separate region
    direct_write_threshold: int = 128 * 1024
    stream_locality: float = 0.82

    def __post_init__(self) -> None:
        self._cursors: dict = {}
        self._counter = 0

    def _data_offset(self, disk, offset: int, nbytes: int) -> int:
        self._counter += 1
        cursor = self._cursors.get(disk.name)
        if cursor is not None and (self._counter % 100) < self.stream_locality * 100:
            chosen = cursor
        else:
            chosen = offset
        self._cursors[disk.name] = chosen + nbytes
        return chosen

    def write(
        self, cluster: StorageCluster, key: str, offset: int, nbytes: int
    ) -> Event:
        """Replicated write: (journal + flush) + data at each replica."""
        disks = cluster.placement(key, self.copies)
        done = cluster.sim.event()
        pending = [len(disks)]

        def replica(disk):
            data_offset = self._data_offset(disk, offset, nbytes)
            if nbytes < self.direct_write_threshold:
                yield disk.submit(
                    "logwrite", self.journal_region, nbytes + self.journal_overhead
                )
                yield disk.flush()  # journal commit (O_DSYNC)
                yield disk.submit("write", data_offset, nbytes)
            else:
                yield disk.submit("write", data_offset, nbytes)
                yield disk.flush()
            pending[0] -= 1
            if pending[0] == 0:
                done.succeed()

        for disk in disks:
            cluster.sim.process(replica(disk), name="replica-write")
        return done

    def read(self, cluster: StorageCluster, key: str, offset: int, nbytes: int) -> Event:
        [primary] = cluster.placement(key, 1)
        return primary.submit("read", offset, nbytes)

    def device_writes_per_client_write(self) -> int:
        return 2 * self.copies


@dataclass(frozen=True)
class ErasureCodedLayout:
    """k+m erasure coding for whole-object PUTs (Ceph RGW pool)."""

    k: int = 4
    m: int = 2
    #: small bookkeeping writes per object (pg log, omap, bucket index...);
    #: tuned so a 4 MiB object costs ~64 device writes as measured in §4.5
    meta_writes_per_object: int = 58
    meta_write_bytes: int = 4096

    @property
    def width(self) -> int:
        return self.k + self.m

    @property
    def expansion(self) -> float:
        """Storage expansion factor (1.5x for 4,2)."""
        return self.width / self.k

    def put(self, cluster: StorageCluster, key: str, nbytes: int) -> Event:
        """Object PUT: k data chunks + m parity chunks + metadata tail."""
        disks = cluster.placement(key, self.width)
        chunk = (nbytes + self.k - 1) // self.k
        events = [
            disk.submit("write", (i + 1) * 2**30, chunk) for i, disk in enumerate(disks)
        ]
        # bookkeeping writes are journal appends: group-committed, so they
        # cost transfer time, not seeks
        events += _meta_tail(disks, self.meta_writes_per_object, self.meta_write_bytes)
        return AllOf(cluster.sim, events)

    def get_range(
        self, cluster: StorageCluster, key: str, offset: int, nbytes: int
    ) -> Event:
        """Ranged GET touches the chunk(s) containing the range."""
        disks = cluster.placement(key, self.width)
        chunk_size = max(1, 2**20)
        first = offset // (chunk_size * self.k) * self.k + (offset % (chunk_size * self.k)) // chunk_size
        events = []
        remaining = nbytes
        idx = first % self.k
        while remaining > 0:
            take = min(remaining, chunk_size)
            events.append(disks[idx].submit("read", offset, take))
            remaining -= take
            idx = (idx + 1) % self.k
        return AllOf(cluster.sim, events)

    def delete(self, cluster: StorageCluster, key: str) -> Event:
        """Object DELETE: metadata updates on the placement set."""
        disks = cluster.placement(key, self.width)
        events = [
            disk.submit("logwrite", 3 * 2**30, self.meta_write_bytes)
            for disk in disks
        ]
        return AllOf(cluster.sim, events)

    def device_writes_per_object(self) -> int:
        return self.width + self.meta_writes_per_object


@dataclass
class ReplicatedObjectLayout:
    """Whole-object triple replication — the alternative LSVD does *not*
    use.

    The paper's footnote 5: erasure coding is optimal for LSVD (its large
    batched writes amortise the coding), while RBD is stuck on
    replication because EC performs terribly for small in-place writes.
    This layout exists for the ablation that quantifies the choice: the
    same object stream stored as three full copies writes 2x the bytes of
    a 4,2 code and loads twice the device bandwidth.
    """

    copies: int = 3
    chunk_size: int = 4 << 20  # stripe large objects into chunk writes
    meta_writes_per_object: int = 6
    meta_write_bytes: int = 4096

    @property
    def expansion(self) -> float:
        return float(self.copies)

    def put(self, cluster: StorageCluster, key: str, nbytes: int) -> Event:
        disks = cluster.placement(key, self.copies)
        events = []
        for i, disk in enumerate(disks):
            remaining = nbytes
            offset = (i + 1) * 2**30
            while remaining > 0:
                take = min(remaining, self.chunk_size)
                events.append(disk.submit("write", offset, take))
                offset += take
                remaining -= take
        events += _meta_tail(disks, self.meta_writes_per_object, self.meta_write_bytes)
        return AllOf(cluster.sim, events)

    def get_range(
        self, cluster: StorageCluster, key: str, offset: int, nbytes: int
    ) -> Event:
        [primary] = cluster.placement(key, 1)
        return primary.submit("read", offset, nbytes)

    def delete(self, cluster: StorageCluster, key: str) -> Event:
        disks = cluster.placement(key, self.copies)
        events = [
            disk.submit("logwrite", 3 * 2**30, self.meta_write_bytes)
            for disk in disks
        ]
        return AllOf(cluster.sim, events)
