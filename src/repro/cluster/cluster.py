"""The storage pool: servers, devices, placement, utilisation accounting."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.devices.base import QueuedDevice
from repro.sim.engine import Simulator


@dataclass
class ClusterTotals:
    """Pool-wide I/O summary (the backend side of Figure 13)."""

    reads: int
    writes: int
    read_bytes: int
    written_bytes: int
    mean_utilization: float

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes


class StorageCluster:
    """A pool of devices spread over servers with hash placement.

    ``disk_factory(sim, name)`` builds each device; the paper's two
    configurations are 4 servers x 8 SATA SSDs and 9 servers x ~7 SAS
    HDDs (Table 1).
    """

    def __init__(
        self,
        sim: Simulator,
        servers: int,
        disks_per_server: int,
        disk_factory: Callable[[Simulator, str], QueuedDevice],
    ):
        if servers < 1 or disks_per_server < 1:
            raise ValueError("need at least one server and one disk")
        self.sim = sim
        self.servers = servers
        self.disks: List[QueuedDevice] = []
        for srv in range(servers):
            for d in range(disks_per_server):
                self.disks.append(disk_factory(sim, f"srv{srv}-disk{d}"))
        self._start_time = sim.now
        self._placements: Dict[str, List[QueuedDevice]] = {}

    # ------------------------------------------------------------------
    def placement(self, key: str, count: int) -> List[QueuedDevice]:
        """Deterministically pick ``count`` distinct devices for ``key``.

        Mimics CRUSH/consistent hashing: stable for a key, uniform over
        the pool — so each key's list is drawn once (seeding the RNG costs
        more than a timed request's other bookkeeping) and shared: callers
        must not mutate it.
        """
        if count > len(self.disks):
            raise ValueError("placement wider than the pool")
        memo = f"{count}:{key}"
        disks = self._placements.get(memo)
        if disks is None:
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            rng = random.Random(int.from_bytes(digest, "big"))
            indices = rng.sample(range(len(self.disks)), count)
            disks = self._placements[memo] = [self.disks[i] for i in indices]
        return disks

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        for disk in self.disks:
            disk.stats.__init__()
        self._start_time = self.sim.now

    def utilizations(self, elapsed: Optional[float] = None) -> List[float]:
        span = (
            elapsed
            if elapsed is not None
            else max(self.sim.now - self._start_time, 1e-12)
        )
        return [d.stats.utilization(span) for d in self.disks]

    def mean_utilization(self, elapsed: Optional[float] = None) -> float:
        utils = self.utilizations(elapsed)
        return sum(utils) / len(utils)

    def totals(self, elapsed: Optional[float] = None) -> ClusterTotals:
        return ClusterTotals(
            reads=sum(d.stats.reads for d in self.disks),
            writes=sum(d.stats.writes for d in self.disks),
            read_bytes=sum(d.stats.read_bytes for d in self.disks),
            written_bytes=sum(d.stats.written_bytes for d in self.disks),
            mean_utilization=self.mean_utilization(elapsed),
        )

    def write_size_histogram(self) -> Dict[int, int]:
        """Pool-wide bytes-written-per-I/O-size histogram (Figure 14)."""
        merged: Dict[int, int] = {}
        for disk in self.disks:
            for bucket, nbytes in disk.stats.write_size_bytes.items():
                merged[bucket] = merged.get(bucket, 0) + nbytes
        return merged

    def __len__(self) -> int:
        return len(self.disks)
