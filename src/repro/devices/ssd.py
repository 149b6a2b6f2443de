"""SSD service-time model.

Calibrated to the client cache device in the paper's Table 1 (Intel DC
P3700 class): 2.8 / 1.9 GB/s sequential read/write and 460K / 90K random
read/write IOPS.  The LSVD write cache turns random client writes into
sequential device writes, which is where its small-write advantage over
bcache comes from (§4.2.1) — so the model must distinguish sequential from
random access.

An access is *sequential* when it starts where the previous access of the
same kind ended.  Service time is::

    max(nbytes / seq_bandwidth, 1 / iops_limit)   # random access
    nbytes / seq_bandwidth + tiny setup           # sequential access

Flush (commit barrier) costs a fixed cache-program time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import FLUSH, LOGWRITE, READ, WRITE, QueuedDevice
from repro.sim.engine import Simulator
from repro.sim.resources import Resource, TokenBucket


@dataclass(frozen=True)
class SSDSpec:
    """Performance envelope of an SSD.

    Reads and writes run on independent internal paths (so a read stream
    does not serialise behind a write stream), but both consume the shared
    controller bandwidth ``total_bw`` — which is how a destage-read stream
    steals throughput from client writes on a mixed workload (the effect
    behind LSVD's large-write deficit in Figures 6 and 8).
    """

    seq_read_bw: float = 2.8e9  # bytes/sec
    seq_write_bw: float = 1.9e9
    rand_read_iops: float = 460_000.0
    rand_write_iops: float = 90_000.0
    total_bw: float = 2.9e9  # controller/DRAM ceiling for mixed R/W
    setup_time: float = 2e-6  # per-op command overhead
    flush_time: float = 50e-6  # commit barrier (cache program)
    pipeline_latency: float = 60e-6  # completion latency not limiting rate
    #: extra completion latency for random (non-sequential) writes — FTL
    #: mapping work; affects latency-bound (low queue depth) workloads but
    #: not the sustained rate
    rand_write_latency: float = 25e-6
    channels: int = 1

    @classmethod
    def nvme_p3700(cls) -> "SSDSpec":
        """The paper's client cache device (Table 1)."""
        return cls()

    @classmethod
    def sata_consumer(cls) -> "SSDSpec":
        """The paper's backend SATA SSDs: ~10K sustained random write
        IOPS, and — critically for Ceph journals — no power-loss
        protection, so a FLUSH (cache program) costs ~1.5 ms."""
        return cls(
            seq_read_bw=500e6,
            seq_write_bw=450e6,
            rand_read_iops=90_000.0,
            rand_write_iops=10_000.0,
            total_bw=520e6,
            setup_time=10e-6,
            flush_time=1.5e-3,
            pipeline_latency=80e-6,
        )

    @classmethod
    def ec2_m5d_nvme(cls) -> "SSDSpec":
        """The AWS m5d.xlarge instance NVMe (§4.9): 230/128 MB/s measured."""
        return cls(
            seq_read_bw=230e6,
            seq_write_bw=128e6,
            rand_read_iops=60_000.0,
            rand_write_iops=30_000.0,
        )


class SSD(QueuedDevice):
    """A queued SSD: per-direction channels + shared controller bandwidth."""

    def __init__(self, sim: Simulator, spec: SSDSpec = None, name: str = "ssd"):
        spec = spec or SSDSpec()
        super().__init__(
            sim,
            name,
            channels=spec.channels,
            pipeline_latency=spec.pipeline_latency,
        )
        self.spec = spec
        self._next_seq_offset = {READ: None, WRITE: None}
        # independent read/write paths; FLUSH shares the write path
        self._paths = {
            READ: Resource(sim, capacity=spec.channels),
            WRITE: Resource(sim, capacity=spec.channels),
        }
        self.controller = TokenBucket(sim, spec.total_bw)

    def _path_for(self, kind: str) -> Resource:
        return self._paths[READ if kind == READ else WRITE]

    def _latency(self, kind: str, offset: int) -> float:
        if kind == WRITE and self._next_seq_offset[WRITE] != offset:
            return self.pipeline_latency + self.spec.rand_write_latency
        return self.pipeline_latency

    def service_time(self, kind: str, offset: int, nbytes: int) -> float:
        if kind == FLUSH:
            return self.spec.flush_time
        if kind == LOGWRITE:
            # journal append: always effectively sequential
            return nbytes / self.spec.seq_write_bw + self.spec.setup_time
        if kind == READ:
            bw, iops = self.spec.seq_read_bw, self.spec.rand_read_iops
        else:
            bw, iops = self.spec.seq_write_bw, self.spec.rand_write_iops
        sequential = self._next_seq_offset[kind] == offset
        self._next_seq_offset[kind] = offset + nbytes
        transfer = nbytes / bw + self.spec.setup_time
        if sequential:
            return transfer
        return max(transfer, 1.0 / iops)
