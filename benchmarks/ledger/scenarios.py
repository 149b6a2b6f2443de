"""The four ledger workloads (why each exists: README.md, ``catalog.WORKLOADS``).

Three drive the pure stack (``LSVDVolume`` over ``InMemoryObjectStore`` and
a ``DiskImage``) with a closed loop of one synchronous client; one drives
the timed stack (``FleetRuntime`` under the DES) with four tenants at
queue depth 8.  Every op stream comes from ``repro.workloads.FioJob``
seeded from ``--seed``; the program runs with its own defaults
(``Registry()`` spans on, ``LSVDConfig``/``LSVDParams`` defaults) except
where a size is stated here.

Sizes are chosen so one segment costs about a tenth of a second on the
commit that introduced the ledger (``run.SEGMENTS_PER_SECOND``); the
``QUICK`` variants shrink everything for the self-test.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from harness import Meter, Scenario, Segment

from repro.cluster import StorageCluster
from repro.core import LSVDConfig, LSVDVolume
from repro.crash import HistoryRecorder, PrefixChecker, stamp_data
from repro.devices.image import DiskImage
from repro.devices.ssd import SSD, SSDSpec
from repro.fleet import FleetRuntime, QoSLimits
from repro.objstore import InMemoryObjectStore
from repro.obs import Registry
from repro.runtime import ClientMachine, make_sharded_backend
from repro.sim import Simulator
from repro.workloads import FioJob
from repro.workloads.base import FLUSH, READ, WRITE

KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30
BLOCK = 4096
PREFILL_IO = 64 * KiB

#: registry counters the pure workloads read (all cumulative)
_VOLUME_COUNTERS = (
    "rc.hits", "rc.misses", "rc.inserted_bytes", "rc.evicted_bytes",
    "wc.device_flushes", "wc.barriers_coalesced",
    "store.client_bytes", "store.merged_bytes", "store.gc_bytes",
    "store.objects_put", "store.forced_seals",
    "volume.checkpoints", "gc.rounds", "gc.bytes_relocated",
    "gc.bytes_read_backend",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# pure stack
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VolumeSpec:
    """One pure-stack workload; sizes in bytes, counts in client ops."""

    volume: int
    cache: int
    span: int  # bytes of the volume the timed job addresses
    rw: str
    distribution: str
    rwmixread: float = 0.0
    fsync_every: int = 0  # flush() every N writes
    flush_every_reads: int = 0  # flush() every N reads (README: behaviours)
    aging_ops: int = 0  # zipfian overwrites applied in set-up
    warmup_ops: int = 0
    segment_ops: int = 0
    crash_tail: int = 0  # writes issued before the final crash; 0 = no check
    sweep: bool = False  # read the whole span back against the oracle


VOLUME_SPECS: Dict[str, VolumeSpec] = {
    "vol-write-churn": VolumeSpec(
        volume=64 * MiB, cache=32 * MiB, span=64 * MiB, rw="randwrite",
        distribution="zipfian", fsync_every=32, warmup_ops=12_000,
        segment_ops=600, crash_tail=64,
    ),
    "vol-read-miss": VolumeSpec(
        volume=64 * MiB, cache=16 * MiB, span=64 * MiB, rw="randread",
        distribution="uniform", flush_every_reads=256, aging_ops=20_000,
        warmup_ops=600, segment_ops=44,
    ),
    "vol-mixed-hot": VolumeSpec(
        volume=16 * MiB, cache=16 * MiB, span=8 * MiB, rw="randrw",
        distribution="zipfian", rwmixread=0.7, fsync_every=32,
        warmup_ops=30_000, segment_ops=500, sweep=True,
    ),
}

QUICK_VOLUME_SPECS: Dict[str, VolumeSpec] = {
    "vol-write-churn": VolumeSpec(
        volume=8 * MiB, cache=4 * MiB, span=8 * MiB, rw="randwrite",
        distribution="zipfian", fsync_every=32, warmup_ops=1_500,
        segment_ops=80, crash_tail=64,
    ),
    "vol-read-miss": VolumeSpec(
        volume=8 * MiB, cache=2 * MiB, span=8 * MiB, rw="randread",
        distribution="uniform", flush_every_reads=256, aging_ops=1_500,
        warmup_ops=100, segment_ops=20,
    ),
    "vol-mixed-hot": VolumeSpec(
        volume=8 * MiB, cache=8 * MiB, span=4 * MiB, rw="randrw",
        distribution="zipfian", rwmixread=0.7, fsync_every=32,
        warmup_ops=2_000, segment_ops=120, sweep=True,
    ),
}

Op = Tuple[str, int, object]  # (kind, offset, payload | expected write id | None)


class VolumeScenario(Scenario):
    """Closed loop of one synchronous client against an ``LSVDVolume``."""

    client_kinds = ("read", "write")

    def __init__(self, name: str, seed: int, quick: bool = False):
        super().__init__(name, seed, quick)
        self.spec = (QUICK_VOLUME_SPECS if quick else VOLUME_SPECS)[name]

    # -- world ---------------------------------------------------------------
    def setup(self) -> None:
        spec = self.spec
        self.config = LSVDConfig(batch_size=1 * MiB)
        self.store = InMemoryObjectStore()
        self.image = DiskImage(spec.cache, name="cache")
        self.vol = LSVDVolume.create(
            self.store, "ledger", spec.volume, self.image, self.config
        )
        #: block -> id of the last write covering it (the dict-of-blocks oracle)
        self.oracle: Dict[int, int] = {}
        self._queued: List[Op] = []
        #: (offset, length) of write 1, 2, ... — flat ints, not one object
        #: per write: 70k record objects doubled what the interpreter's
        #: cyclic collector walks, and its pauses are ops' latencies
        self._history = array("q")
        self._committed = 0  # last write id covered by a barrier
        self.reads = self.writes = 0
        self._reads_since_flush = 0
        for chunk in range(0, spec.volume, MiB):
            for offset in range(chunk, chunk + MiB, PREFILL_IO):
                self._queue_write(offset, PREFILL_IO)
            self._queue_flush()
            self._run_untimed(self._take_queued())
        if spec.aging_ops:
            aging = FioJob(
                rw="randwrite", bs=BLOCK, size=spec.volume, seed=2 * self.seed + 1,
                fsync_every=32, distribution="zipfian",
            ).ops()
            self._run_chunked(aging, spec.aging_ops)
        self.vol.drain()
        self.vol.flush()
        self._committed = len(self._history) // 2
        self._stream = FioJob(
            rw=spec.rw, bs=BLOCK, size=spec.span, seed=2 * self.seed,
            rwmixread=spec.rwmixread, fsync_every=spec.fsync_every,
            distribution=spec.distribution,
        ).ops()

    def warmup(self) -> None:
        self._run_chunked(self._stream, self.spec.warmup_ops)

    # -- op generation (never timed) -----------------------------------------
    def _queue_write(self, offset: int, length: int) -> None:
        self._history.extend((offset, length))
        write_id = len(self._history) // 2
        self._queued.append((WRITE, offset, stamp_data(write_id, length)))
        for block in range(offset // BLOCK, (offset + length) // BLOCK):
            self.oracle[block] = write_id

    def _queue_flush(self) -> None:
        """A barrier after everything queued so far (ops run in order)."""
        self._committed = len(self._history) // 2
        self._queued.append((FLUSH, 0, None))

    def _take_queued(self) -> List[Op]:
        ops, self._queued = self._queued, []
        return ops

    def _generate(self, stream, client_ops: int) -> List[Op]:
        """The next ``client_ops`` reads/writes of ``stream`` plus the
        barriers that fall between them, payloads and expectations built."""
        spec = self.spec
        remaining = client_ops
        while remaining:
            op = next(stream)
            if op.kind == WRITE:
                self._queue_write(op.offset, op.length)
                remaining -= 1
            elif op.kind == READ:
                expected = self.oracle.get(op.offset // BLOCK, 0)
                self._queued.append((READ, op.offset, expected))
                remaining -= 1
                self._reads_since_flush += 1
                if self._reads_since_flush == spec.flush_every_reads:
                    self._reads_since_flush = 0
                    self._queue_flush()
            else:
                self._queue_flush()
        return self._take_queued()

    # -- execution ------------------------------------------------------------
    def _execute(self, ops: List[Op]):
        """The timed loop: nothing but the program's calls and two reads of
        the CPU clock around each (a wall clock put every hypervisor
        preemption into some op's latency); results are checked after."""
        read, write, flush = self.vol.read, self.vol.write, self.vol.flush
        clock = time.process_time
        got: List[Optional[bytes]] = []
        read_lat: List[float] = []
        write_lat: List[float] = []
        errors: List[BaseException] = []
        for kind, offset, arg in ops:
            try:
                if kind == WRITE:
                    began = clock()
                    write(offset, arg)
                    write_lat.append(clock() - began)
                elif kind == READ:
                    began = clock()
                    data = read(offset, BLOCK)
                    read_lat.append(clock() - began)
                    got.append(data)
                else:
                    flush()
            except Exception as exc:  # an op that raises is a failed op
                errors.append(exc)
                if kind == READ:
                    got.append(None)
        return got, read_lat, write_lat, errors

    def _check(self, ops: List[Op], got: List[Optional[bytes]], errors) -> int:
        """Count client ops, compare every read with the oracle."""
        failed = len(errors)
        if errors and self.first_failure is None:
            self.first_failure = repr(errors[0])
        index = client = 0
        for kind, offset, arg in ops:
            if kind == FLUSH:
                continue
            client += 1
            if kind == WRITE:
                continue
            data = got[index]
            index += 1
            if data is None:
                continue  # already counted as raised
            expected = stamp_data(arg, BLOCK) if arg else bytes(BLOCK)
            if data != expected:
                failed += 1
                if self.first_failure is None:
                    self.first_failure = f"read at {offset}: not write {arg}"
        self.attempted += client
        self.failed += failed
        self.reads += index
        self.writes += client - index
        return client

    def _run_untimed(self, ops: List[Op]) -> None:
        got, _r, _w, errors = self._execute(ops)
        self._check(ops, got, errors)

    def _run_chunked(self, stream, client_ops: int, chunk: int = 1024) -> None:
        """Untimed ops in chunks, so the payloads of a long phase never sit
        in memory together (peak_rss_mb should be the program's memory)."""
        for done in range(0, client_ops, chunk):
            self._run_untimed(self._generate(stream, min(chunk, client_ops - done)))

    def segment(self, meter: Meter, profiler=None) -> Segment:
        ops = self._generate(self._stream, self.spec.segment_ops)
        (got, read_lat, write_lat, errors), ref_s, factor = meter.timed(
            self._execute, ops, profiler=profiler
        )
        client = self._check(ops, got, errors)
        self.space_amp.append(
            _ratio(self.store.total_bytes(), self.vol.occupancy()[0])
        )
        return Segment(
            client,
            ref_s,
            {
                "read": [s * factor for s in read_lat],
                "write": [s * factor for s in write_lat],
            },
        )

    # -- accounting -----------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        snap = self.vol.obs.snapshot()
        stats = self.store.stats
        out = {name: float(snap.get(name, 0)) for name in _VOLUME_COUNTERS}
        out.update(
            space_samples=len(self.space_amp),
            reads=self.reads,
            writes=self.writes,
            bytes_put=stats.bytes_put,
            bytes_got=stats.bytes_got,
            gets=stats.gets + stats.range_gets,
            stored_bytes=self.store.total_bytes(),
            extents=len(self.vol.bs.omap.map),
            image_bytes_written=self.image.bytes_written,
        )
        return out

    def exact(self, start: Dict[str, float], end: Dict[str, float]) -> Dict[str, float]:
        d = {key: end[key] - start[key] for key in end}
        read_bytes = d["reads"] * BLOCK
        written_bytes = d["writes"] * BLOCK
        # objects deleted in the window = what was PUT minus what stayed
        deleted = d["bytes_put"] - d["stored_bytes"]
        self._window_gc_rounds = d["gc.rounds"]
        return {
            "backend_amp": _ratio(
                d["bytes_put"] + d["bytes_got"], read_bytes + written_bytes
            ),
            "space_amp": self.window_space_amp(start, end),
            "write_amp": _ratio(d["bytes_put"], written_bytes),
            "read_amp": _ratio(d["bytes_got"] - d["gc.bytes_read_backend"], read_bytes),
            "core.read_cache.hit_rate": _ratio(
                d["rc.hits"], d["rc.hits"] + d["rc.misses"]
            ),
            "core.read_cache.inserted_bytes": d["rc.inserted_bytes"],
            "core.read_cache.evicted_bytes": d["rc.evicted_bytes"],
            "core.write_cache.device_flushes": d["wc.device_flushes"],
            "core.write_cache.barriers_coalesced": d["wc.barriers_coalesced"],
            "core.block_store.objects_put": d["store.objects_put"],
            "core.block_store.merge_ratio": _ratio(
                d["store.merged_bytes"], d["store.client_bytes"]
            ),
            "core.block_store.forced_seals": d["store.forced_seals"],
            "core.block_store.checkpoints": d["volume.checkpoints"],
            "core.extent_map.extents": end["extents"],
            "core.gc.rounds": d["gc.rounds"],
            "core.gc.bytes_relocated": d["gc.bytes_relocated"],
            "core.gc.reclaim_per_reloc": _ratio(
                deleted - d["store.gc_bytes"], d["gc.bytes_relocated"]
            ),
            "objstore.bytes_put": d["bytes_put"],
            "objstore.bytes_got": d["bytes_got"],
            "objstore.gets": d["gets"],
            "devices.image.bytes_written": d["image_bytes_written"],
        }

    # -- post-run checks ------------------------------------------------------
    def finish(self) -> Dict[str, object]:
        spec = self.spec
        problems: List[str] = []
        if spec.rw != "randread" and not self.quick and self._window_gc_rounds < 3:
            problems.append(
                f"only {self._window_gc_rounds:.0f} GC rounds in the exact window"
            )
        if spec.sweep:
            sweep: List[Op] = [
                (READ, block * BLOCK, self.oracle.get(block, 0))
                for block in range(spec.span // BLOCK)
            ]
            self._run_untimed(sweep)
        durability_errors = 0
        if spec.crash_tail:
            durability_errors = self._crash_check(problems)
        return {
            "durability_errors": durability_errors,
            "gc_rounds": self._window_gc_rounds,
            "problems": problems,
        }

    def _crash_check(self, problems: List[str]) -> int:
        """Crash with un-flushed writes in the cache; remount both ways.

        ``cache_lost`` first, on a copy of the crashed image, because the
        with-cache mount replays the log into the shared backend.  The
        recovered content is assembled from the remounted volume's own
        maps (what ``read`` does, minus the read cache: a full scan through
        ``read`` inserts every prefetched neighbour and took ~0.2 s per
        MiB); the blocks of the crash tail — the ones whose fate the crash
        decided — are also read through ``read`` and must agree with it.
        """
        spec = self.spec
        self.vol.drain()
        self.vol.flush()
        self._committed = len(self._history) // 2
        rng = random.Random(self.seed)
        tail = [rng.randrange(spec.span // BLOCK) for _ in range(spec.crash_tail)]
        for index, block in enumerate(tail):
            self._queue_write(block * BLOCK, BLOCK)
            if index == spec.crash_tail // 2:
                self._queue_flush()
        self._run_untimed(self._take_queued())
        self.image.crash(rng=rng)
        lost_copy = DiskImage(spec.cache, name="cache-copy")
        lost_copy.write(0, self.image.read(0, spec.cache))
        lost_copy.flush()
        recorder = HistoryRecorder(lambda offset, data: None)
        for at in range(0, len(self._history), 2):
            recorder.write(self._history[at], self._history[at + 1])
        recorder.barrier_after = self._committed
        checker = PrefixChecker(recorder)
        errors = 0
        for image, cache_lost in ((lost_copy, True), (self.image, False)):
            vol = LSVDVolume.open(
                self.store, "ledger", image, self.config, cache_lost=cache_lost
            )
            content = _recovered_content(vol)
            verdict = checker.check(
                lambda offset, length, content=content: content[offset : offset + length],
                require_committed=not cache_lost,
            )
            found = list(verdict.problems)
            for block in tail:
                offset = block * BLOCK
                if vol.read(offset, BLOCK) != content[offset : offset + BLOCK]:
                    found.append(f"block {block}: read() disagrees with the maps")
            errors += len(found)
            problems.extend(found[:3])
        return errors


def _recovered_content(vol: LSVDVolume) -> bytes:
    """Every byte a client of ``vol`` would read, without its read cache."""
    out = bytearray(vol.size)
    for piece in vol.bs.lookup(0, vol.size):
        out[piece.lba : piece.lba + piece.length] = vol.bs.fetch_direct(
            piece.target, piece.offset, piece.length
        )
    for lba, length, data in vol.wc.read(0, vol.size):
        out[lba : lba + length] = data
    return bytes(out)


# ---------------------------------------------------------------------------
# timed stack
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FleetSpec:
    volume: int
    slice_s: float  # simulated seconds per segment
    warmup_s: float


FLEET_SPEC = FleetSpec(volume=8 * MiB, slice_s=0.006, warmup_s=0.1)
QUICK_FLEET_SPEC = FleetSpec(volume=2 * MiB, slice_s=0.001, warmup_s=0.01)

#: (rw mode, QoS cap) per tenant; the capped one is left out of the client
#: latency metrics because its latency is the throttle's, by design
_TENANTS: Tuple[Tuple[str, Optional[QoSLimits]], ...] = (
    ("randwrite", None),
    ("randwrite", None),
    ("randrw", None),
    ("randwrite", QoSLimits(iops=2000)),
)
_IODEPTH = 8

_RUNTIME_COUNTERS = (
    "lsvd.client_writes", "lsvd.client_reads", "lsvd.client_bytes_written",
    "lsvd.client_bytes_read", "lsvd.objects_put", "lsvd.gc_objects_put",
    "lsvd.backend_bytes_put", "barrier.requests", "barrier.flushes",
    "destage.space_stalls",
)


def _ssd_cluster(sim: Simulator) -> StorageCluster:
    """Table 1 config 1: 4 nodes x 8 consumer SATA SSDs."""
    return StorageCluster(
        sim, 4, 8, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
    )


class FleetScenario(Scenario):
    """Four tenants, one vdisk each, on one client machine and a 4-shard
    backend; the ledger's own closed-loop driver (modelled on
    ``runtime.blockdev.run_jobs``) keeps raw per-op ``sim.now`` deltas
    because ``FioResult.latency`` is a bucketed histogram."""

    client_kinds = ("sim",)
    virtual_client = True

    def __init__(self, name: str, seed: int, quick: bool = False):
        super().__init__(name, seed, quick)
        self.spec = QUICK_FLEET_SPEC if quick else FLEET_SPEC

    def setup(self) -> None:
        spec = self.spec
        self.sim = sim = Simulator()
        self.machine = ClientMachine(sim)
        self.backend = make_sharded_backend(sim, self.machine.network, _ssd_cluster, 4)
        self.fleet = FleetRuntime(
            sim, self.machine, self.backend, obs=Registry(),
            config=LSVDConfig(batch_size=4 * MiB),
        )
        self.completed = [0] * len(_TENANTS)
        self.samples: List[List[float]] = [[] for _ in _TENANTS]
        self._slices = 0
        for index, (rw, limits) in enumerate(_TENANTS):
            device = self.fleet.add_vdisk(
                f"vd{index}", tenant=f"t{index}", volume_size=spec.volume,
                cache_size=1 * GiB, limits=limits, read_hit_rate=0.9,
            )
            stream = FioJob(
                rw=rw, bs=BLOCK, iodepth=_IODEPTH, size=spec.volume,
                seed=len(_TENANTS) * self.seed + index, rwmixread=0.7,
                fsync_every=4, distribution="zipfian",
            ).ops()
            for _ in range(_IODEPTH):
                sim.process(self._client(index, device, stream), name=f"client-{index}")

    def _client(self, index: int, device, stream):
        sim = self.sim
        samples = self.samples[index]
        while True:
            op = next(stream)
            issued = sim.now
            try:
                yield device.submit(op)
            except Exception as exc:  # the op's completion event failed
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = repr(exc)
                continue
            if op.kind != FLUSH:
                self.completed[index] += 1
                samples.append(sim.now - issued)

    def warmup(self) -> None:
        self.sim.run(self.spec.warmup_s)

    def segment(self, meter: Meter, profiler=None) -> Segment:
        self._slices += 1
        until = self.spec.warmup_s + self._slices * self.spec.slice_s
        marks = [len(s) for s in self.samples]
        done = sum(self.completed)
        _, ref_s, _factor = meter.timed(self.sim.run, until, profiler=profiler)
        ops = sum(self.completed) - done
        self.attempted += ops
        live = stored = 0
        for device in self.fleet.vdisks():
            vd_live, vd_stored = device.occupancy()
            live += vd_live
            stored += vd_stored
        self.space_amp.append(_ratio(stored, live))
        latencies: List[float] = []
        for (_rw, limits), samples, mark in zip(_TENANTS, self.samples, marks):
            if limits is None:
                latencies.extend(samples[mark:])
        return Segment(ops, ref_s, {"sim": latencies})

    # -- accounting -----------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {name: 0.0 for name in _RUNTIME_COUNTERS}
        group_sum = group_count = 0.0
        for device in self.fleet.vdisks():
            snap = device.obs.snapshot()
            for name in _RUNTIME_COUNTERS:
                out[name] += snap.get(name, 0)
            groups = snap.get("barrier.group_size", {})
            group_sum += groups.get("sum", 0.0)
            group_count += groups.get("count", 0)
        backend = self.backend.obs.snapshot()
        fleet = self.fleet.obs.snapshot()
        throttled = delay = 0.0
        for tenant in self.fleet.tenants():
            throttled += fleet.get(f"fleet.{tenant}.throttled", 0)
            delay += fleet.get(f"fleet.{tenant}.throttle_delay_s", {}).get("sum", 0.0)
        out.update(
            now=self.sim.now,
            completed=sum(self.completed),
            space_samples=len(self.space_amp),
            group_sum=group_sum,
            group_count=group_count,
            bytes_put=backend.get("backend.bytes_put", 0),
            bytes_got=backend.get("backend.bytes_got", 0),
            gets=backend.get("backend.gets", 0),
            put_imbalance=backend.get("shard.put_imbalance", 0.0),
            throttled=throttled,
            throttle_delay_s=delay,
            ssd_busy=self.machine.ssd.stats.busy_time,
        )
        return out

    def exact(self, start: Dict[str, float], end: Dict[str, float]) -> Dict[str, float]:
        d = {key: end[key] - start[key] for key in end}
        client_bytes = d["lsvd.client_bytes_written"] + d["lsvd.client_bytes_read"]
        out = {
            "backend_amp": _ratio(d["bytes_put"] + d["bytes_got"], client_bytes),
            "space_amp": self.window_space_amp(start, end),
            "write_amp": _ratio(d["lsvd.backend_bytes_put"], d["lsvd.client_bytes_written"]),
            "read_amp": _ratio(d["bytes_got"], d["lsvd.client_bytes_read"]),
            "objstore.bytes_put": d["bytes_put"],
            "objstore.bytes_got": d["bytes_got"],
            "objstore.gets": d["gets"],
            "runtime.sim_iops": _ratio(d["completed"], d["now"]),
            "runtime.flushes_per_barrier": _ratio(
                d["barrier.flushes"], d["barrier.requests"]
            ),
            "runtime.barrier_group_size_mean": _ratio(d["group_sum"], d["group_count"]),
            "runtime.objects_put": d["lsvd.objects_put"],
            "runtime.gc_objects_put": d["lsvd.gc_objects_put"],
            "runtime.destage_space_stalls": d["destage.space_stalls"],
            "devices.cache_ssd.util": _ratio(d["ssd_busy"], d["now"]),
            "cluster.mean_util": sum(
                b.cluster.mean_utilization() for b in self.backend.backends
            ) / len(self.backend.backends),
            "shard.put_imbalance": end["put_imbalance"],
            "fleet.throttled": d["throttled"],
            "fleet.throttle_delay_s": d["throttle_delay_s"],
        }
        out.update(self._stage_times())
        return out

    def _stage_times(self) -> Dict[str, float]:
        """Virtual seconds per client op by stage, from the program's own
        span analyzer (its retained window: newest 16384 trees per vdisk)."""
        totals: Dict[str, float] = {}
        client_ops = 0
        for device in self.fleet.vdisks():
            for record in device.obs.spans.analyzer.records():
                client_ops += record.name in (WRITE, READ)
                for stage, seconds in record.breakdown.items():
                    totals[stage] = totals.get(stage, 0.0) + seconds
        return {
            f"runtime.stage.{stage}.virt_us_per_op": _ratio(seconds, client_ops) * 1e6
            for stage, seconds in totals.items()
        }

    def finish(self) -> Dict[str, object]:
        problems: List[str] = []
        # accounting identity: every completion the driver saw is one the
        # runtime counted, per vdisk (run(until) leaves no triggered event
        # unprocessed, so the two agree exactly at a slice boundary)
        for index, device in enumerate(self.fleet.vdisks()):
            counted = device.client_writes + device.client_reads
            if counted != self.completed[index]:
                problems.append(
                    f"vd{index}: runtime counted {counted} ops, "
                    f"driver saw {self.completed[index]}"
                )
                self.failed += abs(counted - self.completed[index])
            if not self.quick and device.gc_objects_put < 3:
                problems.append(f"vd{index}: only {device.gc_objects_put} GC objects")
        return {
            "durability_errors": 0,
            "gc_objects": [d.gc_objects_put for d in self.fleet.vdisks()],
            "problems": problems,
        }


def make(name: str, seed: int, quick: bool = False) -> Scenario:
    if name in VOLUME_SPECS:
        return VolumeScenario(name, seed, quick)
    if name == "fleet-fsync":
        return FleetScenario(name, seed, quick)
    raise ValueError(f"unknown workload {name!r}")
