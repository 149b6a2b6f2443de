"""Head sampling of span trees and the exact latency tail beside it.

Per-op roots build a tree for one arrival in ``spans.SAMPLE_EVERY`` of
each root name; diagnostic roots (``spans.ALWAYS_TRACED``) build one every
time; an unsampled op gets ``NULL_SPAN`` and allocates no ``Span``.  The
fio runners' latency histograms count every op, sampled or not.
"""

import json

from repro.cluster import StorageCluster
from repro.core import LSVDConfig, LSVDVolume
from repro.devices.image import DiskImage
from repro.devices.ssd import SSD, SSDSpec
from repro.fleet import FleetRuntime
from repro.objstore import InMemoryObjectStore
from repro.obs import NULL_SPAN, Registry, SpanRecorder, spans
from repro.runtime import ClientMachine, run_jobs
from repro.runtime.sharded import make_sharded_backend
from repro.sim import Simulator
from repro.workloads import FioJob

KiB = 1 << 10
MiB = 1 << 20
PER_OP = ("write", "read", "writev", "flush", "barrier", "destage")


def test_per_op_roots_trace_one_arrival_in_sample_every_per_name():
    rec = SpanRecorder()
    arrivals = 3 * spans.SAMPLE_EVERY
    for _ in range(arrivals):
        for name in PER_OP:
            rec.root(name).end()
    assert spans.SAMPLE_EVERY > 1
    assert rec.completed == 3 * len(PER_OP)
    assert sorted(r.name for r in rec.analyzer.roots()) == sorted(PER_OP * 3)
    assert rec.arrivals == {name: arrivals for name in PER_OP}
    rec.clear()
    assert rec.arrivals == {} and rec.root("write") is not NULL_SPAN


def test_always_traced_roots_build_a_tree_every_time():
    rec = SpanRecorder()
    for name in sorted(spans.ALWAYS_TRACED) * 5:
        root = rec.root(name)
        assert root is not NULL_SPAN
        root.end()
    assert rec.completed == 5 * len(spans.ALWAYS_TRACED)


def test_an_unsampled_op_allocates_no_span(monkeypatch):
    made = []

    class CountingSpan(spans.Span):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            made.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(spans, "Span", CountingSpan)
    vol = LSVDVolume.create(
        InMemoryObjectStore(), "vd", 4 * MiB, DiskImage(4 * MiB),
        LSVDConfig(batch_size=1 * MiB),
    )
    vol.write(0, b"\1" * 4096)  # first arrivals of each name are traced
    vol.read(0, 4096)
    vol.flush()
    traced = len(made)
    assert traced >= 3
    for i in range(1, spans.SAMPLE_EVERY):
        vol.write(i * 4096, b"\2" * 4096)
        vol.read(0, 4096)
        vol.flush()
    assert len(made) == traced
    assert vol.obs.spans.open_roots == 0


def test_debug_bundle_dumps_an_attr_json_cannot_carry(tmp_path):
    rec = SpanRecorder()
    marker = object()
    rec.root("write", payload=marker).end()
    text = rec.dump_debug_bundle(str(tmp_path / "bundle.json"))
    bundle = json.loads(text)
    assert bundle["trees"][0]["attrs"]["payload"] == repr(marker)
    assert bundle["sample_every"] == spans.SAMPLE_EVERY


# ---------------------------------------------------------------------------
# the timed stack
# ---------------------------------------------------------------------------


def _cluster(sim):
    return StorageCluster(sim, 2, 4, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n))


def _run_fleet():
    """Two vdisks under closed-loop fio jobs (fsync every 4 writes) for a
    short virtual run; returns the fleet and each job's FioResult."""
    sim = Simulator()
    machine = ClientMachine(sim)
    backend = make_sharded_backend(sim, machine.network, _cluster, 2)
    fleet = FleetRuntime(sim, machine, backend, obs=Registry(),
                         config=LSVDConfig(batch_size=128 * KiB))
    jobs = [
        (fleet.add_vdisk(f"vd{vd}", f"t{vd}", volume_size=1 * MiB,
                         cache_size=64 * MiB, read_hit_rate=0.5),
         FioJob(rw=rw, rwmixread=0.3, bs=4096, iodepth=4, size=1 * MiB,
                seed=vd, fsync_every=4, distribution="zipfian",
                elevator_merge_bytes=0))  # one device op per client op
        for vd, rw in enumerate(("randwrite", "randrw"))
    ]
    return fleet, run_jobs(sim, jobs, duration=0.2)


def test_same_seed_fleet_runs_sample_identical_trees():
    trees = []
    for _ in range(2):
        fleet, _results = _run_fleet()
        trees.append([
            [root.to_dict() for root in device.obs.spans.analyzer.roots()]
            for device in fleet.vdisks()
        ])
        writer = fleet.vdisks()[0]
        sampled = len(writer.obs.spans.analyzer.roots("write"))
        assert sampled == -(-writer.client_writes // spans.SAMPLE_EVERY)
    assert trees[0] == trees[1]


def test_the_fio_latency_histogram_counts_every_op():
    """The exact tail lives in the fio runner's per-op histogram
    (``FioResult.latency``), not in the sampled trees."""
    fleet, results = _run_fleet()
    for device, result in zip(fleet.vdisks(), results):
        ops = device.client_writes + device.client_reads
        assert result.ops == ops > spans.SAMPLE_EVERY
        assert result.latency.count == ops + result.flushes  # fsyncs too
        assert len(device.obs.spans.analyzer.roots()) < ops
