"""Tests for the timed runtimes: LSVD, RBD, and bcache-over-RBD stacks.

These verify mechanics and the paper's qualitative relationships at small
scale; the full parameter grids live in benchmarks/.
"""

import pytest

from repro.cluster import StorageCluster
from repro.core import LSVDConfig
from repro.devices.hdd import HDD, HDDSpec
from repro.devices.ssd import SSD, SSDSpec
from repro.runtime import (
    BcacheRBDRuntime,
    ClientMachine,
    LSVDRuntime,
    RBDRuntime,
    SimulatedObjectStore,
    run_fio,
    run_jobs,
)
from repro.sim import Simulator
from repro.workloads import FioJob
from repro.workloads.base import FLUSH, IOOp

GiB = 1 << 30
MiB = 1 << 20


def ssd_cluster(sim, servers=4, per=8):
    return StorageCluster(
        sim, servers, per, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
    )


def hdd_cluster(sim, servers=9, per=7):
    return StorageCluster(
        sim, servers, per, lambda s, n: HDD(s, HDDSpec.sas_10k(), name=n)
    )


def lsvd_world(cache=4 * GiB, volume=1 * GiB, cluster_fn=ssd_cluster, **kw):
    sim = Simulator()
    machine = ClientMachine(sim)
    cluster = cluster_fn(sim)
    backend = SimulatedObjectStore(sim, cluster, machine.network)
    dev = LSVDRuntime(
        sim, machine, backend, volume, cache, LSVDConfig(), name="vd", **kw
    )
    return sim, machine, cluster, backend, dev


def bcache_world(cache=4 * GiB, volume=1 * GiB, cluster_fn=ssd_cluster, **kw):
    sim = Simulator()
    machine = ClientMachine(sim)
    cluster = cluster_fn(sim)
    rbd = RBDRuntime(sim, machine, cluster)
    dev = BcacheRBDRuntime(sim, machine, rbd, cache_size=cache, **kw)
    return sim, machine, cluster, rbd, dev


# -- basic mechanics -----------------------------------------------------------


def test_lsvd_write_completes_and_counts():
    sim, m, cluster, backend, dev = lsvd_world()
    result = run_fio(sim, dev, FioJob(rw="randwrite", bs=4096, iodepth=8, size=1 * GiB), 0.5)
    assert result.ops > 1000
    assert dev.client_writes >= result.ops


def test_lsvd_destages_batches_to_backend():
    sim, m, cluster, backend, dev = lsvd_world()
    run_fio(sim, dev, FioJob(rw="randwrite", bs=16384, iodepth=16, size=1 * GiB), 0.2)
    sim.run(until=sim.now + 1.0)  # let destage drain
    assert backend.puts > 0
    assert backend.bytes_put > 0
    # objects are batch-sized, not write-sized
    assert backend.bytes_put / backend.puts > 1 * MiB


def test_lsvd_backpressure_when_cache_small():
    """A tiny write cache throttles the client to backend speed."""
    sim_s, *_rest, dev_s = lsvd_world(cache=64 * MiB)
    small = run_fio(sim_s, dev_s, FioJob(rw="randwrite", bs=65536, iodepth=32, size=1 * GiB), 0.3)
    sim_l, *_rest, dev_l = lsvd_world(cache=8 * GiB)
    large = run_fio(sim_l, dev_l, FioJob(rw="randwrite", bs=65536, iodepth=32, size=1 * GiB), 0.3)
    assert small.mbps < large.mbps


def test_lsvd_read_hits_stay_local():
    sim, m, cluster, backend, dev = lsvd_world(read_hit_rate=1.0)
    run_fio(sim, dev, FioJob(rw="randread", bs=4096, iodepth=8, size=1 * GiB), 0.5)
    assert backend.gets == 0


def test_lsvd_read_misses_go_to_backend():
    sim, m, cluster, backend, dev = lsvd_world(read_hit_rate=0.0)
    result = run_fio(sim, dev, FioJob(rw="randread", bs=4096, iodepth=8, size=1 * GiB), 0.5)
    assert backend.gets == pytest.approx(result.ops, rel=0.1)


def test_lsvd_miss_latency_dominated_by_s3():
    """Table 6: the S3 range GET (~5.9 ms) dominates a read miss."""
    sim, m, cluster, backend, dev = lsvd_world(read_hit_rate=0.0)
    result = run_fio(sim, dev, FioJob(rw="randread", bs=4096, iodepth=1, size=1 * GiB), 1.0)
    assert result.mean_latency > 5e-3


@pytest.mark.xfail(
    strict=True,
    reason="on_gc_delete/on_gc_read key off the newest object, not the GC "
    "victims; fixing it moves virtual-clock figures (ROADMAP item 9)",
)
def test_gc_deletes_leave_exactly_the_live_objects_durable():
    """After GC, the backend's durable keys must be the page map's live
    objects: what a recovery LIST would find."""
    sim = Simulator()
    m = ClientMachine(sim)
    cluster = StorageCluster(sim, 2, 4, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n))
    backend = SimulatedObjectStore(sim, cluster, m.network)
    dev = LSVDRuntime(sim, m, backend, 16 * MiB, 1 * GiB, LSVDConfig(batch_size=1 * MiB), name="vd")
    run_fio(sim, dev, FioJob(rw="randwrite", bs=4096, iodepth=8, size=16 * MiB), 0.1)
    sim.run()  # settle every queued PUT and DELETE
    assert dev.pagemap.objects_deleted > 0
    live = {f"vd.{obj + 1:08d}" for obj in dev.pagemap.obj_size}
    assert set(backend._keys) == live


def test_lsvd_barrier_is_one_flush():
    sim, m, cluster, backend, dev = lsvd_world()
    done = dev.submit(IOOp(FLUSH))
    sim.run_until_event(done)
    assert m.ssd.stats.flushes == 1


def test_rbd_write_generates_six_backend_ios():
    sim = Simulator()
    m = ClientMachine(sim)
    cluster = ssd_cluster(sim)
    dev = RBDRuntime(sim, m, cluster)
    result = run_fio(sim, dev, FioJob(rw="randwrite", bs=16384, iodepth=4, size=1 * GiB), 0.5)
    totals = cluster.totals()
    assert totals.writes == pytest.approx(6 * result.ops, rel=0.05)


def test_bcache_write_is_cached_not_replicated():
    sim, m, cluster, rbd, dev = bcache_world()
    result = run_fio(sim, dev, FioJob(rw="randwrite", bs=4096, iodepth=8, size=1 * GiB), 0.3)
    assert result.ops > 0
    assert cluster.totals().writes == 0  # write-back paused under load


def test_bcache_writeback_resumes_when_idle():
    sim, m, cluster, rbd, dev = bcache_world()
    run_fio(sim, dev, FioJob(rw="randwrite", bs=4096, iodepth=8, size=64 * MiB), 0.2)
    dirty = dev.dirty_bytes
    assert dirty > 0
    sim.run(until=sim.now + 30.0)  # idle: write-back drains
    assert dev.dirty_bytes < dirty
    assert cluster.totals().writes > 0


def test_bcache_barrier_costs_metadata_writes():
    sim, m, cluster, rbd, dev = bcache_world()
    done = dev.submit(IOOp("write", 0, 4096))
    sim.run_until_event(done)
    writes_before = m.ssd.stats.writes
    flushes_before = m.ssd.stats.flushes
    done = dev.submit(IOOp(FLUSH))
    sim.run_until_event(done)
    assert m.ssd.stats.writes > writes_before  # btree metadata
    assert m.ssd.stats.flushes > flushes_before


# -- the paper's qualitative relationships ----------------------------------


def test_fig6_lsvd_faster_small_random_writes():
    """LSVD 20-30% faster than bcache for small in-cache random writes."""
    for bs in (4096, 16384):
        sim_l, *_r, dev_l = lsvd_world(cache=8 * GiB)
        lsvd = run_fio(sim_l, dev_l, FioJob(rw="randwrite", bs=bs, iodepth=16, size=1 * GiB), 0.15, warmup=0.05)
        sim_b, *_r, dev_b = bcache_world(cache=8 * GiB)
        bc = run_fio(sim_b, dev_b, FioJob(rw="randwrite", bs=bs, iodepth=16, size=1 * GiB), 0.15, warmup=0.05)
        assert lsvd.iops > bc.iops * 1.05, f"bs={bs}"
        assert lsvd.iops < bc.iops * 1.8, f"bs={bs}"


def test_fig6_lsvd_slower_large_writes_high_qd():
    """...but falls behind for 64 KiB writes at depth 32 (destage reads
    share the device)."""
    sim_l, *_r, dev_l = lsvd_world(cache=8 * GiB)
    lsvd = run_fio(sim_l, dev_l, FioJob(rw="randwrite", bs=65536, iodepth=32, size=1 * GiB), 0.2, warmup=0.05)
    sim_b, *_r, dev_b = bcache_world(cache=8 * GiB)
    bc = run_fio(sim_b, dev_b, FioJob(rw="randwrite", bs=65536, iodepth=32, size=1 * GiB), 0.2, warmup=0.05)
    assert lsvd.mbps < bc.mbps


def test_fig7_lsvd_reads_behind_at_high_qd():
    """Random reads: parity at low depth, LSVD up to ~30% behind at 32."""
    sim_l, *_r, dev_l = lsvd_world()
    l_hi = run_fio(sim_l, dev_l, FioJob(rw="randread", bs=4096, iodepth=32, size=1 * GiB), 0.15, warmup=0.03)
    sim_b, *_r, dev_b = bcache_world()
    b_hi = run_fio(sim_b, dev_b, FioJob(rw="randread", bs=4096, iodepth=32, size=1 * GiB), 0.15, warmup=0.03)
    assert 0.6 < l_hi.iops / b_hi.iops < 0.95

    sim_l, *_r, dev_l = lsvd_world()
    l_lo = run_fio(sim_l, dev_l, FioJob(rw="randread", bs=4096, iodepth=4, size=1 * GiB), 0.15, warmup=0.03)
    sim_b, *_r, dev_b = bcache_world()
    b_lo = run_fio(sim_b, dev_b, FioJob(rw="randread", bs=4096, iodepth=4, size=1 * GiB), 0.15, warmup=0.03)
    assert l_lo.iops / b_lo.iops > 0.85


def test_multi_volume_load_shares_client(capsys):
    """Fig 12 mechanics: volumes on one machine share CPU and SSD."""
    sim = Simulator()
    machine = ClientMachine(sim)
    cluster = hdd_cluster(sim)
    backend = SimulatedObjectStore(sim, cluster, machine.network)
    devices = [
        LSVDRuntime(sim, machine, backend, 1 * GiB, 2 * GiB, LSVDConfig(), name=f"vd{i}")
        for i in range(4)
    ]
    jobs = [FioJob(rw="randwrite", bs=16384, iodepth=32, size=1 * GiB, seed=i) for i in range(4)]
    results = run_jobs(sim, list(zip(devices, jobs)), duration=0.2, warmup=0.05)
    total_iops = sum(r.iops for r in results)
    single_sim = Simulator()
    single_machine = ClientMachine(single_sim)
    single_cluster = hdd_cluster(single_sim)
    single_backend = SimulatedObjectStore(single_sim, single_cluster, single_machine.network)
    single_dev = LSVDRuntime(single_sim, single_machine, single_backend, 1 * GiB, 2 * GiB, LSVDConfig(), name="vd")
    single = run_fio(single_sim, single_dev, FioJob(rw="randwrite", bs=16384, iodepth=32, size=1 * GiB), 0.2, warmup=0.05)
    # 4 volumes scale sub-linearly (client saturation), not 4x
    assert total_iops < single.iops * 4
    assert total_iops > single.iops * 0.8


def test_lsvd_backend_iops_far_below_client_iops():
    """Fig 13 mechanics: backend device writes per client write ~0.25-0.5,
    vs RBD's 6."""
    sim, m, cluster, backend, dev = lsvd_world(cluster_fn=hdd_cluster, cache=8 * GiB)
    result = run_fio(sim, dev, FioJob(rw="randwrite", bs=16384, iodepth=32, size=1 * GiB), 0.3)
    sim.run(until=sim.now + 1.0)
    totals = cluster.totals()
    amplification = totals.writes / max(dev.client_writes, 1)
    assert amplification < 1.0  # paper: 0.25
