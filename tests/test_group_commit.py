"""Pipeline regression tests: group commit, per-shard destage, recovery.

The group-commit contract (LSVD014, §3.2): K concurrent commit barriers
are settled by at most ceil(K / group) device FLUSH events, and every
caller's settlement happens-after the covering FLUSH — asserted here on
the simulator's virtual clock, not wall time.
"""

import math

from repro.cluster import StorageCluster
from repro.core import LSVDConfig
from repro.devices.ssd import SSD, SSDSpec
from repro.runtime import ClientMachine, LSVDRuntime, SimulatedObjectStore
from repro.runtime.sharded import make_sharded_backend
from repro.sim import Simulator
from repro.workloads.base import FLUSH, WRITE, IOOp

GiB = 1 << 30
MiB = 1 << 20


def ssd_cluster(sim, servers=4, per=8):
    return StorageCluster(
        sim, servers, per, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
    )


def lsvd_world(n_shards=0, cache=4 * GiB, volume=1 * GiB):
    sim = Simulator()
    machine = ClientMachine(sim)
    if n_shards:
        backend = make_sharded_backend(
            sim, machine.network, ssd_cluster, n_shards
        )
    else:
        backend = SimulatedObjectStore(sim, ssd_cluster(sim), machine.network)
    dev = LSVDRuntime(
        sim, machine, backend, volume, cache, LSVDConfig(), name="vd"
    )
    return sim, machine, backend, dev


def barrier_groups(dev):
    """[(ts, size)] of every settled barrier group, in order."""
    return [
        (e.ts, dict(e.fields)["size"])
        for e in dev.obs.trace.events("barrier_group")
    ]


# ---------------------------------------------------------------------------
# group commit
# ---------------------------------------------------------------------------


def test_concurrent_flushes_coalesce_into_one_device_flush():
    sim, m, backend, dev = lsvd_world()
    K = 12
    events = [dev.submit(IOOp(FLUSH)) for _ in range(K)]
    sim.run()
    assert all(ev.processed for ev in events)
    # all K barriers were queued before the commit worker woke: one group
    assert m.ssd.stats.flushes == 1
    assert barrier_groups(dev) == [(sim_ts, K) for sim_ts, _k in barrier_groups(dev)]
    assert dev.barrier_requests == K
    assert dev.barrier_flushes == 1
    assert dev.obs.histogram("barrier.group_size").percentile(100) == K


def test_every_settlement_happens_after_its_covering_flush():
    sim, m, backend, dev = lsvd_world()
    K = 9
    submit_times = [0.0, 0.0, 0.0, 1e-5, 1e-5, 2e-5, 3e-5, 3e-5, 3e-5]
    records = []

    def driver():
        for when in submit_times:
            if when > sim.now:
                yield sim.timeout(when - sim.now)
            rec = {"submitted": sim.now, "settled": None}
            records.append(rec)
            ev = dev.submit(IOOp(FLUSH))
            ev.add_callback(lambda _e, rec=rec: rec.__setitem__("settled", sim.now))

    sim.process(driver())
    sim.run()
    groups = barrier_groups(dev)
    # coalescing happened: fewer device FLUSHes than callers, and the
    # satellite bound holds for the observed grouping
    assert m.ssd.stats.flushes == len(groups) < K
    assert sum(size for _ts, size in groups) == K
    min_group = min(size for _ts, size in groups)
    assert m.ssd.stats.flushes <= math.ceil(K / min_group)
    # happens-after on the virtual clock: walking callers in settlement
    # order, each block of group-size settlements lands exactly at (and
    # never before) the timestamp its covering FLUSH completed
    settled = sorted(records, key=lambda r: r["settled"])
    cursor = 0
    for ts, size in groups:
        for rec in settled[cursor : cursor + size]:
            assert rec["settled"] >= ts
            assert rec["submitted"] <= ts
        cursor += size
    assert cursor == K


def test_barrier_seals_partial_batch_through_public_api():
    sim, m, backend, dev = lsvd_world()
    done = dev.submit(IOOp(WRITE, 0, 64 * 1024))
    sim.run_until_event(done)
    assert dev.pagemap.pending_pages > 0  # partial batch is accumulating
    flush = dev.submit(IOOp(FLUSH))
    sim.run_until_event(flush)
    # sealed by the barrier, not stranded
    assert dev.pagemap.pending_pages == 0
    sim.run(until=sim.now + 5.0)
    assert dev.objects_put >= 1  # ... and destaged to the backend


def test_writes_are_not_gated_behind_group_commit():
    # a write admitted while a barrier is in flight completes without
    # waiting for the FLUSH (group commit never gates writers)
    sim, m, backend, dev = lsvd_world()
    flush = dev.submit(IOOp(FLUSH))
    write = dev.submit(IOOp(WRITE, 0, 4096))
    sim.run_until_event(write)
    write_t = sim.now
    sim.run_until_event(flush)
    assert sim.now >= write_t  # the barrier settled no earlier


# ---------------------------------------------------------------------------
# per-shard destage queues
# ---------------------------------------------------------------------------


def test_destage_routes_to_per_shard_queues():
    sim, m, backend, dev = lsvd_world(n_shards=4, volume=2 * GiB)
    assert len(dev._destage_qs) == 4

    def burst():
        for i in range(256):
            yield dev.submit(IOOp(WRITE, (i * 8 * MiB) % (2 * GiB), 1 * MiB))

    sim.process(burst())
    sim.run(until=20.0)
    sim.run()
    # every shard took PUT traffic through its own queue
    for i in range(4):
        assert dev.obs.value(f"shard.{i}.puts", 0) > 0
        assert dev.obs.value(f"destage.{i}.queue_depth", -1) == 0
    assert dev.destage_queue_depth == 0
    assert dev.objects_put > 0


def test_queue_depth_gauge_rises_and_drains():
    sim, m, backend, dev = lsvd_world()
    depths = []

    def burst():
        for i in range(64):
            yield dev.submit(IOOp(WRITE, i * 16 * MiB, 8 * MiB))
            depths.append(dev.destage_queue_depth)

    sim.process(burst())
    sim.run(until=30.0)
    sim.run()
    assert max(depths) > 0  # destage queued behind the slow backend
    assert dev.destage_queue_depth == 0  # ... and fully drained


# ---------------------------------------------------------------------------
# overlapped recovery
# ---------------------------------------------------------------------------


def _recovered_world():
    sim, m, backend, dev = lsvd_world(n_shards=4, volume=2 * GiB)

    def burst():
        for i in range(128):
            yield dev.submit(IOOp(WRITE, i * 16 * MiB, 8 * MiB))
        yield dev.submit(IOOp(FLUSH))

    sim.process(burst())
    sim.run(until=30.0)
    sim.run()  # drain destage so the backend holds the objects
    assert backend.puts > 4
    result = sim.run_until_event(dev.recovery_scan(max_headers=8))
    return sim, backend, dev, result


def test_recovery_scan_finds_the_durable_objects():
    _sim, _backend, _dev, result = _recovered_world()
    assert result["objects"] > 4
    assert result["headers"] == 8
    assert result["duration"] > 0


def test_overlapped_recovery_beats_sequential():
    # the sweep is two scatter-gather fans (per-shard LISTs, then the header
    # GETs), so it costs about one LIST + one header round trip of the
    # slowest shard; a sequential walk would pay four LISTs and eight
    # header GETs back to back — the whole point of overlapping the sweep
    sim, backend, dev, result = _recovered_world()
    slowest = 0.0
    for shard in backend.backends:
        started = sim.now
        names = sim.run_until_event(shard.list_keys("vd."))
        assert names
        sim.run_until_event(
            shard.get_range(names[-1], 0, dev.params.log_header_bytes)
        )
        slowest = max(slowest, sim.now - started)
    assert result["duration"] < 2 * slowest
