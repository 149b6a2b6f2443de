"""Tests for per-tenant QoS: token buckets, throttles, admission in the
timed runtime, and noisy-neighbour isolation on shared hardware."""

import gc
import tracemalloc

import pytest

from repro.cluster import StorageCluster
from repro.devices.hdd import HDD, HDDSpec
from repro.fleet import (
    UNLIMITED,
    FleetRuntime,
    QoSLimits,
    QoSTokenBucket,
    TenantThrottle,
    ThrottleSet,
)
from repro.obs import Registry
from repro.runtime import ClientMachine, make_sharded_backend
from repro.runtime.blockdev import run_jobs
from repro.sim import Simulator
from repro.workloads import FioJob

MiB = 1 << 20
GiB = 1 << 30


# -- QoSLimits / bucket --------------------------------------------------------


def test_limits_validation_and_unlimited():
    assert UNLIMITED.unlimited
    assert QoSLimits(iops=100).unlimited is False
    assert QoSLimits(bytes_per_s=1).unlimited is False
    with pytest.raises(ValueError):
        QoSLimits(iops=-1)
    with pytest.raises(ValueError):
        QoSLimits(burst_bytes=-0.5)


def test_bucket_rate_must_be_positive():
    with pytest.raises(ValueError):
        QoSTokenBucket(0.0)


def test_bucket_charges_debt_deterministically():
    bucket = QoSTokenBucket(rate=100.0, burst=1.0)
    # burst of 1 admits the first op; the next owes one op-time
    assert bucket.delay_for(0.0, 1.0) == 0.0
    assert bucket.delay_for(0.0, 1.0) == pytest.approx(0.01)
    # third simultaneous arrival queues behind the second's debt
    assert bucket.delay_for(0.0, 1.0) == pytest.approx(0.02)
    assert bucket.level == pytest.approx(-2.0)
    # 0.03 s later the refill (3 tokens at rate 100) has cleared the
    # debt and re-capped at the burst: one op admits free, the next owes
    assert bucket.delay_for(0.03, 1.0) == 0.0
    assert bucket.delay_for(0.03, 1.0) == pytest.approx(0.01)


def test_bucket_refill_caps_at_burst():
    bucket = QoSTokenBucket(rate=10.0, burst=2.0)
    bucket.delay_for(0.0, 2.0)  # drain the burst
    # a long idle period must not accumulate more than the burst
    assert bucket.delay_for(100.0, 2.0) == 0.0
    assert bucket.delay_for(100.0, 1.0) == pytest.approx(0.1)


def test_bucket_default_burst_is_50ms_of_rate():
    bucket = QoSTokenBucket(rate=200.0)
    assert bucket.burst == pytest.approx(10.0)


# -- TenantThrottle ------------------------------------------------------------


def test_throttle_tracks_metrics_and_queue_depth():
    obs = Registry()
    throttle = TenantThrottle("acme", QoSLimits(iops=10.0, burst_ops=1), obs=obs)
    assert throttle.admit(0.0, nbytes=4096) == 0.0
    delay = throttle.admit(0.0, nbytes=4096)
    assert delay > 0
    throttle.wait_started()
    assert throttle.queue_depth == 1
    throttle.wait_finished()
    assert throttle.queue_depth == 0
    assert throttle.admitted == 1
    assert throttle.throttled == 1
    assert obs.value("fleet.acme.bytes_admitted") == 8192
    assert obs.histogram("fleet.acme.throttle_delay_s").count == 1


def test_throttle_byte_axis_binds_too():
    throttle = TenantThrottle("b", QoSLimits(bytes_per_s=4096.0, burst_bytes=4096))
    assert throttle.admit(0.0, nbytes=4096) == 0.0
    # the byte bucket, not the (absent) op bucket, forces the wait
    assert throttle.admit(0.0, nbytes=8192) == pytest.approx(2.0)


def test_throttle_set_is_get_or_create():
    throttles = ThrottleSet()
    a = throttles.get("a", QoSLimits(iops=5))
    assert throttles.get("a") is a  # later limits are ignored
    throttles.get("b")
    assert throttles.tenants() == ["a", "b"]
    assert "a" in throttles and len(throttles) == 2


# -- timed fleet ---------------------------------------------------------------


def hdd_cluster(sim):
    return StorageCluster(sim, 1, 6, lambda s, n: HDD(s, HDDSpec(), name=n))


def make_fleet_rig():
    sim = Simulator()
    machine = ClientMachine(sim)
    backend = make_sharded_backend(sim, machine.network, hdd_cluster, 4)
    return sim, FleetRuntime(sim, machine, backend, obs=Registry())


def test_fleet_runtime_registry():
    _, fleet = make_fleet_rig()
    fleet.add_vdisk("vd0", tenant="a", volume_size=1 * GiB, cache_size=64 * MiB)
    fleet.add_vdisk("vd1", tenant="a", volume_size=1 * GiB, cache_size=64 * MiB)
    with pytest.raises(ValueError):
        fleet.add_vdisk("vd0", tenant="b", volume_size=1 * GiB, cache_size=64 * MiB)
    assert len(fleet) == 2
    assert fleet.tenant_of("vd1") == "a"
    assert [d.name for d in fleet.vdisks()] == ["vd0", "vd1"]
    assert fleet.tenants() == ["a"]
    assert fleet.obs.value("fleet.vdisks") == 2


def test_throttled_vdisk_is_capped_and_peer_is_not():
    """An iops cap holds in the timed pipeline: the capped tenant lands at
    its limit (plus burst), the unlimited peer on the same rig does not."""
    sim, fleet = make_fleet_rig()
    capped = fleet.add_vdisk(
        "vd0",
        tenant="t0",
        volume_size=1 * GiB,
        cache_size=64 * MiB,
        limits=QoSLimits(iops=2000.0),
        gc_enabled=False,
    )
    free = fleet.add_vdisk(
        "vd1", tenant="t1", volume_size=1 * GiB, cache_size=64 * MiB, gc_enabled=False
    )
    job = lambda seed: FioJob(rw="randwrite", bs=4096, iodepth=8, size=1 * GiB, seed=seed)
    res_capped, res_free = run_jobs(
        sim, [(capped, job(1)), (free, job(2))], duration=0.5
    )
    # burst allowance (50 ms of rate) is the only headroom over the cap
    assert res_capped.iops <= 2000.0 * 1.15
    assert res_free.iops > res_capped.iops * 1.3
    assert fleet.obs.value("fleet.t0.throttled") > 0
    assert fleet.obs.value("fleet.t1.throttled") == 0
    # the gauge counts waiters still queued when the clock cut off the
    # run — never more than the job's workers, and none for the free peer
    assert 0 <= fleet.obs.value("fleet.t0.queue_depth") <= 8
    assert fleet.obs.value("fleet.t1.queue_depth") == 0


def test_throttle_delay_is_served_on_the_simulated_clock():
    sim, fleet = make_fleet_rig()
    device = fleet.add_vdisk(
        "vd0",
        tenant="slow",
        volume_size=1 * GiB,
        cache_size=64 * MiB,
        limits=QoSLimits(iops=100.0, burst_ops=1),
        gc_enabled=False,
    )
    [result] = run_jobs(
        sim,
        [(device, FioJob(rw="randwrite", bs=4096, iodepth=4, size=1 * GiB, seed=3))],
        duration=0.5,
    )
    # 100 IOPS cap, 0.5 s window: ~50 ops regardless of device speed
    assert 30 <= result.ops <= 60
    assert fleet.obs.value("fleet.slow.throttled") > 0


def test_noisy_neighbour_isolation():
    """A QoS cap on the bulk tenant restores the victim's tail latency:
    victim p99 next to the capped neighbour must sit well below its p99
    next to the same neighbour unthrottled."""

    def run(noisy_limits):
        sim, fleet = make_fleet_rig()
        victim = fleet.add_vdisk(
            "victim",
            tenant="victim",
            volume_size=1 * GiB,
            cache_size=64 * MiB,
            gc_enabled=False,
        )
        noisy = fleet.add_vdisk(
            "noisy",
            tenant="noisy",
            volume_size=4 * GiB,
            cache_size=4 * GiB,
            limits=noisy_limits,
            gc_enabled=False,
        )
        results = run_jobs(
            sim,
            [
                (victim, FioJob(rw="randwrite", bs=4096, iodepth=1, size=1 * GiB, seed=1)),
                (noisy, FioJob(rw="randwrite", bs=256 * 1024, iodepth=32, size=1 * GiB, seed=2)),
            ],
            duration=0.3,
        )
        return results[0].latency_percentile(99)

    p99_unthrottled = run(None)
    p99_capped = run(QoSLimits(iops=100.0, burst_ops=1))
    assert p99_capped < p99_unthrottled / 4, (p99_capped, p99_unthrottled)


# -- what a run retains ----------------------------------------------------------

#: bytes the stack kept per client write (span trees in the analyzer and
#: flight-recorder windows, mostly) before never-waiting queue stages
#: stopped being allocated: this very measurement on the parent commit,
#: CPython 3.11.  A timed run is bounded by the clock, so a faster
#: simulator retains proportionally more of these per run.
RETAINED_PER_WRITE_BEFORE = 1194


def retained_bytes_per_write(writes_per_disk=1500, iodepth=4):
    sim, fleet = make_fleet_rig()
    for index in range(2):
        fleet.add_vdisk(
            f"vd{index}", tenant=f"t{index}", volume_size=8 * MiB, cache_size=64 * MiB
        )
    completed = [0]

    def client(device, stream, budget):
        for _ in range(budget):
            yield device.submit(next(stream))
            completed[0] += 1

    def run_clients(budget):
        clients = []
        for seed, device in enumerate(fleet.vdisks()):
            stream = FioJob(
                rw="randwrite", bs=4096, iodepth=iodepth, size=8 * MiB, seed=seed
            ).ops()
            clients += [
                sim.process(client(device, stream, budget // iodepth))
                for _ in range(iodepth)
            ]
        sim.run_until_event(sim.all_of(clients))

    run_clients(200)  # lazy set-up (metrics, page map, first objects) done
    warm = completed[0]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_clients(writes_per_disk)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / (completed[0] - warm)


def test_retained_memory_per_client_write_is_bounded():
    retained = retained_bytes_per_write()
    assert 0 < retained <= 0.92 * RETAINED_PER_WRITE_BEFORE, retained
