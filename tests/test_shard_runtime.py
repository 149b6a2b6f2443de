"""Timed runtime over a sharded backend: throughput scales with shards.

Each shard endpoint owns an independent backend cluster; with a small
write cache the client is back-pressured to the destage drain rate, so
aggregate PUT throughput is bounded by the clusters — and grows as the
stream stripes over more of them.
"""

from repro.cluster import StorageCluster
from repro.core import LSVDConfig
from repro.devices.hdd import HDD, HDDSpec
from repro.obs import Registry
from repro.runtime import (
    ClientMachine,
    LSVDRuntime,
    ShardedSimulatedBackend,
    SimulatedObjectStore,
    make_sharded_backend,
)
from repro.runtime.blockdev import run_fio
from repro.runtime.params import LSVDParams
from repro.sim import Simulator
from repro.workloads.fio import FioJob

MiB = 1 << 20
GiB = 1 << 30


#: deliberately slow media so a single shard's cluster — not the client
#: NIC or cache SSD — is the bottleneck the experiment scales past
SLOW_DISK = HDDSpec(transfer_rate=15e6)


def slow_cluster(sim: Simulator) -> StorageCluster:
    """One server of six slow HDDs: exactly one EC(4+2) stripe wide, so a
    single shard's PUT bandwidth is genuinely limited."""
    return StorageCluster(sim, 1, 6, lambda s, n: HDD(s, SLOW_DISK, name=n))


def run_sharded(n_shards: int, duration: float = 2.0):
    sim = Simulator()
    machine = ClientMachine(sim)
    backend = make_sharded_backend(sim, machine.network, slow_cluster, n_shards)
    params = LSVDParams(destage_workers=max(8, 2 * n_shards))
    device = LSVDRuntime(
        sim,
        machine,
        backend,
        volume_size=1 * GiB,
        cache_size=64 * MiB,  # small: back-pressure to the destage rate
        config=LSVDConfig(batch_size=4 * MiB),
        params=params,
        gc_enabled=False,
        name="vd",
    )
    job = FioJob(rw="write", bs=64 * 1024, iodepth=16, size=1 * GiB)
    result = run_fio(sim, device, job, duration=duration)
    return result, backend, backend.obs


def test_backend_put_throughput_scales_with_shards():
    """Acceptance: aggregate PUT throughput rises monotonically 1->4."""
    throughput = {}
    for n_shards in (1, 2, 4):
        _result, _backend, obs = run_sharded(n_shards)
        throughput[n_shards] = obs.value("backend.bytes_put")
    assert throughput[2] > throughput[1] * 1.3, throughput
    assert throughput[4] > throughput[2] * 1.2, throughput


def test_round_robin_spreads_puts_evenly_across_shards():
    _result, backend, obs = run_sharded(4, duration=1.0)
    per_shard = [obs.value(f"shard.{i}.puts") for i in range(4)]
    assert sum(per_shard) == obs.value("shard.puts") > 0
    # round-robin on a sequential stream: near-perfect balance
    assert max(per_shard) - min(per_shard) <= 1
    assert obs.value("shard.put_imbalance") < 1.25


def test_single_shard_facade_matches_plain_backend():
    """n_shards=1 through the facade must behave like the unsharded
    stack — same simulated world, same op counts and bytes."""
    from repro.runtime import SimulatedObjectStore

    def run(make_backend):
        sim = Simulator()
        machine = ClientMachine(sim)
        backend = make_backend(sim, machine)
        device = LSVDRuntime(
            sim, machine, backend, 1 * GiB, 64 * MiB,
            LSVDConfig(batch_size=4 * MiB), gc_enabled=False, name="vd",
        )
        job = FioJob(rw="write", bs=64 * 1024, iodepth=16, size=1 * GiB)
        run_fio(sim, device, job, duration=1.0)
        return backend.obs.value("backend.puts"), backend.obs.value(
            "backend.bytes_put"
        )

    plain = run(
        lambda sim, m: SimulatedObjectStore(sim, slow_cluster(sim), m.network)
    )
    sharded = run(
        lambda sim, m: make_sharded_backend(sim, m.network, slow_cluster, 1)
    )
    assert sharded == plain


def test_sharded_backend_routes_gets_and_deletes():
    sim = Simulator()
    machine = ClientMachine(sim)
    backend = make_sharded_backend(sim, machine.network, slow_cluster, 3)
    assert isinstance(backend, ShardedSimulatedBackend)
    events = [
        backend.put("vd.00000001", 1 * MiB),
        backend.put("vd.00000002", 1 * MiB),
        backend.get_range("vd.00000001", 0, 4096),
        backend.delete("vd.00000002"),
    ]
    sim.run()
    assert all(e.triggered for e in events)
    assert backend.obs.value("shard.0.puts") == 1
    assert backend.obs.value("shard.1.puts") == 1
    assert backend.obs.value("shard.0.gets") == 1
    assert backend.obs.value("shard.1.deletes") == 1
    # both facade aggregates and the shared backend.* family agree
    assert backend.puts == 2
    assert backend.obs.value("backend.puts") == 2


def test_facade_aggregates_shards_on_separate_registries():
    sim = Simulator()
    machine = ClientMachine(sim)
    shards = [
        SimulatedObjectStore(sim, slow_cluster(sim), machine.network, obs=Registry())
        for _ in range(3)
    ]
    backend = ShardedSimulatedBackend(shards)
    for seq in range(1, 5):
        backend.put(f"vd.{seq:08d}", 1 * MiB)
    backend.get_range("vd.00000001", 0, 4096)
    sim.run()
    assert [shard.obs.value("backend.puts") for shard in shards] == [2, 1, 1]
    assert (backend.puts, backend.bytes_put, backend.gets) == (4, 4 * MiB, 1)
