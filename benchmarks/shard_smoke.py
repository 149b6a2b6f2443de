"""Shard-scaling smoke run: backend PUT throughput vs shard count.

``make shard-smoke`` (CI uploads the artifact) drives the timed LSVD
runtime over a :class:`~repro.runtime.sharded.ShardedSimulatedBackend` of
1, 2, 4 and 8 shards — each shard an independent slow cluster, all behind
the one client NIC — with a write cache small enough that the client is
back-pressured to the destage drain rate.  Aggregate backend PUT
throughput must rise monotonically all the way from 1 to 8 shards (the
acceptance shape, ``monotonic_1_to_8``): with per-shard destage queues
and the group-commit worker keeping the submission path off the barrier
critical path, eight slow shards still under-fill the client NIC, so the
old 8-shard ceiling (§4.5's saturation story, from the other side) no
longer bites.  The intermediate ``monotonic_1_to_4`` figure is kept in
the artifact for continuity with earlier runs.

Everything is deterministic: same tree, same numbers.

Usage::

    python benchmarks/shard_smoke.py [--out-dir DIR] [--duration S]
"""

from __future__ import annotations

import argparse

from repro.cluster import StorageCluster
from repro.core import LSVDConfig
from repro.devices.hdd import HDD, HDDSpec
from repro.obs import Registry, write_bench_json
from repro.runtime import ClientMachine, LSVDRuntime, make_sharded_backend
from repro.runtime.blockdev import run_fio
from repro.runtime.params import LSVDParams
from repro.sim import Simulator
from repro.workloads import FioJob

MiB = 1 << 20
GiB = 1 << 30

#: slow media so one shard's cluster, not the client, starts as the
#: bottleneck (see tests/test_shard_runtime.py for the same rig)
SLOW_DISK = HDDSpec(transfer_rate=15e6)

SHARD_COUNTS = (1, 2, 4, 8)


def slow_cluster(sim: Simulator) -> StorageCluster:
    return StorageCluster(sim, 1, 6, lambda s, n: HDD(s, SLOW_DISK, name=n))


def run_one(n_shards: int, duration: float):
    """One measurement: returns (aggregate PUT MB/s, put p99 s, registry)."""
    sim = Simulator()
    machine = ClientMachine(sim)
    backend = make_sharded_backend(sim, machine.network, slow_cluster, n_shards)
    device = LSVDRuntime(
        sim,
        machine,
        backend,
        volume_size=1 * GiB,
        # small enough to back-pressure to the destage rate, large enough
        # that admission never starves the 8-shard fan between drains
        cache_size=256 * MiB,
        config=LSVDConfig(batch_size=4 * MiB),
        params=LSVDParams(destage_workers=max(8, 2 * n_shards)),
        gc_enabled=False,
        name="vd",
    )
    job = FioJob(rw="write", bs=64 * 1024, iodepth=16, size=1 * GiB)
    run_fio(sim, device, job, duration=duration)
    obs = backend.obs
    put_mbps = obs.value("backend.bytes_put") / duration / 1e6
    put_p99 = obs.histogram("backend.put_latency_s").percentile(99)
    return put_mbps, put_p99, obs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="bench-out")
    parser.add_argument("--duration", type=float, default=2.0)
    args = parser.parse_args(argv)

    summary = Registry()
    figures = {}
    print(f"{'shards':>6}  {'PUT MB/s':>10}  {'put p99 ms':>10}  "
          f"{'imbalance':>9}  {'per-shard puts':>14}")
    for n_shards in SHARD_COUNTS:
        put_mbps, put_p99, obs = run_one(n_shards, args.duration)
        imbalance = obs.value("shard.put_imbalance")
        per_shard = [int(obs.value(f"shard.{i}.puts")) for i in range(n_shards)]
        print(f"{n_shards:>6}  {put_mbps:>10.1f}  {put_p99 * 1e3:>10.2f}  "
              f"{imbalance:>9.3f}  {per_shard}")
        summary.gauge(f"shard_smoke.{n_shards}.put_mbps").set(put_mbps)
        summary.gauge(f"shard_smoke.{n_shards}.put_p99_s").set(put_p99)
        summary.gauge(f"shard_smoke.{n_shards}.put_imbalance").set(imbalance)
        figures[f"put_mbps_{n_shards}_shards"] = put_mbps
        figures[f"put_p99_s_{n_shards}_shards"] = put_p99

    # the acceptance shape: monotonic aggregate throughput 1 -> 8 shards
    monotonic_1_to_4 = (
        figures["put_mbps_2_shards"] > figures["put_mbps_1_shards"]
        and figures["put_mbps_4_shards"] > figures["put_mbps_2_shards"]
    )
    monotonic = (
        monotonic_1_to_4
        and figures["put_mbps_8_shards"] > figures["put_mbps_4_shards"]
    )
    figures["monotonic_1_to_4"] = bool(monotonic_1_to_4)
    figures["monotonic_1_to_8"] = bool(monotonic)
    path = write_bench_json(
        "shard_smoke", summary, figures=figures, out_dir=args.out_dir
    )
    print(f"\nmonotonic 1->8: {monotonic}")
    print(f"wrote {path}")
    return 0 if monotonic else 1


if __name__ == "__main__":
    raise SystemExit(main())
