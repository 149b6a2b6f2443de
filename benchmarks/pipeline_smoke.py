"""Pipeline smoke run: group commit across queue depths.

``make pipeline-smoke`` (CI uploads the artifact) drives an fsync-heavy
fio job through the timed LSVD runtime once per queue depth.  The commit
worker coalesces concurrent barriers: one device FLUSH settles the whole
group, and every caller settles only after a covering FLUSH (LSVD014,
enforced by the invariant checker and tests/test_group_commit.py).

The acceptance shape: at queue depth >= 4 group commit must spend fewer
than one device FLUSH *per committed barrier* — what a barrier that
flushes for itself pays by construction (the serial-barrier path this
was once measured against, deleted in PR 18, read 0.999 at every depth).
The sweep, the barrier group-size distribution, and the destage
queue-depth stats land in ``BENCH_pipeline.json``, where ``bench-diff``
holds every figure exact.

Everything is deterministic: same tree, same numbers.

Usage::

    python benchmarks/pipeline_smoke.py [--out-dir DIR] [--duration S]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cluster import StorageCluster
from repro.core import LSVDConfig
from repro.devices.ssd import SSD, SSDSpec
from repro.obs import Registry, write_bench_json
from repro.runtime import ClientMachine, LSVDRuntime, SimulatedObjectStore
from repro.runtime.blockdev import run_fio
from repro.sim import Simulator
from repro.workloads import FioJob

MiB = 1 << 20
GiB = 1 << 30

QUEUE_DEPTHS = (1, 4, 16, 32)

#: every write burst ends in an fsync — the barrier-heavy shape (varmail
#: and OLTP redo logs) where commit-path behaviour decides throughput
FSYNC_EVERY = 4


def ssd_cluster(sim: Simulator) -> StorageCluster:
    return StorageCluster(
        sim, 4, 8, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
    )


def run_one(iodepth: int, duration: float):
    """One measurement; returns (device FLUSHes, MB/s, runtime, machine)."""
    sim = Simulator()
    machine = ClientMachine(sim)
    backend = SimulatedObjectStore(sim, ssd_cluster(sim), machine.network)
    device = LSVDRuntime(
        sim,
        machine,
        backend,
        volume_size=1 * GiB,
        cache_size=4 * GiB,
        config=LSVDConfig(),
        gc_enabled=False,
        name="vd",
    )
    job = FioJob(
        rw="randwrite",
        bs=4096,
        iodepth=iodepth,
        size=1 * GiB,
        fsync_every=FSYNC_EVERY,
    )
    result = run_fio(sim, device, job, duration=duration)
    return machine.ssd.stats.flushes, result.mbps, device, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="bench-out")
    parser.add_argument("--duration", type=float, default=0.4)
    args = parser.parse_args(argv)

    summary = Registry()
    figures = {}
    gate_ok = True
    print(f"{'qd':>4}  {'FLUSHes':>8}  {'flush/bar':>9}  "
          f"{'MB/s':>8}  {'grp mean':>8}  {'grp max':>7}  {'stalls':>6}")
    for qd in QUEUE_DEPTHS:
        flushes, mbps, device, machine = run_one(qd, args.duration)
        sizes = device.obs.histogram("barrier.group_size")
        grp_mean = sizes.sum / sizes.count if sizes.count else 0.0
        grp_max = sizes.percentile(100) if sizes.count else 0.0
        stalls = int(device.obs.value("destage.space_stalls"))
        requests = max(1, int(device.barrier_requests))
        per_barrier = device.barrier_flushes / requests
        print(f"{qd:>4}  {flushes:>8}  {per_barrier:>9.3f}  "
              f"{mbps:>8.1f}  {grp_mean:>8.2f}  {grp_max:>7.0f}  "
              f"{stalls:>6}")
        prefix = f"pipeline.{qd}.group"
        summary.gauge(f"{prefix}.device_flushes").set(flushes)
        summary.gauge(f"{prefix}.mbps").set(mbps)
        summary.gauge(f"{prefix}.barrier_requests").set(device.barrier_requests)
        summary.gauge(f"{prefix}.barrier_flushes").set(device.barrier_flushes)
        summary.gauge(f"{prefix}.flushes_per_barrier").set(per_barrier)
        summary.gauge(f"{prefix}.group_size_mean").set(grp_mean)
        summary.gauge(f"{prefix}.group_size_max").set(grp_max)
        summary.gauge(f"{prefix}.destage_space_stalls").set(stalls)
        figures[f"flushes_qd{qd}_group"] = int(flushes)
        figures[f"flushes_per_barrier_qd{qd}_group"] = round(per_barrier, 4)
        figures[f"mbps_qd{qd}_group"] = mbps
        figures[f"group_size_mean_qd{qd}_group"] = grp_mean

        # the acceptance shape: with concurrency to coalesce, a committed
        # barrier costs less than the one FLUSH it would pay on its own
        if qd >= 4:
            fewer = per_barrier < 1.0
            figures[f"group_fewer_flushes_per_barrier_qd{qd}"] = bool(fewer)
            gate_ok = gate_ok and fewer

    figures["group_commit_wins"] = bool(gate_ok)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    path = write_bench_json(
        "pipeline", summary, figures=figures, out_dir=args.out_dir
    )
    print(f"\ngroup commit < 1 FLUSH per barrier at qd>=4: {gate_ok}")
    print(f"wrote {path}")

    if not gate_ok:
        print("pipeline-smoke: FAIL: group commit did not coalesce", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
