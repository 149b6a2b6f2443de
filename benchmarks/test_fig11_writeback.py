"""Figure 11: write-back behaviour after a burst (HDD backend, config 2).

Paper result: a 20 GB burst of 4 KiB random writes.  LSVD writes back
aggressively *during* the burst (avg ~173 MB/s to the backend) and the
backend is synchronized shortly after the client finishes.  bcache pauses
write-back under load and then drains at ~15 MB/s — taking ~25 minutes,
11.5x longer, during which the backend image is inconsistent.
"""

import pytest

from conftest import GiB, MiB, hdd_cluster, make_bcache, make_lsvd
from repro.analysis import Table
from repro.runtime import run_fio
from repro.workloads import FioJob

BURST_BYTES = 96 * MiB  # scaled-down "20 GB" burst
VOLUME = 2 * GiB


def run_lsvd():
    world = make_lsvd(volume=VOLUME, cache=4 * GiB, cluster_fn=hdd_cluster)
    n_writes = BURST_BYTES // 4096
    job = FioJob(rw="randwrite", bs=4096, iodepth=32, size=VOLUME, seed=5)
    stream = job.ops()
    limited = (next(stream) for _ in range(n_writes))
    from repro.runtime.blockdev import drive_ops

    burst = drive_ops(world.sim, world.device, limited, iodepth=32)
    client_done = world.sim.now
    # poll in fine steps until the backend has absorbed everything
    while (
        world.device.dirty_bytes > 0 or world.device.pagemap.pending_pages
    ) and world.sim.now < client_done + 600:
        world.sim.run(until=world.sim.now + 0.25)
    synced = world.sim.now
    return {
        "client_time": client_done,
        "sync_time": synced if world.device.dirty_bytes <= 0 else float("inf"),
        "backend_bytes": world.device.backend_bytes_put,
        "dirty_left": world.device.dirty_bytes,
    }


def run_bcache():
    world = make_bcache(volume=VOLUME, cache=4 * GiB, cluster_fn=hdd_cluster)
    n_writes = BURST_BYTES // 4096
    job = FioJob(rw="randwrite", bs=4096, iodepth=32, size=VOLUME, seed=5)
    stream = job.ops()
    limited = (next(stream) for _ in range(n_writes))
    from repro.runtime.blockdev import drive_ops

    burst = drive_ops(world.sim, world.device, limited, iodepth=32)
    client_done = world.sim.now
    destaged_during_burst = world.device.destaged_bytes
    # now idle: write-back starts; wait until dirty data drains
    last = -1
    while world.device.dirty_bytes > 0 and world.sim.now < client_done + 3600:
        world.sim.run(until=world.sim.now + 5.0)
        if world.device.destaged_bytes == last:
            break
        last = world.device.destaged_bytes
    return {
        "client_time": client_done,
        "sync_time": world.sim.now,
        "destaged_during_burst": destaged_during_burst,
        "destaged_bytes": world.device.destaged_bytes,
        "dirty_left": world.device.dirty_bytes,
    }


def test_fig11_writeback_behaviour(once):
    lsvd, bc = once(lambda: (run_lsvd(), run_bcache()))

    lsvd_drain = lsvd["sync_time"] - lsvd["client_time"]
    bc_drain = bc["sync_time"] - bc["client_time"]
    table = Table(
        f"Figure 11: write-back after a {BURST_BYTES // MiB} MiB 4K random "
        "burst (HDD backend)",
        ["system", "client(s)", "synced(s)", "post-burst drain(s)", "wb MB/s"],
    )
    table.add(
        "LSVD",
        f"{lsvd['client_time']:.1f}",
        f"{lsvd['sync_time']:.1f}",
        f"{lsvd_drain:.1f}",
        f"{lsvd['backend_bytes'] / lsvd['sync_time'] / 1e6:.0f}",
    )
    table.add(
        "bcache+RBD",
        f"{bc['client_time']:.1f}",
        f"{bc['sync_time']:.1f}",
        f"{bc_drain:.1f}",
        f"{bc['destaged_bytes'] / max(bc_drain, 0.1) / 1e6:.1f}",
    )
    table.show()

    # shape: bcache did (almost) no write-back during the burst
    assert bc["destaged_during_burst"] < BURST_BYTES * 0.1
    # LSVD was already mostly synchronized when the client finished
    assert lsvd_drain < lsvd["client_time"] * 2
    # bcache's total drain takes many times longer than LSVD's
    assert bc["sync_time"] > 5 * lsvd["sync_time"]
    # bcache write-back crawls at small-replicated-write speed (~15MB/s
    # in the paper; order-of-magnitude here)
    wb_rate = bc["destaged_bytes"] / max(bc_drain, 0.1) / 1e6
    assert wb_rate < 60
