"""Integration: Filebench models driven through the timed runtimes.

These lock in the qualitative Figure 8 relationships at small scale so a
regression in the barrier path or the workload models shows up in the
unit suite, not only in the (slower) benchmark harness.
"""

import itertools


from repro.cluster import StorageCluster
from repro.core import LSVDConfig
from repro.devices.ssd import SSD, SSDSpec
from repro.runtime import (
    BcacheRBDRuntime,
    ClientMachine,
    LSVDRuntime,
    RBDRuntime,
    SimulatedObjectStore,
)
from repro.runtime.blockdev import drive_ops
from repro.sim import Simulator
from repro.workloads import oltp, varmail

GiB = 1 << 30


def lsvd_stack():
    sim = Simulator()
    machine = ClientMachine(sim)
    cluster = StorageCluster(
        sim, 4, 8, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
    )
    backend = SimulatedObjectStore(sim, cluster, machine.network)
    dev = LSVDRuntime(sim, machine, backend, 2 * GiB, 8 * GiB, LSVDConfig(), name="vd")
    return sim, dev


def bcache_stack():
    sim = Simulator()
    machine = ClientMachine(sim)
    cluster = StorageCluster(
        sim, 4, 8, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
    )
    rbd = RBDRuntime(sim, machine, cluster)
    dev = BcacheRBDRuntime(sim, machine, rbd, cache_size=8 * GiB)
    return sim, dev


def throughput(stack_fn, model, duration=0.2):
    sim, dev = stack_fn()
    result = drive_ops(
        sim, dev, itertools.islice(model.ops(seed=7), 200_000), 16, duration
    )
    return (result.ops + result.flushes) / result.duration


def test_varmail_lsvd_wins_big():
    """§4.2.2: sync-heavy varmail is LSVD's biggest Filebench win."""
    lsvd = throughput(lsvd_stack, varmail(2 * GiB))
    bc = throughput(bcache_stack, varmail(2 * GiB))
    assert lsvd > bc * 1.5


def test_oltp_lsvd_wins_modestly():
    lsvd = throughput(lsvd_stack, oltp(2 * GiB))
    bc = throughput(bcache_stack, oltp(2 * GiB))
    assert lsvd > bc
    assert lsvd < bc * 2.5


def test_varmail_barrier_cost_is_the_differentiator():
    """Strip the barriers out of varmail and the gap shrinks: the win
    comes from commit-barrier handling, not the write path alone."""
    model = varmail(2 * GiB)

    def no_flush_ops(seed):
        return (op for op in model.ops(seed) if op.kind != "flush")

    sim, dev = lsvd_stack()
    lsvd_nf = drive_ops(sim, dev, itertools.islice(no_flush_ops(7), 200_000), 16, 0.2)
    sim, dev = bcache_stack()
    bc_nf = drive_ops(sim, dev, itertools.islice(no_flush_ops(7), 200_000), 16, 0.2)
    ratio_without_barriers = lsvd_nf.ops / max(bc_nf.ops, 1)

    lsvd = throughput(lsvd_stack, varmail(2 * GiB))
    bc = throughput(bcache_stack, varmail(2 * GiB))
    ratio_with_barriers = lsvd / bc
    assert ratio_with_barriers > ratio_without_barriers
