"""Tests for the fio driver, including block-layer elevator merging."""


from repro.runtime.blockdev import _MergingQueue, drive_ops, run_fio
from repro.sim import Simulator
from repro.workloads import FioJob
from repro.workloads.base import FLUSH, READ, WRITE, IOOp


class InstantDevice:
    """Completes every op after a fixed latency; records what it saw."""

    def __init__(self, sim, latency=1e-4):
        self.sim = sim
        self.latency = latency
        self.seen = []

    def submit(self, op):
        self.seen.append(op)
        done = self.sim.event()

        def run():
            yield self.sim.timeout(self.latency)
            done.succeed()

        self.sim.process(run())
        return done


def test_merging_queue_coalesces_adjacent_writes():
    ops = iter(
        [
            IOOp(WRITE, 0, 4096),
            IOOp(WRITE, 4096, 4096),
            IOOp(WRITE, 8192, 4096),
            IOOp(WRITE, 1 << 20, 4096),  # not adjacent
        ]
    )
    q = _MergingQueue(ops, limit=64 * 1024)
    first = q.take()
    assert (first.offset, first.length) == (0, 12288)
    second = q.take()
    assert (second.offset, second.length) == (1 << 20, 4096)
    assert q.take() is None


def test_merging_queue_respects_limit():
    ops = iter([IOOp(WRITE, i * 4096, 4096) for i in range(100)])
    q = _MergingQueue(ops, limit=16384)
    sizes = []
    while True:
        op = q.take()
        if op is None:
            break
        sizes.append(op.length)
    assert all(s <= 16384 for s in sizes)
    assert sum(sizes) == 100 * 4096


def test_merging_queue_disabled_passthrough():
    ops = iter([IOOp(WRITE, 0, 4096), IOOp(WRITE, 4096, 4096)])
    q = _MergingQueue(ops, limit=0)
    assert q.take().length == 4096
    assert q.take().length == 4096


def test_merging_queue_never_merges_across_kinds_or_flush():
    ops = iter(
        [
            IOOp(WRITE, 0, 4096),
            IOOp(READ, 4096, 4096),
            IOOp(FLUSH),
            IOOp(WRITE, 8192, 4096),
        ]
    )
    q = _MergingQueue(ops, limit=1 << 20)
    kinds = []
    while True:
        op = q.take()
        if op is None:
            break
        kinds.append(op.kind)
    assert kinds == [WRITE, READ, FLUSH, WRITE]


def test_run_fio_counts_merged_ops_individually():
    """A merged 512K request still counts as 128 x 4K client ops."""
    sim = Simulator()
    dev = InstantDevice(sim)
    job = FioJob(rw="write", bs=4096, iodepth=4, size=1 << 20, seed=0)
    result = run_fio(sim, dev, job, duration=0.05)
    assert result.ops > 0
    # the device saw merged (large) requests
    assert any(op.length > 4096 for op in dev.seen)
    # and client bytes add up to ops * bs
    assert result.bytes == result.ops * 4096


def test_run_fio_random_not_merged():
    sim = Simulator()
    dev = InstantDevice(sim)
    job = FioJob(rw="randwrite", bs=4096, iodepth=4, size=1 << 30, seed=0)
    run_fio(sim, dev, job, duration=0.2)
    merged = [op for op in dev.seen if op.length > 4096]
    assert len(merged) < len(dev.seen) * 0.05


def test_drive_ops_finite_stream_completes():
    sim = Simulator()
    dev = InstantDevice(sim)
    ops = [IOOp(WRITE, i * 4096, 4096) for i in range(10)] + [IOOp(FLUSH)]
    result = drive_ops(sim, dev, iter(ops), iodepth=2)
    assert result.ops == 10
    assert result.flushes == 1
    assert result.duration > 0
