"""Unit tests for device timing models and the DiskImage content plane."""

import copy
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.read_cache import ReadCache
from repro.devices import HDD, SSD, DiskImage, HDDSpec, NetworkLink, SSDSpec
from repro.devices.image import PENDING_BOUND
from repro.sim import Simulator
from tests.two_image_disk import TwoImageDisk


def run_ops(sim, device, ops):
    """Submit ops back-to-back at full queue depth; return completion time."""

    def driver():
        events = [device.submit(kind, off, size) for kind, off, size in ops]
        for ev in events:
            yield ev

    proc = sim.process(driver())
    sim.run_until_event(proc)
    return sim.now


# --------------------------------------------------------------------------
# SSD timing
# --------------------------------------------------------------------------


def test_ssd_random_write_iops_near_rated():
    sim = Simulator()
    ssd = SSD(sim, SSDSpec.nvme_p3700())
    rng = random.Random(1)
    n = 2000
    ops = [("write", rng.randrange(0, 2**30, 4096), 4096) for _ in range(n)]
    elapsed = run_ops(sim, ssd, ops)
    iops = n / elapsed
    # rated 90K random-write IOPS
    assert 60_000 < iops <= 95_000


def test_ssd_sequential_write_is_bandwidth_limited():
    sim = Simulator()
    ssd = SSD(sim, SSDSpec.nvme_p3700())
    n, size = 500, 128 * 1024
    ops = [("write", i * size, size) for i in range(n)]
    elapsed = run_ops(sim, ssd, ops)
    bw = n * size / elapsed
    assert bw == pytest.approx(1.9e9, rel=0.3)


def test_ssd_sequential_faster_than_random_small_writes():
    spec = SSDSpec.nvme_p3700()
    sim1 = Simulator()
    seq = SSD(sim1, spec)
    t_seq = run_ops(sim1, seq, [("write", i * 4096, 4096) for i in range(1000)])
    sim2 = Simulator()
    rnd = SSD(sim2, spec)
    rng = random.Random(2)
    t_rnd = run_ops(
        sim2, rnd, [("write", rng.randrange(0, 2**30, 4096), 4096) for _ in range(1000)]
    )
    assert t_seq < t_rnd


def test_ssd_read_faster_than_write():
    spec = SSDSpec.nvme_p3700()
    rng = random.Random(3)
    offs = [rng.randrange(0, 2**30, 4096) for _ in range(1000)]
    sim1 = Simulator()
    t_read = run_ops(sim1, SSD(sim1, spec), [("read", o, 4096) for o in offs])
    sim2 = Simulator()
    t_write = run_ops(sim2, SSD(sim2, spec), [("write", o, 4096) for o in offs])
    assert t_read < t_write


def test_ssd_flush_counts_and_costs():
    sim = Simulator()
    ssd = SSD(sim, SSDSpec.nvme_p3700())
    sim.run_until_event(ssd.flush())
    assert ssd.stats.flushes == 1
    assert sim.now >= ssd.spec.flush_time


def test_ssd_stats_accumulate():
    sim = Simulator()
    ssd = SSD(sim)
    run_ops(sim, ssd, [("write", 0, 4096), ("read", 0, 8192)])
    assert ssd.stats.writes == 1
    assert ssd.stats.reads == 1
    assert ssd.stats.written_bytes == 4096
    assert ssd.stats.read_bytes == 8192
    assert ssd.stats.total_ops == 2
    assert 4096 in ssd.stats.write_size_bytes


def test_ssd_utilization_between_zero_and_one():
    sim = Simulator()
    ssd = SSD(sim)
    run_ops(sim, ssd, [("write", i * 4096, 4096) for i in range(100)])
    assert 0.0 < ssd.utilization() <= 1.0


# --------------------------------------------------------------------------
# HDD timing
# --------------------------------------------------------------------------


def test_hdd_random_small_write_iops_in_rated_range():
    sim = Simulator()
    hdd = HDD(sim, HDDSpec.sas_10k())
    rng = random.Random(4)
    n = 500
    ops = [
        ("write", rng.randrange(0, hdd.spec.capacity - 4096, 4096), 4096)
        for _ in range(n)
    ]
    elapsed = run_ops(sim, hdd, ops)
    iops = n / elapsed
    # paper: ~370 rated write IOPS on the 10K RPM drives
    assert 150 < iops < 600


def test_hdd_sequential_stream_is_transfer_limited():
    sim = Simulator()
    hdd = HDD(sim, HDDSpec.sas_10k())
    n, size = 200, 1024 * 1024
    ops = [("write", i * size, size) for i in range(n)]
    elapsed = run_ops(sim, hdd, ops)
    bw = n * size / elapsed
    assert bw == pytest.approx(200e6, rel=0.2)


def test_hdd_seek_grows_with_distance():
    sim = Simulator()
    hdd = HDD(sim)
    assert hdd.seek_time(0) == 0.0
    short = hdd.seek_time(10**6)
    long = hdd.seek_time(hdd.spec.capacity)
    assert 0 < short < long <= hdd.spec.max_seek


def test_hdd_large_writes_much_cheaper_per_byte_than_small():
    """Core of the paper's Fig 12-14 argument: 1 MiB chunks vs 16 KiB."""
    spec = HDDSpec.sas_10k()
    rng = random.Random(5)
    offs = [rng.randrange(0, spec.capacity - 2**21, 4096) for _ in range(200)]
    sim1 = Simulator()
    t_small = run_ops(sim1, HDD(sim1, spec), [("write", o, 16 * 1024) for o in offs])
    sim2 = Simulator()
    t_big = run_ops(sim2, HDD(sim2, spec), [("write", o, 1024 * 1024) for o in offs])
    per_byte_small = t_small / (200 * 16 * 1024)
    per_byte_big = t_big / (200 * 1024 * 1024)
    assert per_byte_small > 10 * per_byte_big


# --------------------------------------------------------------------------
# Network link
# --------------------------------------------------------------------------


def test_network_bandwidth_limits_transfers():
    sim = Simulator()
    link = NetworkLink(sim, bandwidth=1000.0, latency=0.1)
    done = []

    def proc():
        yield link.send(5000)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [pytest.approx(5.1)]
    assert link.bytes_sent == 5000


def test_network_directions_independent():
    sim = Simulator()
    link = NetworkLink(sim, bandwidth=1000.0, latency=0.0)
    times = {}

    def proc(tag, fn):
        yield fn(1000)
        times[tag] = sim.now

    sim.process(proc("tx", link.send))
    sim.process(proc("rx", link.receive))
    sim.run()
    assert times["tx"] == pytest.approx(1.0)
    assert times["rx"] == pytest.approx(1.0)


# --------------------------------------------------------------------------
# DiskImage content plane
# --------------------------------------------------------------------------


def test_image_read_back_what_was_written():
    img = DiskImage(1 << 20)
    img.write(4096, b"hello world")
    assert img.read(4096, 11) == b"hello world"


def test_image_bounds_checked():
    img = DiskImage(4096)
    with pytest.raises(ValueError):
        img.write(4000, b"x" * 200)
    with pytest.raises(ValueError):
        img.read(-1, 10)


def test_image_flush_makes_writes_crash_proof():
    img = DiskImage(1 << 20)
    img.write(0, b"durable!")
    img.flush()
    img.write(0, b"volatile")
    img.crash(rng=random.Random(0), survive_probability=0.0, allow_torn=False)
    assert img.read(0, 8) == b"durable!"


def test_image_crash_keeps_subset_of_pending():
    img = DiskImage(1 << 20)
    for i in range(20):
        img.write(i * 4096, bytes([i + 1]) * 4096)
    img.crash(rng=random.Random(7), survive_probability=0.5, allow_torn=False)
    survived = sum(1 for i in range(20) if img.read(i * 4096, 1) != b"\x00")
    assert 0 < survived < 20


def test_image_crash_can_tear_final_write():
    for seed in range(40):
        img = DiskImage(1 << 16)
        img.write(0, b"A" * 4096)
        torn = img.crash(
            rng=random.Random(seed), survive_probability=1.0, allow_torn=True
        )
        if torn is not None:
            assert 0 < torn.kept_length < 4096
            data = img.read(0, 4096)
            assert data[: torn.kept_length] == b"A" * torn.kept_length
            assert data[torn.kept_length :] == b"\x00" * (4096 - torn.kept_length)
            break
    else:
        pytest.fail("no torn write observed over 40 seeds")


def test_pending_writes_are_bounded_without_a_flush():
    """Flush-free reads (every read-cache insert is a device write) must
    not retain every buffer: past the bound the oldest writes drain to
    media, and a crash still lands on durable + a subset of pending."""
    piece = 16 * 1024
    img = DiskImage(8 << 20, name="rc-ssd")
    written = deque(maxlen=PENDING_BOUND // piece + 1)  # the newest writes
    write = img.write

    def recording_write(offset, data):
        written.append((offset, bytes(data)))
        write(offset, data)

    img.write = recording_write
    rc = ReadCache(img, 0, img.size, map_slot_size=128 * 1024)
    for i in range(10_000):
        rc.insert([(i * piece, bytes([i % 251 + 1]) * piece)])
        assert img.pending_bytes <= PENDING_BOUND
    assert img.flushes == 0
    assert img.pending_bytes > PENDING_BOUND - piece  # the bound, not a flush
    pending = list(written)[len(written) - img.pending_writes :]
    assert img.pending_bytes == sum(len(d) for _o, d in pending)

    # per piece-sized slot: what the crash may legitimately leave there
    durable = copy.deepcopy(img)
    durable.crash(rng=random.Random(0), survive_probability=0.0)
    allowed = {}
    for off in range(rc.data_offset, rc.data_offset + rc.data_size, piece):
        allowed[off] = {durable.read(off, piece)}
    del durable
    for off, data in pending:
        allowed[off].add(data)
    assert any(len(states) > 2 for states in allowed.values())
    img.crash(rng=random.Random(5), survive_probability=0.5, allow_torn=False)
    assert img.pending_writes == img.pending_bytes == 0
    for off, states in allowed.items():
        assert img.read(off, piece) in states


def test_image_lose_clears_everything():
    img = DiskImage(8192)
    img.write(0, b"data")
    img.flush()
    img.lose()
    assert img.read(0, 4) == b"\x00\x00\x00\x00"


def test_image_counters():
    img = DiskImage(1 << 16)
    img.write(0, b"abc")
    img.read(0, 3)
    img.flush()
    assert (img.writes, img.reads, img.flushes) == (1, 1, 1)
    assert img.bytes_written == 3
    assert img.bytes_read == 3


# --------------------------------------------------------------------------
# DiskImage against the two-image device it replaced
# --------------------------------------------------------------------------

DIFF_SIZE = 64
COUNTERS = ("pending_writes", "pending_bytes", "writes", "reads", "flushes",
            "bytes_written", "bytes_read")
disk_write = st.tuples(st.just("write"), st.integers(0, DIFF_SIZE), st.binary(max_size=24))
disk_ops = st.lists(
    st.one_of(
        disk_write, disk_write, disk_write,  # mostly writes: enough pending to drain
        st.tuples(st.just("read"), st.integers(0, DIFF_SIZE), st.integers(0, DIFF_SIZE)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("crash"), st.integers(0, 1 << 16),
                  st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.booleans()),
        st.tuples(st.just("crash")),  # unseeded: the rng comes from the image's history
        st.tuples(st.just("lose")),
    ),
    max_size=40,
)


def _disk_step(disk, op):
    try:
        if op[0] == "write":
            return disk.write(op[1], op[2])
        if op[0] == "read":
            return disk.read(op[1], op[2])
        if len(op) > 1:
            return disk.crash(random.Random(op[1]), survive_probability=op[2], allow_torn=op[3])
        return getattr(disk, op[0])()
    except ValueError as exc:  # out of bounds, or a tear of an empty survivor
        return str(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(history=disk_ops)
@example(  # overlapping, unaligned writes; the fourth drains the first; the last tears
    history=[("write", 3, b"a" * 6), ("flush",), ("write", 0, b"c" * 6),
             ("write", 4, b"d" * 5), ("write", 2, b"e" * 4), ("write", 6, b"f" * 3),
             ("crash", 0, 1.0, True), ("read", 0, 16)]
)
def test_undo_log_matches_the_two_image_device(monkeypatch, history):
    """The undo-log image against the two-image, redo-list device it
    replaced, with a 16-byte drain bound: every read, tear, pending count
    and counter, and the whole content, agree after every step."""
    monkeypatch.setattr("repro.devices.image.PENDING_BOUND", 16)
    new, ref = DiskImage(DIFF_SIZE), TwoImageDisk(DIFF_SIZE)
    for step, op in enumerate(history):
        assert _disk_step(new, op) == _disk_step(ref, op), (step, op)
        assert bytes(new.view()) == bytes(ref._data), (step, op)
        assert [getattr(new, c) for c in COUNTERS] == [getattr(ref, c) for c in COUNTERS]
