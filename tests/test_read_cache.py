"""Tests for the FIFO read cache (§3.1)."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import read_cache
from repro.core.config import LSVDConfig
from repro.core.extent_map import ExtentMap
from repro.core.log import align_up
from repro.core.read_cache import RC_TARGET, ReadCache
from repro.core.validate import InvariantReport, _check_read_cache_log
from repro.devices.image import DiskImage
from repro.obs import Registry

MiB = 1 << 20


def make_cache(size=2 * MiB, slot=128 * 1024):
    img = DiskImage(size, name="rc-ssd")
    return ReadCache(img, 0, size, map_slot_size=slot)


def test_insert_and_read_back():
    rc = make_cache()
    rc.insert([(4096, b"R" * 4096)])
    [(lba, length, data)] = rc.read(4096, 4096)
    assert (lba, length, data) == (4096, 4096, b"R" * 4096)


def test_miss_returns_empty_and_counts():
    rc = make_cache()
    assert rc.read(0, 4096) == []
    rc.insert([(0, b"x" * 4096)])
    rc.read(0, 4096)
    assert rc.misses == 1
    assert rc.hits == 1
    assert rc.hit_rate == pytest.approx(0.5)


def test_partial_hit():
    rc = make_cache()
    rc.insert([(0, b"a" * 4096)])
    pieces = rc.read(0, 8192)
    assert len(pieces) == 1
    assert pieces[0][:2] == (0, 4096)


def test_invalidate_removes_range():
    rc = make_cache()
    rc.insert([(0, b"a" * 8192)])
    rc.invalidate(0, 4096)
    pieces = rc.read(0, 8192)
    assert [(p[0], p[1]) for p in pieces] == [(4096, 4096)]


def test_fifo_eviction_when_full():
    rc = make_cache(size=512 * 1024 + 128 * 1024)  # 512K data area
    n = 0
    # insert 1 MiB of distinct blocks: early ones must be evicted
    for i in range(256):
        rc.insert([(i * 4096, bytes([i % 251 + 1]) * 4096)])
        n += 1
    assert rc.read(0, 4096) == []  # oldest gone
    [(_, _, data)] = rc.read(255 * 4096, 4096)  # newest present
    assert data == bytes([255 % 251 + 1]) * 4096
    assert rc.evicted_bytes > 0


def test_reinsert_after_eviction_works():
    rc = make_cache(size=512 * 1024 + 128 * 1024)
    for i in range(300):
        rc.insert([((i % 40) * 4096, bytes([(i % 250) + 1]) * 4096)])
    # last writer wins for every lba still cached: i=299 wrote lba 19*4096
    [(_, _, data)] = rc.read(19 * 4096, 4096)
    assert data == bytes([(299 % 250) + 1]) * 4096


def test_oversized_insert_is_skipped():
    rc = make_cache(size=256 * 1024 + 128 * 1024)
    rc.insert([(0, b"z" * (1 << 20))])
    assert rc.read(0, 4096) == []


def test_unaligned_length_padded_footprint():
    rc = make_cache()
    rc.insert([(0, b"q" * 1000)])
    [(lba, length, data)] = rc.read(0, 1000)
    assert data == b"q" * 1000


def test_save_and_load_map():
    rc = make_cache()
    rc.insert([(0, b"warm" * 1024)])
    rc.save_map()
    fresh = ReadCache(rc.image, 0, rc.image.size, map_slot_size=rc.slot_size)
    assert fresh.load_map()
    [(_, _, data)] = fresh.read(0, 4096)
    assert data == b"warm" * 1024


def test_load_map_cold_on_garbage():
    rc = make_cache()
    fresh = ReadCache(rc.image, 0, rc.image.size, map_slot_size=rc.slot_size)
    assert not fresh.load_map()


def test_clear_empties():
    rc = make_cache()
    rc.insert([(0, b"a" * 4096)])
    rc.clear()
    assert rc.read(0, 4096) == []


def test_region_too_small_rejected():
    img = DiskImage(64 * 1024)
    with pytest.raises(ValueError):
        ReadCache(img, 0, 64 * 1024, map_slot_size=64 * 1024)


def test_eviction_precise_clipping():
    """Evicting a region must clip overlapping entries, not nuke them."""
    rc = make_cache(size=256 * 1024 + 128 * 1024)  # 256K ring
    rc.insert([(0, b"A" * 16384)])  # occupies ring [0, 16K)
    # fill the rest of the ring exactly
    rc.insert([(1 << 20, b"B" * (256 * 1024 - 16384))])
    # next insert wraps and overwrites part of the first entry
    rc.insert([(2 << 20, b"C" * 8192)])
    pieces = rc.read(0, 16384)
    # the first 8K of entry A was evicted; the tail may survive
    for lba, length, _data in pieces:
        assert lba >= 8192


# ---------------------------------------------------------------------------
# FIFO insertion log: differential, scaling and burst tests
# ---------------------------------------------------------------------------
KiB = 1 << 10
RING = 64 * KiB
SLOT = 64 * KiB


class ScanModel:
    """The cache as it was before the insertion log: eviction scans the
    whole map for entries living in the bytes about to be overwritten.
    Kept here only as the reference the log-based cache is compared with."""

    def __init__(self, data_offset: int, data_size: int):
        self.data_offset, self.data_size = data_offset, data_size
        self.map = ExtentMap()
        self.ring = 0
        self.evicted = self.inserted = 0
        self.bytes = bytearray(data_offset + data_size)

    def _phys(self, virt):
        return self.data_offset + virt % self.data_size

    def insert(self, lba, data):
        length = len(data)
        footprint = align_up(length)
        if length == 0 or footprint > self.data_size:
            return
        virt = self.ring
        room = self.data_size - virt % self.data_size
        if room < footprint:
            self._evict_range(self._phys(virt), room)  # the wrap slack
            virt += room
        self.ring = virt + footprint
        phys = self._phys(virt)
        self._evict_range(phys, footprint)
        self.bytes[phys : phys + length] = data
        self.map.update(lba, length, RC_TARGET, phys)
        self.inserted += length

    def _evict_range(self, phys, length):
        end = phys + length
        for ext in [e for e in self.map if e.offset < end and e.offset + e.length > phys]:
            lo, hi = max(ext.offset, phys), min(ext.offset + ext.length, end)
            self.map.remove(ext.lba + (lo - ext.offset), hi - lo)
            self.evicted += hi - lo

    def invalidate(self, lba, length):
        self.map.remove(lba, length)

    def read(self, lba, length):
        return [
            (e.lba, e.length, bytes(self.bytes[e.offset : e.offset + e.length]))
            for e in self.map.lookup(lba, length)
        ]

    def reload(self):
        rows = [(e.lba, e.length, e.offset) for e in self.map]
        self.map = ExtentMap()
        for lba, length, offset in rows:
            self.map.update(lba, length, RC_TARGET, offset)


def small_cache(obs=None):
    img = DiskImage(SLOT + RING, name="rc-ssd")
    return ReadCache(img, 0, img.size, map_slot_size=SLOT, obs=obs)


def run_differential(ops):
    """Apply ``ops`` to the real cache and the scan model, comparing the
    map, the counters and every read after each step."""
    rc = small_cache()
    assert rc.data_size == RING
    model = ScanModel(rc.data_offset, rc.data_size)
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "insert":
            rc.insert([(op[1], op[2])])
            model.insert(op[1], op[2])
        elif kind == "burst":
            rc.insert(op[1])
            for lba, data in op[1]:
                model.insert(lba, data)
        elif kind == "invalidate":
            rc.invalidate(op[1], op[2])
            model.invalidate(op[1], op[2])
        elif kind == "read":
            assert rc.read(op[1], op[2]) == model.read(op[1], op[2]), step
        elif kind == "reload":  # clean shutdown + warm start, same wire format
            rc.save_map()
            warm = ReadCache(rc.image, 0, rc.image.size, map_slot_size=SLOT, obs=rc.obs)
            assert warm.load_map()
            rc = warm
            model.reload()
        assert list(rc.map) == list(model.map), (step, op[:1])
        assert rc.evicted_bytes == model.evicted, (step, op[:1])
        assert rc.inserted_bytes == model.inserted
        assert rc._ring_virt == model.ring
        report = InvariantReport()
        _check_read_cache_log(SimpleNamespace(rc=rc, config=LSVDConfig()), report)
        assert report.ok, (step, report.violations)
    return rc


def payload(rng, length):
    return bytes([rng.randrange(1, 256)]) * length


def test_differential_random_steps_against_the_scan_model():
    rng = random.Random(12)
    lengths = [100, 512, 1000, 4 * KiB, 4 * KiB, 8 * KiB, 12 * KiB, 20 * KiB, 5000]
    span = 96 * KiB  # LBA space 1.5x the ring: hits, re-inserts and evictions

    def piece():
        length = rng.choice(lengths)
        if rng.random() < 0.02:
            length = RING + 4 * KiB  # oversized: must be skipped
        lba = rng.randrange(0, span, 512)
        return lba, payload(rng, length)

    ops = []
    for _ in range(6000):
        roll = rng.random()
        if roll < 0.35:
            ops.append(("insert", *piece()))
        elif roll < 0.55:
            ops.append(("burst", [piece() for _ in range(rng.randrange(0, 6))]))
        elif roll < 0.75:
            ops.append(("invalidate", rng.randrange(0, span, 512), rng.choice([512, 4 * KiB, 16 * KiB])))
        elif roll < 0.97:
            ops.append(("read", rng.randrange(0, span, 512), rng.choice([512, 4 * KiB, 32 * KiB])))
        else:
            ops.append(("reload",))
    rc = run_differential(ops)
    assert rc._ring_virt > 50 * RING  # the ring wrapped many times
    assert rc.evicted_bytes > 0


def test_differential_wrap_slack_is_evicted():
    a, b, c = (bytes([n]) * 24 * KiB for n in (1, 2, 3))
    d = bytes([4]) * 20 * KiB
    # ring 64K: a@0, b@24K, then 16K of room < 24K: c wraps to 0 over a,
    # and d's sweep must also pass the 16K of slack nobody wrote to
    ops = [("insert", 0, a), ("insert", 1 << 20, b), ("insert", 2 << 20, c),
           ("read", 0, 24 * KiB), ("insert", 3 << 20, d), ("read", 1 << 20, 24 * KiB)]
    rc = run_differential(ops)
    assert rc.read(0, 4 * KiB) == []
    assert [p[:2] for p in rc.read(1 << 20, 24 * KiB)] == [((1 << 20) + 20 * KiB, 4 * KiB)]


def test_differential_partly_overwritten_head_record_is_shrunk():
    big = bytes([7]) * RING
    ops = [("insert", 0, big), ("insert", 1 << 20, b"n" * 4 * KiB), ("read", 0, RING),
           ("insert", 2 << 20, b"m" * 1000), ("read", 0, RING)]
    rc = run_differential(ops)
    # 8K of the 64K record are gone, the other 56K still readable
    assert [(p[0], p[1]) for p in rc.read(0, RING)] == [(8 * KiB, 56 * KiB)]
    assert rc._log[0] == (8 * KiB, 56 * KiB, 8 * KiB)


def test_differential_stale_record_never_drops_a_reinserted_lba():
    fill = bytes([9]) * (RING - 8 * KiB)
    ops = [
        ("insert", 0, b"old" * 1365 + b"o"),  # record 1: lba 0 @ ring 0
        ("invalidate", 0, 4 * KiB),            # record 1 is now stale
        ("insert", 0, b"new!" * 1024),         # lba 0 again @ ring 4K
        ("insert", 1 << 20, fill),             # ring full
        ("insert", 2 << 20, b"x" * 4 * KiB),   # overwrites ring 0: stale record goes
        ("read", 0, 4 * KiB),
    ]
    rc = run_differential(ops)
    assert rc.read(0, 4 * KiB) == [(0, 4 * KiB, b"new!" * 1024)]
    assert rc.evicted_bytes == 0
    rc.insert([(3 << 20, b"y" * 4 * KiB)])  # now the live copy's bytes are overwritten
    assert rc.read(0, 4 * KiB) == []
    assert rc.evicted_bytes == 4 * KiB


def test_differential_same_lba_same_ring_offset_one_lap_later():
    """A re-insert landing on the very offset of its stale predecessor."""
    ops = [("insert", 0, b"a" * 4 * KiB), ("insert", 1 << 20, bytes([5]) * (RING - 4 * KiB)),
           ("insert", 0, b"b" * 4 * KiB), ("read", 0, 4 * KiB)]
    rc = run_differential(ops)
    assert rc.read(0, 4 * KiB) == [(0, 4 * KiB, b"b" * 4 * KiB)]
    assert rc.evicted_bytes == 4 * KiB


def test_differential_unaligned_lengths_and_oversized_skip():
    ops = [("insert", 512, b"q" * 1000), ("insert", 8 * KiB, b"r" * 5000),
           ("insert", 0, b"z" * (RING + 1)), ("read", 0, 16 * KiB),
           ("burst", [(1 << 20, b"s" * 100), (2 << 20, b"t" * (2 * RING)), (3 << 20, b"u" * 4097)]),
           ("reload",), ("insert", 4 << 20, bytes([3]) * (RING - 4 * KiB)), ("read", 0, 16 * KiB)]
    rc = run_differential(ops)
    # 24K placed, then 40K of room < 60K: the last insert starts the next lap
    assert rc._ring_virt == RING + RING - 4 * KiB


def test_differential_reload_splits_an_extent_coalesced_across_the_pointer():
    ops = [
        ("insert", 100 * KiB, b"x" * 4 * KiB),              # ring 0
        ("insert", 4 * KiB, b"y" * 8 * KiB),                # ring 4K: lba 4K-12K
        ("insert", 1 << 20, bytes([2]) * (RING - 12 * KiB)),  # ring full
        ("insert", 0, b"w" * 4 * KiB),  # next lap, ring 0: lba 0-4K joins lba 4K-12K
        ("reload",),                    # one 12K extent, a lap boundary inside it
        ("insert", 2 << 20, b"v" * 4 * KiB),  # overwrites ring 4K: lba 4K-8K only
        ("read", 0, 12 * KiB),
    ]
    rc = run_differential(ops)
    assert [(p[0], p[1]) for p in rc.read(0, 12 * KiB)] == [(0, 4 * KiB), (8 * KiB, 4 * KiB)]


class CarveEvictCache(ReadCache):
    """Eviction as it was before ``ExtentMap.remove_matching``: carve the
    head record's LBAs out of the map, then map back every piece that lives
    elsewhere.  Kept here only as the reference ``_evict_head`` is compared
    with."""

    def _evict_head(self, horizon):
        virt, length, lba = self._log[0]
        cut = horizon - virt
        if cut >= length:
            cut = length
            self._log.popleft()
        else:
            self._log[0] = (horizon, length - cut, lba + cut)
        phys = self._phys(virt)
        dropped = 0
        for ext in self.map.remove(lba, cut):
            if ext.offset == phys + (ext.lba - lba):
                dropped += ext.length
            else:
                self.map.update(ext.lba, ext.length, RC_TARGET, ext.offset)
        self._lap_evicted += dropped
        return dropped


SECTORS = st.sampled_from([1, 8, 9, 24, 56, 120])  # 512 B .. 60 KiB pieces
ring_histories = st.lists(
    st.one_of(
        st.tuples(
            st.just("burst"),
            st.lists(st.tuples(st.integers(0, 255), SECTORS), min_size=1, max_size=5),
            st.integers(0, 255),
        ),
        st.tuples(st.just("invalidate"), st.integers(0, 255), SECTORS),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=ring_histories)
def test_differential_one_pass_eviction_against_carve_and_put_back(history):
    """Over a 128 KiB LBA span (two rings) of 512 B .. 60 KiB pieces: heads
    the pointer only partly overwrites, records gone stale by ``invalidate``
    or by a re-insert elsewhere, and many ring wraps."""
    img = DiskImage(SLOT + RING, name="rc-ssd")
    new = ReadCache(img, 0, img.size, map_slot_size=SLOT)
    ref = CarveEvictCache(DiskImage(SLOT + RING), 0, img.size, map_slot_size=SLOT)
    for step, op in enumerate(history):
        if op[0] == "burst":
            pieces = [(s * 512, bytes([(step + s) % 255 + 1]) * n * 512) for s, n in op[1]]
            for rc in (new, ref):
                rc.insert(pieces, demand=(op[2] * 512, 4 * KiB))
        else:
            for rc in (new, ref):
                rc.invalidate(op[1] * 512, op[2] * 512)
        assert new.map.entries() == ref.map.entries(), step
        assert new._log == ref._log, step
        assert new.evicted_bytes == ref.evicted_bytes, step
        assert new._prefetched == ref._prefetched, step
    assert new.image.read(0, img.size) == ref.image.read(0, img.size)


class NullImage:
    """Stands in for the SSD where only the map work is under test."""

    def __init__(self, size):
        self.size = size

    def write(self, offset, data):
        pass


def test_insert_cost_does_not_grow_with_the_map(monkeypatch, count_routings):
    """No clock: eviction may not iterate the map at all, and an insert
    routes into the map as often at 1k as at 50k cached extents."""

    def routings_per_insert(extents):
        rc = ReadCache(NullImage(SLOT + extents * 4 * KiB), 0, map_slot_size=SLOT)
        for i in range(extents):  # one lap: fills the ring, evicts nothing
            rc.insert([(i * 8 * KiB, b"\0" * 4 * KiB)])
        assert len(rc.map) == extents and rc.evicted_bytes == 0

        def no_iteration(self):
            raise AssertionError("eviction iterated the whole extent map")

        with monkeypatch.context() as patch:
            patch.setattr(ExtentMap, "__iter__", no_iteration)
            routed = count_routings(rc.map)
            for i in range(200):  # second lap: every insert evicts one record
                rc.insert([((extents + i) * 8 * KiB, b"\0" * 4 * KiB)])
            rc.insert([((extents + 200 + i) * 8 * KiB, b"\0" * 4 * KiB) for i in range(50)])
        assert rc.evicted_bytes == 250 * 4 * KiB and len(rc.map) == extents
        return len(routed)

    small, large = routings_per_insert(1_000), routings_per_insert(50_000)
    assert small == large
    # every map operation routes once: per piece, the remove that evicts the
    # ring head's record and the single-pass update that maps the piece
    assert small == 2 * 250


def test_burst_equals_the_same_pieces_one_by_one():
    rng = random.Random(4)
    lengths = [100, 1000, 4 * KiB, 8 * KiB, 12 * KiB, 5000, RING + 512]
    one, many = small_cache(obs=Registry()), small_cache(obs=Registry())
    for _ in range(400):
        burst = [
            (rng.randrange(0, 96 * KiB, 512), payload(rng, rng.choice(lengths)))
            for _ in range(rng.randrange(0, 12))  # up to ~1.5 rings per burst
        ]
        for lba, data in burst:
            one.insert([(lba, data)])
        many.insert(burst)
        if rng.random() < 0.3:
            lba = rng.randrange(0, 96 * KiB, 512)
            one.invalidate(lba, 8 * KiB)
            many.invalidate(lba, 8 * KiB)
        assert list(many.map) == list(one.map)
        assert many._ring_virt == one._ring_virt
        assert many._log == one._log
        for name in ("rc.inserted_bytes", "rc.evicted_bytes", "rc.occupancy_bytes"):
            assert many.obs.value(name) == one.obs.value(name), name
    assert many.image.read(0, many.image.size) == one.image.read(0, one.image.size)
    assert many.evicted_bytes > 10 * RING
    # the per-lap trace does not depend on how inserts were grouped either
    assert many.obs.trace.to_jsonl() == one.obs.trace.to_jsonl()


def test_cache_evict_is_traced_once_per_ring_lap():
    rc = small_cache(obs=Registry())
    for i in range(16 * 5 + 3):  # 16 x 4 KiB per lap: five full laps and a bit
        rc.insert([(i * 4 * KiB, bytes([i % 255 + 1]) * 4 * KiB)])
    events = rc.obs.trace.events("cache_evict")
    # lap 0 evicts nothing; laps 1-4 each evicted one ring's worth
    assert [dict(e.fields)["bytes"] for e in events] == [RING] * 4
    assert rc.evicted_bytes == 4 * RING + 3 * 4 * KiB


def test_clear_empties_the_log_too():
    rc = small_cache()
    for i in range(20):
        rc.insert([(i * 4 * KiB, b"c" * 4 * KiB)])
    rc.clear()
    assert len(rc._log) == 0 and rc._ring_virt == 0
    rc.insert([(0, b"d" * 4 * KiB)])
    assert rc.read(0, 4 * KiB) == [(0, 4 * KiB, b"d" * 4 * KiB)]
    assert list(rc._log) == [(0, 4 * KiB, 0)]


# ---------------------------------------------------------------------------
# persistence: a save belongs to one clean shutdown
# ---------------------------------------------------------------------------
def test_load_map_rejects_another_shutdowns_stamp():
    rc = make_cache()
    rc.insert([(0, b"warm" * 1024)])
    rc.save_map(stamp=(7, 3))
    fresh = ReadCache(rc.image, 0, rc.image.size, map_slot_size=rc.slot_size)
    assert not fresh.load_map(stamp=(7, 4)) and len(fresh.map) == 0
    assert not fresh.load_map()  # an unstamped load does not match either
    assert fresh.load_map(stamp=(7, 3)) and len(fresh.map) == 1


def test_declined_save_erases_the_previous_map():
    rc = make_cache(size=8 * MiB, slot=4 * KiB)  # slot holds ~165 rows
    rc.insert([(0, b"a" * 4 * KiB)])
    rc.save_map()
    for i in range(400):  # 400 disjoint extents: too many rows for the slot
        rc.insert([((2 * i + 10) * 4 * KiB, b"b" * 4 * KiB)])
    rc.save_map()
    fresh = ReadCache(rc.image, 0, rc.image.size, map_slot_size=rc.slot_size)
    assert not fresh.load_map() and len(fresh.map) == 0


def test_loaded_blocks_start_with_clear_readahead_flags():
    rc = small_cache()
    rc.insert([(0, b"p" * 32 * KiB)], demand=(0, 4 * KiB))
    assert sum(rc._prefetched) == 7
    rc.save_map()
    warm = ReadCache(rc.image, 0, rc.image.size, map_slot_size=SLOT)
    warm._prefetched[3] = 1
    assert warm.load_map() and sum(warm._prefetched) == 0
    rc.clear()
    assert sum(rc._prefetched) == 0


# ---------------------------------------------------------------------------
# read-ahead controller: flags, verdicts, window
# ---------------------------------------------------------------------------
WIDEST = 128 * KiB


def test_burst_flags_everything_outside_the_demanded_range():
    rc = small_cache()
    # one 20 KiB piece around a demanded 4 KiB, one piece clear of it, and
    # a sub-block demand that still takes its whole block
    rc.insert(
        [(16 * KiB, b"a" * 20 * KiB), (1 << 20, b"b" * 8 * KiB)], demand=(24 * KiB, 4 * KiB)
    )
    assert list(rc._prefetched[:7]) == [1, 1, 0, 1, 1, 1, 1]
    rc.insert([(2 << 20, b"c" * 8 * KiB)], demand=((2 << 20) + 4 * KiB + 512, 512))
    assert list(rc._prefetched[7:9]) == [1, 0]
    rc.insert([(3 << 20, b"d" * 8 * KiB)])  # no demand given: all asked for
    assert list(rc._prefetched[9:11]) == [0, 0]
    assert (rc._used, rc._wasted) == (0, 0)


def test_each_prefetched_block_gets_one_verdict():
    rc = small_cache(obs=Registry())
    rc.insert([(0, b"a" * RING)], demand=(0, 4 * KiB))  # 15 flagged
    rc.read(4 * KiB, 8 * KiB)
    rc.read(4 * KiB, 12 * KiB)  # only the third block is news
    assert (rc._used, rc._wasted, rc.prefetch_used_bytes) == (3, 0, 12 * KiB)
    rc.invalidate(16 * KiB, 4 * KiB)  # written over before anyone read it
    rc.insert([(1 << 20, b"b" * 24 * KiB)], demand=(1 << 20, 24 * KiB))
    # the pointer passed ring blocks 0-5: two were still flagged
    assert (rc._used, rc._wasted, rc.prefetch_wasted_bytes) == (3, 2, 8 * KiB)
    assert sum(rc._prefetched) == 10
    rc.read(24 * KiB, 40 * KiB)
    assert (rc._used, rc._wasted, sum(rc._prefetched)) == (13, 2, 0)


def test_wrap_slack_flags_are_wasted_verdicts():
    rc = small_cache()
    # lap 0: blocks 0-9 and 10-15, the first block of each asked for
    rc.insert([(0, b"a" * 40 * KiB)], demand=(0, 4 * KiB))
    rc.insert([(1 << 20, b"b" * 24 * KiB)], demand=(1 << 20, 4 * KiB))
    assert (rc._wasted, sum(rc._prefetched)) == (0, 14)
    # lap 1 overwrites blocks 0-5, five of them still flagged
    rc.insert([(2 << 20, b"c" * 24 * KiB)], demand=(2 << 20, 24 * KiB))
    assert rc._ring_virt == RING + 24 * KiB
    assert (rc._wasted, sum(rc._prefetched)) == (5, 9)
    # 40 KiB of room < 48 KiB: blocks 6-15 are skipped as wrap slack (nine
    # flagged), and the piece lands on blocks 0-11 of lap 2
    rc.insert([(3 << 20, b"d" * 48 * KiB)], demand=(3 << 20, 48 * KiB))
    assert rc._ring_virt == 2 * RING + 48 * KiB
    assert (rc._wasted, sum(rc._prefetched)) == (14, 0)


def lap(rc, lba, used):
    """One 16-block ring lap of pure read-ahead, ``used`` blocks of it read
    before the next lap overwrites the rest (16 verdicts, ``used`` of them
    good), then one miss.  Returns the window the controller settled on
    (what it *answers* is that or, on a probe fetch, the widest)."""
    rc.insert([(lba, b"r" * RING)], demand=(lba + RING, 4 * KiB))
    if used:
        rc.read(lba, used * 4 * KiB)
    answer = rc.readahead_window(4 * KiB, WIDEST)
    assert answer in (rc._window, WIDEST)
    return rc._window


def windows_at(used_of_16, start=WIDEST, laps=400):
    rc = small_cache(obs=Registry())
    rc._window = start
    return rc, [lap(rc, i * RING, used_of_16) for i in range(laps)]


def resizes(rc):
    return [
        (dict(e.fields)["previous"], dict(e.fields)["window"])
        for e in rc.obs.trace.events("readahead_resize")
    ]


def test_window_holds_inside_the_band():
    for used in (5, 7):  # 31 % and 44 % used: between 25 % and 50 %
        for start in (WIDEST, 16 * KiB, 4 * KiB):
            rc, seen = windows_at(used, start)
            assert set(seen) == {start}
            assert resizes(rc) == []


def test_window_only_narrows_below_the_band_and_stops_at_one_block():
    rc, seen = windows_at(3)  # 19 % used
    assert seen == sorted(seen, reverse=True) and seen[-1] == 4 * KiB
    steps = [128 * KiB, 64 * KiB, 32 * KiB, 16 * KiB, 8 * KiB, 4 * KiB]
    assert resizes(rc) == list(zip(steps, steps[1:]))  # one event per change
    assert rc.obs.value("rc.readahead_window_bytes") == 4 * KiB


def test_window_only_widens_from_half_used_and_stops_at_the_limit():
    rc, seen = windows_at(8, start=4 * KiB)  # exactly 50 % used
    assert seen == sorted(seen) and seen[-1] == WIDEST
    steps = [4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB]
    assert resizes(rc) == list(zip(steps, steps[1:]))
    assert rc.obs.value("rc.readahead_window_bytes") == WIDEST
    # just under a quarter / just under a half sit on the hold side
    assert set(windows_at(4, 32 * KiB)[1]) == {32 * KiB}  # 25 %: holds


def test_window_never_answers_less_than_the_request_or_more_than_the_limit():
    rc, _seen = windows_at(0, laps=200)
    assert rc._window == 4 * KiB
    assert rc.readahead_window(24 * KiB, WIDEST) in (24 * KiB, WIDEST)
    assert rc.readahead_window(256 * KiB, WIDEST) == 256 * KiB
    # a limit below one block (read-ahead configured off) is its own floor
    tiny = small_cache()
    assert tiny.readahead_window(512, 512) == 512
    assert tiny.readahead_window(4 * KiB, 512) == 4 * KiB


def test_narrowed_window_probes_at_full_width_every_nth_fetch():
    rc, _seen = windows_at(0, laps=200)
    answers = [rc.readahead_window(4 * KiB, WIDEST) for _ in range(64)]
    assert answers.count(WIDEST) == 64 // read_cache.READAHEAD_PROBE
    assert set(answers) == {4 * KiB, WIDEST}
    gaps = [i for i, w in enumerate(answers) if w == WIDEST]
    assert {b - a for a, b in zip(gaps, gaps[1:])} == {read_cache.READAHEAD_PROBE}
