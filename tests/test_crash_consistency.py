"""Tests for the prefix-consistency checker, plus randomized end-to-end
crash tests of LSVD and bcache (the machinery behind Table 4)."""

import random
from unittest import mock

import pytest

from repro.baselines import make_bcache_rbd
from repro.core import LSVDConfig, LSVDVolume
from repro.core.write_cache import WriteCache
from repro.crash import HistoryRecorder, PrefixChecker, decode_stamp, stamp_data
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


# -- stamp encoding -----------------------------------------------------------


def test_stamp_roundtrip():
    data = stamp_data(42, 4096)
    assert len(data) == 4096
    assert decode_stamp(data[:512]) == 42
    assert decode_stamp(data[512:1024]) == 42


def test_stamp_rejects_garbage_and_torn():
    assert decode_stamp(b"\x00" * 512) is None
    torn = bytearray(stamp_data(1, 512))
    torn[300] ^= 0xFF
    assert decode_stamp(bytes(torn)) is None


def test_stamp_requires_alignment():
    with pytest.raises(ValueError):
        stamp_data(1, 100)


# -- checker on a plain image -------------------------------------------------


def test_checker_accepts_full_history():
    img = DiskImage(1 * MiB)
    rec = HistoryRecorder(img.write, img.flush)
    for i in range(10):
        rec.write(i * 4096, 4096)
    rec.barrier()
    verdict = PrefixChecker(rec).check(img.read, require_committed=True)
    assert verdict.ok_prefix and verdict.ok_committed
    assert verdict.cut == 10


def test_checker_accepts_clean_prefix():
    img = DiskImage(1 * MiB)
    rec = HistoryRecorder(img.write, img.flush)
    for i in range(10):
        rec.write(i * 4096, 4096)
    # roll back the last 4 writes (a clean prefix of 6)
    img2 = DiskImage(1 * MiB)
    rec2 = HistoryRecorder(img2.write, img2.flush)
    replay = HistoryRecorder(img2.write, img2.flush)  # unused; direct writes
    for i, r in enumerate(rec.history[:6]):
        img2.write(r.offset, stamp_data(r.write_id, r.length))
    verdict = PrefixChecker(rec).check(img2.read)
    assert verdict.ok_prefix
    assert verdict.cut == 6


def test_checker_rejects_gap_in_history():
    """Later write present without an earlier overlapping-epoch write."""
    img = DiskImage(1 * MiB)
    rec = HistoryRecorder(lambda o, d: None)  # writes go nowhere
    w1 = rec.write(0, 4096)
    w2 = rec.write(8192, 4096)
    # apply only w2 to the image: not a prefix
    img.write(8192, stamp_data(w2, 4096))
    verdict = PrefixChecker(rec).check(img.read)
    assert not verdict.ok_prefix
    assert any("requires write" in p for p in verdict.problems)


def test_checker_detects_lost_committed_write():
    img = DiskImage(1 * MiB)
    rec = HistoryRecorder(lambda o, d: None)
    w1 = rec.write(0, 4096)
    rec.barrier()  # w1 committed
    rec.write(4096, 4096)
    # image reflects nothing at all: cut=0 < committed=1
    verdict = PrefixChecker(rec).check(img.read, require_committed=True)
    assert verdict.ok_prefix  # empty state is a valid (trivial) prefix
    assert verdict.lost_committed
    assert not verdict.ok_committed


def test_checker_overwrites_same_lba():
    img = DiskImage(1 * MiB)
    rec = HistoryRecorder(img.write, img.flush)
    rec.write(0, 4096)
    rec.write(0, 4096)  # overwrite
    verdict = PrefixChecker(rec).check(img.read)
    assert verdict.ok_prefix
    assert verdict.cut == 2


# -- end-to-end: LSVD passes, bcache fails (Table 4) --------------------------


def lsvd_stack(cache_size=2 * MiB):
    store = InMemoryObjectStore()
    image = DiskImage(cache_size)
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=16)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, image, cfg)
    return store, image, cfg, vol


@pytest.mark.parametrize("seed", range(5))
def test_lsvd_crash_with_cache_is_prefix_consistent_and_loses_nothing(seed):
    store, image, cfg, vol = lsvd_stack()
    rng = random.Random(seed)
    rec = HistoryRecorder(vol.write, vol.flush)
    for i in range(150):
        rec.write(rng.randrange(0, 1024) * 4096, 4096 * rng.randrange(1, 3))
        if rng.random() < 0.2:
            rec.barrier()
    rec.barrier()
    image.crash(rng=rng)
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    verdict = PrefixChecker(rec).check(vol2.read, require_committed=True)
    assert verdict.ok_prefix, verdict.problems[:3]
    assert verdict.ok_committed, (verdict.cut, verdict.committed_through)


@pytest.mark.parametrize("seed", range(5))
def test_lsvd_cache_loss_is_still_prefix_consistent(seed):
    """Table 4, LSVD rows: even deleting the cache yields a mountable,
    prefix-consistent image."""
    store, image, cfg, vol = lsvd_stack()
    rng = random.Random(100 + seed)
    rec = HistoryRecorder(vol.write, vol.flush)
    for i in range(200):
        rec.write(rng.randrange(0, 1024) * 4096, 4096)
        if rng.random() < 0.1:
            rec.barrier()
    fresh = DiskImage(2 * MiB)
    vol2 = LSVDVolume.open(store, "vd", fresh, cfg, cache_lost=True)
    verdict = PrefixChecker(rec).check(vol2.read)
    assert verdict.ok_prefix, verdict.problems[:3]
    # committed writes MAY be lost in this worst case - that is the
    # documented prefix-consistency guarantee, not a bug.


def test_bcache_cache_loss_violates_prefix_consistency():
    """Table 4, bcache row 2: the backing image after cache loss is NOT a
    prefix of the write history."""
    violations = 0
    for seed in range(8):
        cache, backing, _img = make_bcache_rbd("b", 16 * MiB, 2 * MiB)
        rng = random.Random(seed)
        rec = HistoryRecorder(cache.write, cache.flush)
        for i in range(150):
            rec.write(rng.randrange(0, 1024) * 4096, 4096)
            if rng.random() < 0.15:
                # bcache destages opportunistically between bursts, in
                # LBA order, i.e. NOT in write order - and slowly, so a
                # large dirty backlog remains at the crash (Figure 11)
                cache.writeback_step(max_blocks=2)
        cache.lose_cache()
        verdict = PrefixChecker(rec).check(
            lambda off, n: backing.read(off, n)[0]
        )
        if not verdict.ok_prefix:
            violations += 1
    assert violations > 0, "bcache should corrupt at least one run"


# -- temperature-aware placement: crash across open class batches -------------


def sepbit_stack():
    store = InMemoryObjectStore()
    image = DiskImage(2 * MiB)
    cfg = LSVDConfig(
        batch_size=32 * 1024,
        checkpoint_interval=8,
        placement="sepbit",
        gc_policy="cost_benefit",
    )
    vol = LSVDVolume.create(store, "vd", 8 * MiB, image, cfg)
    return store, image, cfg, vol


@pytest.mark.parametrize("seed", range(5))
def test_crash_with_open_class_batches_is_prefix_consistent(seed):
    """Class separation must not weaken Table 4: with writes spread over
    several open temperature batches and GC relocating class-tagged
    objects, a crash still recovers to a committed-complete prefix, and
    recovery re-registers every object under its header's class."""
    store, image, cfg, vol = sepbit_stack()
    rng = random.Random(40 + seed)
    rec = HistoryRecorder(vol.write, vol.flush)
    saw_multi_batch = False
    for i in range(800):
        # 80 % of writes hammer an eighth of the span: hot/warm/cold all
        # get traffic and the dead-byte churn keeps GC rounds running
        if rng.random() < 0.8:
            lba = rng.randrange(0, 256) * 4096
        else:
            lba = rng.randrange(0, 2048) * 4096
        rec.write(lba, 4096)
        if rng.random() < 0.15:
            rec.barrier()
        open_batches = sum(1 for b in vol.bs.batches.values() if not b.is_empty)
        saw_multi_batch = saw_multi_batch or open_batches >= 2
    # fixture guards: the run really did interleave class batches and
    # relocate class-tagged GC objects before the crash
    assert saw_multi_batch
    assert vol.bs.stats.gc_bytes > 0
    image.crash(rng=rng)
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    verdict = PrefixChecker(rec).check(vol2.read, require_committed=True)
    assert verdict.ok_prefix, verdict.problems[:3]
    assert verdict.ok_committed, (verdict.cut, verdict.committed_through)
    # replay rebuilt the per-class view from the object headers: the
    # class breakdown covers exactly the recovered object set, and the
    # skewed run left more than one temperature populated
    occ = vol2.bs.occupancy_by_class()
    live = sum(l for l, _t in occ.values())
    total = sum(t for _l, t in occ.values())
    assert (live, total) == vol2.bs.occupancy()
    assert sum(1 for _l, t in occ.values() if t > 0) >= 2


@pytest.mark.parametrize("seed", range(3))
def test_cache_loss_with_open_class_batches_is_prefix_consistent(seed):
    """Worst case: every open class batch dies with the cache, yet the
    sealed per-class objects on the backend are still an exact record
    prefix (the lockstep group-seal guarantee)."""
    store, image, cfg, vol = sepbit_stack()
    rng = random.Random(70 + seed)
    rec = HistoryRecorder(vol.write, vol.flush)
    for i in range(800):
        lba = rng.randrange(0, 256 if rng.random() < 0.8 else 2048) * 4096
        rec.write(lba, 4096)
        if rng.random() < 0.1:
            rec.barrier()
    fresh = DiskImage(2 * MiB)
    vol2 = LSVDVolume.open(store, "vd", fresh, cfg, cache_lost=True)
    verdict = PrefixChecker(rec).check(vol2.read)
    assert verdict.ok_prefix, verdict.problems[:3]


def test_lsvd_beats_bcache_on_crash_matrix():
    """The Table 4 summary: LSVD 3/3 clean, bcache loses data."""
    lsvd_clean = 0
    for trial in range(3):
        store, image, cfg, vol = lsvd_stack()
        rng = random.Random(trial)
        rec = HistoryRecorder(vol.write, vol.flush)
        for i in range(100):
            rec.write(rng.randrange(0, 512) * 4096, 4096)
        rec.barrier()
        fresh = DiskImage(2 * MiB)
        vol2 = LSVDVolume.open(store, "vd", fresh, cfg, cache_lost=True)
        if PrefixChecker(rec).check(vol2.read).ok_prefix:
            lsvd_clean += 1
    assert lsvd_clean == 3


def replay_then_lose_the_cache(placement):
    """Five flushed 4 KiB writes, the fifth overwriting the first, none
    destaged; crash with the cache kept and mount with 8 KiB batches, so
    the replay seals two objects and leaves the fifth record open; then
    crash again with the cache lost.  Returns the verdict on what is left."""
    store, image = InMemoryObjectStore(), DiskImage(2 * MiB)
    cfg = LSVDConfig(batch_size=1 * MiB, placement=placement)
    vol = LSVDVolume.create(store, "vd", 1 * MiB, image, cfg)
    rec = HistoryRecorder(vol.write, vol.flush)
    for lba in (0, 4096, 8192, 12288, 0):
        rec.write(lba, 4096)
    rec.barrier()
    image.crash()
    cfg = LSVDConfig(batch_size=8192, placement=placement)
    vol = LSVDVolume.open(store, "vd", image, cfg)
    assert vol.batch_commits == 2
    assert not all(b.is_empty for b in vol.bs.batches.values())
    vol = LSVDVolume.open(store, "vd", image, cfg, cache_lost=True)
    return PrefixChecker(rec).check(vol.read)


@pytest.mark.parametrize("placement", ["legacy", "sepbit"])
def test_replay_maps_records_as_it_batches_them(placement):
    """Replay seals from a cache map that is never ahead of the replay
    cursor, so the first object keeps the first write, which only the
    still-open fifth record overwrites."""
    verdict = replay_then_lose_the_cache(placement)
    assert verdict.ok_prefix, verdict.problems[:3]
    assert verdict.cut == 4


def test_replay_against_the_rebuilt_map_breaks_the_prefix():
    """Mutant: replay that keeps the map recovery rebuilt from every
    record drops the first write from the first object, which still
    claims its record, so losing the cache loses a write of the prefix."""

    def replay_ahead(self, record_seq):
        return [ref for ref in list(self.records) if ref.seq > record_seq]

    with mock.patch.object(WriteCache, "replay_after", replay_ahead):
        verdict = replay_then_lose_the_cache("legacy")
    assert not verdict.ok_prefix
