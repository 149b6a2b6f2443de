"""The volume's read path against the read cache: a miss inserts only what
the cache lacks, a whole-request hit returns its one piece, and the
cleaner's cache probes are not client reads (DESIGN.md, "Read-ahead
controller")."""

import random
from itertools import accumulate
from unittest import mock

import pytest

from repro.core import LSVDConfig, LSVDVolume, read_cache
from repro.core.validate import check_volume_invariants
from repro.core.volume import _Coverage
from repro.devices.image import DiskImage
from repro.obs import NULL_SPAN
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20
PAGES = 256


def reinsert_everything(vol):
    """``_insert_read_cache`` as it was before it skipped cached neighbours:
    clip each fetched piece against the write cache only and insert the
    rest, every neighbour the read cache already holds included.  Kept
    here only as the reference the skipping policy is compared with."""

    def insert(fetched, demand, span=NULL_SPAN, clear=False):
        pieces = []
        for lba, data in fetched:
            newer = _Coverage(lba, len(data))
            for ext in vol.wc.lookup(lba, len(data)):
                newer.fill(ext.lba, ext.length)
            for start, length in newer.gaps():
                pieces.append((start, data[start - lba : start - lba + length]))
        vol.rc.insert(pieces, span=span, demand=demand)

    vol._insert_read_cache = insert


def one_copy_per_lba(vol):
    """Wrap ``ReadCache.insert``: no piece may land on an LBA the read
    cache still maps, so no LBA is ever cached at two live ring positions."""
    rc, inner = vol.rc, vol.rc.insert

    def insert(pieces, span=NULL_SPAN, demand=(0, 1 << 63), refetched=()):
        taken = set()
        for lba, data in pieces:
            assert rc.lookup(lba, len(data)) == [], (lba, len(data))
            blocks = set(range(lba // 512, (lba + len(data)) // 512))
            assert not blocks & taken
            taken |= blocks
        inner(pieces, span=span, demand=demand, refetched=refetched)

    rc.insert = insert


def run_mix(seed, install):
    """A seeded read/scan/write/trim/drain/reopen mix over a 1 MiB volume
    whose read cache holds 112 blocks; every read is checked against a
    dict-of-blocks oracle.  Returns (read-cache bytes inserted, GETs)."""
    store = InMemoryObjectStore()
    image = DiskImage(1 * MiB)
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8, write_cache_fraction=0.5)
    vol = LSVDVolume.create(store, "vd", PAGES * 4096, image, cfg)
    oracle = {p: bytes([p % 251 + 1]) for p in range(PAGES)}
    for first in range(0, PAGES, 32):
        vol.writev([(p * 4096, oracle[p] * 4096) for p in range(first, first + 32)])
    vol.drain()
    vol.wc.release_through(vol.wc.next_seq)
    install(vol)
    rng = random.Random(seed)
    inserted = 0

    def check(page):
        assert vol.read(page * 4096, 4096) == oracle.get(page, b"\0") * 4096, (seed, page)

    for step in range(300):
        roll = rng.random()
        page = rng.randrange(PAGES - 3)
        if roll < 0.45:
            check(page)
        elif roll < 0.6:  # in write order: read-ahead pays
            for p in range(page, min(page + rng.randint(4, 40), PAGES)):
                check(p)
        elif roll < 0.8:
            fill = bytes([step % 250 + 1])
            vol.write(page * 4096, fill * 8192)
            oracle.update({page: fill, page + 1: fill})
        elif roll < 0.87:
            vol.trim(page * 4096, 4096)
            oracle.pop(page, None)
        elif roll < 0.95:
            vol.drain()
            vol.wc.release_through(vol.wc.next_seq)
        else:  # clean close -> warm open; trim is volatile (LSVDVolume.trim)
            inserted += vol.rc.inserted_bytes
            vol.close()
            vol = LSVDVolume.open(store, "vd", image, cfg)
            for p in range(PAGES):
                if p not in oracle:
                    vol.trim(p * 4096, 4096)
            install(vol)
        if step % 50 == 0:
            assert check_volume_invariants(vol).ok, step
    return inserted + vol.rc.inserted_bytes, store.stats.gets + store.stats.range_gets


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_miss_inserts_only_what_the_cache_lacks(seed):
    skipped, _gets = run_mix(seed, one_copy_per_lba)
    reference, _ref_gets = run_mix(seed, reinsert_everything)
    assert skipped < reference


def cached_volume():
    """A 1 MiB volume written in address order, every eighth page read back
    through a read cache that holds the whole volume: the read-ahead around
    each read sits flagged in the cache.  Then three of every four pages are
    overwritten, so most objects are GC victims whose live quarter is
    cached."""
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=32 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", PAGES * 4096, DiskImage(8 * MiB), cfg)
    vol.gc_enabled = False
    for p in range(PAGES):
        vol.write(p * 4096, bytes([p % 251 + 1]) * 4096)
    vol.drain()
    vol.wc.release_through(vol.wc.next_seq)
    for p in range(0, PAGES, 8):
        vol.read(p * 4096, 4096)
    for p in range(PAGES):
        if p % 4:
            vol.write(p * 4096, b"\xee" * 4096)
    return vol


def test_gc_probes_are_not_client_reads():
    vol = cached_volume()
    rc = vol.rc
    flagged = sum(rc._prefetched)
    assert flagged

    def figures():
        return (rc.hits, rc.misses, rc._used, rc._wasted, rc.prefetch_used_bytes,
                rc.prefetch_wasted_bytes, rc.prefetch_refetched_bytes, bytes(rc._prefetched))

    before = figures()
    vol.gc_enabled = True
    vol.drain()
    assert vol.gc.stats.rounds and vol.gc.stats.bytes_read_cache  # probes hit
    assert figures() == before
    for p in range(0, PAGES, 4):  # relocated from the cache, byte for byte
        assert vol.read(p * 4096, 4096) == bytes([p % 251 + 1]) * 4096


def test_every_read_path_returns_bytes():
    vol = cached_volume()  # pages 1-3 mod 4 in the write cache, the rest cached
    vol.rc.invalidate(12 * 4096, 4096)
    reads = {
        "write cache": (4096, 4096),
        "read cache": (8 * 4096, 4096),
        "both caches": (7 * 4096, 2 * 4096),
        "backend": (12 * 4096, 4096),
    }
    for where, (offset, length) in reads.items():
        data = vol.read(offset, length)
        assert type(data) is bytes and len(data) == length, where
    assert vol.read(7 * 4096, 8192) == b"\xee" * 4096 + bytes([9]) * 4096


# ---------------------------------------------------------------------------
# exact cost guard: map routings per read miss, no clock
# ---------------------------------------------------------------------------
def uniform_miss_volume(pages):
    """``pages`` 4 KiB blocks written once each in a seeded random order, so
    every object holds scattered LBAs (uniform reads find no temporal
    locality), then read at random until the read cache's ring has wrapped
    and every miss evicts: ``vol-read-miss`` in miniature."""
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=128 * 1024, checkpoint_interval=64)
    vol = LSVDVolume.create(store, "vd", pages * 4096, DiskImage(pages * 1024), cfg)
    rng = random.Random(pages)
    for page in rng.sample(range(pages), pages):
        vol.write(page * 4096, bytes([page % 251 + 1]) * 4096)
    vol.drain()
    vol.wc.release_through(vol.wc.next_seq)
    while vol.rc.evicted_bytes == 0:
        vol.read(rng.randrange(pages) * 4096, 4096)
    return vol, rng


def traced_miss(vol, rng, count_routings):
    """Read one uncached block; return (routings, header extents in the
    fetch window, pieces fetched, pieces inserted)."""
    page = rng.randrange(vol.size // 4096)
    while vol.rc.lookup(page * 4096, 4096):
        page = rng.randrange(vol.size // 4096)
    [piece] = vol.bs.lookup(page * 4096, 4096)
    header = vol.bs.header_of(piece.target)
    seen = {}
    fetch, insert = vol.bs.fetch_with_prefetch, vol.rc.insert

    def counted_fetch(*args, **kwargs):
        seen["fetched"] = fetched = fetch(*args, **kwargs)
        seen["window"] = kwargs["window"]
        return fetched

    def counted_insert(pieces, **kwargs):
        seen["inserted"] = len(pieces)
        return insert(pieces, **kwargs)

    vol.bs.fetch_with_prefetch, vol.rc.insert = counted_fetch, counted_insert
    evicted = vol.rc.evicted_bytes
    routed = count_routings(vol.rc.map, vol.wc.map, vol.bs.omap.map)
    assert vol.read(page * 4096, 4096) == bytes([page % 251 + 1]) * 4096
    routings = len(routed)
    del vol.bs.fetch_with_prefetch, vol.rc.insert
    assert vol.rc.evicted_bytes > evicted  # the ring is full: the insert evicted
    # the header extents the fetch window overlaps
    start = max(0, piece.offset - (seen["window"] - 4096) // 2)
    end = min(header.data_len, start + seen["window"])
    ends = accumulate(e.length for e in header.extents)
    window = sum(
        1 for e_end, e in zip(ends, header.extents) if e_end - e.length < end and e_end > start
    )
    return routings, window, len(seen["fetched"]), seen["inserted"]


def test_a_read_miss_routes_once_per_piece_at_any_map_size(count_routings):
    """Narrowed, a miss routes three times: the read cache's lookup, the
    object map's, and mapping the fetched block — the window is the block
    the object map just returned and neither cache held it, so the fetch
    and the insert take no map pass of their own, and eviction moves the
    ring pointer without one.  A probe's burst routes once per header
    extent in its 128 KiB window (the liveness pass), per fetched piece
    (the gap scan) and per inserted piece (its map update).  Both hold at
    4x the map size."""
    for pages in (1024, 4096):
        vol, rng = uniform_miss_volume(pages)
        assert len(vol.bs.omap.map) > pages // 2 and len(vol.rc.map) > pages // 16
        rc = vol.rc
        rc._window, rc._used, rc._wasted = 4096, 0, 0  # narrowed to one block
        for _ in range(3):
            routings, window, fetched, inserted = traced_miss(vol, rng, count_routings)
            assert (window, fetched, inserted) == (1, 1, 1)
            assert routings == 3
        rc._narrow_fetches = read_cache.READAHEAD_PROBE - 1  # the next fetch probes
        routings, window, fetched, inserted = traced_miss(vol, rng, count_routings)
        assert min(window, fetched, inserted) >= 8  # a burst, not one block
        assert routings == 2 + window + fetched + inserted


# ---------------------------------------------------------------------------
# GC safety: the cleaner's cache probes see live ring bytes only
# ---------------------------------------------------------------------------
def _peek_behind_the_floor(self, lba, length):
    """``ReadCache.peek`` without the floor: it trusts every map entry,
    dead ones whose ring bytes the pointer has overwritten included."""
    found = self.map.lookup(lba, length)
    if len(found) == 1 and found[0].length == length:
        return self.image.read(self.data_offset + found[0].offset % self._period, length)
    return None


def gc_through_ring_laps(seed):
    """A 1 MiB volume with a 48-block read cache: reads wrap its ring lap
    after lap while overwrites make most objects GC victims, so the cleaner
    probes the cache for live data whose ring bytes may be gone.  Every
    read, and a final read-back, is checked against a dict-of-blocks oracle."""
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=32 * 1024, checkpoint_interval=8, write_cache_fraction=0.5)
    vol = LSVDVolume.create(store, "vd", PAGES * 4096, DiskImage(512 * 1024), cfg)
    assert vol.rc.data_size == 48 * 4096
    oracle = {p: bytes([p % 251 + 1]) for p in range(PAGES)}
    for p in range(PAGES):
        vol.write(p * 4096, oracle[p] * 4096)
    vol.drain()
    rng = random.Random(seed)
    for step in range(3000):
        page = rng.randrange(PAGES)
        if rng.random() < 0.6:
            assert vol.read(page * 4096, 4096) == oracle[page] * 4096, (seed, step, page)
        else:
            oracle[page] = bytes([step % 250 + 1])
            vol.write(page * 4096, oracle[page] * 4096)
    vol.drain()
    for page in range(PAGES):
        assert vol.read(page * 4096, 4096) == oracle[page] * 4096, (seed, page)
    return vol


def test_gc_relocates_live_cache_bytes_only_through_many_ring_laps():
    vol = gc_through_ring_laps(seed=1)
    assert vol.rc._ring_virt >= 3 * vol.rc._period  # three laps and more
    assert vol.gc.stats.bytes_read_cache and vol.gc.stats.bytes_relocated
    assert check_volume_invariants(vol).ok


def test_gc_safety_fails_when_peek_skips_the_floor():
    with mock.patch.object(read_cache.ReadCache, "peek", _peek_behind_the_floor):
        with pytest.raises(AssertionError):
            gc_through_ring_laps(seed=1)
