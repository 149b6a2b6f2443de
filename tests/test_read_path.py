"""The volume's read path against the read cache: a miss inserts only what
the cache lacks, a whole-request hit returns its one piece, and the
cleaner's cache probes are not client reads (DESIGN.md, "Read-ahead
controller")."""

import random

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core.validate import check_volume_invariants
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

    def insert(fetched, demand, span=NULL_SPAN):
        pieces = []
        for lba, data in fetched:
            for start, length, ext in vol.wc.map.lookup_with_gaps(lba, len(data)):
                if ext is None:
                    pieces.append((start, data[start - lba : start - lba + length]))
        vol.rc.insert_burst(pieces, span=span, demand=demand)

    vol._insert_read_cache = insert


def one_copy_per_lba(vol):
    """Wrap ``insert_burst``: no piece may land on an LBA the read cache
    still maps, so no LBA is ever cached at two live ring positions."""
    rc, inner = vol.rc, vol.rc.insert_burst

    def insert_burst(pieces, span=NULL_SPAN, demand=(0, 1 << 63), refetched=()):
        taken = set()
        for lba, data in pieces:
            assert rc.map.lookup(lba, len(data)) == [], (lba, len(data))
            blocks = set(range(lba // 512, (lba + len(data)) // 512))
            assert not blocks & taken
            taken |= blocks
        inner(pieces, span=span, demand=demand, refetched=refetched)

    rc.insert_burst = insert_burst


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
