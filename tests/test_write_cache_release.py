"""Release by log position against the eager release it replaced.

The write cache names each payload by its log position, so releasing a
record only moves the tail: the record's map entries die in place and a
sweep drops them later.  The reference below is the release as it was when
the map named image offsets — every released record's entries removed at
once, behind a header check that its slot was not reused — and both must
serve the same bytes after every step of a seeded run that wraps the log.
"""

import random
import struct

import pytest

from repro.core.config import BLOCK
from repro.core.errors import CacheFullError
from repro.core.extent_map import ExtentMap
from repro.core.log import KIND_DATA, MAGIC, VERSION
from repro.core.write_cache import WC_TARGET, WriteCache
from repro.devices.image import DiskImage
from repro.obs import NULL_SPAN

MiB = 1 << 20
PAGES = 96  # the LBA space the runs write into, in 4 KiB pages
#: the fields of a record header up to its sequence number
_HEADER_SEQ = struct.Struct("<4sHHQ")


class EagerRelease(WriteCache):
    """The cache as it was before positions: map entries and record
    extents name image offsets, and release removes a record's entries
    where they still point at its data, unless a header with another
    sequence number shows its slot reused."""

    def _to_image(self, ref):
        base = self._phys(ref.virt) - ref.virt
        ref.extents = [(lba, n, base + pos) for lba, n, pos in ref.extents]
        for lba, n, offset in ref.extents:
            self.map.update(lba, n, WC_TARGET, offset)

    def append(self, writes, span=NULL_SPAN):
        ref = super().append(writes, span=span)
        self._to_image(ref)
        return ref

    def _rebuild_map(self):
        super()._rebuild_map()
        self.map = ExtentMap()
        for ref in self.records:
            self._to_image(ref)

    def read(self, lba, length, span=NULL_SPAN):
        return [
            (ext.lba, ext.length, self.image.read(ext.offset, ext.length))
            for ext in self.map.lookup(lba, length)
        ]

    def release_through(self, record_seq):
        freed = 0
        while self.records and self.records[0].seq <= record_seq:
            ref = self.records.pop(0)
            freed += ref.size
            self._drop_map_entries(ref)
            self.tail_virt = self.records[0].virt if self.records else self.head_virt
        return freed

    def _drop_map_entries(self, ref):
        magic, ver, kind, seq = _HEADER_SEQ.unpack(
            self.image.read(self._phys(ref.virt), _HEADER_SEQ.size)
        )
        if (magic, ver, kind, seq) != (MAGIC, VERSION, KIND_DATA, ref.seq):
            return  # space already reused: nothing of ours is mapped
        for lba, length, offset in ref.extents:  # only pieces still mapped there
            for piece in self.map.lookup(lba, length):
                if piece.target == WC_TARGET and piece.offset == offset + piece.lba - lba:
                    self.map.remove(piece.lba, piece.length)


def _state(wc):
    """What a reader of the cache sees, with each payload by image offset."""
    records = [
        (r.seq, r.virt, r.size, [(lba, n, wc._phys(pos)) for lba, n, pos in r.extents])
        for r in wc.records
    ]
    return wc.read(0, PAGES * 4096), records, wc.tail_virt, wc.head_virt


def _reference_state(wc):
    records = [(r.seq, r.virt, r.size, list(r.extents)) for r in wc.records]
    return wc.read(0, PAGES * 4096), records, wc.tail_virt, wc.head_virt


def _fresh(kind, image):
    wc = kind(image, 0, image.size, ckpt_slot_size=64 * 1024)
    if image.writes == 0:
        wc.format()
    else:
        wc.recover()
    return wc


@pytest.mark.parametrize("seed", range(12))
def test_release_by_position_serves_what_the_eager_release_served(seed):
    rng = random.Random(seed)
    pair = [_fresh(WriteCache, DiskImage(1 * MiB)), _fresh(EagerRelease, DiskImage(1 * MiB))]

    def both(step):
        for wc in pair:
            step(wc)

    def release_some(wc):
        wc.release_through(wc.records[len(wc.records) // 2].seq)

    for step in range(600):
        op = rng.choice(("write", "write", "write", "writev", "trim", "release", "barrier",
                         "ckpt", "crash"))
        if op in ("write", "writev"):
            count = 1 if op == "write" else rng.randrange(2, 5)
            writes = [
                (rng.randrange(PAGES) * 4096 + rng.randrange(8) * 512,
                 bytes([rng.randrange(1, 256)]) * rng.choice((512, 4096, 9216)))
                for _ in range(count)
            ]
            writes = [(lba, data[: PAGES * 4096 - lba]) for lba, data in writes]
            while True:
                try:
                    both(lambda wc: wc.append(writes))
                    break
                except CacheFullError:
                    assert pair[0].records  # a record fits an empty log
                    both(release_some)
        elif op == "trim":
            lba, n = rng.randrange(PAGES) * 4096, rng.randrange(1, 4) * 4096
            both(lambda wc: wc.map.remove(lba, n))
        elif op == "release" and pair[0].records:
            both(release_some)
        elif op == "barrier":
            both(lambda wc: wc.barrier())
        elif op == "ckpt":
            both(lambda wc: wc.checkpoint())
        elif op == "crash":
            crash_seed = rng.randrange(1 << 16)
            for wc in pair:
                wc.image.crash(rng=random.Random(crash_seed))
            pair = [_fresh(type(wc), wc.image) for wc in pair]
            cut = rng.randrange(pair[0].next_seq)
            replayed = [[ref.seq for ref in wc.replay_after(cut)] for wc in pair]
            assert replayed[0] == replayed[1]
        assert _state(pair[0]) == _reference_state(pair[1]), (seed, step, op)
    assert pair[0].head_virt > 2 * pair[0].log_size  # the log wrapped


def test_dead_entries_stay_bounded_over_many_laps():
    """Random 4 KiB writes over a volume 16 times the cache log, released
    batch by batch for over 20 laps with a few records always left live:
    the map's entries, disjoint in log position, lie less than two log
    sizes behind the head, so with one 4 KiB payload per 8 KiB record it
    holds at most a log size over 4 KiB of them — and none while the log
    is empty."""
    wc = _fresh(WriteCache, DiskImage(2 * MiB))
    bound = 2 * wc.log_size // (2 * BLOCK) + 1
    pages = 16 * wc.log_size // 4096
    rng = random.Random(11)
    batches = emptied = 0
    while wc.head_virt < 20 * wc.log_size:
        wc.append([(rng.randrange(pages) * 4096, b"w" * 4096)])
        if wc.used_bytes > wc.log_size // 2:  # destage a batch
            batches += 1
            keep = 0 if batches % 16 == 0 else 8
            wc.release_through(wc.records[-1 - keep].seq)
        assert len(wc.map) <= bound
        if not wc.records:
            emptied += 1
            assert len(wc.map) == 0
    assert emptied > 0
