"""The read cache as it was before its map named ring positions: a map
keyed by image offset and a FIFO *insertion log*, one ``(virt, length,
lba)`` record per insert, oldest first, naming the bytes the ring pointer
is about to overwrite.  Eviction pops records off the log's head and
unmaps only the pieces still translated to those very bytes.

Kept only as the reference the position-addressed
:class:`repro.core.read_cache.ReadCache` is held to, op by op
(``tests/test_read_cache.py``); the read-ahead controller is shared.
"""

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core import checkpoint as ckpt
from repro.core.config import BLOCK
from repro.core.errors import CorruptRecordError
from repro.core.extent_map import Extent, ExtentMap
from repro.core.read_cache import RC_TARGET, ReadCache
from repro.obs import NULL_SPAN


class FifoReadCache(ReadCache):
    """The deque-evicted, offset-keyed read cache."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: FIFO insertion log, oldest first: (ring virt, length, lba) of
        #: every insert whose bytes the ring pointer has not yet overwritten
        self._log: Deque[Tuple[int, int, int]] = deque()

    def _phys(self, virt: int) -> int:
        return self.data_offset + (virt % self.data_size)

    def lookup_with_gaps(self, lba: int, length: int) -> List[Tuple[int, int, Optional[Extent]]]:
        return self.map.lookup_with_gaps(lba, length)

    def read(self, lba: int, length: int, span=NULL_SPAN) -> List[Tuple[int, int, bytes]]:
        """Cached pieces of [lba, lba+length): (lba, length, data)."""
        stage = span.begin("rc_lookup")
        out = []
        flags = self._prefetched
        used = 0
        for ext in self.map.lookup(lba, length):
            out.append((ext.lba, ext.length, self.image.read(ext.offset, ext.length)))
            rel = ext.offset - self.data_offset
            first, last = rel // BLOCK, (rel + ext.length + BLOCK - 1) // BLOCK
            paid = flags.count(1, first, last)
            if paid:  # read-ahead that was read: one verdict per block, once
                flags[first:last] = bytes(last - first)
                used += paid
        if used:
            self._used += used
            self.prefetch_used_bytes += used * BLOCK
        if out:
            self.hits += 1
        else:
            self.misses += 1
        stage.end(hit=bool(out))
        return out

    def peek(self, lba: int, length: int) -> Optional[bytes]:
        """One map extent holds the whole range, or None."""
        found = self.map.lookup(lba, length)
        if len(found) == 1 and found[0].length == length:
            return self.image.read(found[0].offset, length)
        return None

    def insert(
        self,
        pieces: Sequence[Tuple[int, bytes]],
        span=NULL_SPAN,
        demand: Tuple[int, int] = (0, 1 << 63),
        refetched: Sequence[Extent] = (),
    ) -> None:
        """The burst insert of the FIFO cache, verbatim."""
        stage = span.begin("rc_insert", ranges=len(pieces))
        size = self.data_size
        log = self._log
        flags = self._prefetched
        base = self.data_offset
        refetches = 0
        for ext in refetched:
            rel = ext.offset - base
            refetches += flags.count(1, rel // BLOCK, (rel + ext.length + BLOCK - 1) // BLOCK)
        if refetches:
            self._wasted += refetches
            self.prefetch_refetched_bytes += refetches * BLOCK
        virt = self._ring_virt
        want_lba, want_len = demand
        inserted = evicted = wasted = 0
        for lba, data in pieces:
            length = len(data)
            footprint = (length + BLOCK - 1) // BLOCK * BLOCK  # align_up(), inlined
            if length == 0 or footprint > size:
                continue  # larger than the whole cache: do not cache
            pos = virt % size
            if pos + footprint > size:
                # no room before the ring end: skip the wrap slack (the
                # horizon below evicts what lived there)
                slack = pos // BLOCK
                wasted += flags.count(1, slack)
                flags[slack:] = bytes(len(flags) - slack)
                virt += size - pos
                pos = 0
            if pos == 0 and virt:
                self._end_lap()
            # everything older than one ring behind the new pointer goes
            horizon = virt + footprint - size
            while log and log[0][0] < horizon:
                evicted += self._evict_head(horizon)
            phys = self.data_offset + pos
            self.image.write(phys, data)
            self.map.update(lba, length, RC_TARGET, phys)
            log.append((virt, length, lba))
            # the overwritten blocks' unread read-ahead was wasted; of the
            # new blocks, those the demanded range does not touch are flagged
            first, last = pos // BLOCK, (pos + footprint) // BLOCK
            wasted += flags.count(1, first, last)
            lo = max(want_lba - lba, 0)
            hi = min(want_lba + want_len - lba, length)
            if lo < hi:
                lo, hi = first + lo // BLOCK, first + (hi + BLOCK - 1) // BLOCK
            else:
                lo = hi = first
            flags[first:last] = b"\1" * (lo - first) + bytes(hi - lo) + b"\1" * (last - hi)
            inserted += length
            virt += footprint
        self._ring_virt = virt
        if inserted:
            self.inserted_bytes += inserted
        if evicted:
            self.evicted_bytes += evicted
        if wasted:
            self._wasted += wasted
            self.prefetch_wasted_bytes += wasted * BLOCK
        self.occupancy_bytes = min(virt, size)
        stage.end(bytes=inserted)

    def invalidate(self, lba: int, length: int) -> None:
        self.map.remove(lba, length)

    def _evict_head(self, horizon: int) -> int:
        """Evict the oldest log record's bytes below ring position
        ``horizon``; returns the bytes dropped from the map.  A record the
        pointer only partly overwrites is shrunk, not popped; only map
        pieces that still point into these very bytes are unmapped."""
        virt, length, lba = self._log[0]
        cut = horizon - virt
        if cut >= length:
            cut = length
            self._log.popleft()
        else:
            self._log[0] = (horizon, length - cut, lba + cut)
        phys = self._phys(virt)
        dropped = 0
        for piece in self.map.lookup(lba, cut):
            if piece.target == RC_TARGET and piece.offset == phys + (piece.lba - lba):
                self.map.remove(piece.lba, piece.length)
                dropped += piece.length
        self._lap_evicted += dropped
        return dropped

    def _end_lap(self) -> None:
        """The ring pointer wrapped: one ``cache_evict`` for the whole lap
        (an event per insert would retain ~2 KB per read in the trace)."""
        if self._lap_evicted:
            self.obs.trace.emit("cache_evict", bytes=self._lap_evicted)
        self._lap_evicted = 0

    # ------------------------------------------------------------------
    # persistence (clean shutdown only; see module docstring)
    # ------------------------------------------------------------------
    def save_map(self, stamp: Sequence[int] = (0, 0)) -> None:
        """Persist the map under ``stamp``, the ``(epoch, checkpoint seq)``
        of the write cache's clean-shutdown checkpoint it belongs to."""
        sections = {
            "meta": ckpt.pack_json({"ring": self._ring_virt, "stamp": list(stamp)}),
            "map": ckpt.pack_rows(
                "<QQQ", [(e.lba, e.length, e.offset) for e in self.map]
            ),
        }
        blob = ckpt.encode_sections(sections)
        if len(blob) > self.slot_size:
            # degrade gracefully: an oversized map is not persisted, and
            # the slot is erased so an earlier shutdown's map cannot pass
            # for this one's
            blob = bytes(BLOCK)
        self.image.write(self.region_offset, blob)
        self.image.flush()

    def load_map(self, stamp: Sequence[int] = (0, 0)) -> bool:
        """Try to warm the map from the clean-shutdown save made under
        ``stamp``; False (and cold) if there is none."""
        blob = self.image.read(self.region_offset, self.slot_size)
        try:
            sections = ckpt.decode_sections(blob)
            meta = ckpt.unpack_json(sections["meta"])
            entries = ckpt.unpack_rows("<QQQ", sections["map"])
        except (CorruptRecordError, KeyError, ValueError):
            return False
        if meta.get("stamp") != list(stamp):
            return False  # another shutdown's map
        self._ring_virt = meta["ring"]
        self._lap_evicted = 0
        self._prefetched = bytearray(len(self._prefetched))  # nothing pending
        self.map = ExtentMap()
        for lba, length, offset in entries:
            self.map.update(lba, length, RC_TARGET, offset)
        self._rebuild_log()
        return True

    def _rebuild_log(self) -> None:
        """Re-derive the insertion log from the map, in ring age order.

        The save holds no log (the wire format predates it); the ring
        pointer dates every byte instead: offsets below it were written
        this lap, offsets at or above it one lap ago.  An extent the map
        coalesced across the pointer is split there.
        """
        size = self.data_size
        pointer = self._ring_virt % size
        lap_start = self._ring_virt - pointer
        records = []
        for ext in self.map:
            rel = ext.offset - self.data_offset
            young = min(max(pointer - rel, 0), ext.length)  # bytes below the pointer
            if young:
                records.append((lap_start + rel, young, ext.lba))
            if young < ext.length:
                records.append(
                    (lap_start - size + rel + young, ext.length - young, ext.lba + young)
                )
        records.sort()
        self._log = deque(records)

    def clear(self) -> None:
        self.map.clear()
        self._log.clear()
        self._ring_virt = 0
        self._lap_evicted = 0
        self._prefetched = bytearray(len(self._prefetched))

