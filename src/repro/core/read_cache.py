"""FIFO read cache sharing the cache SSD (§3.1).

The paper's prototype re-uses the write-cache implementation for the read
cache with static partitioning and FIFO replacement; this module follows
that design: the cache region is a byte ring, insertions append at a ring
pointer, and whatever the pointer overwrites is evicted.  Extents inserted
come from backend range-reads, so a single fetch often carries a burst of
prefetched data written *temporally* adjacent to the missed block (§3.2).

Replacement costs what it reclaims, not what the cache holds: a FIFO
*insertion log* — one ``(virt, length, lba)`` record per insert, oldest
first — names what lives at the bytes the pointer is about to overwrite,
so eviction pops records off its head instead of searching the map.
:meth:`invalidate` never touches the log; records are allowed to go stale
and eviction drops only map pieces that still point into the evicted bytes.

Correctness rules:

* the write path must call :meth:`invalidate` so newly written LBAs never
  read stale from here (write-after-read hazard, §3.1), and
* the map is persisted only on clean shutdown; after a crash the cache
  starts cold (loss never affects correctness — the data is always also in
  the backend).

Read-ahead is sized by what it delivers (DESIGN.md, "Read-ahead
controller"): one flag per ring block marks data that was fetched but not
asked for and has not been read since.  A hit that clears a flag is a
*used* verdict, the ring pointer overwriting one a *wasted* verdict, a
fetch carrying one again behind its demanded block a *refetch* verdict
(wasted for the window, flag kept), and :meth:`readahead_window` halves
or doubles the next fetch's span on the used share of each
:data:`READAHEAD_EPOCH` verdicts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core import checkpoint as ckpt
from repro.core.config import BLOCK
from repro.core.errors import CorruptRecordError
from repro.core.extent_map import Extent, ExtentMap
from repro.core.log import align_up
from repro.devices.image import DiskImage
from repro.obs import NULL_SPAN, Registry, bind_metrics, gauge_field, metric_field

#: target identifier used in the read-cache extent map
RC_TARGET = "rc"

#: prefetched-block verdicts (used + wasted) per window decision
READAHEAD_EPOCH = 256
#: halve the window when fewer than 1 in this many prefetched blocks was used
READAHEAD_NARROW_BELOW = 4
#: double it when at least 1 in this many was; the 25-50 % band between the
#: two is wider than the change one 2x step makes, so the window settles
READAHEAD_WIDEN_FROM = 2
#: while narrowed, every Nth backend fetch still spans the widest window, so
#: a return to temporal locality produces used verdicts to widen on
READAHEAD_PROBE = 16


class ReadCache:
    """A FIFO byte-ring read cache over a DiskImage region."""

    # statistics (registry-backed; see repro.obs)
    hits = metric_field("rc.hits")
    misses = metric_field("rc.misses")
    inserted_bytes = metric_field("rc.inserted_bytes")
    evicted_bytes = metric_field("rc.evicted_bytes")
    prefetch_used_bytes = metric_field("rc.prefetch_used_bytes")
    prefetch_wasted_bytes = metric_field("rc.prefetch_wasted_bytes")
    prefetch_refetched_bytes = metric_field("rc.prefetch_refetched_bytes")
    readahead_window_bytes = gauge_field("rc.readahead_window_bytes")

    def __init__(
        self,
        image: DiskImage,
        region_offset: int = 0,
        region_size: Optional[int] = None,
        map_slot_size: int = 1 << 20,
        obs: Optional[Registry] = None,
    ):
        self.image = image
        self.region_offset = region_offset
        total = region_size if region_size is not None else image.size - region_offset
        self.slot_size = align_up(map_slot_size)
        if total <= self.slot_size + 4 * BLOCK:
            raise ValueError("read cache region too small")
        self.data_offset = region_offset + self.slot_size
        self.data_size = (total - self.slot_size) // BLOCK * BLOCK

        self.map = ExtentMap()  # vLBA -> (RC_TARGET, absolute image offset)
        #: FIFO insertion log, oldest first: (ring virt, length, lba) of
        #: every insert whose bytes the ring pointer has not yet overwritten
        self._log: Deque[Tuple[int, int, int]] = deque()
        self._ring_virt = 0
        self._lap_evicted = 0  # bytes evicted since the ring last wrapped
        #: per ring block: holds read-ahead nobody has read yet
        self._prefetched = bytearray(self.data_size // BLOCK)
        self._window = 0  # read-ahead span in bytes; 0 = no miss sized yet
        self._used = self._wasted = 0  # this epoch's verdicts, in blocks
        self._narrow_fetches = 0  # backend fetches sized while narrowed (probe clock)
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)
        self._occupancy = self.obs.gauge("rc.occupancy_bytes")
        #: counters bound once for the hit and insert paths (a descriptor
        #: += costs ~1 us)
        self._used_counter = ReadCache.prefetch_used_bytes.metric(self)
        self._hit_counter = ReadCache.hits.metric(self)
        self._miss_counter = ReadCache.misses.metric(self)
        self._inserted_counter = ReadCache.inserted_bytes.metric(self)
        self._evicted_counter = ReadCache.evicted_bytes.metric(self)
        self._wasted_counter = ReadCache.prefetch_wasted_bytes.metric(self)

    # ------------------------------------------------------------------
    def _phys(self, virt: int) -> int:
        return self.data_offset + (virt % self.data_size)

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
            self._used_counter.inc(used * BLOCK)
        (self._hit_counter if out else self._miss_counter).inc()
        stage.end(hit=bool(out))
        return out

    def peek(self, lba: int, length: int) -> Optional[bytes]:
        """The bytes of [lba, lba+length) if one cached extent holds them
        all, else None: a probe (the cleaner's, §3.5), not a client read,
        so it counts no hit or miss and clears no read-ahead flag."""
        found = self.map.lookup(lba, length)
        if len(found) == 1 and found[0].length == length:
            return self.image.read(found[0].offset, length)
        return None

    def readahead_window(self, request: int, limit: int) -> int:
        """Bytes the backend fetch for a ``request``-byte miss should span.

        ``limit`` is the widest window (``LSVDConfig.prefetch_bytes``, the
        paper's constant); the answer stays there while read-ahead keeps
        being read, and shrinks towards the bare request while it is
        evicted unread.  Integer arithmetic on the cache's own verdict
        counts only: same reads, same windows.
        """
        window = min(self._window or limit, limit)
        verdicts = self._used + self._wasted
        if verdicts >= READAHEAD_EPOCH:
            used = self._used
            self._used = self._wasted = 0
            resized = window
            if used * READAHEAD_NARROW_BELOW < verdicts:
                resized = max(window // 2, min(BLOCK, limit))
            elif used * READAHEAD_WIDEN_FROM >= verdicts:
                resized = min(window * 2, limit)
            if resized != window:
                self.obs.trace.emit(
                    "readahead_resize", window=resized, previous=window,
                    used_blocks=used, verdict_blocks=verdicts,
                )
                window = resized
        if window != self._window:
            self._window = self.readahead_window_bytes = window
        if window < limit:
            self._narrow_fetches += 1
            if self._narrow_fetches % READAHEAD_PROBE == 0:
                window = limit
        return max(window, request)

    def insert(self, lba: int, data: bytes, span=NULL_SPAN) -> None:
        """Add backend data to the cache, evicting FIFO as needed."""
        self.insert_burst(((lba, data),), span=span)

    def insert_burst(
        self,
        pieces: Sequence[Tuple[int, bytes]],
        span=NULL_SPAN,
        demand: Tuple[int, int] = (0, 1 << 63),
        refetched: Sequence[Extent] = (),
    ) -> None:
        """Add the ``(lba, data)`` pieces of one backend fetch, in order.

        Each piece lands where a lone :meth:`insert` would put it and
        evicts what a lone insert would evict (a later piece may overwrite
        an LBA an earlier one cached, so the FIFO head advances piece by
        piece); the counters, the occupancy gauge and the span stage are
        settled once per burst.

        ``demand`` is the ``(lba, length)`` the reader asked for; every
        block outside it is read-ahead and is flagged until someone reads
        it.  By default the whole burst counts as asked for.

        ``refetched`` are map extents the fetch carried again but the
        caller did not re-insert: each still-flagged block under them is
        one wasted verdict for the window and keeps its flag (DESIGN.md,
        "Read-ahead controller").
        """
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
            footprint = align_up(length)
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
                lo, hi = first + lo // BLOCK, first + align_up(hi) // BLOCK
            else:
                lo = hi = first
            flags[first:last] = b"\1" * (lo - first) + bytes(hi - lo) + b"\1" * (last - hi)
            inserted += length
            virt += footprint
        self._ring_virt = virt
        if inserted:
            self._inserted_counter.inc(inserted)
        if evicted:
            self._evicted_counter.inc(evicted)
        if wasted:
            self._wasted += wasted
            self._wasted_counter.inc(wasted * BLOCK)
        self._occupancy.set(min(virt, size))
        stage.end(bytes=inserted)

    def invalidate(self, lba: int, length: int) -> None:
        """Drop cached data for a written range (write-after-read hazard).

        The insertion log is left alone (this runs on every write): the
        record goes stale and :meth:`_evict_head` skips it.
        """
        self.map.remove(lba, length)

    # ------------------------------------------------------------------
    def _evict_head(self, horizon: int) -> int:
        """Evict the oldest log record's bytes below ring position
        ``horizon``; returns the bytes dropped from the map.

        A record the pointer only partly overwrites is shrunk, not popped,
        so its surviving tail stays readable.  The record may be stale —
        its LBAs invalidated, or re-inserted elsewhere since — so only map
        pieces that still point into these very bytes are unmapped, in one
        pass; a piece that lives elsewhere is left whole.
        """
        virt, length, lba = self._log[0]
        cut = horizon - virt
        if cut >= length:
            cut = length
            self._log.popleft()
        else:
            self._log[0] = (horizon, length - cut, lba + cut)
        unmapped = self.map.remove_matching(lba, cut, RC_TARGET, self._phys(virt))
        dropped = sum(ext.length for ext in unmapped)
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
