"""FIFO read cache sharing the cache SSD (§3.1).

The paper's prototype re-uses the write-cache implementation for the read
cache with static partitioning and FIFO replacement; this module follows
that design: the cache region is a byte ring, insertions append at a ring
pointer, and whatever the pointer overwrites is evicted.  Extents inserted
come from backend range-reads, so a single fetch often carries a burst of
prefetched data written *temporally* adjacent to the missed block (§3.2).

Replacement costs what it reclaims, not what the cache holds: the map
names each cached byte by its *ring position*, which is never reused, so
an entry more than one ring period behind the pointer is dead and
eviction is moving the pointer.  Reads clip dead entries away, and the map
is swept once per lap.  A per-block count of live bytes keeps
``rc.evicted_bytes`` exact without a map search.

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

from array import array
from typing import List, Optional, Sequence, Tuple

from repro.core import checkpoint as ckpt
from repro.core.config import BLOCK
from repro.core.errors import CorruptRecordError
from repro.core.extent_map import Extent, ExtentMap, with_gaps
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
    occupancy_bytes = gauge_field("rc.occupancy_bytes")

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
        #: ring positions advance one unused block per lap, so no extent
        #: coalesces across the ring end; physical = ``pos % _period``
        self._period = self.data_size + BLOCK

        #: vLBA -> (RC_TARGET, ring position); an entry more than one period
        #: behind the pointer is dead and lingers until the lap's sweep
        self.map = ExtentMap()
        self._ring_virt = 0  # the pointer, a ring position
        self._lap_evicted = 0  # bytes evicted since the ring last wrapped
        #: per ring block: the bytes of live map entries it holds
        self._live = array("H", bytes(2 * (self.data_size // BLOCK)))
        #: per ring block: holds read-ahead nobody has read yet
        self._prefetched = bytearray(self.data_size // BLOCK)
        self._window = 0  # read-ahead span in bytes; 0 = no miss sized yet
        self._used = self._wasted = 0  # this epoch's verdicts, in blocks
        self._narrow_fetches = 0  # backend fetches sized while narrowed (probe clock)
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)

    # ------------------------------------------------------------------
    def lookup(self, lba: int, length: int) -> List[Extent]:
        """The live map pieces of [lba, lba+length), clipped, in order:
        every map reader but :meth:`read`, which inlines it, sees the cache
        through this one filter."""
        floor = self._ring_virt - self._period
        found = self.map.lookup(lba, length)
        for ext in found:  # a loop, not a comprehension: no frame when all live
            if ext[3] < floor:
                return _clip(found, floor)
        return found

    def lookup_with_gaps(self, lba: int, length: int) -> List[Tuple[int, int, Optional[Extent]]]:
        """Cover [lba, lba+length) completely: (start, len, live-extent-or-None)."""
        return with_gaps(lba, length, self.lookup(lba, length))

    def read(self, lba: int, length: int, span=NULL_SPAN) -> List[Tuple[int, int, bytes]]:
        """Cached pieces of [lba, lba+length): (lba, length, data)."""
        stage = span.begin("rc_lookup")
        out = []
        flags = self._prefetched
        period, base = self._period, self.data_offset
        floor = self._ring_virt - period
        used = 0
        found = self.map.lookup(lba, length)
        for ext in found:  # :meth:`lookup`'s floor check, inline: no frame on a hit
            if ext[3] < floor:
                found = _clip(found, floor)
                break
        for ext in found:
            rel = ext.offset % period
            out.append((ext.lba, ext.length, self.image.read(base + rel, ext.length)))
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
        """The bytes of [lba, lba+length) if the cache holds them all in one
        run of ring bytes, else None: a probe (the cleaner's, §3.5), not a
        client read, so it counts no hit or miss and clears no read-ahead
        flag.  Live pieces adjacent in both address and ring offset are one
        run, whatever lap they were inserted in."""
        runs = self._runs(self.lookup(lba, length))
        if len(runs) == 1 and runs[0][:2] == (lba, length):
            return self.image.read(runs[0][2], length)
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

    def insert(
        self,
        pieces: Sequence[Tuple[int, bytes]],
        span=NULL_SPAN,
        demand: Tuple[int, int] = (0, 1 << 63),
        refetched: Sequence[Extent] = (),
    ) -> None:
        """Add the ``(lba, data)`` pieces of one backend fetch, in order.

        Each piece lands where it would land alone and evicts what it
        would evict alone (a later piece may overwrite an LBA an earlier
        one cached, so the pointer advances piece by piece); the counters,
        the occupancy gauge and the span stage are settled once per burst.

        ``demand`` is the ``(lba, length)`` the reader asked for; every
        block outside it is read-ahead and is flagged until someone reads
        it.  By default the whole burst counts as asked for.

        ``refetched`` are map extents the fetch carried again but the
        caller did not re-insert: each still-flagged block under them is
        one wasted verdict for the window and keeps its flag (DESIGN.md,
        "Read-ahead controller").
        """
        stage = span.begin("rc_insert", ranges=len(pieces))
        size, period = self.data_size, self._period
        flags, live = self._prefetched, self._live
        refetches = 0
        for ext in refetched:
            rel = ext.offset % period
            refetches += flags.count(1, rel // BLOCK, (rel + ext.length + BLOCK - 1) // BLOCK)
        if refetches:
            self._wasted += refetches
            self.prefetch_refetched_bytes += refetches * BLOCK
        ring = self._ring_virt
        want_lba, want_len = demand
        inserted = evicted = wasted = 0
        lap_evicted = self._lap_evicted
        for lba, data in pieces:
            length = len(data)
            footprint = (length + BLOCK - 1) // BLOCK * BLOCK  # align_up(), inlined
            if length == 0 or footprint > size:
                continue  # larger than the whole cache: do not cache
            pos = ring % period
            first = pos // BLOCK
            if pos + footprint > size:
                # no room before the ring end: the pointer skips the wrap
                # slack, overwriting what lived there one lap ago
                wasted += flags.count(1, first)
                flags[first:] = bytes(len(flags) - first)
                ring += period - pos
                self._end_lap(lap_evicted, ring - period)
                lap_evicted = sum(live[first:])
                evicted += lap_evicted
                live[first:] = array("H", bytes(2 * (len(live) - first)))
                pos = first = 0
            # the pointer passes the piece's blocks: their live bytes, one
            # lap old, are evicted, and the piece's own become live
            last = first + footprint // BLOCK
            if last - first == 1:
                gone = live[first]
                live[first] = length
            else:
                gone = sum(live[first:last])
                live[first:last] = array("H", (BLOCK,)) * (last - first)
                live[last - 1] = length - footprint + BLOCK
            evicted += gone
            lap_evicted += gone
            self.image.write(self.data_offset + pos, data)
            displaced = self.map.update(lba, length, RC_TARGET, ring)
            ring += footprint
            if displaced:  # an older copy of these LBAs is no longer live
                self._tally(live, displaced, -1, ring - period)
            # the overwritten blocks' unread read-ahead was wasted; of the
            # new blocks, those the demanded range does not touch are flagged
            wasted += flags.count(1, first, last)
            lo = max(want_lba - lba, 0)
            hi = min(want_lba + want_len - lba, length)
            if lo < hi:
                lo, hi = first + lo // BLOCK, first + (hi + BLOCK - 1) // BLOCK
            else:
                lo = hi = first
            flags[first:last] = b"\1" * (lo - first) + bytes(hi - lo) + b"\1" * (last - hi)
            inserted += length
        self._ring_virt = ring
        self._lap_evicted = lap_evicted
        if inserted:
            self.inserted_bytes += inserted
        if evicted:
            self.evicted_bytes += evicted
        if wasted:
            self._wasted += wasted
            self.prefetch_wasted_bytes += wasted * BLOCK
        self.occupancy_bytes = min(ring, size)
        stage.end(bytes=inserted)

    def invalidate(self, lba: int, length: int) -> None:
        """Drop cached data for a written range (write-after-read hazard)."""
        displaced = self.map.remove(lba, length)
        if displaced:
            self._tally(self._live, displaced, -1, self._ring_virt - self._period)

    # ------------------------------------------------------------------
    def _tally(self, counts: "array[int]", pieces, sign: int, floor: int) -> None:
        """Add (``sign`` 1) or take (-1) the bytes of ``pieces`` that lie at
        or past ring position ``floor`` to or from ``counts``, per block."""
        period = self._period
        for _lba, length, _target, pos in pieces:
            if pos < floor:  # the pointer passed its head: counted out then
                length -= floor - pos
                if length <= 0:
                    continue
                pos = floor
            rel = pos % period
            first, last = rel // BLOCK, (rel + length - 1) // BLOCK
            if first == last:  # one block: a client write's invalidation
                counts[first] += sign * length
                continue
            for block in range(first, last + 1):
                counts[block] += sign * (
                    min(rel + length, (block + 1) * BLOCK) - max(rel, block * BLOCK)
                )

    def _end_lap(self, evicted: int, floor: int) -> None:
        """The ring pointer wrapped: one ``cache_evict`` for the whole lap
        (an event per insert would retain ~2 KB per read in the trace), and
        the map drops the entries the pointer overwrote before ``floor``."""
        if evicted:
            self.obs.trace.emit("cache_evict", bytes=evicted)
        self.map.drop_below(floor)

    def _runs(self, pieces: List[Extent]) -> List[Tuple[int, int, int]]:
        """``(lba, length, image offset)`` of ``pieces``, those adjacent in
        address and image offset joined: an offset-keyed map's extents."""
        rows: List[Tuple[int, int, int]] = []
        for e_lba, e_len, _target, pos in pieces:
            phys = self.data_offset + pos % self._period
            if rows:
                r_lba, r_len, r_phys = rows[-1]
                if r_lba + r_len == e_lba and r_phys + r_len == phys:
                    rows[-1] = (r_lba, r_len + e_len, r_phys)
                    continue
            rows.append((e_lba, e_len, phys))
        return rows

    # ------------------------------------------------------------------
    # persistence (clean shutdown only; see module docstring)
    # ------------------------------------------------------------------
    def save_map(self, stamp: Sequence[int] = (0, 0)) -> None:
        """Persist the map under ``stamp``, the ``(epoch, checkpoint seq)``
        of the write cache's clean-shutdown checkpoint it belongs to.

        The wire format keys bytes by image offset and the pointer by its
        virtual offset (``lap * data_size + pos``), as the rows of an
        offset-keyed map."""
        lap, pos = divmod(self._ring_virt, self._period)
        sections = {
            "meta": ckpt.pack_json({"ring": lap * self.data_size + pos, "stamp": list(stamp)}),
            "map": ckpt.pack_rows("<QQQ", self._runs(self.lookup(0, 1 << 63))),
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
        ``stamp``; False (and cold) if there is none.

        The pointer dates every saved byte: offsets below it were written
        this lap, offsets at or above it one lap ago, and a row the save
        joined across the pointer is split there."""
        blob = self.image.read(self.region_offset, self.slot_size)
        try:
            sections = ckpt.decode_sections(blob)
            meta = ckpt.unpack_json(sections["meta"])
            entries = ckpt.unpack_rows("<QQQ", sections["map"])
        except (CorruptRecordError, KeyError, ValueError):
            return False
        if meta.get("stamp") != list(stamp):
            return False  # another shutdown's map
        self.clear()
        virt, size, period = meta["ring"], self.data_size, self._period
        lap = (virt - 1) // size if virt else 0  # a full lap's pointer stays at its end
        pointer = virt - lap * size
        self._ring_virt = lap * period + pointer
        for lba, length, offset in entries:
            rel = offset - self.data_offset
            young = min(max(pointer - rel, 0), length)  # bytes below the pointer
            if young:
                self.map.update(lba, young, RC_TARGET, lap * period + rel)
            if young < length:
                pos = (lap - 1) * period + rel + young
                self.map.update(lba + young, length - young, RC_TARGET, pos)
        self._live = self._live_counts()
        return True

    def _live_counts(self) -> "array[int]":
        """Per ring block, the bytes of live map entries it holds: what
        :attr:`_live` tracks, re-derived from the map."""
        counts = array("H", bytes(2 * len(self._live)))
        self._tally(counts, self.map, 1, self._ring_virt - self._period)
        return counts

    def clear(self) -> None:
        self.map.clear()
        self._ring_virt = 0
        self._lap_evicted = 0
        self._live = array("H", bytes(2 * len(self._live)))
        self._prefetched = bytearray(len(self._prefetched))  # nothing pending

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _clip(found: List[Extent], floor: int) -> List[Extent]:
    """``found`` without the parts that lie behind ring position ``floor``."""
    out = []
    for ext in found:
        cut = floor - ext[3]
        if cut <= 0:
            out.append(ext)
        elif cut < ext[1]:
            out.append(Extent(ext[0] + cut, ext[1] - cut, ext[2], floor))
    return out
