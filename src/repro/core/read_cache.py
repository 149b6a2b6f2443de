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
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core import checkpoint as ckpt
from repro.core.config import BLOCK
from repro.core.errors import CorruptRecordError
from repro.core.extent_map import ExtentMap
from repro.core.log import align_up
from repro.devices.image import DiskImage
from repro.obs import NULL_SPAN, Registry, bind_metrics, metric_field

#: target identifier used in the read-cache extent map
RC_TARGET = "rc"


class ReadCache:
    """A FIFO byte-ring read cache over a DiskImage region."""

    # statistics (registry-backed; see repro.obs)
    hits = metric_field("rc.hits")
    misses = metric_field("rc.misses")
    inserted_bytes = metric_field("rc.inserted_bytes")
    evicted_bytes = metric_field("rc.evicted_bytes")

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
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)
        self._occupancy = self.obs.gauge("rc.occupancy_bytes")

    # ------------------------------------------------------------------
    def _phys(self, virt: int) -> int:
        return self.data_offset + (virt % self.data_size)

    def read(self, lba: int, length: int, span=NULL_SPAN) -> List[Tuple[int, int, bytes]]:
        """Cached pieces of [lba, lba+length): (lba, length, data)."""
        stage = span.begin("rc_lookup")
        out = []
        for ext in self.map.lookup(lba, length):
            out.append((ext.lba, ext.length, self.image.read(ext.offset, ext.length)))
        if out:
            self.hits += 1
        else:
            self.misses += 1
        stage.end(hit=bool(out))
        return out

    def insert(self, lba: int, data: bytes, span=NULL_SPAN) -> None:
        """Add backend data to the cache, evicting FIFO as needed."""
        self.insert_burst(((lba, data),), span=span)

    def insert_burst(self, pieces: Sequence[Tuple[int, bytes]], span=NULL_SPAN) -> None:
        """Add the ``(lba, data)`` pieces of one backend fetch, in order.

        Each piece lands where a lone :meth:`insert` would put it and
        evicts what a lone insert would evict (a later piece may overwrite
        an LBA an earlier one cached, so the FIFO head advances piece by
        piece); the counters, the occupancy gauge and the span stage are
        settled once per burst.
        """
        stage = span.begin("rc_insert", ranges=len(pieces))
        size = self.data_size
        log = self._log
        virt = self._ring_virt
        inserted = evicted = 0
        for lba, data in pieces:
            length = len(data)
            footprint = align_up(length)
            if length == 0 or footprint > size:
                continue  # larger than the whole cache: do not cache
            pos = virt % size
            if pos + footprint > size:
                # no room before the ring end: skip the wrap slack (the
                # horizon below evicts what lived there)
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
            inserted += length
            virt += footprint
        self._ring_virt = virt
        if inserted:
            self.inserted_bytes += inserted
        if evicted:
            self.evicted_bytes += evicted
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
        pieces that still point into these very bytes are evicted: the one
        carve unmaps the record's LBAs (nearly always all its own), and a
        piece that lives elsewhere is mapped straight back, which re-joins
        it with the neighbours it was cut from.
        """
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

    def _end_lap(self) -> None:
        """The ring pointer wrapped: one ``cache_evict`` for the whole lap
        (an event per insert would retain ~2 KB per read in the trace)."""
        if self._lap_evicted:
            self.obs.trace.emit("cache_evict", bytes=self._lap_evicted)
        self._lap_evicted = 0

    # ------------------------------------------------------------------
    # persistence (clean shutdown only; see module docstring)
    # ------------------------------------------------------------------
    def save_map(self) -> None:
        sections = {
            "meta": ckpt.pack_json({"ring": self._ring_virt}),
            "map": ckpt.pack_rows(
                "<QQQ", [(e.lba, e.length, e.offset) for e in self.map]
            ),
        }
        blob = ckpt.encode_sections(sections)
        if len(blob) > self.slot_size:
            # degrade gracefully: an oversized map simply is not persisted
            return
        self.image.write(self.region_offset, blob)
        self.image.flush()

    def load_map(self) -> bool:
        """Try to warm the map from a clean-shutdown save; False if cold."""
        blob = self.image.read(self.region_offset, self.slot_size)
        try:
            sections = ckpt.decode_sections(blob)
            meta = ckpt.unpack_json(sections["meta"])
            entries = ckpt.unpack_rows("<QQQ", sections["map"])
        except (CorruptRecordError, KeyError, ValueError):
            return False
        self._ring_virt = meta["ring"]
        self._lap_evicted = 0
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
