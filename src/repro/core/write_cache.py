"""Log-structured write-back cache (Figure 2, §3.1).

The cache occupies a region of the local SSD laid out as::

    [superblock 4K][checkpoint slot A][checkpoint slot B][ circular log ... ]

Client writes become log records — a block-aligned header listing the
(vLBA, length) extents followed by block-aligned data — appended at the
head.  Because the log is written sequentially, small random client writes
turn into fast sequential device writes, and a commit barrier needs only a
single device flush: no separate metadata blocks ever have to be persisted,
which is the source of LSVD's 4x advantage over bcache on sync-heavy
workloads (§4.2.2).

The head/tail pair are *virtual* (monotonic) byte offsets into the log
area; physical position is ``virt % area_size``.  A record never wraps
internally: when it would, the head skips to the next area boundary and
recovery follows the same rule.  The tail advances only when the volume
confirms that a record's data is safely inside a settled backend object
(:meth:`release_through`), so everything between tail and head is exactly
the data that crash recovery may need to replay to the backend (§3.3).

The map and the record index name a payload by its *log position*
(record ``virt`` + offset in the record), which is never reused: an entry
is live exactly while its position is at or past the tail, so releasing a
record moves the tail and touches no map.

Checkpoints alternate between two slots and hold the record index, not
the map; recovery picks the newest valid one (by CRC and sequence), replays
records forward from the checkpointed head, stopping at the first invalid
header — the implicit end-of-log detection the paper describes — and
re-derives the map from the records that still decode.

Divergence from the paper: the prototype re-uses this implementation for
the read cache and persists the read map periodically; here the read-cache
map is persisted only on *clean* shutdown and dropped after a crash, which
is strictly safe (a stale persisted read-map could otherwise serve old
data for LBAs overwritten after the map was persisted).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.core import checkpoint as ckpt
from repro.core.config import BLOCK
from repro.core.errors import CacheFullError, CorruptRecordError
from repro.core.extent_map import Extent, ExtentMap
from repro.core.ids import IDS
from repro.core.log import CacheRecord, align_up, decode_record, encode_writes
from repro.devices.image import DiskImage
from repro.obs import NULL_SPAN, Registry, bind_metrics, gauge_field, metric_field

_SUPER = struct.Struct("<4sHHQQQQ")  # magic ver flags log_off log_size slot_size uuid_lo
_SUPER_MAGIC = b"LSWC"
_FLAG_CLEAN = 1

#: target identifier used in the write-cache extent map
WC_TARGET = "wc"


@dataclass
class RecordRef:
    """Index entry for one live log record."""

    seq: int
    virt: int  # virtual byte offset of the record header
    size: int  # total footprint (header + data)
    #: (vLBA, length, log position of the payload): what batches destage
    extents: List[Tuple[int, int, int]] = field(default_factory=list)


class WriteCache:
    """The log-structured write-back cache over a DiskImage region."""

    # statistics (registry-backed; see repro.obs)
    bytes_logged = metric_field("wc.bytes_logged")
    client_bytes = metric_field("wc.client_bytes")
    barriers = metric_field("wc.barriers")
    barriers_coalesced = metric_field("wc.barriers_coalesced")
    device_flushes = metric_field("wc.device_flushes")
    occupancy_bytes = gauge_field("wc.occupancy_bytes")

    def __init__(
        self,
        image: DiskImage,
        region_offset: int = 0,
        region_size: Optional[int] = None,
        ckpt_slot_size: int = 1 << 20,
        obs: Optional[Registry] = None,
    ):
        self.image = image
        self.region_offset = region_offset
        self.region_size = region_size if region_size is not None else image.size
        self.slot_size = align_up(ckpt_slot_size)
        meta = BLOCK + 2 * self.slot_size
        if self.region_size <= meta + 4 * BLOCK:
            raise ValueError("write cache region too small")
        self.log_offset = region_offset + meta
        self.log_size = (self.region_size - meta) // BLOCK * BLOCK

        #: vLBA -> (WC_TARGET, log position); entries behind the tail are
        #: dead and linger until :meth:`release_through` sweeps them
        self.map = ExtentMap()
        self._swept_tail = 0  # no entry lies behind it (see release_through)
        self.records: List[RecordRef] = []  # live records, oldest first
        self.head_virt = 0
        self.tail_virt = 0
        self.next_seq = 1
        #: recovery generation: records of a different epoch must never be
        #: resurrected during replay (they were rolled back by an earlier
        #: recovery, and clients may have observed their absence)
        self.epoch = 0
        self._ckpt_seq = 0
        self._ckpt_head = 0  # head position captured by the last checkpoint
        self._clean = False
        #: (epoch, checkpoint seq) of the clean-shutdown checkpoint the
        #: last :meth:`recover` resumed from; None after a crash
        self.resumed_clean: Optional[Tuple[int, int]] = None
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _phys(self, virt: int) -> int:
        return self.log_offset + (virt % self.log_size)

    @property
    def used_bytes(self) -> int:
        return self.head_virt - self.tail_virt

    @property
    def free_bytes(self) -> int:
        return self.log_size - self.used_bytes

    @property
    def dirty_bytes(self) -> int:
        """Bytes of not-yet-released (i.e. not safely destaged) records."""
        return self.used_bytes

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, writes: List[Tuple[int, bytes]], span=NULL_SPAN) -> RecordRef:
        """Log a group of writes as one record; returns its index entry.

        Raises :class:`CacheFullError` when the log lacks space — the
        caller must destage and :meth:`release_through` first.  A failed
        append leaves its span child open; the retry (after the caller
        makes room) opens a fresh one.
        """
        stage = span.begin("wc_append")
        encoded, placed = encode_writes(self.next_seq, writes, self.epoch)
        size = len(encoded)
        if size > self.log_size:
            raise CacheFullError("record larger than the entire cache log")
        # Recovery replays the record chain forward from the last
        # checkpoint's head.  If this append would wrap over that position
        # (possible once the records there were released), the chain would
        # no longer be decodable after a crash - so checkpoint first.
        start = self.head_virt
        if self.log_size - (start % self.log_size) < size:
            start += self.log_size - (start % self.log_size)
        if start + size > self._ckpt_head + self.log_size:
            self.checkpoint()
        virt = self._reserve(size)
        phys = self._phys(virt)
        self.image.write(phys, encoded)
        # map each extent to its log position; the stat update is one
        # batched delta after the loop (hot-path hygiene, LSVD009)
        total = 0
        extents = []
        for lba, length, data_off in placed:
            self.map.update(lba, length, WC_TARGET, virt + data_off)
            extents.append((lba, length, virt + data_off))
            total += length
        self.client_bytes += total
        ref = RecordRef(self.next_seq, virt, size, extents)
        self.records.append(ref)
        self.next_seq += 1
        self.bytes_logged += size
        self.occupancy_bytes = self.used_bytes
        self._clean = False
        stage.end(bytes=total, seq=ref.seq)
        return ref

    def _reserve(self, size: int) -> int:
        """Find space for ``size`` contiguous bytes, skipping wrap slack."""
        virt = self.head_virt
        room_to_edge = self.log_size - (virt % self.log_size)
        if room_to_edge < size:
            virt += room_to_edge  # dead space until the tail frees it
        if (virt + size) - self.tail_virt > self.log_size:
            raise CacheFullError(
                f"cache log full: need {size}, free {self.free_bytes}"
            )
        self.head_virt = virt + size
        return virt

    def barrier(self, span=NULL_SPAN) -> None:
        """Commit barrier: one flush makes all prior records durable.

        Group-commit elision: when the device has nothing in its volatile
        write buffer, every prior record is *already* durable and the
        barrier is a no-op — a back-to-back barrier burst (fsync storms)
        costs one device FLUSH for the whole group.  Safe by the device
        model itself: ``pending_writes == 0`` is exactly the condition
        under which a crash loses nothing.
        """
        self.barriers += 1
        if self.image.pending_writes == 0:
            self.barriers_coalesced += 1
            span.annotate(flush_elided=True)
            return
        stage = span.begin("device_flush")
        self.image.flush()
        stage.end()
        self.device_flushes += 1

    def resume_after(self, last_record_seq: int) -> None:
        """Restart sequence allocation just past a backend high-water mark.

        Mount-time recovery must never let a fresh record reuse a
        sequence the backend already destaged (it would be released as
        "already safe" and lost).  The cache log owns that arithmetic;
        callers hand in the backend's mark and nothing else (LSVD002).
        """
        self.next_seq = last_record_seq + 1

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def lookup(self, lba: int, length: int) -> List[Extent]:
        """The live map pieces of [lba, lba+length), clipped, in order:
        every map reader sees the cache through this one filter."""
        tail = self.tail_virt
        found = self.map.lookup(lba, length)
        for ext in found:  # a loop, not a comprehension: no frame when all live
            if ext.offset < tail:
                return [e for e in found if e.offset >= tail]
        return found

    def read(self, lba: int, length: int, span=NULL_SPAN) -> List[Tuple[int, int, bytes]]:
        """Serve cached pieces of [lba, lba+length): (lba, length, data)."""
        stage = span.begin("wc_read")
        out = []
        for ext in self.lookup(lba, length):
            out.append((ext.lba, ext.length, self.image.read(self._phys(ext.offset), ext.length)))
        stage.end(pieces=len(out))
        return out

    # ------------------------------------------------------------------
    # destage coupling
    # ------------------------------------------------------------------
    def release_through(self, record_seq: int) -> int:
        """Free records with seq <= record_seq (data settled in backend).

        Returns the number of bytes freed.  The tail moves to the next
        live record (swallowing wrap slack), leaving the freed records' map
        entries dead behind it: reads fall through to the read cache or the
        block store, both of which now hold the data.  The map is cleared
        when the log empties and swept once the tail has moved a log size,
        so its entries, disjoint in position, lie within two log sizes of
        the head.  A sweep filters: a rebuild from the records would bring
        trimmed ranges back.
        """
        freed = 0
        while self.records and self.records[0].seq <= record_seq:
            freed += self.records.pop(0).size
        if not freed:
            return 0
        self.tail_virt = tail = self.records[0].virt if self.records else self.head_virt
        self.occupancy_bytes = self.used_bytes
        if not self.records:
            self.map.clear()
            self._swept_tail = tail
        elif tail - self._swept_tail >= self.log_size:
            self.map = ExtentMap.from_entries(e for e in self.map if e.offset >= tail)
            self._swept_tail = tail
        return freed

    def replay_after(self, record_seq: int) -> Iterator[RecordRef]:
        """Yield the live records with seq > record_seq, oldest first, for
        mount replay (§3.3), mapping each record back as it is yielded.

        The map :meth:`recover` rebuilt already holds every record; a
        batch sealed from it mid-replay would drop a write that a later,
        not yet replayed record overwrites, while its object claims the
        earlier record.  So the map restarts empty and never runs ahead
        of the replay cursor.  Walks the refs :meth:`_rebuild_map`
        verified, over a snapshot: consumers commit batches that release
        records (mutating ``self.records``) mid-iteration.
        """
        self.map = ExtentMap()
        for ref in list(self.records):
            for lba, length, position in ref.extents:
                self.map.update(lba, length, WC_TARGET, position)
            if ref.seq > record_seq:
                yield ref

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------
    def format(self, uuid_lo: int = 0) -> None:
        """Initialise an empty cache region (mkfs equivalent)."""
        super_blob = _SUPER.pack(
            _SUPER_MAGIC, 1, 0, self.log_offset, self.log_size, self.slot_size, uuid_lo
        )
        self.image.write(self.region_offset, super_blob.ljust(BLOCK, b"\x00"))
        self.epoch = IDS.epoch()
        self.checkpoint()
        self.image.flush()

    def checkpoint(self) -> None:
        """Persist the record index to the next alternating slot.

        The map is not persisted: :meth:`recover` re-derives it from the
        records that still decode, which is exact where a saved map could
        be stale.  Older slots carry a ``"map"`` section; it is ignored.
        """
        self._ckpt_seq += 1
        sections = {
            "meta": ckpt.pack_json(
                {
                    "ckpt_seq": self._ckpt_seq,
                    "head": self.head_virt,
                    "tail": self.tail_virt,
                    "next_seq": self.next_seq,
                    "epoch": self.epoch,
                    "clean": bool(self._clean),
                }
            ),
            "records": ckpt.pack_rows(
                "<QQQ", [(r.seq, r.virt, r.size) for r in self.records]
            ),
        }
        blob = ckpt.encode_sections(sections)
        if len(blob) > self.slot_size:
            raise CacheFullError("checkpoint larger than slot")
        slot = self._ckpt_seq % 2
        offset = self.region_offset + BLOCK + slot * self.slot_size
        self.image.flush()  # every record the slot lists reaches media first
        self.image.write(offset, blob)
        self.image.flush()
        self._ckpt_head = self.head_virt

    def close(self) -> Tuple[int, int]:
        """Clean shutdown: mark clean and checkpoint (enables warm maps).

        Returns that checkpoint's ``(epoch, checkpoint seq)``, the stamp
        :meth:`recover` reports in :attr:`resumed_clean`.
        """
        self._clean = True
        self.checkpoint()
        return self.epoch, self._ckpt_seq

    def recover(self) -> None:
        """Rebuild state after restart/crash.

        Loads the newest valid checkpoint, rolls the log forward from its
        head, stopping at the first invalid or out-of-sequence record, and
        rebuilds the map from the records that survive.
        """
        best: Optional[dict] = None
        best_sections: Optional[dict] = None
        for slot in range(2):
            offset = self.region_offset + BLOCK + slot * self.slot_size
            blob = self.image.read(offset, self.slot_size)
            try:
                sections = ckpt.decode_sections(blob)
                meta = ckpt.unpack_json(sections["meta"])
            except (CorruptRecordError, KeyError, ValueError):
                continue
            if best is None or meta["ckpt_seq"] > best["ckpt_seq"]:
                best, best_sections = meta, sections
        if best is None:
            raise CorruptRecordError("no valid write-cache checkpoint")
        self._ckpt_seq = best["ckpt_seq"]
        self.head_virt = best["head"]
        self._ckpt_head = best["head"]
        self.tail_virt = best["tail"]
        self.next_seq = best["next_seq"]
        self.epoch = best.get("epoch", 0)
        self.records = [
            RecordRef(seq, virt, size)
            for seq, virt, size in ckpt.unpack_rows("<QQQ", best_sections["records"])
        ]
        self._replay_from_head()
        self._rebuild_map()
        # a clean-shutdown checkpoint with nothing appended after it
        clean = bool(best.get("clean")) and self.head_virt == best["head"]
        self.resumed_clean = (self.epoch, self._ckpt_seq) if clean else None
        self._clean = False
        # start a new recovery generation and persist it before accepting
        # writes: replay after a future crash must be able to tell this
        # chain's records apart from any stale pre-crash ones
        self.epoch = IDS.epoch()
        self.checkpoint()

    def _rebuild_map(self) -> None:
        """Re-derive the map purely from decodable live records.

        The checkpointed record list may be stale: records released (and
        physically overwritten) after the checkpoint would otherwise
        linger as zombies whose map entries point into space a newer
        record now owns.  Re-applying only records that still decode
        with the right sequence number, in order, is always exact.
        """
        self.map = ExtentMap()
        verified: List[RecordRef] = []
        for ref in self.records:  # ascending seq order
            raw = self.image.read(self._phys(ref.virt), ref.size)
            record = decode_record(raw)
            if record is None or record.seq != ref.seq:
                continue  # zombie: destaged before the crash, space reused
            base = ref.virt + record.header_size
            extents = [  # the layout append placed
                (lba, n, base + record.data_offset_of(i))
                for i, (lba, n) in enumerate(record.extents)
            ]
            for lba, length, offset in extents:
                self.map.update(lba, length, WC_TARGET, offset)
            verified.append(RecordRef(ref.seq, ref.virt, ref.size, extents))
        self.records = verified
        self.tail_virt = self._swept_tail = verified[0].virt if verified else self.head_virt

    def _replay_from_head(self) -> None:
        """Roll forward from the checkpointed head position.

        A record continues the chain only if its sequence number is the
        expected next one AND its epoch matches the checkpoint's: stale
        same-sequence records from before an earlier crash must never be
        resurrected (clients may have observed their rollback).
        """
        expected_seq = self.next_seq
        virt = self.head_virt
        while True:
            record, virt = self._try_decode_at(virt, expected_seq)
            if record is None:
                break
            self.records.append(RecordRef(record.seq, virt, record.size))
            virt += record.size
            expected_seq += 1
            self.head_virt = virt
            self.next_seq = expected_seq

    def _try_decode_at(
        self, virt: int, expected_seq: int
    ) -> Tuple[Optional[CacheRecord], int]:
        """Decode the record at ``virt``; handles the wrap-skip rule.

        The epoch check replaces any reliance on the checkpointed tail
        (which may be arbitrarily stale): CRC + exact sequence + exact
        epoch uniquely identify the genuine next record of this chain.
        """
        for candidate in self._wrap_candidates(virt):
            phys = self._phys(candidate)
            room = self.log_size - (candidate % self.log_size)
            raw = self.image.read(phys, min(room, self.log_size))
            record = decode_record(raw)
            if (
                record is not None
                and record.seq == expected_seq
                and record.epoch == self.epoch
            ):
                return record, candidate
        return None, virt

    def _wrap_candidates(self, virt: int) -> List[int]:
        """Positions a record starting at ``virt`` may legally occupy."""
        room = self.log_size - (virt % self.log_size)
        if room < self.log_size:
            return [virt, virt + room]  # in place, or skipped to boundary
        return [virt]
