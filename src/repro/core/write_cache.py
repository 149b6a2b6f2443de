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
from repro.core.extent_map import ExtentMap
from repro.core.log import (
    RECORD_HEADER_BYTES, CacheRecord, align_up, decode_record, encode_writes, record_header_seq
)
from repro.devices.image import DiskImage
from repro.obs import NULL_SPAN, Registry, bind_metrics, metric_field

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
    #: (vLBA, length, payload offset from the record start): what release unmaps
    extents: List[Tuple[int, int, int]] = field(default_factory=list)


class WriteCache:
    """The log-structured write-back cache over a DiskImage region."""

    # statistics (registry-backed; see repro.obs)
    bytes_logged = metric_field("wc.bytes_logged")
    client_bytes = metric_field("wc.client_bytes")
    barriers = metric_field("wc.barriers")
    barriers_coalesced = metric_field("wc.barriers_coalesced")
    device_flushes = metric_field("wc.device_flushes")

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

        self.map = ExtentMap()  # vLBA -> (WC_TARGET, absolute image offset)
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
        self._occupancy = self.obs.gauge("wc.occupancy_bytes")

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
        encoded, extents = encode_writes(self.next_seq, writes, self.epoch)
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
        # map each extent to its data location on SSD; the stat update is
        # one batched delta after the loop (hot-path hygiene, LSVD009)
        total = 0
        for lba, length, data_off in extents:
            self.map.update(lba, length, WC_TARGET, phys + data_off)
            total += length
        self.client_bytes += total
        ref = RecordRef(self.next_seq, virt, size, extents)
        self.records.append(ref)
        self.next_seq += 1
        self.bytes_logged += size
        self._occupancy.set(self.used_bytes)
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
    def read(self, lba: int, length: int, span=NULL_SPAN) -> List[Tuple[int, int, bytes]]:
        """Serve cached pieces of [lba, lba+length): (lba, length, data)."""
        stage = span.begin("wc_read")
        out = []
        for ext in self.map.lookup(lba, length):
            out.append((ext.lba, ext.length, self.image.read(ext.offset, ext.length)))
        stage.end(pieces=len(out))
        return out

    # ------------------------------------------------------------------
    # destage coupling
    # ------------------------------------------------------------------
    def release_through(self, record_seq: int) -> int:
        """Free records with seq <= record_seq (data settled in backend).

        Returns the number of bytes freed.  Map entries pointing into the
        freed records are dropped; later reads fall through to the read
        cache or the block store, both of which now hold the data.
        """
        freed = 0
        while self.records and self.records[0].seq <= record_seq:
            ref = self.records.pop(0)
            freed += ref.size
            self._drop_map_entries(ref)
            # advance tail to the next live record, swallowing wrap slack;
            # with no live records the tail catches up with the head.
            if self.records:
                self.tail_virt = self.records[0].virt
            else:
                self.tail_virt = self.head_virt
        if freed:
            self._occupancy.set(self.used_bytes)
        return freed

    def _drop_map_entries(self, ref: RecordRef) -> None:
        """Remove map entries that this record established and that still
        point at *its* data.

        The check must be exact (vLBA and offset both matching what the
        record wrote): after a log wrap, a stale record's physical range
        may have been reused by a newer record, and blindly dropping by
        physical range would destroy the newer record's mappings.  Reuse
        shows in the fixed-size header; the payload is not read, so a record
        whose data rotted still drops entries that point into reusable space.
        """
        phys = self._phys(ref.virt)
        if record_header_seq(self.image.read(phys, RECORD_HEADER_BYTES)) != ref.seq:
            return  # space already reused: nothing of ours is mapped
        for lba, length, data_off in ref.extents:
            self.map.remove_matching(lba, length, WC_TARGET, phys + data_off)

    def records_after(self, record_seq: int) -> Iterator[Tuple[CacheRecord, RecordRef]]:
        """Decode live records with seq > record_seq (crash replay, §3.3).

        Iterates over a snapshot: consumers may trigger destage commits
        that release records (mutating ``self.records``) mid-iteration.
        """
        for ref in list(self.records):
            if ref.seq <= record_seq:
                continue
            raw = self.image.read(self._phys(ref.virt), ref.size)
            record = decode_record(raw)
            if record is None or record.seq != ref.seq:
                raise CorruptRecordError(f"live record seq={ref.seq} unreadable")
            yield record, ref

    def record_data(self, record: CacheRecord, index: int) -> bytes:
        """Payload bytes of one extent of a decoded record."""
        lba, length = record.extents[index]
        off = record.data_offset_of(index)
        return record.data[off : off + length]

    # ------------------------------------------------------------------
    # checkpoint / recovery
    # ------------------------------------------------------------------
    def format(self, uuid_lo: int = 0) -> None:
        """Initialise an empty cache region (mkfs equivalent)."""
        super_blob = _SUPER.pack(
            _SUPER_MAGIC, 1, 0, self.log_offset, self.log_size, self.slot_size, uuid_lo
        )
        self.image.write(self.region_offset, super_blob.ljust(BLOCK, b"\x00"))
        self.epoch = self._fresh_epoch()
        self.checkpoint()
        self.image.flush()

    @staticmethod
    def _fresh_epoch() -> int:
        import os as _os

        return int.from_bytes(_os.urandom(8), "little") or 1  # lint: disable=LSVD003 -- volume/cache identity must be unique across stores; seeded id source is ROADMAP item 2

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
        self.epoch = self._fresh_epoch()
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
            phys = self._phys(ref.virt)
            extents = [  # the layout append's encode_writes returned
                (lba, n, record.header_size + record.data_offset_of(i))
                for i, (lba, n) in enumerate(record.extents)
            ]
            for lba, length, data_off in extents:
                self.map.update(lba, length, WC_TARGET, phys + data_off)
            verified.append(RecordRef(ref.seq, ref.virt, ref.size, extents))
        self.records = verified
        self.tail_virt = verified[0].virt if verified else self.head_virt

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
