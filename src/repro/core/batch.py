"""Write batching for the log-structured block store (§3.1-3.2).

Client writes, once logged to the write cache, accumulate into a
:class:`WriteBatch` as references into the cache log; once the configured
batch size is reached the batch is *sealed* into one immutable backend
object whose bytes are read back from the cache (the destage read).
Within a batch, overlapping writes may be coalesced — the object is
written atomically, so intra-batch reordering cannot violate prefix
consistency — but coalescing never crosses a batch boundary (footnote 8 of
the paper: cross-batch coalescing would break the ordering guarantee).

The *merge ratio* (fraction of written bytes eliminated by coalescing) is
tracked per batch and aggregated; Table 5 reports it per trace.

Each sealed batch also records *why* it sealed (``reason``): ``"size"``
when the accumulation threshold was reached, or a forced reason
(``"drain"``, ``"backpressure"``) when a barrier or cache pressure cut
the batch short.  Forced seals emit small, padding-heavy objects — the
pure-model counterpart of the per-barrier FLUSHes that the timed
pipeline's group commit coalesces away — so the split is surfaced as
``store.size_seals`` / ``store.forced_seals``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.log import KIND_DATA, KIND_GC, ObjectExtent, ObjectHeader, encode_object
from repro.core.sgio import Buffer, concat, gather
from repro.core.write_cache import WriteCache
from repro.obs import NULL_SPAN


@dataclass
class SealedBatch:
    """An immutable batch ready to be PUT as one backend object."""

    seq: int
    payload: bytes  # full object bytes (header + data)
    extents: List[ObjectExtent]
    data_len: int
    last_record_seq: int
    bytes_in: int  # client bytes that entered the batch
    bytes_out: int  # bytes surviving coalescing
    kind: int = KIND_DATA
    reason: str = "size"  # what sealed it: "size" or a forced cut
    temp: int = 0  # temperature class (hot/warm/cold stream separation)
    group_open: bool = False  # a later object of its seal group closes it

    @property
    def merged_bytes(self) -> int:
        return self.bytes_in - self.bytes_out

    @property
    def forced(self) -> bool:
        """True when something other than the size threshold sealed it."""
        return self.reason != "size"


class WriteBatch:
    """Accumulates logged writes, by reference into the cache log, until
    sealed."""

    def __init__(self, batch_size: int, temp: int = 0):
        self.batch_size = batch_size
        self.temp = temp  # the class stream this batch accumulates
        #: (vLBA, length, cache log position, batch offset) per write
        self._writes: List[Tuple[int, int, int, int]] = []
        self.bytes_in = 0
        self.last_record_seq = 0
        self.first_record_seq = 0  # lowest record seq added since last seal

    def add(self, lba: int, length: int, position: int, record_seq: int) -> None:
        """Append one logged write whose bytes sit at log ``position`` in
        the cache; the batch offset is the running byte count."""
        self._writes.append((lba, length, position, self.bytes_in))
        self.bytes_in += length  # lint: disable=LSVD007 -- batch payload accounting, sealed into the object header, not a stat
        if not self.first_record_seq:
            self.first_record_seq = record_seq
        self.last_record_seq = record_seq

    @property
    def is_empty(self) -> bool:
        return not self._writes

    def should_seal(self) -> bool:
        return self.bytes_in >= self.batch_size

    def seal(
        self, seq: int, uuid: bytes, cache: WriteCache, reason: str = "size",
        span=NULL_SPAN, group_open: bool = False,
    ) -> SealedBatch:
        """Freeze into an object payload; the batch becomes reusable-empty.

        A write survives where ``cache``'s live map still names its log
        position: a newer write (in this batch or another class batch) or
        a trim has unmapped the rest.  The survivors, in vLBA order, join
        into one extent where they continue each other in vLBA and in
        batch offset, and their bytes are read back from the cache image
        into one pre-sized assembly (see :mod:`repro.core.sgio`) — the
        destage read, with no second CRC check: those bytes were appended
        since mount, or recovery's map rebuild verified them at mount.
        ``reason`` records what cut the batch (size threshold vs a forced
        drain/backpressure seal) for the accounting split in StoreStats,
        and is carried on the ``batch_seal`` span too.  ``group_open``
        marks an object a later one of its lockstep group completes.
        """
        stage = span.begin("batch_seal", reason=reason, seq=seq)
        lookup = cache.lookup
        live: List[Tuple[int, int, int, int]] = []
        for lba, length, position, batch_offset in self._writes:
            for ext in lookup(lba, length):
                shift = ext.lba - lba
                if ext.offset == position + shift:
                    live.append((ext.lba, ext.length, ext.offset, batch_offset + shift))
        live.sort()
        extents: List[ObjectExtent] = []
        ranges: List[Tuple[int, int]] = []
        end = next_offset = -1
        phys = cache._phys
        for lba, length, position, batch_offset in live:
            if lba == end and batch_offset == next_offset:
                extents[-1].length += length
            else:
                extents.append(ObjectExtent(lba=lba, length=length, src_seq=0))
            ranges.append((phys(position), length))
            end, next_offset = lba + length, batch_offset + length
        data = gather(cache.image.view(), ranges)
        header = ObjectHeader(
            kind=KIND_DATA,
            uuid=uuid,
            seq=seq,
            last_record_seq=self.last_record_seq,
            extents=extents,
            data_len=len(data),
            temp=self.temp,
            group_open=group_open,
        )
        sealed = SealedBatch(
            seq=seq,
            payload=encode_object(header, data),
            extents=extents,
            data_len=len(data),
            last_record_seq=self.last_record_seq,
            bytes_in=self.bytes_in,
            bytes_out=len(data),
            reason=reason,
            temp=self.temp,
            group_open=group_open,
        )
        self._writes = []
        self.bytes_in = 0
        self.last_record_seq = 0
        self.first_record_seq = 0
        stage.end(bytes=sealed.data_len)
        return sealed


def seal_gc_batch(
    seq: int,
    uuid: bytes,
    pieces: List[Tuple[int, int, int, Buffer]],
    last_record_seq: int,
    temp: int = 0,
) -> SealedBatch:
    """Build a KIND_GC object from (lba, length, src_seq, data) live pieces.

    GC extents carry their source object's sequence number so that crash
    replay applies them only where the map still points at the victim
    (newer client writes always win; see block_store recovery).  Piece
    data may be memoryviews over fetched blobs; they are concatenated
    into one assembly here.
    """
    extents = [ObjectExtent(lba, length, src_seq) for lba, length, src_seq, _d in pieces]
    data = concat(d for _l, _n, _s, d in pieces)
    header = ObjectHeader(
        kind=KIND_GC,
        uuid=uuid,
        seq=seq,
        last_record_seq=last_record_seq,
        extents=extents,
        data_len=len(data),
        temp=temp,
    )
    return SealedBatch(
        seq=seq,
        payload=encode_object(header, data),
        extents=extents,
        data_len=len(data),
        last_record_seq=last_record_seq,
        bytes_in=len(data),
        bytes_out=len(data),
        kind=KIND_GC,
        temp=temp,
    )
