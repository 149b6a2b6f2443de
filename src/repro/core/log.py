"""Wire formats for the cache log and backend objects.

Two serialised structures, both self-describing and CRC-protected so the
in-memory maps can always be rebuilt from the logs themselves (§3.3):

* **cache log record** (Figure 2): a 4 KiB-aligned header carrying magic,
  sequence number, CRC, and the list of (vLBA, length) extents, followed by
  the 4 KiB-aligned data blocks.  The CRC covers header and data, so
  recovery stops at the first torn or stale record.

* **backend object** (Figure 4): header with volume UUID, kind
  (data / GC / checkpoint / superblock), sequence number, the extent table
  — each entry optionally naming the *source* object a GC copy came from —
  and the cache-log high-water mark (``last_record_seq``) used to rewind
  and replay the cache after a crash.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import BLOCK
from repro.core.errors import CorruptRecordError
from repro.core.sgio import Buffer

# The key grammar lives in repro.core.naming; re-exported here because
# the wire format and the naming scheme are versioned together and most
# stream users import both from this module.
from repro.core.naming import object_name, parse_object_name

MAGIC = b"LSVD"
VERSION = 1

#: object / record kinds
KIND_DATA = 1
KIND_GC = 2
KIND_CHECKPOINT = 3
KIND_SUPERBLOCK = 4

_REC_HDR = struct.Struct("<4sHHQQIII")  # magic ver kind seq epoch crc n_ext data_len
_REC_EXT = struct.Struct("<QI")  # lba, length
#: bytes of a record's fixed header (what :func:`record_header_seq` reads)
RECORD_HEADER_BYTES = _REC_HDR.size
_OBJ_HDR = struct.Struct("<4sHH16sQQIII")  # magic ver kind uuid seq last_rec n_ext data_len crc
_OBJ_EXT = struct.Struct("<QIQ")  # lba, length, src_seq (0 = fresh data)


def _crc(*chunks: Buffer) -> int:
    value = 0
    for chunk in chunks:
        value = zlib.crc32(chunk, value)
    return value & 0xFFFFFFFF


def align_up(n: int, granularity: int = BLOCK) -> int:
    return (n + granularity - 1) // granularity * granularity


# ---------------------------------------------------------------------------
# Cache log records
# ---------------------------------------------------------------------------


@dataclass
class CacheRecord:
    """One write-cache log record: a batch of write extents plus data.

    ``epoch`` is the cache's recovery generation: it changes on every
    recovery, so log replay can distinguish records of the current chain
    from stale same-sequence records surviving from before an earlier
    crash (which must never be resurrected — they were already rolled
    back once).
    """

    seq: int
    extents: List[Tuple[int, int]]  # (vLBA, length-in-bytes)
    data: bytes  # concatenated extent payloads, block-padded per extent
    epoch: int = 0

    @property
    def header_size(self) -> int:
        raw = _REC_HDR.size + _REC_EXT.size * len(self.extents)
        return align_up(raw)

    @property
    def size(self) -> int:
        """Total on-SSD footprint (header + block-aligned data)."""
        return self.header_size + len(self.data)

    def data_offset_of(self, index: int) -> int:
        """Offset of extent ``index``'s payload within ``data``."""
        off = 0
        for lba, length in self.extents[:index]:
            off += align_up(length)
        return off


def pack_record(
    seq: int, writes: List[Tuple[int, Buffer]], epoch: int = 0
) -> CacheRecord:
    """Build a cache record from (vLBA, payload) writes, laid out by the
    one codec, :func:`encode_writes`: each payload padded to the 4 KiB block
    grid — the space expansion for small writes the paper accepts as the
    price of a pure log (§3.1)."""
    encoded, _placed = encode_writes(seq, writes, epoch)
    record = decode_record(encoded)
    assert record is not None  # a record this codec just encoded decodes
    return record


def encode_writes(
    seq: int, writes: Sequence[Tuple[int, Buffer]], epoch: int = 0
) -> Tuple[bytearray, List[Tuple[int, int, int]]]:
    """Encode (vLBA, payload) writes as one record, in one pass.

    Header, extent table, block-padded payloads and CRC go into one
    pre-sized bytearray (padding is its zero fill), each payload copied once,
    the CRC run over views.  Returns the buffer and, per write, ``(vLBA,
    length, payload offset from the record start)``.
    """
    table_end = _REC_HDR.size + _REC_EXT.size * len(writes)
    hdr_size = align_up(table_end)
    placed: List[Tuple[int, int, int]] = []
    pos = hdr_size
    for lba, data in writes:
        placed.append((lba, len(data), pos))
        pos += align_up(len(data))
    out = bytearray(pos)
    for i, ((lba, length, data_off), (_lba, data)) in enumerate(zip(placed, writes)):
        _REC_EXT.pack_into(out, _REC_HDR.size + i * _REC_EXT.size, lba, length)
        out[data_off : data_off + length] = data
    fields = [MAGIC, VERSION, KIND_DATA, seq, epoch, 0, len(writes), pos - hdr_size]
    _REC_HDR.pack_into(out, 0, *fields)
    view = memoryview(out)
    fields[5] = _crc(view[:table_end], view[hdr_size:])
    view.release()
    _REC_HDR.pack_into(out, 0, *fields)
    return out, placed


def encode_record(record: CacheRecord) -> bytes:
    """Serialise a record into one contiguous, block-aligned buffer (the
    one codec: :func:`encode_writes` over the record's payload slices)."""
    data = memoryview(record.data)
    writes: List[Tuple[int, Buffer]] = []
    pos = 0
    for lba, length in record.extents:
        writes.append((lba, data[pos : pos + length]))
        pos += align_up(length)
    encoded, _placed = encode_writes(record.seq, writes, record.epoch)
    return bytes(encoded)


def record_header_seq(buf: Buffer) -> Optional[int]:
    """Sequence number in the record header ``buf`` starts with (magic,
    version and kind checked; no CRC, no payload), or None."""
    if len(buf) < _REC_HDR.size:
        return None
    magic, ver, kind, seq = _REC_HDR.unpack_from(buf)[:4]
    if magic != MAGIC or ver != VERSION or kind != KIND_DATA:
        return None
    return int(seq)


def decode_record(buf: Buffer, offset: int = 0) -> Optional[CacheRecord]:
    """Decode the record at ``offset``; None if invalid/torn (end of log).

    ``buf`` may be any bytes-like object; validation (CRC, extent table)
    runs over memoryviews and only the record's payload is copied out.
    """
    if offset + _REC_HDR.size > len(buf):
        return None
    magic, ver, kind, seq, epoch, crc, n_ext, data_len = _REC_HDR.unpack_from(
        buf, offset
    )
    if magic != MAGIC or ver != VERSION or kind != KIND_DATA:
        return None
    ext_off = offset + _REC_HDR.size
    ext_end = ext_off + _REC_EXT.size * n_ext
    hdr_size = align_up(ext_end - offset)
    if offset + hdr_size + data_len > len(buf):
        return None
    extents = [
        _REC_EXT.unpack_from(buf, ext_off + i * _REC_EXT.size) for i in range(n_ext)
    ]
    view = memoryview(buf)
    data = bytes(view[offset + hdr_size : offset + hdr_size + data_len])
    hdr_no_crc = _REC_HDR.pack(MAGIC, ver, kind, seq, epoch, 0, n_ext, data_len)
    if _crc(hdr_no_crc, view[ext_off:ext_end], data) != crc:
        return None
    expected_data = sum(align_up(n) for _l, n in extents)
    if expected_data != data_len:
        return None
    return CacheRecord(seq=seq, extents=list(extents), data=data, epoch=epoch)


# ---------------------------------------------------------------------------
# Backend objects
# ---------------------------------------------------------------------------


@dataclass
class ObjectExtent:
    """One extent inside a backend object."""

    lba: int
    length: int
    src_seq: int = 0  # for GC objects: the victim the data was copied from


@dataclass
class ObjectHeader:
    """Parsed header of a backend object.

    ``temp`` is the object's temperature class (hot/warm/cold data
    separation); it rides in the high byte of the wire ``kind`` field so
    old objects decode as class 0 and readers that only care about the
    kind (recovery, ``lsvdtool``) stay oblivious-safe.
    """

    kind: int
    uuid: bytes
    seq: int
    last_record_seq: int
    extents: List[ObjectExtent] = field(default_factory=list)
    data_len: int = 0
    temp: int = 0

    @property
    def header_size(self) -> int:
        return _OBJ_HDR.size + _OBJ_EXT.size * len(self.extents)

    def data_offset_of(self, index: int) -> int:
        """Offset of extent ``index``'s payload within the object's data."""
        return self.header_size + sum(e.length for e in self.extents[:index])


def encode_object(header: ObjectHeader, data: Buffer) -> bytes:
    """Serialise header+data into the immutable object payload.

    ``data`` may be any bytes-like object (the batch seal hands in the
    gathered ``bytearray`` directly); the final ``join`` is the single
    copy that builds the immutable PUT payload.
    """
    ext_blob = b"".join(
        _OBJ_EXT.pack(e.lba, e.length, e.src_seq) for e in header.extents
    )
    wire_kind = header.kind | (header.temp << 8)
    base = _OBJ_HDR.pack(
        MAGIC,
        VERSION,
        wire_kind,
        header.uuid,
        header.seq,
        header.last_record_seq,
        len(header.extents),
        len(data),
        0,
    )
    crc = _crc(base, ext_blob, data)
    base = _OBJ_HDR.pack(
        MAGIC,
        VERSION,
        wire_kind,
        header.uuid,
        header.seq,
        header.last_record_seq,
        len(header.extents),
        len(data),
        crc,
    )
    return b"".join((base, ext_blob, data))


def decode_object_header(buf: Buffer) -> ObjectHeader:
    """Parse an object header (a prefix of the object is enough)."""
    if len(buf) < _OBJ_HDR.size:
        raise CorruptRecordError("object shorter than fixed header")
    magic, ver, kind, uuid, seq, last_rec, n_ext, data_len, _crc_ = _OBJ_HDR.unpack_from(
        buf, 0
    )
    if magic != MAGIC:
        raise CorruptRecordError("bad object magic")
    if ver != VERSION:
        raise CorruptRecordError(f"unsupported object version {ver}")
    need = _OBJ_HDR.size + _OBJ_EXT.size * n_ext
    if len(buf) < need:
        raise CorruptRecordError("object truncated inside extent table")
    extents = [
        ObjectExtent(*_OBJ_EXT.unpack_from(buf, _OBJ_HDR.size + i * _OBJ_EXT.size))
        for i in range(n_ext)
    ]
    return ObjectHeader(
        kind=kind & 0xFF,
        uuid=uuid,
        seq=seq,
        last_record_seq=last_rec,
        extents=extents,
        data_len=data_len,
        temp=kind >> 8,
    )


def decode_object(buf: Buffer) -> Tuple[ObjectHeader, bytes]:
    """Parse a whole object, verifying the CRC over header and data.

    The CRC runs over memoryviews of ``buf``; only the data area is
    copied out (the one materialisation the caller keeps).
    """
    header = decode_object_header(buf)
    hdr_size = header.header_size
    if len(buf) < hdr_size + header.data_len:
        raise CorruptRecordError("object truncated inside data")
    view = memoryview(buf)
    data = bytes(view[hdr_size : hdr_size + header.data_len])
    magic, ver, kind, uuid, seq, last_rec, n_ext, data_len, crc = _OBJ_HDR.unpack_from(
        buf, 0
    )
    base = _OBJ_HDR.pack(MAGIC, ver, kind, uuid, seq, last_rec, n_ext, data_len, 0)
    if _crc(base, view[_OBJ_HDR.size : hdr_size], data) != crc:
        raise CorruptRecordError(f"object seq={seq} CRC mismatch")
    return header, data


__all__ = [
    "CacheRecord",
    "KIND_CHECKPOINT",
    "KIND_DATA",
    "KIND_GC",
    "KIND_SUPERBLOCK",
    "ObjectExtent",
    "ObjectHeader",
    "RECORD_HEADER_BYTES",
    "align_up",
    "decode_object",
    "decode_object_header",
    "decode_record",
    "encode_object",
    "encode_record",
    "encode_writes",
    "object_name",
    "pack_record",
    "parse_object_name",
    "record_header_seq",
]
