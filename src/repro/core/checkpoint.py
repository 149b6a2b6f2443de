"""Compact binary checkpoint codec.

Both the write cache (to a fixed SSD region) and the block store (to a
numbered backend object) periodically persist their maps so that recovery
replays only the log suffix after the newest checkpoint (§3.3).  The codec
is a CRC-protected container of named sections, each either a packed
struct array or a small JSON blob for irregular metadata.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.errors import CorruptRecordError

_MAGIC = b"LSCK"
_VERSION = 1
_HDR = struct.Struct("<4sHHI I")  # magic, version, n_sections, crc, total_len
_SEC = struct.Struct("<HI")  # name length, payload length


def encode_sections(sections: Dict[str, bytes]) -> bytes:
    """Serialise named sections with a whole-blob CRC."""
    body = bytearray()
    for name, payload in sections.items():
        encoded = name.encode("utf-8")
        body += _SEC.pack(len(encoded), len(payload))
        body += encoded
        body += payload
    body = bytes(body)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = _HDR.pack(_MAGIC, _VERSION, len(sections), crc, len(body))
    return header + body


def decode_sections(buf: bytes) -> Dict[str, bytes]:
    """Parse a checkpoint container; raises CorruptRecordError on damage."""
    if len(buf) < _HDR.size:
        raise CorruptRecordError("checkpoint shorter than header")
    magic, version, n_sections, crc, total_len = _HDR.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise CorruptRecordError("bad checkpoint magic")
    if version != _VERSION:
        raise CorruptRecordError(f"unsupported checkpoint version {version}")
    body = bytes(buf[_HDR.size : _HDR.size + total_len])
    if len(body) != total_len:
        raise CorruptRecordError("checkpoint truncated")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CorruptRecordError("checkpoint CRC mismatch")
    sections: Dict[str, bytes] = {}
    pos = 0
    for _ in range(n_sections):
        name_len, payload_len = _SEC.unpack_from(body, pos)
        pos += _SEC.size
        name = body[pos : pos + name_len].decode("utf-8")
        pos += name_len
        sections[name] = body[pos : pos + payload_len]
        pos += payload_len
    return sections


def pack_rows(fmt: str, rows: Iterable[Sequence[int]]) -> bytes:
    """Pack a table of equal-shape integer rows with one ``struct.pack``.

    ``fmt`` is one row (``"<QQQ"``), repeated per row after the byte order;
    a one-code row becomes one repeat count (``"<30000Q"``), a small format.
    """
    table = list(rows)
    order = fmt[0] if fmt[0] in "@=<>!" else ""
    codes = fmt[len(order) :]
    if codes == codes[0] * len(codes):
        codes = f"{len(codes) * len(table)}{codes[0]}"
    else:
        codes *= len(table)
    return struct.Struct(order + codes).pack(*chain.from_iterable(table))


def unpack_rows(fmt: str, blob: bytes) -> List[Tuple[int, ...]]:
    packer = struct.Struct(fmt)
    if len(blob) % packer.size:
        raise CorruptRecordError("section length not a row multiple")
    return [packer.unpack_from(blob, off) for off in range(0, len(blob), packer.size)]


def pack_json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def unpack_json(blob: bytes):
    return json.loads(blob.decode("utf-8"))
