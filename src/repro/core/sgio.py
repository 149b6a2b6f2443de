"""Scatter-gather buffer helpers for the zero-copy data path.

The hot read/write paths move payloads as :class:`memoryview` slices over
one backing buffer and assemble each request into a single pre-sized
:class:`bytearray`, instead of materialising a ``bytes`` copy per extent
(the per-extent ``bytes(...)`` churn LSVD009 flags).  These helpers are
the *blessed* copy points: every deliberate copy the data plane makes
goes through one of them, so the lint rule can tell the one assembly per
request apart from accidental per-extent copies.

All helpers accept any bytes-like object (``bytes``, ``bytearray``,
``memoryview``) — the union :data:`Buffer` — and are safe to hand a
buffer that outlives the call; none of them retain views.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

Buffer = Union[bytes, bytearray, memoryview]

__all__ = ["Buffer", "concat", "gather"]


def gather(buffer: Buffer, ranges: Sequence[Tuple[int, int]]) -> bytearray:
    """Concatenate ``(offset, length)`` slices of ``buffer`` into one
    pre-sized :class:`bytearray` — the single assembly of a seal.

    The destination is allocated once at the exact total size and filled
    through a :class:`memoryview`, so the only copy is the unavoidable
    move of the payload bytes themselves.
    """
    total = 0
    for _off, length in ranges:
        total += length
    out = bytearray(total)
    src = memoryview(buffer)
    pos = 0
    for off, length in ranges:
        out[pos : pos + length] = src[off : off + length]
        pos += length
    return out


def concat(chunks: Iterable[Buffer]) -> bytearray:
    """Join bytes-like chunks into one mutable buffer.

    ``bytes.join`` accepts memoryviews, but returns an immutable copy;
    this keeps the result a :class:`bytearray` so callers can hand it to
    an encoder that writes in place.
    """
    parts: List[Buffer] = list(chunks)
    out = bytearray(sum(len(c) for c in parts))
    pos = 0
    for chunk in parts:
        out[pos : pos + len(chunk)] = chunk
        pos += len(chunk)
    return out

