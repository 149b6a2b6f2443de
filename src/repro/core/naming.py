"""Object-name formatting and parsing for LSVD backend streams.

One volume's backend state is a set of S3 keys with a tiny grammar
(§3.1): the ordered stream of immutable objects ``{volume}.{seq:08d}``
— where the zero-padded decimal suffix encodes log order so a prefix
LIST returns the stream sorted — plus a small mutable superblock
``{volume}.super``.  Every layer that touches keys (the block store,
recovery, the replicator, fsck, the shard router) must agree on
this grammar, so it lives here and nowhere else.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

#: width of the zero-padded decimal sequence suffix
SEQ_DIGITS = 8

#: suffix of the (mutable) per-volume superblock key
SUPER_SUFFIX = "super"


def object_name(volume: str, seq: int) -> str:
    """Stream object name: order is encoded in the name (§3.1)."""
    return f"{volume}.{seq:0{SEQ_DIGITS}d}"


def super_name(volume: str) -> str:
    """The volume's superblock key."""
    return f"{volume}.{SUPER_SUFFIX}"


def stream_prefix(volume: str) -> str:
    """LIST prefix covering the volume's stream objects and superblock."""
    return f"{volume}."


def parse_object_name(name: str) -> Tuple[str, int]:
    """Inverse of :func:`object_name`; raises ValueError for non-stream keys."""
    volume, _, seq = name.rpartition(".")
    if not volume or not seq.isdigit():
        raise ValueError(f"not a stream object name: {name!r}")
    return volume, int(seq)


def stream_seq(name: str, volume: str) -> Optional[int]:
    """Sequence number of ``name`` if it is a stream object of ``volume``.

    Returns None for the superblock, other volumes' keys, and anything
    else that does not match the grammar.
    """
    prefix = stream_prefix(volume)
    if not name.startswith(prefix):
        return None
    suffix = name[len(prefix):]
    if not suffix.isdigit():
        return None
    return int(suffix)


def stream_seqs(names: Iterable[str], volume: str) -> List[int]:
    """Sorted sequence numbers of ``volume``'s stream objects in ``names``.

    The one LIST-decoding primitive recovery needs: with a sharded store
    the listing is already the union of every shard's keys, so the
    longest consecutive run of this result *is* the globally consistent
    prefix (§3.3).
    """
    seqs = []
    for name in names:
        seq = stream_seq(name, volume)
        if seq is not None:
            seqs.append(seq)
    return sorted(seqs)
