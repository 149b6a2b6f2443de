"""Scrubbing and fsck: verify object CRCs, the live map and the prefix.

Object stores corrupt and lose data rarely but not never; a production
virtual disk periodically re-reads its objects and verifies checksums.
The :class:`Scrubber` walks a mounted volume's whole object stream in
one pass, decodes each object fully (header + data CRC), and
cross-checks that every extent the in-memory map attributes to the
object actually falls inside the object's data.

:func:`fsck_volume` is the offline analogue of ``dumpe2fs``/``fsck``:
because every object is self-describing (§3.3) it needs nothing but the
object store.  It CRC-checks every stream object, and takes the
consistent prefix from the code that mounts the volume — a read-only
:meth:`BlockStore.open`, which has no side effects — so fsck and the
mount can never disagree about where the prefix ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import checkpoint as ckpt_codec
from repro.core.block_store import BlockStore
from repro.core.errors import CorruptRecordError, RecoveryError
from repro.core.log import (
    KIND_CHECKPOINT,
    KIND_DATA,
    KIND_GC,
    ObjectHeader,
    decode_object,
    object_name,
)
from repro.core.naming import parse_object_name, stream_prefix, stream_seqs
from repro.objstore.s3 import NoSuchKeyError, ObjectStore
from repro.obs import Registry, bind_metrics, metric_field

_KIND_NAMES = {KIND_DATA: "data", KIND_GC: "gc", KIND_CHECKPOINT: "ckpt"}


def read_object(store: ObjectStore, name: str) -> Tuple[ObjectHeader, bytes, int]:
    """GET one stream object and check it whole (header, data, CRC): the
    one check the scrubber and fsck share.  Returns ``(header, data,
    object bytes)``; raises :class:`CorruptRecordError` naming the problem,
    for a missing object too."""
    try:
        blob = store.get(name)
    except NoSuchKeyError:
        raise CorruptRecordError("object missing from the store") from None
    try:
        header, data = decode_object(blob)
    except CorruptRecordError as exc:
        raise CorruptRecordError(f"CRC/decode failure: {exc}") from None
    return header, data, len(blob)


@dataclass
class ScrubFinding:
    seq: int
    problem: str


class ScrubStats:
    """Registry-backed scrub counters (``scrub.*``); findings stay a list."""

    objects_checked = metric_field("scrub.objects_checked")
    bytes_verified = metric_field("scrub.bytes_verified")
    passes_completed = metric_field("scrub.passes_completed")

    def __init__(self, obs: Optional[Registry] = None):
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)
        self.findings: List[ScrubFinding] = []


class Scrubber:
    """CRC scrubber for one block store."""

    def __init__(self, store: BlockStore):
        self.store = store
        self.stats = ScrubStats(getattr(store, "obs", None))

    def full_pass(self) -> List[ScrubFinding]:
        """Scrub every tracked object once."""
        findings = []
        for seq in sorted(self.store.omap.objects):
            if not self.store.omap.objects[seq].in_base:
                findings.extend(self._check_object(seq))
        self.stats.passes_completed += 1
        self.stats.findings.extend(findings)
        return findings

    def _check_object(self, seq: int) -> List[ScrubFinding]:
        findings: List[ScrubFinding] = []
        try:
            header, _data, nbytes = read_object(
                self.store.store, self.store.name_for_seq(seq)
            )
        except CorruptRecordError as exc:
            return [ScrubFinding(seq, str(exc))]
        if header.seq != seq:
            findings.append(
                ScrubFinding(seq, f"header claims seq {header.seq}")
            )
        info = self.store.omap.objects.get(seq)
        if info is not None and info.live_bytes > header.data_len:
            findings.append(
                ScrubFinding(
                    seq,
                    f"map attributes {info.live_bytes} live bytes to a "
                    f"{header.data_len}-byte object",
                )
            )
        self.stats.objects_checked += 1
        self.stats.bytes_verified += nbytes
        return findings


# -- offline fsck ---------------------------------------------------------------


@dataclass
class ObjectReport:
    """Findings for one stream object."""

    seq: int
    kind: str
    data_bytes: int
    extents: int
    last_record_seq: int
    error: Optional[str] = None

    @property
    def crc_ok(self) -> bool:
        return self.error is None


@dataclass
class StreamReport:
    """Findings for a whole volume stream."""

    volume: str
    size: int
    uuid: str
    objects: List[ObjectReport] = field(default_factory=list)
    #: last seq of the prefix a mount recovers; ``None`` when it cannot mount
    prefix_end: Optional[int] = None
    #: listed seqs past the prefix, which a read-write mount deletes
    stranded: List[int] = field(default_factory=list)
    checkpoints: List[int] = field(default_factory=list)
    snapshots: Dict[str, int] = field(default_factory=dict)
    base_chain: List[Tuple[str, int]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        lines = [
            f"volume {self.volume!r}: size {self.size} bytes, uuid {self.uuid[:16]}...",
            f"  objects: {len(self.objects)}  checkpoints: {self.checkpoints}",
            f"  snapshots: {self.snapshots or '-'}  base chain: {self.base_chain or '-'}",
        ]
        if self.prefix_end is not None:
            lines.append(f"  consistent prefix ends at seq {self.prefix_end}")
        if self.stranded:
            lines.append(f"  stranded (beyond first hole): {self.stranded}")
        if self.errors:
            lines.append("  ERRORS:")
            lines.extend(f"    - {e}" for e in self.errors)
        else:
            lines.append("  no errors")
        return "\n".join(lines)


def inspect_object(store: ObjectStore, name: str) -> ObjectReport:
    """Decode and CRC-verify a single stream object."""
    _volume, seq = parse_object_name(name)
    try:
        header, _data, _nbytes = read_object(store, name)
    except CorruptRecordError as exc:
        return ObjectReport(seq, "?", 0, 0, 0, error=str(exc))
    return ObjectReport(
        seq=seq,
        kind=_KIND_NAMES.get(header.kind, f"?{header.kind}"),
        data_bytes=header.data_len,
        extents=len(header.extents),
        last_record_seq=header.last_record_seq,
    )


def inspect_stream(store: ObjectStore, volume: str) -> StreamReport:
    """Walk a volume's object stream and report its health."""
    meta = BlockStore.read_super(store, volume)
    report = StreamReport(
        volume=volume,
        size=meta["size"],
        uuid=meta["uuid"],
        snapshots=dict(meta.get("snapshots", {})),
        base_chain=[tuple(x) for x in meta.get("base_chain", [])],
    )
    for seq in stream_seqs(store.list(stream_prefix(volume)), volume):
        obj = inspect_object(store, object_name(volume, seq))
        report.objects.append(obj)
        if obj.error is not None:
            report.errors.append(f"object seq {obj.seq}: {obj.error}")
        if obj.kind == "ckpt":
            report.checkpoints.append(obj.seq)
    # the prefix verdict is recovery's own: a read-only mount deletes nothing
    try:
        _bs, state = BlockStore.open(store, volume, read_only=True)
    except (RecoveryError, CorruptRecordError) as exc:
        report.errors.append(f"unmountable: {exc}")
    else:
        report.prefix_end = state.last_seq
        report.stranded = [o.seq for o in report.objects if o.seq > state.last_seq]
    hint = meta.get("last_ckpt_seq", 0)
    if report.checkpoints and hint not in report.checkpoints:
        report.errors.append(
            f"superblock checkpoint hint {hint} does not exist "
            "(a lost superblock update; recovery will rescan)"
        )
    return report


def fsck_volume(store: ObjectStore, volume: str) -> StreamReport:
    """inspect_stream + deep verification of checkpoint payloads."""
    report = inspect_stream(store, volume)
    for seq in report.checkpoints:
        try:
            _header, payload, _nbytes = read_object(store, object_name(volume, seq))
            sections = ckpt_codec.decode_sections(payload)
            ckpt_codec.unpack_rows("<QQQQ", sections["map"])
            ckpt_codec.unpack_json(sections["meta"])
        except (CorruptRecordError, KeyError, ValueError) as exc:
            report.errors.append(f"checkpoint {seq}: payload damaged: {exc}")
    return report
