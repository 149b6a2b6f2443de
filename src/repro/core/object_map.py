"""The object map: vLBA -> (object sequence, offset), plus GC accounting.

Beyond the translation itself, the map maintains the in-memory table §3.5
describes: per-object total size and remaining live bytes, enabling O(n)
selection of the least-utilised cleaning candidates and the overall
utilisation trigger (live / total below the low watermark starts GC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.extent_map import Extent, ExtentMap
from repro.core.log import KIND_GC, ObjectExtent


@dataclass
class ObjectInfo:
    """Accounting entry for one backend object."""

    seq: int
    kind: int
    data_bytes: int  # payload data at creation (excl. header)
    live_bytes: int  # bytes still referenced by the map
    extents: List[ObjectExtent] = field(default_factory=list)
    in_base: bool = False  # belongs to a clone's immutable base image
    temp: int = 0  # temperature class recorded in the object header

    @property
    def utilization(self) -> float:
        if self.data_bytes == 0:
            return 1.0
        return self.live_bytes / self.data_bytes


class ObjectMap:
    """Extent map into the object stream with live-data accounting."""

    def __init__(self) -> None:
        self.map = ExtentMap()  # vLBA -> target=seq, offset=data offset
        self.objects: Dict[int, ObjectInfo] = {}

    # -- object lifecycle ---------------------------------------------------
    def add_object(
        self,
        seq: int,
        kind: int,
        data_bytes: int,
        extents: List[ObjectExtent],
        in_base: bool = False,
        temp: int = 0,
    ) -> None:
        if seq in self.objects:
            raise ValueError(f"object seq {seq} already tracked")
        self.objects[seq] = ObjectInfo(
            seq=seq,
            kind=kind,
            data_bytes=data_bytes,
            live_bytes=0,
            extents=extents,
            in_base=in_base,
            temp=temp,
        )

    def drop_object(self, seq: int) -> ObjectInfo:
        info = self.objects.pop(seq)
        return info

    # -- map updates ---------------------------------------------------
    def apply_object(
        self,
        seq: int,
        kind: int,
        data_bytes: int,
        extents: List[ObjectExtent],
        temp: int = 0,
    ) -> None:
        """Track a new stream object and apply its extents in data order —
        the one map update commit and crash replay share.  A ``KIND_GC``
        object's extents apply conditionally (:meth:`apply_gc_extent`)."""
        self.add_object(seq, kind, data_bytes, extents, temp=temp)
        offset = 0
        for ext in extents:
            if kind == KIND_GC:
                self.apply_gc_extent(seq, ext.lba, ext.length, offset, ext.src_seq)
            else:
                self.apply_extent(seq, ext.lba, ext.length, offset)
            offset += ext.length

    def apply_extent(self, seq: int, lba: int, length: int, offset: int) -> None:
        """Point [lba, lba+length) at object ``seq`` data offset ``offset``."""
        displaced = self.map.update(lba, length, seq, offset)
        self._account(seq, length, displaced)

    def apply_gc_extent(
        self, seq: int, lba: int, length: int, offset: int, src_seq: int
    ) -> int:
        """Conditionally apply a GC-copied extent (crash replay path).

        Only the sub-ranges still mapped to ``src_seq`` move to the GC
        object; anything already overwritten by newer data stays.  Returns
        the number of bytes actually relocated.
        """
        moved = 0
        for piece in self.map.lookup(lba, length):
            if piece.target != src_seq:
                continue
            rel = piece.lba - lba
            displaced = self.map.update(piece.lba, piece.length, seq, offset + rel)
            self._account(seq, piece.length, displaced)
            moved += piece.length
        return moved

    def trim(self, lba: int, length: int) -> None:
        """Discard mappings (TRIM/unmap support)."""
        for old in self.map.remove(lba, length):
            self._decrement(old)

    def _account(self, seq: int, added: int, displaced: List[Extent]) -> None:
        info = self.objects.get(seq)
        if info is not None:
            info.live_bytes += added
        for old in displaced:
            self._decrement(old)

    def _decrement(self, old: Extent) -> None:
        prev = self.objects.get(old.target)
        if prev is not None:
            prev.live_bytes -= old.length
            if prev.live_bytes < 0:
                raise AssertionError(
                    f"object {old.target} live bytes went negative"
                )

    # -- reads ---------------------------------------------------------
    def lookup(self, lba: int, length: int):
        return self.map.lookup(lba, length)

    # -- GC support -----------------------------------------------------
    def utilization(self, cleanable_only: bool = True) -> float:
        """Overall live/total ratio over (cleanable) data+GC objects."""
        total = live = 0
        for info in self.objects.values():
            if cleanable_only and info.in_base:
                continue
            total += info.data_bytes
            live += info.live_bytes
        if total == 0:
            return 1.0
        return live / total

    def cleaning_candidates(
        self, exclude: Iterable[int] = (), max_seq: Optional[int] = None
    ) -> List[ObjectInfo]:
        """Cleanable objects sorted by utilisation (greedy policy, §3.5)."""
        skip = set(exclude)
        out = [
            info
            for info in self.objects.values()
            if not info.in_base
            and info.seq not in skip
            and (max_seq is None or info.seq < max_seq)
            and info.data_bytes > 0
        ]
        out.sort(key=lambda i: (i.utilization, i.seq))
        return out

    def live_extents_of(self, seq: int) -> List[Tuple[int, int, int]]:
        """Live pieces of object ``seq``: (vLBA, length, data offset).

        Per §3.5 we only re-examine the ranges listed in the object's
        creation-time header rather than scanning the whole map.
        """
        info = self.objects[seq]
        live: List[Tuple[int, int, int]] = []
        for ext in info.extents:
            for piece in self.map.lookup(ext.lba, ext.length):
                if piece.target != seq:
                    continue
                # re-join pieces split only by a header-extent boundary:
                # adjacent in the address space *and* in the object's
                # data (the extent map's own merge rule) — so GC sees
                # maximal runs and relocation chunk cuts land at the
                # same byte offsets as the page-granular simulator's
                if (
                    live
                    and live[-1][0] + live[-1][1] == piece.lba
                    and live[-1][2] + live[-1][1] == piece.offset
                ):
                    lba0, len0, off0 = live[-1]
                    live[-1] = (lba0, len0 + piece.length, off0)
                else:
                    live.append((piece.lba, piece.length, piece.offset))
        return live

    # -- checkpoint (de)serialisation -----------------------------------
    def entries(self):
        return self.map.entries()

    def object_table(self) -> List[Tuple[int, int, int, int, bool]]:
        # the temperature class shares the kind column's high byte, the
        # same packing the object wire header uses
        return [
            (i.seq, i.kind | (i.temp << 8), i.data_bytes, i.live_bytes, i.in_base)
            for i in sorted(self.objects.values(), key=lambda i: i.seq)
        ]

    @classmethod
    def restore(cls, map_entries, object_table, extent_lists) -> "ObjectMap":
        om = cls()
        om.map = ExtentMap.from_entries(map_entries)
        for (seq, kind, data_bytes, live_bytes, in_base) in object_table:
            om.objects[seq] = ObjectInfo(
                seq=seq,
                kind=kind & 0xFF,
                data_bytes=data_bytes,
                live_bytes=live_bytes,
                extents=extent_lists.get(seq, []),
                in_base=in_base,
                temp=kind >> 8,
            )
        return om
