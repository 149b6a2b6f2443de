"""The seed flat-list extent map, preserved as a reference model.

This is the original ``repro.core.extent_map.ExtentMap`` implementation:
parallel sorted lists with per-update ``list.insert``/``del`` — O(n) per
mutation, quadratic under random-write workloads.  The live map was
replaced by the chunked B+-tree-style structure (see DESIGN.md "Chunked
extent map"); this copy stays as the independent implementation that
``tests/test_extent_map_model.py`` replays every operation against, so
the chunked map is checked against the very code it replaced.

Do not use this in the data path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Hashable, Iterator, List, Optional, Tuple

from repro.core.extent_map import Extent


class FlatExtentMap:
    """The seed O(n)-mutation extent map (flat parallel sorted lists)."""

    def __init__(self) -> None:
        # parallel arrays sorted by lba; kept non-overlapping at all times
        self._lbas: List[int] = []
        self._exts: List[Extent] = []

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._exts)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._exts)

    def lookup(self, lba: int, length: int) -> List[Extent]:
        """Mapped pieces overlapping [lba, lba+length), clipped, in order."""
        if length <= 0:
            return []
        out: List[Extent] = []
        idx = bisect_right(self._lbas, lba) - 1
        if idx < 0:
            idx = 0
        end = lba + length
        while idx < len(self._exts):
            ext = self._exts[idx]
            if ext.lba >= end:
                break
            if ext.end > lba:
                out.append(ext.slice(lba, length))
            idx += 1
        return out

    def mapped_bytes(self) -> int:
        return sum(ext.length for ext in self._exts)

    def bounds(self) -> Tuple[int, int]:
        if not self._exts:
            return (0, 0)
        return (self._exts[0].lba, self._exts[-1].end)

    # -- mutation ----------------------------------------------------------
    def update(
        self, lba: int, length: int, target: Hashable, offset: int = 0
    ) -> List[Extent]:
        """Map [lba, lba+length) to target[offset:]; return displaced pieces."""
        displaced = self._carve(lba, length)
        new = Extent(lba, length, target, offset)
        idx = bisect_right(self._lbas, lba)
        self._insert_coalescing(idx, new)
        return displaced

    def remove(self, lba: int, length: int) -> List[Extent]:
        return self._carve(lba, length)

    def clear(self) -> None:
        self._lbas.clear()
        self._exts.clear()

    # -- internals -----------------------------------------------------
    def _carve(self, lba: int, length: int) -> List[Extent]:
        if length <= 0:
            raise ValueError("length must be positive")
        end = lba + length
        displaced: List[Extent] = []
        idx = bisect_right(self._lbas, lba) - 1
        if idx < 0:
            idx = 0
        while idx < len(self._exts) and self._exts[idx].end <= lba:
            idx += 1
        while idx < len(self._exts) and self._exts[idx].lba < end:
            ext = self._exts[idx]
            displaced.append(ext.slice(lba, length))
            left: Optional[Extent] = None
            right: Optional[Extent] = None
            if ext.lba < lba:
                left = Extent(ext.lba, lba - ext.lba, ext.target, ext.offset)
            if ext.end > end:
                right = Extent(
                    end, ext.end - end, ext.target, ext.offset + (end - ext.lba)
                )
            # replace ext with surviving fragments: the O(n) shuffle under
            # measurement here
            del self._lbas[idx], self._exts[idx]
            for frag in (left, right):
                if frag is not None:
                    self._lbas.insert(idx, frag.lba)
                    self._exts.insert(idx, frag)
                    idx += 1
        return displaced

    def _insert_coalescing(self, idx: int, new: Extent) -> None:
        prev = self._exts[idx - 1] if idx > 0 else None
        if (
            prev is not None
            and prev.end == new.lba
            and prev.target == new.target
            and prev.offset + prev.length == new.offset
        ):
            new = Extent(prev.lba, prev.length + new.length, new.target, prev.offset)
            idx -= 1
            del self._lbas[idx], self._exts[idx]
        nxt = self._exts[idx] if idx < len(self._exts) else None
        if (
            nxt is not None
            and new.end == nxt.lba
            and nxt.target == new.target
            and new.offset + new.length == nxt.offset
        ):
            new = Extent(new.lba, new.length + nxt.length, new.target, new.offset)
            del self._lbas[idx], self._exts[idx]
        self._lbas.insert(idx, new.lba)
        self._exts.insert(idx, new)

    # -- (de)serialisation ------------------------------------------------
    def entries(self) -> List[Tuple[int, int, Any, int]]:
        return [(e.lba, e.length, e.target, e.offset) for e in self._exts]

    @classmethod
    def from_entries(cls, entries) -> "FlatExtentMap":
        m = cls()
        for lba, length, target, offset in entries:
            m._lbas.append(lba)
            m._exts.append(Extent(lba, length, target, offset))
        for a, b in zip(m._exts, m._exts[1:]):
            if b.lba < a.end:
                raise ValueError("entries overlap or are unsorted")
        return m
