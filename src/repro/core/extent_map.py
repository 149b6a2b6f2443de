"""Extent maps: the three in-memory translation maps of Figure 1.

An :class:`ExtentMap` maps ranges of a virtual address space to ranges of a
target space: vLBA -> pLBA for the write cache, vLBA -> cache slot for the
read cache, and vLBA -> (object sequence number, offset) for the block
store.  The paper's prototype uses red-black trees at 40 bytes/entry and
the production rewrite a B+-tree at 24 bytes/entry because map operations
dominate the client-side CPU budget at scale.

This implementation is a two-level B+-tree-style structure: extents live
in bounded *leaf chunks* (sorted lists of at most ``2 * _CHUNK_TARGET``
extents), and a small top-level index of each chunk's first LBA routes
every operation to the right leaf with two binary searches.  Point
operations therefore cost O(log n + C) where C is the chunk bound — the
list insert/delete that made the previous flat-list layout O(n) per
update now moves at most one bounded chunk.  See DESIGN.md ("Chunked
extent map") for the layout and the O(sqrt n) argument.

Keys and offsets are plain integers (bytes throughout this codebase).  The
``target`` is any hashable (e.g. an object sequence number); splitting an
extent shifts ``offset`` so that ``offset + (addr - lba)`` always locates
``addr``'s bytes inside the target.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Hashable, Iterator, List, NamedTuple, Optional, Tuple


class Extent(NamedTuple):
    """A mapped run: ``length`` addresses at ``lba`` live at
    ``target[offset : offset + length]``.  A tuple: fields read in C."""

    lba: int
    length: int
    target: Hashable
    offset: int

    @property
    def end(self) -> int:
        return self.lba + self.length

    def slice(self, lba: int, length: int) -> "Extent":
        """Sub-extent clipped to [lba, lba+length); must overlap."""
        start = max(self.lba, lba)
        stop = min(self.end, lba + length)
        if start >= stop:
            raise ValueError("slice does not overlap extent")
        return _new(Extent, (start, stop - start, self.target, self.offset + (start - self.lba)))


#: ``_new(Extent, (lba, length, target, offset))`` builds an extent in C,
#: without the NamedTuple constructor's Python frame (the hot paths' idiom)
_new = tuple.__new__


def _adjacent(a: Optional[Extent], b: Optional[Extent]) -> bool:
    """``b`` continues ``a`` in address and target space: they are one run."""
    return (
        a is not None
        and b is not None
        and a.lba + a.length == b.lba
        and a.target == b.target
        and a.offset + a.length == b.offset
    )


class ExtentMap:
    """Ordered, non-overlapping map from address ranges to target ranges."""

    #: leaf sizing: a chunk splits in two once it exceeds ``2 * target``;
    #: carve folds a shrunken chunk into its neighbour when the pair fits.
    _CHUNK_TARGET = 128

    def __init__(self) -> None:
        # Leaf chunks of extents sorted by lba, globally non-overlapping.
        # _lbas mirrors each chunk's extent lbas (bisect without key=),
        # _firsts is the top-level index: _firsts[i] == _chunks[i][0].lba.
        self._chunks: List[List[Extent]] = []
        self._lbas: List[List[int]] = []
        self._firsts: List[int] = []
        self._count = 0
        self._mapped = 0

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Extent]:
        for chunk in self._chunks:
            yield from chunk

    def lookup(self, lba: int, length: int) -> List[Extent]:
        """Mapped pieces overlapping [lba, lba+length), clipped, in order.

        Unmapped gaps are simply absent from the result.
        """
        if length <= 0 or not self._chunks:
            return []
        end = lba + length
        out: List[Extent] = []
        ci, ei = self._start_pos(lba)
        while ci < len(self._chunks):
            chunk = self._chunks[ci]
            for j in range(ei, len(chunk)):
                ext = chunk[j]
                e_lba, e_len = ext[0], ext[1]
                if e_lba >= end:
                    return out
                # extents are immutable: one inside the query is handed out
                if e_lba < lba or e_lba + e_len > end:
                    ext = ext.slice(lba, length)
                out.append(ext)
            ci += 1
            ei = 0
        return out

    def lookup_with_gaps(
        self, lba: int, length: int
    ) -> List[Tuple[int, int, Optional[Extent]]]:
        """Cover [lba, lba+length) completely: (start, len, extent-or-None)."""
        pieces: List[Tuple[int, int, Optional[Extent]]] = []
        cursor = lba
        for ext in self.lookup(lba, length):
            if ext.lba > cursor:
                pieces.append((cursor, ext.lba - cursor, None))
            pieces.append((ext.lba, ext.length, ext))
            cursor = ext.end
        end = lba + length
        if cursor < end:
            pieces.append((cursor, end - cursor, None))
        return pieces

    def mapped_bytes(self) -> int:
        """Total mapped address space (bytes, since addresses are bytes)."""
        return self._mapped

    def bounds(self) -> Tuple[int, int]:
        """(lowest mapped address, highest mapped end); (0, 0) if empty."""
        if not self._chunks:
            return (0, 0)
        return (self._chunks[0][0].lba, self._chunks[-1][-1].end)

    # -- mutation ----------------------------------------------------------
    def update(
        self, lba: int, length: int, target: Hashable, offset: int = 0
    ) -> List[Extent]:
        """Map [lba, lba+length) to target[offset:]; return displaced pieces.

        The displaced list (clipped old mappings that this update shadows)
        lets callers maintain per-target live-byte accounting, which drives
        garbage collection.

        One leaf visit: route once, cut the run in one scan, join the
        neighbours, splice ``[left?, new-or-joined, right?]`` in with one
        slice assignment.  A run or join past the leaf's edge falls back to
        carve + insert, decided before anything is mutated.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        new = _new(Extent, (lba, length, target, offset))
        chunks = self._chunks
        if chunks:
            ci, i0 = self._start_pos(lba)
            if i0 == 0 and ci > 0 and (ci == len(chunks) or self._firsts[ci] > lba):
                ci -= 1  # lba lies past leaf ci-1's tail: splice at its end
                i0 = len(chunks[ci])
            chunk = chunks[ci]
            end = lba + length
            displaced: List[Extent] = []
            j, carved, frags = self._cut(chunk, i0, lba, end, displaced)
            left = frags[0] if frags and frags[0].lba < lba else None
            right = frags[-1] if frags and frags[-1].lba == end else None
            # the neighbours the new extent may join: an edge fragment, the
            # leaf's extent beside the run or, past a leaf edge, the adjacent
            # leaf's tail or head (then the fallback does the work)
            prev_edge, next_edge = left is None and i0 == 0, right is None and j == len(chunk)
            if prev_edge:
                prev = chunks[ci - 1][-1] if ci else None
            else:
                prev = left or chunk[i0 - 1]
            if next_edge:
                nxt = chunks[ci + 1][0] if ci + 1 < len(chunks) else None
            else:
                nxt = right or chunk[j]
            crosses = next_edge and nxt is not None and nxt.lba < end  # the run goes on
            # keep a neighbour only if it joins the new extent (_adjacent,
            # inlined: this is the write path's hottest function)
            if prev is not None and not (
                prev.target == target
                and prev.lba + prev.length == lba
                and prev.offset + prev.length == offset
            ):
                prev = None
            if nxt is not None and not (
                nxt.target == target and nxt.lba == end and offset + length == nxt.offset
            ):
                nxt = None
            if not (crosses or (prev_edge and prev is not None) or (next_edge and nxt is not None)):
                self._mapped += length - carved
                r0, r1 = i0, j
                if prev is not None:  # absorb the left fragment or chunk[i0 - 1]
                    new = _new(Extent, (prev.lba, prev.length + length, target, prev.offset))
                    r0 -= left is None
                    left = None
                if nxt is not None:  # absorb the right fragment or chunk[j]
                    new = _new(Extent, (new.lba, new.length + nxt.length, target, new.offset))
                    r1 += right is None
                    right = None
                run = [new] if left is None else [left, new]
                if right is not None:
                    run.append(right)
                n = len(chunk)
                self._replace_run(ci, r0, r1, run)
                if len(chunk) > 2 * self._CHUNK_TARGET:
                    self._split_chunk(ci)
                elif len(chunk) < n:  # shrunk: fold it or its left neighbour
                    self._maybe_fold(ci)
                    self._maybe_fold(ci - 1)
                return displaced
        displaced = self._carve(lba, length)
        self._insert(new)
        return displaced

    def remove(self, lba: int, length: int) -> List[Extent]:
        """Unmap [lba, lba+length); return the displaced pieces (trim)."""
        return self._carve(lba, length)

    def remove_matching(self, lba: int, length: int, target: Hashable, offset: int) -> int:
        """Unmap the pieces of [lba, lba+length) still mapped to
        ``target[offset:]``, in one pass; pieces mapped elsewhere stay.
        Returns the bytes unmapped.

        The common case — one extent holds the whole range as mapped there
        (a ring record or cache-log extent as it was inserted, or its
        head) — is one routing step and one :meth:`_replace_run` with the
        extent's surviving ends; anything else is the general carve from
        the same position.
        """
        chunks = self._chunks
        if length <= 0:
            raise ValueError("length must be positive")
        if not chunks:
            return 0
        pos = ci, ei = self._start_pos(lba)
        if ci < len(chunks):
            e_lba, e_len, e_target, e_off = chunks[ci][ei]
            end, e_end = lba + length, e_lba + e_len
            same = e_target == target and e_off + (lba - e_lba) == offset
            if same and e_lba <= lba and end <= e_end:
                frags: List[Extent] = []
                if e_lba < lba:
                    frags.append(_new(Extent, (e_lba, lba - e_lba, target, e_off)))
                if end < e_end:
                    frags.append(_new(Extent, (end, e_end - end, target, offset + length)))
                self._mapped -= length
                self._replace_run(ci, ei, ei + 1, frags)
                ci = min(ci, len(chunks) - 1)
                self._maybe_fold(ci)
                self._maybe_fold(ci - 1)
                return length
        mapped = self._mapped
        self._carve(lba, length, (target, offset), pos)
        return mapped - self._mapped

    def clear(self) -> None:
        self._chunks.clear()
        self._lbas.clear()
        self._firsts.clear()
        self._count = 0
        self._mapped = 0

    # -- position finding ---------------------------------------------
    def _start_pos(self, lba: int) -> Tuple[int, int]:
        """(chunk, index) of the first extent whose ``end`` exceeds ``lba``.

        The predecessor extent (greatest lba' <= lba) is tested
        *explicitly* for overlap: when it ends at or before ``lba`` the
        scan starts at its successor, and when ``lba`` precedes the whole
        map there is no predecessor at all and the scan starts at the very
        first extent.  (The flat-list ancestor clamped a -1 bisect result
        to 0, which happened to work but hid the distinction; the chunked
        layout makes the off-by-one fatal, so it is spelled out.)
        """
        ci = bisect_right(self._firsts, lba) - 1
        if ci < 0:
            # lba lies strictly before the first mapped extent
            return (0, 0)
        lbas = self._lbas[ci]
        ei = bisect_right(lbas, lba) - 1  # >= 0: lbas[0] == _firsts[ci] <= lba
        pred = self._chunks[ci][ei]
        if pred.lba + pred.length > lba:
            return (ci, ei)  # predecessor spans past lba
        # predecessor ends at/before lba: start at the next extent
        if ei + 1 < len(lbas):
            return (ci, ei + 1)
        return (ci + 1, 0)

    # -- internals -----------------------------------------------------
    def _carve(self, lba: int, length: int, match=None, pos=None) -> List[Extent]:
        """Remove every mapping overlapping [lba, lba+length) — or, given
        ``match=(target, offset)``, those translating ``lba`` to it only.
        ``pos`` is ``_start_pos(lba)`` when the caller already routed."""
        if length <= 0:
            raise ValueError("length must be positive")
        end = lba + length
        displaced: List[Extent] = []
        if not self._chunks:
            return displaced
        ci, ei = pos or self._start_pos(lba)
        while ci < len(self._chunks):
            chunk = self._chunks[ci]
            n = len(chunk)
            if ei >= n:
                ci += 1
                ei = 0
                continue
            if chunk[ei].lba >= end:
                break
            j, carved, frags = self._cut(chunk, ei, lba, end, displaced, match)
            self._mapped -= carved
            self._replace_run(ci, ei, j, frags)
            if j < n or (frags and frags[-1].end > end):
                break
            # carve may continue into the next chunk; if this chunk
            # emptied and was removed, the next one now sits at ci
            if ci < len(self._chunks) and self._chunks[ci] is chunk:
                ci += 1
            ei = 0
        # try both pairs around the carve point: a chunk shrunk by
        # ascending-order removals only ever sees its *left* neighbour
        # shrink afterwards, so folding right alone would never fire
        if displaced:
            ci = min(ci, len(self._chunks) - 1)
            self._maybe_fold(ci)
            self._maybe_fold(ci - 1)
        return displaced

    @staticmethod
    def _cut(
        chunk: List[Extent], i: int, lba: int, end: int, displaced: List[Extent], match=None
    ) -> Tuple[int, int, List[Extent]]:
        """Scan ``chunk``'s run from ``i`` overlapping [lba, end), mutating
        nothing: append the clipped pieces (Extent.slice() inlined) to
        ``displaced``; return (index past the run, bytes displaced, what of
        the run stays mapped, in order)."""
        n = len(chunk)
        frags: List[Extent] = []
        carved = 0
        while i < n:
            ext = chunk[i]
            e_lba, e_len, e_target, e_off = ext
            if e_lba >= end:
                break
            i += 1
            if match is not None and (e_target != match[0] or e_off + (lba - e_lba) != match[1]):
                frags.append(ext)  # translated elsewhere: stays whole
                continue
            e_end = e_lba + e_len
            start = e_lba if e_lba > lba else lba
            stop = e_end if e_end < end else end
            displaced.append(_new(Extent, (start, stop - start, e_target, e_off + start - e_lba)))
            carved += stop - start
            if e_lba < lba:
                frags.append(_new(Extent, (e_lba, lba - e_lba, e_target, e_off)))
            if e_end > end:
                frags.append(_new(Extent, (end, e_end - end, e_target, e_off + end - e_lba)))
        return i, carved, frags

    def _insert(self, new: Extent) -> None:
        """Insert a (pre-carved, non-overlapping) extent, coalescing with
        contiguous same-target neighbours on both sides.

        One routing bisect finds the leaf; the insertion index within it
        identifies both neighbours for free, so the common case (no
        coalescing possible) inserts with two binary searches total.  The
        rare merge case removes the absorbed neighbours and re-routes.
        """
        self._mapped += new.length
        chunks = self._chunks
        if not chunks:
            chunks.append([new])
            self._lbas.append([new.lba])
            self._firsts.append(new.lba)
            self._count += 1
            return
        ci = bisect_right(self._firsts, new.lba) - 1
        if ci < 0:
            ci = 0  # new becomes the very first extent: prepend to chunk 0
        chunk = chunks[ci]
        ei = bisect_right(self._lbas[ci], new.lba)
        # neighbours around the insertion slot: prev is chunk[ei-1] (or the
        # previous leaf's tail), nxt is chunk[ei] (or the next leaf's head)
        if ei > 0:
            prev, ppos = chunk[ei - 1], (ci, ei - 1)
        elif ci > 0:
            pchunk = chunks[ci - 1]
            prev, ppos = pchunk[-1], (ci - 1, len(pchunk) - 1)
        else:
            prev = None
        if ei < len(chunk):
            nxt, npos = chunk[ei], (ci, ei)
        elif ci + 1 < len(chunks):
            nxt, npos = chunks[ci + 1][0], (ci + 1, 0)
        else:
            nxt = None
        merge_prev = _adjacent(prev, new)
        merge_next = _adjacent(new, nxt)
        if not merge_prev and not merge_next:
            self._leaf_insert(ci, new, ei)
            return
        # rare path: absorb the mergeable neighbour(s), then re-route —
        # removals can shift or drop leaves, so positions are recomputed
        if merge_prev and merge_next:
            new = Extent(
                prev.lba, prev.length + new.length + nxt.length, new.target, prev.offset
            )
            if ppos[0] == npos[0]:
                self._replace_run(ppos[0], ppos[1], npos[1] + 1, [])
            else:
                self._replace_run(npos[0], npos[1], npos[1] + 1, [])
                self._replace_run(ppos[0], ppos[1], ppos[1] + 1, [])
        elif merge_prev:
            new = Extent(prev.lba, prev.length + new.length, new.target, prev.offset)
            self._replace_run(ppos[0], ppos[1], ppos[1] + 1, [])
        else:
            new = Extent(new.lba, new.length + nxt.length, new.target, new.offset)
            self._replace_run(npos[0], npos[1], npos[1] + 1, [])
        if not chunks:
            chunks.append([new])
            self._lbas.append([new.lba])
            self._firsts.append(new.lba)
            self._count += 1
            return
        ci = bisect_right(self._firsts, new.lba) - 1
        if ci < 0:
            ci = 0
        self._leaf_insert(ci, new)

    # -- leaf mutation (the blessed bounded-chunk helpers; LSVD009) ----
    def _leaf_insert(self, ci: int, new: Extent, ei: Optional[int] = None) -> None:
        """Insert into leaf chunk ``ci``; splits the chunk when oversized.

        ``ei`` is the insertion index when the caller already bisected.
        """
        chunk, lbas = self._chunks[ci], self._lbas[ci]
        if ei is None:
            ei = bisect_right(lbas, new.lba)
        chunk.insert(ei, new)
        lbas.insert(ei, new.lba)
        self._count += 1
        self._firsts[ci] = chunk[0].lba
        if len(chunk) > 2 * self._CHUNK_TARGET:
            self._split_chunk(ci)

    def _replace_run(self, ci: int, i0: int, i1: int, frags: List[Extent]) -> None:
        """Replace ``chunk[i0:i1]`` with ``frags``; drop the leaf if empty."""
        chunk, lbas = self._chunks[ci], self._lbas[ci]
        chunk[i0:i1] = frags
        lbas[i0:i1] = [f[0] for f in frags] if frags else ()
        self._count += len(frags) - (i1 - i0)
        if not chunk:
            del self._chunks[ci]
            del self._lbas[ci]
            del self._firsts[ci]
        else:
            self._firsts[ci] = chunk[0].lba

    def _split_chunk(self, ci: int) -> None:
        """Split an oversized leaf into two half-full neighbours."""
        chunk, lbas = self._chunks[ci], self._lbas[ci]
        mid = len(chunk) // 2
        right, right_lbas = chunk[mid:], lbas[mid:]
        del chunk[mid:]
        del lbas[mid:]
        self._chunks.insert(ci + 1, right)
        self._lbas.insert(ci + 1, right_lbas)
        self._firsts.insert(ci + 1, right[0].lba)

    def _maybe_fold(self, ci: int) -> None:
        """Fold a carve-shrunken leaf into its right neighbour.

        Keeps the chunk count near n / target after heavy removal so the
        top-level index stays small; only fires when the merged leaf stays
        within the split bound, so fold and split cannot ping-pong.
        """
        if ci < 0 or ci + 1 >= len(self._chunks):
            return
        chunk = self._chunks[ci]
        nxt = self._chunks[ci + 1]
        if len(chunk) >= self._CHUNK_TARGET // 4:
            return
        if len(chunk) + len(nxt) > self._CHUNK_TARGET:
            return
        chunk.extend(nxt)
        self._lbas[ci].extend(self._lbas[ci + 1])
        del self._chunks[ci + 1]
        del self._lbas[ci + 1]
        del self._firsts[ci + 1]

    # -- (de)serialisation ------------------------------------------------
    def entries(self) -> List[Extent]:
        """``(lba, length, target, offset)`` rows for checkpointing — the
        extents themselves, which are tuples."""
        return [e for chunk in self._chunks for e in chunk]

    @classmethod
    def from_entries(cls, entries) -> "ExtentMap":
        """Rebuild from an :meth:`entries` dump (checkpoint restore).

        Adjacent same-target contiguous runs are coalesced on the way in:
        a checkpoint written while two extents were logically mergeable
        (e.g. by an older writer) must not leave the restored map
        permanently larger than the live map that produced it — restore
        is idempotent: ``m.entries() == from_entries(m.entries()).entries()``.
        """
        flat: List[Extent] = []
        for lba, length, target, offset in entries:
            ext = Extent(lba, length, target, offset)
            if flat:
                prev = flat[-1]
                if ext.lba < prev.end:
                    raise ValueError("entries overlap or are unsorted")
                if _adjacent(prev, ext):
                    flat[-1] = Extent(
                        prev.lba, prev.length + ext.length, prev.target, prev.offset
                    )
                    continue
            flat.append(ext)
        m = cls()
        m._bulk_load(flat)
        return m

    def _bulk_load(self, flat: List[Extent]) -> None:
        """Load a sorted, non-overlapping, coalesced extent list wholesale."""
        step = self._CHUNK_TARGET
        for i in range(0, len(flat), step):
            chunk = flat[i : i + step]
            self._chunks.append(chunk)
            self._lbas.append([e.lba for e in chunk])
            self._firsts.append(chunk[0].lba)
        self._count = len(flat)
        self._mapped = sum(e.length for e in flat)
