"""Page-granular simulator of LSVD write batching and GC.

This is the tool behind Table 5: it replays a block trace through the
LSVD batching pipeline (32 MiB batches, intra-batch coalescing) and the
garbage collector (70 % start / 75 % stop utilisation thresholds),
reporting write amplification, merge ratio, and the final extent-map size
with and without the hole-plugging defragmentation of §4.6.

The full :mod:`repro.core` stack stores real bytes and would not scale to
hundreds of gigabytes of trace; this simulator keeps only the *mapping*
state, in numpy arrays at 4 KiB page granularity:

* ``page_obj[page]`` — object id currently holding the page (-1 = unmapped)
* ``page_off[page]`` — page's position inside that object

which is sufficient for every statistic Table 5 reports.

Data placement is delegated to the *same* policy objects the full stack
uses (:mod:`repro.core.placement`): writes are classified per operation
into one open batch per temperature class, GC victims are ordered by the
shared :func:`~repro.core.placement.select_victims`, and relocated
survivors re-enter the classifier through the shared
:func:`~repro.core.placement.plan_relocation` — so a placement change
validated here is, by construction, the behaviour of the real stack
(the differential test in ``tests/test_placement_differential.py`` holds
the two engines to identical class decisions and relocation counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.placement import (
    PlacementPolicy,
    make_policy,
    plan_relocation,
    relocation_runs,
    select_victims,
)

PAGE = 4096


@dataclass
class GCSimReport:
    """Result of one simulation run."""

    client_bytes: int
    merged_bytes: int  # eliminated by intra-batch coalescing
    backend_bytes: int  # data objects + GC relocation writes
    gc_bytes: int
    extent_count: int
    holes_plugged: int
    objects_written: int
    objects_deleted: int

    @property
    def waf(self) -> float:
        """Write amplification: backend bytes per client byte."""
        if self.client_bytes == 0:
            return 0.0
        return self.backend_bytes / self.client_bytes

    @property
    def merge_ratio(self) -> float:
        """Fraction of client data eliminated by write coalescing."""
        if self.client_bytes == 0:
            return 0.0
        return self.merged_bytes / self.client_bytes


class GCSimulator:
    """Replay a write trace through batching + GC."""

    def __init__(
        self,
        volume_size: int,
        batch_size: int = 32 << 20,
        gc_low: float = 0.70,
        gc_high: float = 0.75,
        merge: bool = True,
        defrag_hole_pages: int = 0,
        gc_window: int = 8,
        policy: Optional[PlacementPolicy] = None,
        gc_policy: str = "greedy",
        listener=None,
    ):
        if volume_size % PAGE:
            raise ValueError("volume_size must be page aligned")
        self.n_pages = volume_size // PAGE
        self.batch_pages = max(1, batch_size // PAGE)
        self.gc_low = gc_low
        self.gc_high = gc_high
        self.merge = merge
        self.defrag_hole_pages = defrag_hole_pages
        self.gc_window = gc_window
        #: placement policy shared with the full stack; the default keeps
        #: the single-stream legacy behaviour
        self.policy = policy if policy is not None else make_policy("legacy")
        self.gc_policy = gc_policy
        #: optional observer of the backend I/O the algorithm implies (the
        #: timed runtime charges it to simulated devices): told
        #: ``on_object(nbytes, gc, temp)`` for every object stored and,
        #: around each cleaning round, ``on_gc_read(nbytes)`` before the
        #: round's relocation objects and ``on_gc_delete(count)`` after
        self.listener = listener

        self.page_obj = np.full(self.n_pages, -1, dtype=np.int64)
        self.page_off = np.zeros(self.n_pages, dtype=np.int64)
        self.obj_pages: Dict[int, np.ndarray] = {}  # creation page lists
        self.obj_size: Dict[int, int] = {}  # pages at creation
        self.obj_live: Dict[int, int] = {}
        self.obj_temp: Dict[int, int] = {}
        self._next_obj = 0
        #: one open batch per temperature class: page numbers in arrival order
        self._batches: Dict[int, List[int]] = {}
        #: which class batch holds the newest buffered version of a page;
        #: the page-granular analogue of WriteBatch.discard — a rewrite
        #: landing in a different class disowns the stale buffered copy
        self._pending_owner: Dict[int, int] = {}

        self.client_pages = 0
        self.merged_pages = 0
        self.backend_pages = 0
        self.gc_pages = 0
        self.class_pages: Dict[int, int] = {}  # backend pages per class
        self.holes_plugged = 0
        self.objects_written = 0
        self.objects_deleted = 0

    # ------------------------------------------------------------------
    def write(self, offset: int, length: int) -> None:
        """One client write (page-aligned; partial pages round up)."""
        temp = self.policy.on_write(offset, length)
        batch = self._batches.setdefault(temp, [])
        first = offset // PAGE
        last = (offset + length + PAGE - 1) // PAGE
        for page in range(first, min(last, self.n_pages)):
            batch.append(page)
            self._pending_owner[page] = temp
            self.client_pages += 1
        if len(batch) >= self.batch_pages:
            # lockstep group seal, mirroring BlockStore._seal_group: when
            # any class batch fills, *all* open class batches seal together
            # (ascending temperature — the record-free ordering of the full
            # stack), so the durable record set stays a contiguous prefix
            # of the client stream and cross-class rewrites can never
            # strand a discarded predecessor behind its own seal
            self.flush_batch()

    def replay(self, writes: Iterable[Tuple[int, int]]) -> None:
        for offset, length in writes:
            self.write(offset, length)

    def flush_batch(self) -> bool:
        """Seal and store the accumulating partial batches, if any.

        Every seal routes through here: the in-band group seal when one
        class batch fills (see :meth:`write`), the timed runtime's idle
        flusher (batch-timeout expiry) and its commit barriers (a flushed
        log should not strand a half-built object), and :meth:`finish`.
        Classes flush hottest-first, matching the record-free ordering of
        the full stack's ``seal_all`` / ``_seal_group``.  Returns True
        when anything was written.
        """
        flushed = False
        for temp in sorted(self._batches):
            batch = self._batches[temp]
            if not batch:
                continue
            self._batches[temp] = []
            self._flush_batch(batch, temp)
            flushed = True
        return flushed

    # ------------------------------------------------------------------
    def _flush_batch(self, pages: List[int], temp: int) -> None:
        if self.merge:
            # last occurrence wins; preserve order of survivors; pages
            # disowned by a rewrite into another class batch drop out here
            seen = set()
            unique_rev = []
            for page in reversed(pages):
                if page not in seen and self._pending_owner.get(page) == temp:
                    seen.add(page)
                    unique_rev.append(page)
            survivors = unique_rev[::-1]
            self.merged_pages += len(pages) - len(survivors)
        else:
            survivors = [p for p in pages if self._pending_owner.get(p) == temp]
            self.merged_pages += len(pages) - len(survivors)
        for page in survivors:
            # pop, not del: with merge disabled a page may appear twice
            # in one batch's survivor list
            self._pending_owner.pop(page, None)
        # a sealed WriteBatch gathers its data in map order (ascending
        # LBA), not arrival order; mirror that layout so page_off models
        # the real object and GC live runs merge identically across the
        # engines (the differential test holds them to it)
        arr = np.asarray(sorted(survivors), dtype=np.int64)
        self._store_object(arr, gc=False, temp=temp)
        self._maybe_gc()

    def _store_object(self, pages: np.ndarray, gc: bool, temp: int = 0) -> int:
        obj = self._next_obj
        self._next_obj += 1
        # an unmerged batch can hold one page twice: the object stores both
        # copies but the map keeps one, so the older copy is garbage on
        # arrival and the previous owner is displaced once, not twice
        distinct = pages if self.merge or gc else np.unique(pages)
        prev = self.page_obj[distinct]
        for owner in prev[prev >= 0].tolist():
            live = self.obj_live[owner] - 1
            if live < 0:
                raise AssertionError(f"object {owner} live pages went negative")
            self.obj_live[owner] = live
        self.page_obj[pages] = obj
        self.page_off[pages] = np.arange(len(pages), dtype=np.int64)
        self.obj_pages[obj] = pages
        self.obj_size[obj] = len(pages)
        self.obj_live[obj] = len(distinct)
        self.obj_temp[obj] = temp
        self.backend_pages += len(pages)
        self.class_pages[temp] = self.class_pages.get(temp, 0) + len(pages)
        if gc:
            self.gc_pages += len(pages)
        self.objects_written += 1
        if self.listener is not None:
            self.listener.on_object(len(pages) * PAGE, gc, temp)
        return obj

    # ------------------------------------------------------------------
    @property
    def pending_pages(self) -> int:
        """Pages buffered in the open class batches, not yet in an object."""
        return sum(len(batch) for batch in self._batches.values())

    def occupancy(self) -> Tuple[int, int]:
        """(live pages, total pages) over the stored objects."""
        return sum(self.obj_live.values()), sum(self.obj_size.values())

    def utilization(self) -> float:
        live, total = self.occupancy()
        if total == 0:
            return 1.0
        return live / total

    def occupancy_by_class(self) -> Dict[int, Tuple[int, int]]:
        """Per-class (live pages, total pages), mirroring the full stack's
        ``BlockStore.occupancy_by_class`` for side-by-side reporting."""
        out: Dict[int, List[int]] = {}
        for obj, size in self.obj_size.items():
            slot = out.setdefault(self.obj_temp.get(obj, 0), [0, 0])
            slot[0] += self.obj_live[obj]
            slot[1] += size
        return {t: (live, total) for t, (live, total) in sorted(out.items())}

    def _maybe_gc(self) -> None:
        if self.utilization() >= self.gc_low:
            return
        while self.utilization() < self.gc_high:
            victims = select_victims(
                [
                    (o, self.obj_live[o], self.obj_size[o])
                    for o in self.obj_size
                    if self.obj_size[o] > 0
                ],
                policy=self.gc_policy,
                window=self.gc_window,
                high_watermark=self.gc_high,
            )
            if not victims:
                break
            self._clean(victims)

    def _clean(self, victims: List[int]) -> None:
        def live_runs(victim: int) -> List[Tuple[int, int, int]]:
            pages = self.obj_pages[victim]
            return self._runs(np.unique(pages[self.page_obj[pages] == victim]))

        def mapped_runs(lba: int, length: int) -> List[Tuple[int, int, int]]:
            gap = np.arange(lba // PAGE, (lba + length) // PAGE)
            return self._runs(gap[self.page_obj[gap] >= 0])

        runs, plugged = relocation_runs(
            victims, live_runs, mapped_runs, self.defrag_hole_pages * PAGE
        )
        self.holes_plugged += plugged // PAGE
        if self.listener is not None:
            self.listener.on_gc_read(sum(length for _lba, length, _src in runs))
        # survivors re-enter the classifier through the shared relocation
        # planner, in the same pieces as the full stack's map extents, so
        # the two engines chunk identically
        for temp, chunk in plan_relocation(
            ((lba, length, src, None) for lba, length, src in runs),
            self.policy,
            self.batch_pages * PAGE,
        ):
            chunk_pages = np.concatenate(
                [
                    np.arange(lba // PAGE, lba // PAGE + length // PAGE)
                    for lba, length, _src, _payload in chunk
                ]
            )
            self._store_object(chunk_pages, gc=True, temp=temp)
        for victim in victims:
            del self.obj_pages[victim], self.obj_size[victim], self.obj_live[victim]
            self.obj_temp.pop(victim, None)
            self.objects_deleted += 1
        if self.listener is not None:
            self.listener.on_gc_delete(len(victims))

    def _runs(self, pages: np.ndarray) -> List[Tuple[int, int, int]]:
        """Group sorted mapped pages into (lba, length, owner) runs.

        Runs break wherever the address space, the owning object, or the
        in-object offset breaks — exactly the merge rule of the full
        stack's extent map, so piece boundaries (and therefore relocation
        chunk cuts) agree across the engines.
        """
        runs: List[Tuple[int, int, int]] = []
        if not len(pages):
            return runs
        start = prev = int(pages[0])
        for page_ in pages[1:]:
            page = int(page_)
            contiguous = (
                page == prev + 1
                and self.page_obj[page] == self.page_obj[prev]
                and self.page_off[page] == self.page_off[prev] + 1
            )
            if not contiguous:
                runs.append(
                    (start * PAGE, (prev - start + 1) * PAGE, int(self.page_obj[start]))
                )
                start = page
            prev = page
        runs.append(
            (start * PAGE, (prev - start + 1) * PAGE, int(self.page_obj[start]))
        )
        return runs

    # ------------------------------------------------------------------
    def finish(self) -> GCSimReport:
        """Flush the partial batches and report final statistics."""
        self.flush_batch()
        return GCSimReport(
            client_bytes=self.client_pages * PAGE,
            merged_bytes=self.merged_pages * PAGE,
            backend_bytes=self.backend_pages * PAGE,
            gc_bytes=self.gc_pages * PAGE,
            extent_count=self.extent_count(),
            holes_plugged=self.holes_plugged,
            objects_written=self.objects_written,
            objects_deleted=self.objects_deleted,
        )

    def extent_count(self) -> int:
        """Number of map extents: maximal runs contiguous in both the
        address space and the object space."""
        mapped = self.page_obj >= 0
        if not mapped.any():
            return 0
        same_obj = self.page_obj[1:] == self.page_obj[:-1]
        contig_off = self.page_off[1:] == self.page_off[:-1] + 1
        both_mapped = mapped[1:] & mapped[:-1]
        joins = same_obj & contig_off & both_mapped
        # each mapped page starts an extent unless joined to its predecessor
        starts = mapped.copy()
        starts[1:] &= ~joins
        return int(starts.sum())
