"""Garbage collection for the block store (§3.5, §4.6).

Cleaning is triggered when overall utilisation (live bytes / total data
bytes across cleanable objects) drops below the low watermark (70 % in the
paper) and runs until it climbs back above the high watermark (75 %).
Victim ordering is delegated to :func:`repro.core.placement.select_victims`
— cost-benefit ``(1 - u) * age / (1 + u)`` by default (Rosenblum &
Ousterhout's cleaning score, which leaves stable cold objects alone until
cleaning them is cheap), or pure least-utilised greedy when the config
selects the legacy policy.  Victims' remaining live extents — found by
re-checking only the ranges listed in the object's creation-time header
against the map — are routed back through the placement classifier
(survivors demonstrably outlived their object, so they cool toward the
cold class) and copied into per-class ``KIND_GC`` objects, then the
victims are deleted, or the delete is *deferred* when a snapshot still
references them (§3.6).

Two refinements the paper evaluates are implemented here:

* **cache-assisted cleaning** — live data still resident in the local
  write cache is copied from SSD instead of being fetched from the
  backend (§3.5 / §6.3);
* **hole plugging** — when two live pieces are separated by a small
  mapped gap (<= ``defrag_hole_bytes``), the gap is copied too, merging
  the pieces into one extent and shrinking the map (§4.6 cut w01's map
  size by >2x for ~zero extra write amplification).

The collector is *phased* so the timed runtime can charge I/O latencies
between phases and so rounds can be pipelined: :meth:`select` picks the
victims and schedules their reads (cheap, no data movement), so the next
round's selection can run while the current round's relocation writes are
still in flight; :meth:`materialize` revalidates a selection against the
live map and performs the reads; :meth:`execute` writes relocation
objects and updates the map; and the volume performs the deferred victim
deletion once the covering checkpoint has settled.  :meth:`plan` is
select + gather for the unpipelined callers: its selection is fresh, so it
skips materialize's revalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.batch import seal_gc_batch
from repro.core.block_store import BlockStore
from repro.core.config import LSVDConfig
from repro.core.placement import plan_relocation, select_victims
from repro.obs import NULL_SPAN, Registry, bind_metrics, metric_field


@dataclass
class GCSelection:
    """Phase-one output: victims chosen and the reads scheduled for them.

    Holds no data, so it is cheap to produce ahead of time; the read
    schedule reflects the map *at selection time* and is re-derived when
    the selection is materialised (see :meth:`GarbageCollector.materialize`).
    """

    victims: List[int]
    # (vLBA, length, src_seq) in ascending vLBA order, as of selection
    ranges: List[Tuple[int, int, int]]

    @property
    def scheduled_bytes(self) -> int:
        return sum(length for _l, length, _s in self.ranges)


@dataclass
class GCPlan:
    """One cleaning round: victims and the live data to relocate."""

    victims: List[int]
    # (vLBA, length, src_seq, data) in ascending vLBA order
    pieces: List[Tuple[int, int, int, bytes]]
    bytes_read_backend: int = 0
    bytes_read_cache: int = 0
    holes_plugged: int = 0

    @property
    def live_bytes(self) -> int:
        return sum(length for _l, length, _s, _d in self.pieces)


class GCStats:
    """Cumulative collector statistics, backed by a ``gc.*`` registry group."""

    rounds = metric_field("gc.rounds")
    victims_cleaned = metric_field("gc.victims_cleaned")
    bytes_relocated = metric_field("gc.bytes_relocated")
    bytes_read_backend = metric_field("gc.bytes_read_backend")
    bytes_read_cache = metric_field("gc.bytes_read_cache")
    holes_plugged = metric_field("gc.holes_plugged")
    deletes_deferred = metric_field("gc.deletes_deferred")
    preplanned_rounds = metric_field("gc.preplanned_rounds")
    # relocation bytes split by the class the survivor was *re*-assigned
    # to (classes as defined by core.placement: hot/warm/cold)
    class_hot_relocated = metric_field("gc.class_hot.bytes_relocated")
    class_warm_relocated = metric_field("gc.class_warm.bytes_relocated")
    class_cold_relocated = metric_field("gc.class_cold.bytes_relocated")

    _CLASS_RELOC_ATTRS = (
        "class_hot_relocated",
        "class_warm_relocated",
        "class_cold_relocated",
    )

    def __init__(self, obs: Optional[Registry] = None):
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)

    def add_class_relocated(self, temp: int, n: int) -> None:
        attr = self._CLASS_RELOC_ATTRS[temp]
        setattr(self, attr, getattr(self, attr) + n)


class GarbageCollector:
    """Greedy cleaner bound to one :class:`BlockStore`."""

    def __init__(
        self,
        store: BlockStore,
        config: Optional[LSVDConfig] = None,
        cache_reader: Optional[Callable[[int, int], Optional[bytes]]] = None,
    ):
        self.store = store
        self.config = config or store.config
        #: optional hook: cache_reader(lba, length) -> bytes | None, used to
        #: satisfy GC reads from the local cache instead of the backend.
        self.cache_reader = cache_reader
        self.obs: Registry = getattr(store, "obs", None) or Registry()
        self.stats = GCStats(self.obs)

    # ------------------------------------------------------------------
    def needs_gc(self) -> bool:
        live, total = self.store.occupancy()
        if total == 0:
            return False
        return live / total < self.config.gc_low_watermark

    def reached_target(self) -> bool:
        live, total = self.store.occupancy()
        if total == 0:
            return True
        return live / total >= self.config.gc_high_watermark

    # ------------------------------------------------------------------
    def select(
        self, exclude: Sequence[int] = (), span=NULL_SPAN
    ) -> Optional[GCSelection]:
        """Phase one: pick victims (greedy) and schedule their reads.

        The expensive part of planning — the candidate utilisation
        scan/sort and the per-victim live-extent walk — with no data
        movement, so the *next* round can be selected while the current
        round's relocation writes are still in flight (pipelined GC).
        ``exclude`` masks objects already being cleaned by that round.
        """
        stage = span.begin("gc_select")
        skip = frozenset(exclude)
        candidates = self.store.omap.cleaning_candidates(
            max_seq=self.store.next_seq
        )
        victims = select_victims(
            [
                (c.seq, c.live_bytes, c.data_bytes)
                for c in candidates
                if c.seq not in skip
            ],
            policy=self.config.gc_policy,
            window=self.config.gc_window,
            high_watermark=self.config.gc_high_watermark,
        )
        if not victims:
            stage.end(victims=0)
            return None
        ranges: List[Tuple[int, int, int]] = []  # (lba, length, src_seq)
        for seq in victims:
            self._ensure_extents(seq)
            for lba, length, _off in self.store.omap.live_extents_of(seq):
                ranges.append((lba, length, seq))
        ranges.sort()
        stage.end(victims=len(victims))
        return GCSelection(victims=victims, ranges=ranges)

    def materialize(self, selection: GCSelection, span=NULL_SPAN) -> Optional[GCPlan]:
        """Phase two: turn a (possibly stale) selection into a read plan.

        A pre-planned selection may be a whole relocation round old, so
        everything is revalidated against the current map: victims that
        vanished are dropped and live extents are *re-derived* — blindly
        relocating selection-time ranges could resurrect data that was
        overwritten in between.
        """
        victims = [s for s in selection.victims if s in self.store.omap.objects]
        if not victims:
            return None
        raw: List[Tuple[int, int, int]] = []
        for seq in victims:
            self._ensure_extents(seq)
            for lba, length, _off in self.store.omap.live_extents_of(seq):
                raw.append((lba, length, seq))
        raw.sort()
        return self._gather(victims, raw, span)

    def _gather(
        self, victims: List[int], raw: List[Tuple[int, int, int]], span=NULL_SPAN
    ) -> GCPlan:
        """Read the live ``raw`` ranges (current as of this call) into a plan."""
        stage = span.begin("gc_materialize")
        plan = GCPlan(victims=victims, pieces=[])
        raw = self._plug_holes(raw, plan)
        for lba, length, src_seq in raw:
            data = self._read_live(lba, length, src_seq, plan)
            plan.pieces.append((lba, length, src_seq, data))
        stage.end(bytes=plan.live_bytes)
        return plan

    def plan(self, span=NULL_SPAN) -> Optional[GCPlan]:
        """Select victims and gather their live data (both phases)."""
        selection = self.select(span=span)
        if selection is None:
            return None
        # nothing ran since select(): its ranges are the live extents, so
        # materialize()'s revalidating walk would only repeat them
        return self._gather(selection.victims, selection.ranges, span)

    def _ensure_extents(self, seq: int) -> None:
        info = self.store.omap.objects[seq]
        if not info.extents:
            # header extents were not retained across a restart; the
            # paper's optimisation — fetch just the header (§3.5)
            info.extents = self.store.header_of(seq).extents

    def _plug_holes(
        self, pieces: List[Tuple[int, int, int]], plan: GCPlan
    ) -> List[Tuple[int, int, int]]:
        """Insert small mapped gaps between live pieces (§4.6 defrag)."""
        limit = self.config.defrag_hole_bytes
        if limit <= 0 or len(pieces) < 2:
            return pieces
        out: List[Tuple[int, int, int]] = [pieces[0]]
        for lba, length, src in pieces[1:]:
            prev_lba, prev_len, _prev_src = out[-1]
            gap_start = prev_lba + prev_len
            gap = lba - gap_start
            if 0 < gap <= limit:
                for ext in self.store.omap.lookup(gap_start, gap):
                    out.append((ext.lba, ext.length, ext.target))
                    plan.holes_plugged += 1
            out.append((lba, length, src))
        out.sort()
        return out

    def _read_live(self, lba: int, length: int, src_seq: int, plan: GCPlan) -> bytes:
        """Fetch live data, preferring the local cache (§3.5).

        Per-piece accounting goes on the *plan*; the cumulative stats are
        bumped once per round in :meth:`execute` (hot-path hygiene).
        """
        if self.cache_reader is not None:
            cached = self.cache_reader(lba, length)
            if cached is not None:
                plan.bytes_read_cache += length
                return cached
        # locate within the source object(s) and range-read; a plugged
        # hole may resolve to a different object than src_seq.
        pieces = []
        for ext in self.store.omap.lookup(lba, length):
            pieces.append(self.store.fetch(ext.target, ext.offset, ext.length))
        plan.bytes_read_backend += length
        if len(pieces) == 1:
            return pieces[0]
        return b"".join(pieces)

    # ------------------------------------------------------------------
    def execute(self, plan: GCPlan, span=NULL_SPAN):
        """Write relocation object(s) and update the map.

        Returns a list of (sealed_batch, put_result) pairs; the caller
        must arrange victim deletion after the next settled checkpoint
        (the volume does this) — GC never deletes objects newer than the
        most recent checkpoint (§3.3).
        """
        stage = span.begin("gc_relocate", victims=len(plan.victims))
        results = []
        # survivors re-enter the classifier: each piece is split into
        # per-class sub-pieces (cooling one step) and chunked into one
        # relocation object per class stream
        for temp, chunk in plan_relocation(
            plan.pieces, self.store.placement, self.config.batch_size
        ):
            results.append(self._commit_chunk(chunk, temp, span=stage))
        stage.end(bytes=plan.live_bytes)
        self.stats.rounds += 1
        self.stats.victims_cleaned += len(plan.victims)
        self.stats.bytes_relocated += plan.live_bytes
        self.stats.holes_plugged += plan.holes_plugged
        self.stats.bytes_read_backend += plan.bytes_read_backend
        self.stats.bytes_read_cache += plan.bytes_read_cache
        self.obs.trace.emit(
            "gc_round",
            victims=len(plan.victims),
            bytes_relocated=plan.live_bytes,
            holes_plugged=plan.holes_plugged,
            bytes_read_backend=plan.bytes_read_backend,
            bytes_read_cache=plan.bytes_read_cache,
        )
        return results

    def _commit_chunk(
        self, pieces: List[Tuple[int, int, int, bytes]], temp: int = 0, span=NULL_SPAN
    ):
        sealed = seal_gc_batch(
            self.store._take_seq(),
            self.store.uuid,
            pieces,
            last_record_seq=0,
            temp=temp,
        )
        result = self.store.commit(sealed, span=span)
        self.stats.add_class_relocated(temp, sealed.data_len)
        return sealed, result

    # ------------------------------------------------------------------
    def delete_victims(self, victims: List[int]) -> Tuple[List[int], List[int]]:
        """Delete victims, deferring any referenced by snapshots (§3.6).

        Must only be called once a checkpoint newer than the victims is
        durable.  Returns (deleted, deferred) sequence lists.
        """
        newest = self.store.newest_seq
        deleted, deferred = [], []
        for seq in victims:
            if self.store.snapshot_blocks_delete(seq, newest):
                self.store.deferred_deletes[seq] = newest
                deferred.append(seq)
                self.stats.deletes_deferred += 1
            else:
                self.store.delete_object(seq)
                deleted.append(seq)
            # either way the object no longer participates in accounting
            self.store.omap.drop_object(seq)
        return deleted, deferred
