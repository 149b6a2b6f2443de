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
  fully mapped gap (<= ``defrag_hole_bytes``), the gap is copied too,
  merging the pieces into one extent and shrinking the map (§4.6 cut
  w01's map size by >2x for ~zero extra write amplification).

One round is :meth:`plan` (:meth:`select` the victims and what to copy out
of them, then read it), :meth:`execute` (write the relocation objects and
update the map), and :meth:`delete_victims`, which the volume calls once
the covering checkpoint has settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.batch import seal_gc_batch
from repro.core.block_store import BlockStore
from repro.core.config import LSVDConfig
from repro.core.placement import plan_relocation, relocation_runs, select_victims
from repro.obs import NULL_SPAN, Registry, bind_metrics, metric_field


@dataclass
class GCPlan:
    """One cleaning round: victims and the live data to relocate."""

    victims: List[int]
    # (vLBA, length, src_seq, data) in ascending vLBA order
    pieces: List[Tuple[int, int, int, bytes]]
    bytes_read_backend: int = 0
    bytes_read_cache: int = 0
    holes_plugged: int = 0  # bytes of mapped gaps copied along (§4.6)

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
        self, span=NULL_SPAN
    ) -> Optional[Tuple[List[int], List[Tuple[int, int, int]], int]]:
        """Pick one round's victims and list what to copy out of them.

        The candidate scan/sort and the per-victim live-extent walk; no
        data moves.  Returns ``(victims, runs, plugged_bytes)`` — the runs
        as :func:`~repro.core.placement.relocation_runs` lists them — or
        None when no object is worth cleaning.
        """
        stage = span.begin("gc_select")
        omap = self.store.omap
        victims = select_victims(
            [
                (c.seq, c.live_bytes, c.data_bytes)
                for c in omap.cleaning_candidates(max_seq=self.store.next_seq)
            ],
            policy=self.config.gc_policy,
            window=self.config.gc_window,
            high_watermark=self.config.gc_high_watermark,
        )

        def live_runs(seq: int) -> List[Tuple[int, int, int]]:
            info = omap.objects[seq]
            if not info.extents:
                # header extents were not retained across a restart; the
                # paper's optimisation — fetch just the header (§3.5)
                info.extents = self.store.header_of(seq).extents
            return omap.live_extents_of(seq)

        runs, plugged = relocation_runs(
            victims,
            live_runs,
            lambda lba, length: (
                (ext.lba, ext.length, ext.target) for ext in omap.lookup(lba, length)
            ),
            self.config.defrag_hole_bytes,
        )
        stage.end(victims=len(victims))
        return (victims, runs, plugged) if victims else None

    def plan(self, span=NULL_SPAN) -> Optional[GCPlan]:
        """Select victims and read their live data."""
        selected = self.select(span=span)
        if selected is None:
            return None
        victims, runs, plugged = selected
        stage = span.begin("gc_materialize")
        plan = GCPlan(victims=victims, pieces=[], holes_plugged=plugged)
        for lba, length, src_seq in runs:
            plan.pieces.append((lba, length, src_seq, self._read_live(lba, length, plan)))
        stage.end(bytes=plan.live_bytes)
        return plan

    def _read_live(self, lba: int, length: int, plan: GCPlan) -> bytes:
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
            sealed = seal_gc_batch(
                self.store._take_seq(), self.store.uuid, chunk, last_record_seq=0, temp=temp
            )
            results.append((sealed, self.store.commit(sealed, span=stage)))
            self.stats.add_class_relocated(temp, sealed.data_len)
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
