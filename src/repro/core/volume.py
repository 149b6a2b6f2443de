"""The LSVD virtual-disk facade (Figure 1).

:class:`LSVDVolume` glues together the log-structured write cache, the
read cache, the log-structured block store, and the garbage collector, and
implements the three block-device operations (§3.2):

* **write** — logged to the cache (completing the I/O), then batched by
  reference to its cache record; a full batch is cut between records,
  read back from the cache log (bytes appended since mount or verified
  at mount: no second CRC pass) and PUT as one object.
* **commit barrier** — a single cache-device flush.
* **read** — write cache, then read cache, then a backend range-read with
  temporal prefetch; unmapped blocks read as zeros.

Settlement ledger
-----------------
With a real object store, PUTs complete asynchronously and out of order.
The volume tracks every outstanding PUT and enforces the orderings that
make recovery sound:

1. a cache record may be *released* (freed from the write log) only once
   every object up to and including the one covering it has settled —
   otherwise a crash could lose an acknowledged write that is in neither
   the cache nor the backend; only a seal group's closing object carries
   a record mark, so a group frees its records only whole;
2. a checkpoint is written only when no other PUT is outstanding and no
   seal group is open (its members are all numbered, not all PUT), so a
   visible checkpoint implies its prefix is;
3. GC victims are deleted only after a checkpoint that no longer
   references them has settled (§3.3's "GC only deletes objects older
   than the most recent checkpoint").

With the plain in-memory store every PUT settles immediately and the
ledger degenerates to synchronous execution; the
:class:`~repro.objstore.s3.UnsettledObjectStore` and the timed runtime
exercise the asynchronous paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.batch import SealedBatch
from repro.core.block_store import BlockStore
from repro.core.config import SECTOR, LSVDConfig
from repro.core.errors import CacheFullError, LSVDError
from repro.core.gc import GarbageCollector
from repro.core.read_cache import ReadCache
from repro.core.write_cache import WriteCache
from repro.devices.image import DiskImage
from repro.obs import NULL_SPAN, Registry, bind_metrics, metric_field


@dataclass
class _BatchEntry:
    """One committed batch awaiting settlement."""

    seq: int
    last_record_seq: int  # 0 on an open seal group's members: frees nothing
    settled: bool = False


@dataclass
class _GCRound:
    """An in-flight garbage-collection round."""

    victims: List[int]
    pending_puts: int = 0
    stage: str = "relocating"  # relocating -> await_ckpt -> done


class LSVDVolume:
    """A log-structured virtual disk."""

    # statistics (registry-backed; see repro.obs)
    writes = metric_field("volume.writes")
    reads = metric_field("volume.reads")
    bytes_written = metric_field("volume.bytes_written")
    bytes_read = metric_field("volume.bytes_read")
    flushes = metric_field("volume.flushes")
    batch_commits = metric_field("volume.batch_commits")
    checkpoints = metric_field("volume.checkpoints")

    def __init__(
        self,
        block_store: BlockStore,
        write_cache: WriteCache,
        read_cache: ReadCache,
        config: Optional[LSVDConfig] = None,
        read_only: bool = False,
    ):
        self.bs = block_store
        self.wc = write_cache
        block_store.cache = write_cache
        self.rc = read_cache
        self.config = config or block_store.config
        self.read_only = read_only
        #: one registry for the whole stack; the block store owns it and
        #: the caches/collector were constructed against the same object
        self.obs: Registry = block_store.obs
        # GC cache-assist (§3.5) probes the read cache only: it is
        # invalidated on every write, so a full hit equals the mapped
        # (victim) version.  The write cache may hold *newer* data and must
        # not be used: relocating it could surface a write without its
        # predecessors after a crash, breaking prefix consistency.
        self.gc = GarbageCollector(block_store, self.config, cache_reader=read_cache.peek)
        self.gc_enabled = True
        #: per-tenant admission hook (repro.fleet wires a CoreAdmission
        #: here on attach); None = no QoS, the single-volume default
        self.qos = None
        bind_metrics(self)
        # settlement ledger
        self._pending: Dict[object, Tuple[str, object]] = {}
        self._batches: List[_BatchEntry] = []
        self._group_open = False  # the newest data seal left its group open
        self._gc_round: Optional[_GCRound] = None
        self._ckpt_requested = False

    # ------------------------------------------------------------------
    # factory methods
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        store,
        name: str,
        size: int,
        cache_image: DiskImage,
        config: Optional[LSVDConfig] = None,
        obs: Optional[Registry] = None,
    ) -> "LSVDVolume":
        """Create a brand-new virtual disk backed by ``store``."""
        config = config or LSVDConfig()
        obs = obs if obs is not None else Registry()
        bs = BlockStore.create(store, name, size, config, obs=obs)
        wc, rc = cls._partition_cache(cache_image, config, obs)
        wc.format()
        return cls(bs, wc, rc, config)

    @classmethod
    def open(
        cls,
        store,
        name: str,
        cache_image: DiskImage,
        config: Optional[LSVDConfig] = None,
        cache_lost: bool = False,
        obs: Optional[Registry] = None,
    ) -> "LSVDVolume":
        """Mount an existing disk, running full crash recovery (§3.3).

        With ``cache_lost`` (or an unformattable cache) the volume comes
        back as the backend's consistent prefix — the worst-case
        prefix-consistency guarantee.  Otherwise the cache log is
        recovered, rewound to the backend's high-water mark, and every
        later record is replayed so the backend catches up with all
        locally persisted writes.
        """
        config = config or LSVDConfig()
        obs = obs if obs is not None else Registry()
        bs, state = BlockStore.open(store, name, config, obs=obs)
        wc, rc = cls._partition_cache(cache_image, config, obs)
        vol = cls(bs, wc, rc, config)
        if cache_lost:
            wc.format()
            wc.resume_after(state.last_record_seq)
            wc.checkpoint()
            obs.trace.emit("recovery_complete", replayed=0, cache_lost=True, read_cache_warm=False)
            return vol
        wc.recover()
        # The cache may have rolled back records that were already
        # destaged: a fresh write must never reuse one of their sequence
        # numbers, or the backend's high-water mark would release it as
        # "already destaged" and lose it.  Jump past the backend's mark.
        backend_ahead = wc.next_seq <= state.last_record_seq
        if backend_ahead:
            wc.resume_after(state.last_record_seq)
            wc.checkpoint()
        # the lazily persisted read-cache map (§3.1) is current only if it
        # was saved by the very clean shutdown the write cache resumed from
        # and the backend has taken no write through another cache since
        warm = bool(wc.resumed_clean and not backend_ahead and rc.load_map(wc.resumed_clean))
        # rewind & replay: push cache records the backend has not seen
        replayed = 0
        span = obs.spans.root("recover")
        for record in wc.replay_after(state.last_record_seq):
            obs.trace.emit(
                "recovery_replay",
                record_seq=record.seq,
                extents=len(record.extents),
            )
            replayed += 1
            for sealed in bs.add_write(record, span=span):
                vol._commit_data(sealed, span=span)
        span.end(replayed=replayed)
        # anything at or below the backend high-water mark is already safe
        wc.release_through(state.last_record_seq)
        obs.trace.emit(
            "recovery_complete", replayed=replayed, cache_lost=False, read_cache_warm=warm
        )
        return vol

    @classmethod
    def clone(
        cls,
        store,
        base_name: str,
        clone_name: str,
        cache_image: DiskImage,
        config: Optional[LSVDConfig] = None,
        at_snapshot: Optional[str] = None,
        obs: Optional[Registry] = None,
    ) -> "LSVDVolume":
        """Create a copy-on-write clone of ``base_name`` (§3.6)."""
        config = config or LSVDConfig()
        obs = obs if obs is not None else Registry()
        bs = BlockStore.clone_from(
            store, base_name, clone_name, config, at_snapshot=at_snapshot, obs=obs
        )
        wc, rc = cls._partition_cache(cache_image, config, obs)
        wc.format()
        return cls(bs, wc, rc, config)

    @classmethod
    def open_snapshot(
        cls,
        store,
        name: str,
        snapshot: str,
        cache_image: DiskImage,
        config: Optional[LSVDConfig] = None,
        obs: Optional[Registry] = None,
    ) -> "LSVDVolume":
        """Mount a snapshot read-only (§3.6)."""
        config = config or LSVDConfig()
        obs = obs if obs is not None else Registry()
        meta = BlockStore.read_super(store, name)
        snaps = meta.get("snapshots", {})
        if snapshot not in snaps:
            raise LSVDError(f"volume {name!r} has no snapshot {snapshot!r}")
        bs, _state = BlockStore.open(
            store, name, config, upto=snaps[snapshot], read_only=True, obs=obs
        )
        wc, rc = cls._partition_cache(cache_image, config, obs)
        wc.format()
        vol = cls(bs, wc, rc, config, read_only=True)
        vol.gc_enabled = False
        return vol

    @staticmethod
    def _partition_cache(
        image: DiskImage, config: LSVDConfig, obs: Optional[Registry] = None
    ):
        wc_size = int(image.size * config.write_cache_fraction) // 4096 * 4096
        wc_slot = max(64 * 1024, min(1 << 20, wc_size // 8)) // 4096 * 4096
        rc_size = image.size - wc_size
        rc_slot = max(64 * 1024, min(1 << 20, rc_size // 8)) // 4096 * 4096
        wc = WriteCache(image, 0, wc_size, ckpt_slot_size=wc_slot, obs=obs)
        rc = ReadCache(image, wc_size, rc_size, map_slot_size=rc_slot, obs=obs)
        return wc, rc

    # ------------------------------------------------------------------
    # block-device operations
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.bs.size

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset``; durable after :meth:`flush`."""
        self._check_io(offset, len(data))
        if self.read_only:
            raise LSVDError("volume is read-only")
        if not data:
            return
        self.writes += 1
        self.bytes_written += len(data)
        span = self.obs.spans.root("write", bytes=len(data))
        if self.qos is not None:
            self.qos.admit("write", len(data), span=span)
        try:
            record = self.wc.append([(offset, data)], span=span)
        except CacheFullError:
            self._make_room(len(data), span=span)
            record = self.wc.append([(offset, data)], span=span)
        self.rc.invalidate(offset, len(data))
        for sealed in self.bs.add_write(record, span=span):
            self._commit_data(sealed, span=span)
        span.end()

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (unwritten space is zeros)."""
        self._check_io(offset, length)
        if length == 0:
            return b""
        self.reads += 1
        self.bytes_read += length
        span = self.obs.spans.root("read", bytes=length)
        if self.qos is not None:
            self.qos.admit("read", length, span=span)
        # 1: write cache (always the newest data), then 2: the read cache,
        # whose one gap is the whole request when the write cache has none
        pieces = self.wc.read(offset, length, span=span)
        from_wc = bool(pieces)
        if not from_wc:
            pieces = self.rc.read(offset, length, span=span)
        if len(pieces) == 1 and pieces[0][1] == length:
            span.end()
            return pieces[0][2]  # one piece is the whole request: no assembly
        out = bytearray(length)
        gaps: List[Tuple[int, int]] = [(offset, length)]  # a full miss: all backend
        if pieces:
            covered = _Coverage(offset, length)
            for piece_start, piece_len, data in pieces:
                out[piece_start - offset : piece_start - offset + piece_len] = data
                covered.fill(piece_start, piece_len)
            for gap_lba, gap_len in covered.gaps() if from_wc else ():
                for piece_start, piece_len, data in self.rc.read(gap_lba, gap_len, span=span):
                    out[piece_start - offset : piece_start - offset + piece_len] = data
                    covered.fill(piece_start, piece_len)
            gaps = covered.gaps()
        # 3: backend (with temporal prefetch into the read cache); on a full
        # miss, neither cache holds the first fetch's demand
        clear = not pieces
        for gap_lba, gap_len in gaps:
            gap_end = gap_lba + gap_len
            for piece in self.bs.lookup(gap_lba, gap_len):
                stage = span.begin("backend_fetch", seq=piece.target)
                fetched = self.bs.fetch_with_prefetch(
                    piece.target, piece.offset, piece.length,
                    request_lba=piece.lba,
                    window=self.rc.readahead_window(piece.length, self.config.prefetch_bytes),
                )
                got = 0
                for vlba, data in fetched:
                    got += len(data)
                    lo = max(vlba, gap_lba)
                    hi = min(vlba + len(data), gap_end)
                    if lo < hi:
                        out[lo - offset : hi - offset] = data[lo - vlba : hi - vlba]
                stage.end(bytes=got)
                self._insert_read_cache(fetched, (piece.lba, piece.length), span, clear)
                clear = False
        span.end()
        return bytes(out)

    def writev(self, writes: List[Tuple[int, bytes]]) -> None:
        """Vectored write: several extents in one cache log record.

        All extents share one record (one header), so a scattered burst
        costs a single sequential SSD write — the "series of data blocks"
        record format of Figure 2.
        """
        if self.read_only:
            raise LSVDError("volume is read-only")
        writes = [(off, data) for off, data in writes if data]
        for offset, data in writes:
            self._check_io(offset, len(data))
        if not writes:
            return
        total = sum(len(d) for _o, d in writes)
        self.writes += 1
        self.bytes_written += total
        span = self.obs.spans.root("writev", bytes=total, extents=len(writes))
        if self.qos is not None:
            self.qos.admit("write", total, span=span)
        try:
            record = self.wc.append(writes, span=span)
        except CacheFullError:
            self._make_room(total, span=span)
            record = self.wc.append(writes, span=span)
        for offset, data in writes:
            self.rc.invalidate(offset, len(data))
        for sealed in self.bs.add_write(record, span=span):
            self._commit_data(sealed, span=span)
        span.end()

    def trim(self, offset: int, length: int) -> None:
        """Discard a range: subsequent reads return zeros (TRIM/unmap).

        Drops cache mappings and live-byte accounting immediately; the
        discarded backend data becomes garbage for the collector.  Note
        the trim itself is a volatile metadata operation here (as on many
        real devices): it is not persisted in the logs, so a crash may
        resurrect discarded data — callers needing durable discard should
        overwrite with zeros instead.
        """
        self._check_io(offset, length)
        if self.read_only:
            raise LSVDError("volume is read-only")
        self.wc.map.remove(offset, length)
        self.rc.invalidate(offset, length)
        self.bs.omap.trim(offset, length)

    def flush(self) -> None:
        """Commit barrier: one flush of the cache SSD (§3.2)."""
        self.flushes += 1
        span = self.obs.spans.root("flush")
        self.wc.barrier(span=span)
        span.end()

    # ------------------------------------------------------------------
    # background work (destage / GC / checkpoints)
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Advance background machinery (GC, due checkpoints)."""
        self._maybe_checkpoint()
        self._advance_gc()

    def drain(self) -> None:
        """Push all buffered data to the backend and finish GC.

        Only meaningful with an immediately-settling store; the timed
        runtime drives the same steps through simulated time.
        """
        span = self.obs.spans.root("drain")
        for sealed in self.bs.seal_group("drain", span=span):
            self._commit_data(sealed, span=span)
        span.end()
        self.poll()
        # run GC to its target utilisation
        guard = 0
        while (
            self.gc_enabled
            and self._gc_round is None
            and self.gc.needs_gc()
            and not self.gc.reached_target()
        ):
            before = self.bs.stats.objects_deleted
            self._start_gc_round()
            self._advance_gc()
            guard += 1
            if guard > 10_000 or (
                self._gc_round is None
                and self.bs.stats.objects_deleted == before
            ):
                break

    def close(self) -> None:
        """Clean shutdown: drain, checkpoint, persist warm maps."""
        if not self.read_only:
            self.drain()
            self.flush()
            if not self._pending:
                self._write_checkpoint()
            self.rc.save_map(self.wc.close())

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self, name: str) -> int:
        """Designate the current stream head as snapshot ``name``."""
        self.drain()
        return self.bs.create_snapshot(name)

    def delete_snapshot(self, name: str) -> List[int]:
        return self.bs.delete_snapshot(name)

    # ------------------------------------------------------------------
    # settlement ledger
    # ------------------------------------------------------------------
    def settle_put(self, handle) -> None:
        """Notify the volume that an outstanding PUT completed."""
        kind, payload = self._pending.pop(handle)
        if kind == "data":
            payload.settled = True
        elif kind == "gc":
            if self._gc_round is not None:
                self._gc_round.pending_puts -= 1
        elif kind == "ckpt":
            self._checkpoint_settled()
        self._advance_release_frontier()
        self._maybe_checkpoint()
        self._advance_gc()

    @property
    def pending_puts(self) -> int:
        return len(self._pending)

    # -- internals ------------------------------------------------------
    def _commit_data(self, sealed: SealedBatch, span=NULL_SPAN) -> None:
        entry = _BatchEntry(sealed.seq, sealed.last_record_seq)
        self._batches.append(entry)
        self._group_open = sealed.group_open
        self.batch_commits += 1
        self.obs.trace.emit(
            "write_commit",
            seq=sealed.seq,
            bytes=sealed.data_len,
            records_through=sealed.last_record_seq,
        )
        result = self.bs.commit(sealed, span=span)
        if result is None:
            entry.settled = True
            self._advance_release_frontier()
            self._maybe_checkpoint(span=span)
            self._advance_gc()
        else:
            self._pending[result] = ("data", entry)

    def _advance_release_frontier(self) -> None:
        # only a seal group's closing object carries a record mark, and no
        # object frees records past a checkpoint or GC PUT still in flight
        # below it: recovery stops at either hole
        floor = min((p for k, p in self._pending.values() if k != "data"), default=self.bs.next_seq)
        while self._batches and self._batches[0].settled and self._batches[0].seq < floor:
            self.wc.release_through(self._batches.pop(0).last_record_seq)

    def _may_checkpoint(self) -> bool:
        # every PUT settled and no seal group is open: a checkpoint closes
        # the run recovery replays
        return not self._pending and not self._group_open

    def _maybe_checkpoint(self, span=NULL_SPAN) -> None:
        if (self.bs.checkpoint_due or self._ckpt_requested) and self._may_checkpoint():
            self._ckpt_requested = False
            self._write_checkpoint(span=span)

    def _write_checkpoint(self, span=NULL_SPAN) -> int:
        self.checkpoints += 1
        seq, result = self.bs.write_checkpoint(span=span)
        if result is None:
            self._checkpoint_settled()
        else:
            self._pending[result] = ("ckpt", seq)
        return seq

    def _checkpoint_settled(self) -> None:
        # no round starts with a PUT in flight, so any checkpoint settling
        # while one awaits was written after its relocations settled
        self.bs.retire_old_checkpoints()
        rnd = self._gc_round
        if rnd is not None and rnd.stage == "await_ckpt":
            self._gc_round = None
            self.gc.delete_victims(rnd.victims)

    def _advance_gc(self) -> None:
        if not self.gc_enabled or self.read_only:
            return
        if self._gc_round is None:
            if self.gc.needs_gc():
                self._start_gc_round()
            return
        rnd = self._gc_round
        if rnd.stage == "relocating" and rnd.pending_puts == 0:
            rnd.stage = "await_ckpt"
            self._ckpt_requested = True
            self._maybe_checkpoint()  # immediate stores finish the round inside it

    def _start_gc_round(self) -> None:
        if self._pending:  # the collector GETs what it relocates: settled objects only
            return
        span = self.obs.spans.root("gc_round")
        plan = self.gc.plan(span=span)
        if plan is None:
            span.end(started=False)
            return
        rnd = _GCRound(victims=plan.victims)
        self._gc_round = rnd
        for sealed, result in self.gc.execute(plan, span=span):
            if result is not None:
                rnd.pending_puts += 1
                self._pending[result] = ("gc", sealed.seq)
        span.end(victims=len(plan.victims))
        self._advance_gc()

    def _make_room(self, needed: int, span=NULL_SPAN) -> None:
        """Cache log full: force destage so records can be released."""
        stage = span.begin("space_wait")
        for sealed in self.bs.seal_group("backpressure", span=span):
            self._commit_data(sealed, span=span)
        stage.end()
        if self.wc.free_bytes < needed + 2 * 4096 and self._pending:
            raise CacheFullError(
                "cache log full with PUTs outstanding; destage in progress"
            )

    def _insert_read_cache(self, fetched, demand, span=NULL_SPAN, clear=False) -> None:
        """Insert one fetch's ``(lba, data)`` pieces as a single burst, only
        where neither cache holds them: the write cache's data is newer, the
        read cache's is these very bytes (writes invalidate it).  Everything
        outside the ``demand`` ``(lba, length)`` is read-ahead; a cached
        neighbour lying behind the demand in object order goes to the read
        cache as ``refetched`` (DESIGN.md, "Read-ahead controller").  With
        ``clear`` (the read just found neither cache holding the demand), a
        fetch of exactly the demand — a narrowed window's — needs no scan."""
        if clear and len(fetched) == 1 and (fetched[0][0], len(fetched[0][1])) == demand:
            self.rc.insert(fetched, span=span, demand=demand)
            return
        wc_lookup = self.wc.lookup if self.wc.records else None
        rc_lookup = self.rc.lookup_with_gaps
        want = demand[0]
        pieces, behind = [], []
        ahead = False  # past the fetched piece that holds the demand
        for lba, data in fetched:
            here = lba <= want < lba + len(data)
            for start, length, cached in rc_lookup(lba, len(data)):
                if cached is not None:
                    if not ahead and (start < want or not here):
                        behind.append(cached)
                    continue
                if wc_lookup is None:  # an empty write cache holds nothing newer
                    pieces.append((start, data[start - lba : start - lba + length]))
                    continue
                newer = _Coverage(start, length)
                for ext in wc_lookup(start, length):
                    newer.fill(ext.lba, ext.length)
                for s, n in newer.gaps():
                    pieces.append((s, data[s - lba : s - lba + n]))
            ahead = ahead or here
        self.rc.insert(pieces, span=span, demand=demand, refetched=behind)

    def _check_io(self, offset: int, length: int) -> None:
        if offset % SECTOR or length % SECTOR:
            raise ValueError("I/O must be 512-byte aligned")
        if offset < 0 or offset + length > self.size:
            raise ValueError("I/O beyond end of volume")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> Tuple[int, int]:
        return self.bs.occupancy()

    @property
    def write_amplification(self) -> float:
        return self.bs.stats.write_amplification


class _Coverage:
    """Tracks which parts of a read range are still unfilled."""

    def __init__(self, offset: int, length: int):
        self._gaps: List[Tuple[int, int]] = [(offset, length)]

    def fill(self, lba: int, length: int) -> None:
        end = lba + length
        new: List[Tuple[int, int]] = []
        for g_lba, g_len in self._gaps:
            g_end = g_lba + g_len
            if end <= g_lba or lba >= g_end:
                new.append((g_lba, g_len))
                continue
            if g_lba < lba:
                new.append((g_lba, lba - g_lba))
            if end < g_end:
                new.append((end, g_end - end))
        self._gaps = new

    def gaps(self) -> List[Tuple[int, int]]:
        return list(self._gaps)
