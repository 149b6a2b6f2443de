"""Log-structured block store over an object store (Figures 3-4, §3.1-3.3).

Client writes are batched and stored in an ordered stream of immutable
objects named ``{volume}.{seq:08d}``; the name encodes log order.  The
stream carries three object kinds:

* ``KIND_DATA`` — a sealed write batch,
* ``KIND_GC`` — live data relocated by the garbage collector (each extent
  records the victim object it came from, so crash replay applies it only
  where the map still points at that victim — newer writes always win),
* ``KIND_CHECKPOINT`` — a serialised object map + GC/snapshot metadata,
  bounding replay time.

A small mutable ``{volume}.super`` object holds volume identity, the clone
base chain, the snapshot list, and a hint to the newest checkpoint; losing
an update to it is harmless because recovery can rediscover everything by
listing and reading stream headers.

Recovery (§3.3) finds the newest checkpoint at or below the mount point,
restores the map, replays the consecutive run of objects after it (up to
its last whole seal group), and deletes any stranded objects beyond —
in-flight PUTs that completed out of order before the crash.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.core import checkpoint as ckpt
from repro.core.batch import SealedBatch, WriteBatch
from repro.core.config import LSVDConfig
from repro.core.errors import (
    CorruptRecordError,
    RecoveryError,
    SnapshotInUseError,
    VolumeExistsError,
    VolumeNotFoundError,
)
from repro.core.ids import IDS
from repro.core.log import (
    KIND_CHECKPOINT,
    KIND_DATA,
    KIND_GC,
    ObjectHeader,
    decode_object,
    decode_object_header,
    encode_object,
    object_name,
)
from repro.core.naming import stream_prefix, stream_seqs, super_name
from repro.core.object_map import ObjectMap
from repro.core.placement import NUM_TEMPS, make_policy
from repro.core.write_cache import RecordRef, WriteCache
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    NULL_SPAN,
    Registry,
    bind_metrics,
    gauge_field,
    metric_field,
)
from repro.objstore.s3 import NoSuchKeyError, ObjectStore


class StoreStats:
    """Aggregate write-amplification accounting (Table 5, §4.2.2).

    Registry-backed (``store.*`` group); the derived ratios stay plain
    properties so existing call sites read them unchanged.
    """

    client_bytes = metric_field("store.client_bytes")  # bytes entering batches
    merged_bytes = metric_field("store.merged_bytes")  # intra-batch coalescing
    data_bytes = metric_field("store.data_bytes")  # payload in DATA objects
    gc_bytes = metric_field("store.gc_bytes")  # payload in GC objects
    ckpt_bytes = metric_field("store.ckpt_bytes")
    objects_put = metric_field("store.objects_put")
    objects_deleted = metric_field("store.objects_deleted")
    size_seals = metric_field("store.size_seals")  # threshold-driven
    forced_seals = metric_field("store.forced_seals")  # barrier/backpressure cuts
    # per-temperature-class destage / relocation payload (hot/warm/cold
    # stream separation; classes 0/1/2 as defined by core.placement)
    class_hot_bytes = metric_field("store.class_hot.bytes")
    class_warm_bytes = metric_field("store.class_warm.bytes")
    class_cold_bytes = metric_field("store.class_cold.bytes")
    class_hot_gc_bytes = metric_field("store.class_hot.gc_bytes")
    class_warm_gc_bytes = metric_field("store.class_warm.gc_bytes")
    class_cold_gc_bytes = metric_field("store.class_cold.gc_bytes")
    # per-class occupancy, refreshed by BlockStore.occupancy_by_class
    class_hot_live = gauge_field("store.class_hot.live_bytes")
    class_warm_live = gauge_field("store.class_warm.live_bytes")
    class_cold_live = gauge_field("store.class_cold.live_bytes")
    class_hot_data = gauge_field("store.class_hot.data_bytes")
    class_warm_data = gauge_field("store.class_warm.data_bytes")
    class_cold_data = gauge_field("store.class_cold.data_bytes")

    _CLASS_DATA_ATTRS = ("class_hot_bytes", "class_warm_bytes", "class_cold_bytes")
    _CLASS_GC_ATTRS = ("class_hot_gc_bytes", "class_warm_gc_bytes", "class_cold_gc_bytes")
    _CLASS_LIVE_ATTRS = ("class_hot_live", "class_warm_live", "class_cold_live")
    _CLASS_OCC_ATTRS = ("class_hot_data", "class_warm_data", "class_cold_data")

    def __init__(self, obs: Optional[Registry] = None):
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)

    def add_class_data(self, temp: int, n: int) -> None:
        attr = self._CLASS_DATA_ATTRS[temp]
        setattr(self, attr, getattr(self, attr) + n)

    def add_class_gc(self, temp: int, n: int) -> None:
        attr = self._CLASS_GC_ATTRS[temp]
        setattr(self, attr, getattr(self, attr) + n)

    def class_data_bytes(self, temp: int) -> int:
        return int(getattr(self, self._CLASS_DATA_ATTRS[temp]))

    def class_gc_bytes(self, temp: int) -> int:
        return int(getattr(self, self._CLASS_GC_ATTRS[temp]))

    def set_class_occupancy(self, temp: int, live: int, total: int) -> None:
        setattr(self, self._CLASS_LIVE_ATTRS[temp], live)
        setattr(self, self._CLASS_OCC_ATTRS[temp], total)

    @property
    def backend_bytes(self) -> int:
        return self.data_bytes + self.gc_bytes + self.ckpt_bytes

    @property
    def write_amplification(self) -> float:
        if self.client_bytes == 0:
            return 0.0
        return self.backend_bytes / self.client_bytes

    @property
    def merge_ratio(self) -> float:
        if self.client_bytes == 0:
            return 0.0
        return self.merged_bytes / self.client_bytes


@dataclass
class RecoveredState:
    """What recovery learned (feeds cache rewind/replay, §3.3)."""

    last_seq: int  # newest object in the consistent prefix
    last_record_seq: int  # cache-log high-water mark in the backend
    stranded_deleted: List[str] = field(default_factory=list)


class BlockStore:
    """The log-structured block store for one volume (or clone)."""

    def __init__(
        self,
        store: ObjectStore,
        name: str,
        uuid: bytes,
        size: int,
        config: Optional[LSVDConfig] = None,
        base_chain: Optional[List[Tuple[str, int]]] = None,
        obs: Optional[Registry] = None,
    ):
        self.store = store
        self.name = name
        self.uuid = uuid
        self.size = size
        self.config = config or LSVDConfig()
        #: clone lineage: [(ancestor volume name, its last seq)], oldest first
        self.base_chain: List[Tuple[str, int]] = list(base_chain or [])
        self.omap = ObjectMap()
        #: the placement classifier: every destage write is assigned a
        #: temperature class; one open batch per class (created lazily)
        self.placement = make_policy(self.config)
        self.batches: Dict[int, WriteBatch] = {}
        #: the write cache whose records :meth:`add_write` batches; seals
        #: read the bytes back from its log (the volume attaches it)
        self.cache: Optional[WriteCache] = None
        self.next_seq = 1
        self.last_ckpt_seq = 0
        self.last_record_seq_destaged = 0
        self._newest_record = 0  # the last record add_write batched
        self.snapshots: Dict[str, int] = {}
        #: deferred GC deletes: victim seq -> newest seq at GC time (§3.6)
        self.deferred_deletes: Dict[int, int] = {}
        self._ckpt_history: List[int] = []
        self._objects_since_ckpt = 0
        self._header_cache: Dict[int, ObjectHeader] = {}
        #: seq -> data offset at which each header extent starts (objects
        #: are immutable, so built once; see fetch_with_prefetch)
        self._extent_starts: Dict[int, List[int]] = {}
        self.obs = obs if obs is not None else Registry()
        self.stats = StoreStats(self.obs)
        self._object_bytes = self.obs.histogram(
            "store.object_bytes", buckets=DEFAULT_SIZE_BUCKETS
        )

    # ------------------------------------------------------------------
    # naming / clone chain
    # ------------------------------------------------------------------
    def name_for_seq(self, seq: int) -> str:
        """Resolve a sequence number across the clone base chain (§3.6)."""
        for base_name, base_last in self.base_chain:
            if seq <= base_last:
                return object_name(base_name, seq)
        return object_name(self.name, seq)

    @property
    def first_own_seq(self) -> int:
        """Lowest sequence number belonging to this volume (not a base)."""
        if self.base_chain:
            return self.base_chain[-1][1] + 1
        return 1

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _batch_for(self, temp: int) -> WriteBatch:
        batch = self.batches.get(temp)
        if batch is None:
            batch = WriteBatch(self.config.batch_size, temp=temp)
            self.batches[temp] = batch
        return batch

    def add_write(self, record: RecordRef, span=NULL_SPAN) -> List[SealedBatch]:
        """Buffer one logged cache record; returns the sealed batches when
        size is reached.

        The placement policy assigns each write of the record a
        temperature class, which picks the open batch it accumulates
        into.  An older version of a range that a newer write or a trim
        has since unmapped from the cache is dropped at seal time, so
        seal order across classes cannot resurrect stale data.

        Sealing is *lockstep*: when any class batch reaches the size
        threshold, every non-empty class batch seals together as one
        group, and only between records.  Each group therefore covers a
        contiguous run of whole records, which keeps the backend an exact
        record prefix — the property the cache-lost crash guarantee
        (Table 4) rests on.  Per-class objects stay class-pure; the group
        merely aligns their cut points.  Callers must commit every
        returned batch, in order.
        """
        full = False
        self._newest_record = record.seq
        for lba, length, position in record.extents:
            if lba < 0 or lba + length > self.size:
                raise ValueError("write beyond volume bounds")
            batch = self._batch_for(self.placement.on_write(lba, length))
            batch.add(lba, length, position, record.seq)
            full = full or batch.should_seal()
        return self.seal_group("size", span=span) if full else []

    def seal_group(self, reason: str, span=NULL_SPAN) -> List[SealedBatch]:
        """Seal every non-empty class batch as one lockstep group.

        Oldest buffered record first, hottest first on ties; every object
        is numbered here, before the caller commits the first, so no
        checkpoint or GC object lands inside the group.  Records interleave
        across class batches, so only the closing object carries the record
        mark (the newest record batched); the others are ``group_open`` with
        mark 0, and recovery and cache release take the group only whole.
        In a ``"size"`` group, batches below the threshold ride along as
        ``"group"`` (counted in ``store.forced_seals``).
        """
        batches = sorted((b for b in self.batches.values() if not b.is_empty),
                         key=lambda b: (b.first_record_seq, b.temp))
        out: List[SealedBatch] = []
        for batch in batches:
            assert self.cache is not None  # the batch holds records of this cache
            closing = batch is batches[-1]
            out.append(batch.seal(
                self._take_seq(), self.uuid, self.cache, span=span,
                reason="group" if reason == "size" and not batch.should_seal() else reason,
                last_record_seq=self._newest_record if closing else 0, group_open=not closing,
            ))
        return out

    def commit(self, sealed: SealedBatch, span=NULL_SPAN):
        """PUT the sealed object and update the map/accounting.

        Returns whatever ``store.put`` returned (a handle for unsettled
        stores, None for immediate ones); the caller decides when the
        cache may release the covered records.
        """
        name = object_name(self.name, sealed.seq)
        stage = span.begin(
            "backend_put",
            seq=sealed.seq,
            object_kind="gc" if sealed.kind == KIND_GC else "data",
            bytes=len(sealed.payload),
        )
        if getattr(self.store, "accepts_span", False):
            result = self.store.put(name, sealed.payload, span=stage)
        else:
            result = self.store.put(name, sealed.payload)
        stage.end()
        self.omap.apply_object(
            sealed.seq, sealed.kind, sealed.data_len, sealed.extents, temp=sealed.temp
        )
        self.stats.objects_put += 1
        if sealed.kind == KIND_DATA:
            if sealed.forced:
                self.stats.forced_seals += 1
            else:
                self.stats.size_seals += 1
            self.stats.client_bytes += sealed.bytes_in
            self.stats.merged_bytes += sealed.merged_bytes
            self.stats.data_bytes += sealed.data_len
            self.stats.add_class_data(sealed.temp, sealed.data_len)
        else:
            self.stats.gc_bytes += sealed.data_len
            self.stats.add_class_gc(sealed.temp, sealed.data_len)
        if sealed.last_record_seq:
            self.last_record_seq_destaged = max(
                self.last_record_seq_destaged, sealed.last_record_seq
            )
        if sealed.reason != "group":
            # riders of a lockstep group are fragments of one logical
            # group commit: counting each would scale checkpoint cadence
            # with the number of open classes instead of with data volume
            self._objects_since_ckpt += 1
        self._object_bytes.observe(len(sealed.payload))
        self.obs.trace.emit(
            "backend_put",
            seq=sealed.seq,
            kind="gc" if sealed.kind == KIND_GC else "data",
            bytes=len(sealed.payload),
        )
        return result

    @property
    def checkpoint_due(self) -> bool:
        """Enough stream objects since the last checkpoint.

        Checkpoints are *not* written from :meth:`commit`: the volume
        issues them only once all prior PUTs have settled, so a visible
        checkpoint always implies its whole prefix is visible — the
        invariant recovery's checkpoint selection relies on — nor while a
        seal group is open: :meth:`seal_group` numbers a whole group at
        once, and recovery would skip members a checkpoint postdates.
        """
        return self._objects_since_ckpt >= self.config.checkpoint_interval

    def _take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    @property
    def newest_seq(self) -> int:
        """Sequence of the newest allocated object.

        The accessor other layers (GC, snapshots) must use instead of
        computing ``next_seq - 1`` themselves: sequence arithmetic stays
        inside the log layer (LSVD002).
        """
        return self.next_seq - 1

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def lookup(self, lba: int, length: int):
        return self.omap.lookup(lba, length)

    def fetch(
        self, seq: int, offset: int, length: int, header: Optional[ObjectHeader] = None
    ) -> bytes:
        """Ranged GET of object data (offset is into the *data* area).

        ``header`` is ``header_of(seq)`` when the caller holds it already.
        """
        if header is None:
            header = self.header_of(seq)
        name = self.name_for_seq(seq)
        return self.store.get_range(name, header.header_size + offset, length)

    #: the ledger's oracle reads through this name
    fetch_direct = fetch

    def fetch_with_prefetch(
        self, seq: int, offset: int, length: int,
        request_lba: Optional[int] = None, window: Optional[int] = None,
    ) -> List[Tuple[int, memoryview]]:
        """Fetch a mapped extent plus temporally adjacent data (§3.2).

        Reads a window of up to ``window`` bytes (default
        ``config.prefetch_bytes``, the paper's constant; the volume passes
        what :meth:`ReadCache.readahead_window` sized) around the
        requested data-range of the object and translates every byte that
        falls inside the window back to its vLBA using the object header.
        Because objects hold data in write order, this prefetches by
        *temporal* locality.  Returns (vLBA, data) pieces: only ranges the
        map still assigns to this object at these offsets, so every piece
        is live.  The pieces are zero-copy memoryviews over the single
        fetched blob; callers assemble or copy as needed.

        ``request_lba`` is the vLBA of ``[offset, offset + length)``, where
        the caller's lookup has just found it mapped.  A window that is
        exactly that range returns it with no map lookup, so a caller must
        pass a piece it found live; at a wider window the range comes back
        only where the map still puts it.
        """
        header = self.header_of(seq)
        starts = self._extent_starts.get(seq)
        if starts is None:
            starts = [0, *accumulate(e.length for e in header.extents)]
            self._extent_starts[seq] = starts
        window = max(window or self.config.prefetch_bytes, length)
        start = max(0, offset - (window - length) // 2)
        end = min(header.data_len, start + window)
        blob = memoryview(self.fetch(seq, start, end - start, header))
        pieces: List[Tuple[int, memoryview]] = []
        extents = header.extents
        live_lookup = self.omap.map.lookup
        # only the header extents the window overlaps, not all of them
        for index in range(bisect_right(starts, start) - 1, len(extents)):
            ext_start, ext_end = starts[index], starts[index + 1]
            if ext_start >= end:
                break
            lo, hi = max(ext_start, start), min(ext_end, end)
            if lo < hi:
                vlba = extents[index].lba + (lo - ext_start)
                if end - start == length and (vlba, hi - lo) == (request_lba, length):
                    return [(request_lba, blob)]  # the window is the caller's own live piece
                # only return ranges the map still assigns to this object
                # at these offsets: prefetched neighbours may have been
                # overwritten by newer objects and must not be surfaced.
                for live in live_lookup(vlba, hi - lo):
                    if live.target != seq:
                        continue
                    if live.offset != lo + (live.lba - vlba):
                        continue
                    rel = live.offset - start
                    pieces.append((live.lba, blob[rel : rel + live.length]))
        return pieces

    def header_of(self, seq: int) -> ObjectHeader:
        """Object header, fetched lazily and cached (GC uses this, §3.5)."""
        header = self._header_cache.get(seq)
        if header is None:
            name = self.name_for_seq(seq)
            blob = self.store.get_range(name, 0, 64 * 1024)
            header = decode_object_header(blob)
            self._header_cache[seq] = header
        return header

    def delete_object(self, seq: int) -> None:
        if seq < self.first_own_seq:
            raise SnapshotInUseError("refusing to delete clone-base object")
        self.store.delete(object_name(self.name, seq))
        self._header_cache.pop(seq, None)
        self._extent_starts.pop(seq, None)
        self.stats.objects_deleted += 1

    # ------------------------------------------------------------------
    # snapshots (§3.6)
    # ------------------------------------------------------------------
    def create_snapshot(self, snap_name: str) -> int:
        """Designate the current stream head as a snapshot; returns its seq."""
        if snap_name in self.snapshots:
            raise VolumeExistsError(f"snapshot {snap_name!r} exists")
        seq = self.next_seq - 1
        self.snapshots[snap_name] = seq
        self.write_super()
        return seq

    def delete_snapshot(self, snap_name: str) -> List[int]:
        """Remove a snapshot and perform newly allowable deferred deletes."""
        if snap_name not in self.snapshots:
            raise VolumeNotFoundError(f"no snapshot {snap_name!r}")
        del self.snapshots[snap_name]
        self.write_super()
        return self.run_deferred_deletes()

    def snapshot_blocks_delete(self, victim_seq: int, newest_seq: int) -> bool:
        """Paper's §3.6 rule: defer the delete of victim N0 if a snapshot
        N_x intervenes (N0 <= N_x < N_gc): that snapshot still references
        the victim's data."""
        return any(
            victim_seq <= snap_seq < newest_seq
            for snap_seq in self.snapshots.values()
        )

    def run_deferred_deletes(self) -> List[int]:
        """Re-examine the deferred list after a snapshot deletion."""
        deleted = []
        for victim, gc_seq in sorted(self.deferred_deletes.items()):
            if not self.snapshot_blocks_delete(victim, gc_seq):
                self.delete_object(victim)
                deleted.append(victim)
        for victim in deleted:
            del self.deferred_deletes[victim]
        return deleted

    # ------------------------------------------------------------------
    # checkpoints & superblock
    # ------------------------------------------------------------------
    def write_checkpoint(self, span=NULL_SPAN):
        """Write a KIND_CHECKPOINT object into the stream.

        Returns ``(seq, put_result)``.  Callers must only invoke this when
        every prior PUT has settled (the volume enforces it), and must
        call :meth:`retire_old_checkpoints` only once this checkpoint's
        PUT itself has settled — otherwise a crash window exists with no
        visible checkpoint at all.
        """
        seq = self._take_seq()
        sections = {
            "meta": ckpt.pack_json(
                {
                    "next_seq": seq + 1,
                    "last_record_seq": self.last_record_seq_destaged,
                    "snapshots": self.snapshots,
                    "deferred": sorted(self.deferred_deletes.items()),
                    "ckpt_history": self._ckpt_history[-2:],
                    "stats": {
                        "client_bytes": self.stats.client_bytes,
                        "merged_bytes": self.stats.merged_bytes,
                        "data_bytes": self.stats.data_bytes,
                        "gc_bytes": self.stats.gc_bytes,
                        "class_data": [
                            self.stats.class_data_bytes(t) for t in range(NUM_TEMPS)
                        ],
                        "class_gc": [
                            self.stats.class_gc_bytes(t) for t in range(NUM_TEMPS)
                        ],
                    },
                }
            ),
            "map": ckpt.pack_rows("<QQQQ", self.omap.entries()),
            "objects": ckpt.pack_rows(
                "<QQQQQ",
                [
                    (seq_, kind, data, live, int(in_base))
                    for seq_, kind, data, live, in_base in self.omap.object_table()
                ],
            ),
        }
        payload = ckpt.encode_sections(sections)
        header = ObjectHeader(
            kind=KIND_CHECKPOINT,
            uuid=self.uuid,
            seq=seq,
            last_record_seq=self.last_record_seq_destaged,
        )
        stage = span.begin("checkpoint_put", seq=seq, bytes=len(payload))
        put_result = self.store.put(
            object_name(self.name, seq), encode_object(header, payload)
        )
        stage.end()
        self.stats.ckpt_bytes += len(payload)
        self.stats.objects_put += 1
        self._object_bytes.observe(len(payload))
        self.obs.trace.emit("checkpoint", seq=seq, bytes=len(payload))
        self._ckpt_history.append(seq)
        self.last_ckpt_seq = seq
        self._objects_since_ckpt = 0
        self.write_super()
        return seq, put_result

    def retire_old_checkpoints(self) -> List[int]:
        """Delete superseded checkpoints, keeping the newest two plus any
        checkpoint a snapshot mount still needs (the newest checkpoint at
        or below each snapshot's sequence number, §3.6).

        Only call after the newest checkpoint's PUT has settled.
        """
        pinned = set(self._ckpt_history[-2:])
        for snap_seq in self.snapshots.values():
            older = [c for c in self._ckpt_history if c <= snap_seq]
            if older:
                pinned.add(max(older))
        retired = []
        for old in list(self._ckpt_history[:-2]):
            if old in pinned or old < self.first_own_seq:
                continue
            try:
                self.delete_object(old)
                retired.append(old)
            except NoSuchKeyError:
                pass
            self._ckpt_history.remove(old)
        return retired

    def write_super(self) -> None:
        blob = ckpt.encode_sections(
            {
                "super": ckpt.pack_json(
                    {
                        "uuid": self.uuid.hex(),
                        "size": self.size,
                        "base_chain": self.base_chain,
                        "last_ckpt_seq": self.last_ckpt_seq,
                        "snapshots": self.snapshots,
                    }
                )
            }
        )
        self.store.put(super_name(self.name), blob)

    @staticmethod
    def read_super(store: ObjectStore, name: str) -> dict:
        try:
            blob = store.get(super_name(name))
        except NoSuchKeyError:
            raise VolumeNotFoundError(f"volume {name!r} has no superblock") from None
        sections = ckpt.decode_sections(blob)
        return ckpt.unpack_json(sections["super"])

    # ------------------------------------------------------------------
    # creation / recovery
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        store: ObjectStore,
        name: str,
        size: int,
        config: Optional[LSVDConfig] = None,
        uuid: Optional[bytes] = None,
        obs: Optional[Registry] = None,
    ) -> "BlockStore":
        if store.exists(super_name(name)) or store.list(stream_prefix(name)):
            raise VolumeExistsError(f"volume {name!r} already exists")
        bs = cls(store, name, uuid or IDS.uuid(), size, config, obs=obs)
        bs.write_checkpoint()  # seq 1: recovery always finds a checkpoint
        return bs

    @classmethod
    def open(
        cls,
        store: ObjectStore,
        name: str,
        config: Optional[LSVDConfig] = None,
        upto: Optional[int] = None,
        read_only: bool = False,
        obs: Optional[Registry] = None,
    ) -> Tuple["BlockStore", RecoveredState]:
        """Mount an existing volume, running log recovery (§3.3)."""
        meta = cls.read_super(store, name)
        bs = cls(
            store,
            name,
            bytes.fromhex(meta["uuid"]),
            meta["size"],
            config,
            base_chain=[tuple(x) for x in meta.get("base_chain", [])],
            obs=obs,
        )
        bs.snapshots = dict(meta.get("snapshots", {}))
        state = bs._recover(
            super_ckpt_hint=meta.get("last_ckpt_seq", 0),
            upto=upto,
            read_only=read_only,
        )
        return bs, state

    def _listed_seqs(self) -> List[int]:
        """Every stream sequence number the store can currently see.

        ``store.list`` is the recovery oracle: with a single backend it
        is one LIST; with a :class:`~repro.shard.ShardedObjectStore` it
        is the scatter-gathered union of every shard's listing, so the
        consecutive-run rule below operates on the *global* sequence
        regardless of where individual objects landed.
        """
        return stream_seqs(self.store.list(stream_prefix(self.name)), self.name)

    def _recover(
        self, super_ckpt_hint: int, upto: Optional[int], read_only: bool
    ) -> RecoveredState:
        seqs = self._listed_seqs()
        if upto is not None:
            seqs = [s for s in seqs if s <= upto]
        if not seqs:
            raise RecoveryError(f"volume {self.name!r} has no stream objects")
        ckpt_seq = self._find_checkpoint(seqs, super_ckpt_hint)
        self._load_checkpoint(ckpt_seq)
        # replay the consecutive run after the checkpoint, a lockstep seal
        # group only whole: a group's objects carry interleaved records, so
        # one that lost a sibling would hold writes without older ones
        present = set(seqs)
        last = ckpt_seq
        last_record_seq = self.last_record_seq_destaged
        seq = ckpt_seq + 1
        group: List[ObjectHeader] = []
        while seq in present:
            group.append(self.header_of(seq))
            if not group[-1].group_open:
                for header in group:
                    self._replay_object(header)
                last_record_seq = max(last_record_seq, group[-1].last_record_seq)
                group = []
                last = seq
            seq += 1
        self.next_seq = last + 1
        self.last_record_seq_destaged = last_record_seq
        # prune accounting entries for objects the GC deleted after the
        # checkpoint we loaded was written; a still-referenced missing
        # object means real data loss and must abort the mount.
        for obj_seq in sorted(self.omap.objects):
            info = self.omap.objects[obj_seq]
            if info.in_base or obj_seq in present:
                continue
            if info.live_bytes > 0:
                raise RecoveryError(
                    f"object {obj_seq} is referenced by the map but missing"
                )
            del self.omap.objects[obj_seq]
        # delete stranded objects beyond the first hole (§3.3) — unless we
        # are mounting a historical snapshot read-only.  The store routes
        # each delete to wherever the object lives (a sharded store sends
        # it to the owning shard), so one pass cleans every backend.
        stranded = []
        if not read_only and upto is None:
            for s in sorted(present):
                if s > last:
                    self.delete_object(s)  # forgets its header: its seq is reissued
                    stranded.append(object_name(self.name, s))
        return RecoveredState(
            last_seq=last,
            last_record_seq=last_record_seq,
            stranded_deleted=stranded,
        )

    def _find_checkpoint(self, seqs: List[int], hint: int) -> int:
        """Locate the newest checkpoint: try the superblock hint, else scan
        backwards from the newest object reading headers."""
        present = set(seqs)
        if hint in present and self._kind_of(hint) == KIND_CHECKPOINT:
            # a newer checkpoint may exist if the super update was lost; it
            # is sound if every object it holds live data in is listed (a
            # hole below it may be a GC victim it no longer names)
            newer = [s for s in seqs if s > hint]
            for s in sorted(newer, reverse=True):
                if self._kind_of(s) == KIND_CHECKPOINT and self._live_objects_listed(s, present):
                    return s
            return hint
        for s in sorted(seqs, reverse=True):
            if self._kind_of(s) == KIND_CHECKPOINT:
                return s
        raise RecoveryError(f"volume {self.name!r}: no checkpoint found")

    def _live_objects_listed(self, seq: int, present: set) -> bool:
        _header, payload = decode_object(self.store.get(self.name_for_seq(seq)))
        rows = ckpt.unpack_rows("<QQQQQ", ckpt.decode_sections(payload)["objects"])
        return all(live == 0 or in_base or s in present for s, _k, _d, live, in_base in rows)

    def _kind_of(self, seq: int) -> int:
        """Kind of object ``seq``; -1 when absent or unreadable.

        Recovery probes holes and torn objects on purpose here, so only
        the two expected failure shapes are absorbed — anything else
        (I/O errors, bugs) must surface (LSVD004).
        """
        try:
            return self.header_of(seq).kind
        except (NoSuchKeyError, CorruptRecordError):
            return -1

    def _load_checkpoint(self, seq: int) -> None:
        name = self.name_for_seq(seq)
        header, payload = decode_object(self.store.get(name))
        if header.kind != KIND_CHECKPOINT:
            raise RecoveryError(f"object {seq} is not a checkpoint")
        sections = ckpt.decode_sections(payload)
        meta = ckpt.unpack_json(sections["meta"])
        map_entries = ckpt.unpack_rows("<QQQQ", sections["map"])
        object_table = [
            (s, kind, data, live, bool(in_base))
            for s, kind, data, live, in_base in ckpt.unpack_rows(
                "<QQQQQ", sections["objects"]
            )
        ]
        self.omap = ObjectMap.restore(map_entries, object_table, {})
        self.next_seq = meta["next_seq"]
        self.last_record_seq_destaged = meta["last_record_seq"]
        self.snapshots = dict(meta.get("snapshots", {}))
        self.deferred_deletes = {int(v): g for v, g in meta.get("deferred", [])}
        self._ckpt_history = list(meta.get("ckpt_history", [])) + [seq]
        self.last_ckpt_seq = seq
        stats = meta.get("stats", {})
        self.stats.client_bytes = stats.get("client_bytes", 0)
        self.stats.merged_bytes = stats.get("merged_bytes", 0)
        self.stats.data_bytes = stats.get("data_bytes", 0)
        self.stats.gc_bytes = stats.get("gc_bytes", 0)
        for temp, value in enumerate(stats.get("class_data", [])[:NUM_TEMPS]):
            self.stats.add_class_data(temp, value - self.stats.class_data_bytes(temp))
        for temp, value in enumerate(stats.get("class_gc", [])[:NUM_TEMPS]):
            self.stats.add_class_gc(temp, value - self.stats.class_gc_bytes(temp))

    def _replay_object(self, header: ObjectHeader) -> None:
        """Apply one stream object's header during recovery."""
        if header.kind == KIND_CHECKPOINT:
            # state already reflects everything <= this point, but the map
            # we restored may be older; reload to stay exact.
            self._load_checkpoint(header.seq)
            return
        if header.seq in self.omap.objects:
            return  # already reflected in the checkpoint we loaded
        self.omap.apply_object(
            header.seq, header.kind, header.data_len, header.extents, temp=header.temp
        )

    # ------------------------------------------------------------------
    # clone creation (§3.6, Figure 5)
    # ------------------------------------------------------------------
    @classmethod
    def clone_from(
        cls,
        store: ObjectStore,
        base_name: str,
        clone_name: str,
        config: Optional[LSVDConfig] = None,
        at_snapshot: Optional[str] = None,
        obs: Optional[Registry] = None,
    ) -> "BlockStore":
        """Create a copy-on-write clone sharing the base's object prefix."""
        base_meta = cls.read_super(store, base_name)
        upto = None
        if at_snapshot is not None:
            snaps = base_meta.get("snapshots", {})
            if at_snapshot not in snaps:
                raise VolumeNotFoundError(
                    f"base {base_name!r} has no snapshot {at_snapshot!r}"
                )
            upto = snaps[at_snapshot]
        base, state = cls.open(store, base_name, config, upto=upto, read_only=True)
        if store.exists(super_name(clone_name)) or store.list(stream_prefix(clone_name)):
            raise VolumeExistsError(f"volume {clone_name!r} already exists")
        chain = base.base_chain + [(base_name, state.last_seq)]
        clone = cls(
            store,
            clone_name,
            IDS.uuid(),
            base.size,
            config,
            base_chain=chain,
            obs=obs,
        )
        clone.omap = base.omap
        for info in clone.omap.objects.values():
            info.in_base = True  # the GC must never clean shared objects
        clone.next_seq = state.last_seq + 1
        clone.last_record_seq_destaged = 0
        clone.write_checkpoint()
        return clone

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def occupancy(self) -> Tuple[int, int]:
        """(live bytes, total data bytes) over cleanable objects (Fig 15)."""
        live = total = 0
        for info in self.omap.objects.values():
            if info.in_base or info.kind == KIND_CHECKPOINT:
                continue
            live += info.live_bytes
            total += info.data_bytes
        return live, total

    def occupancy_by_class(self) -> Dict[int, Tuple[int, int]]:
        """Per-temperature-class (live, total) occupancy over cleanable
        objects; refreshes the ``store.class_*`` gauges as a side effect
        so snapshots and dumps carry the split."""
        acc: Dict[int, List[int]] = {t: [0, 0] for t in range(NUM_TEMPS)}
        for info in self.omap.objects.values():
            if info.in_base or info.kind == KIND_CHECKPOINT:
                continue
            slot = acc.setdefault(info.temp, [0, 0])
            slot[0] += info.live_bytes
            slot[1] += info.data_bytes
        out: Dict[int, Tuple[int, int]] = {}
        for temp in range(NUM_TEMPS):
            live, total = acc[temp]
            self.stats.set_class_occupancy(temp, live, total)
            out[temp] = (live, total)
        return out
