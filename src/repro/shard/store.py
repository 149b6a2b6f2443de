"""A sharded object store: N backends behind one namespace.

:class:`ShardedObjectStore` implements the :class:`~repro.objstore.s3.ObjectStore`
interface over N independent backends, routing every operation through a
:class:`~repro.shard.router.ShardRouter`.  Because the facade preserves
the interface, the whole stack above it — :class:`BlockStore`, garbage
collection, checkpointing, replication, recovery — works unchanged:

* PUT/GET/DELETE go to the owning shard, so GC deletes and stranded-write
  cleanup land on whichever backend actually holds the object;
* LIST scatter-gathers every shard and merges the results, so recovery's
  "longest consecutive run after the newest checkpoint" rule (§3.3)
  operates on the *global* sequence — a hole on one shard strands every
  later object regardless of which shards hold them;
* per-shard stats merge into one :class:`ObjectStoreStats` view.

Fault injection composes too: wrap each shard in an
:class:`~repro.objstore.s3.UnsettledObjectStore` and the facade's
:meth:`put` returns composite ``(shard, handle)`` tokens that the
volume's settlement ledger treats as opaque keys; :meth:`crash` drops
in-flight PUTs on every shard at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.objstore.directory import DirectoryObjectStore
from repro.objstore.s3 import NoSuchKeyError, ObjectStore, ObjectStoreStats
from repro.obs import NULL_SPAN, Registry
from repro.shard.router import ShardRouter

#: manifest persisted at the root of a sharded directory store so every
#: later mount routes identically (see ShardRouter's module docstring)
MANIFEST_NAME = "shard-layout.json"


def count_shard_op(
    obs: Registry, index: int, n_shards: int, op: str, nbytes: int = 0
) -> None:
    """Charge one shard operation to the ``shard.*`` metric family.

    Shared by the pure and timed sharded stores so both report the same
    names: aggregate ``shard.<op>`` / ``shard.bytes_put``, per-shard
    ``shard.<i>.<op>``, and the ``shard.put_imbalance`` gauge (1.0 =
    perfectly even, 2.0 = hottest shard carries twice its fair share).
    """
    obs.counter(f"shard.{op}").inc()
    obs.counter(f"shard.{index}.{op}").inc()
    if nbytes:
        obs.counter("shard.bytes_put").inc(nbytes)
        obs.counter(f"shard.{index}.bytes_put").inc(nbytes)
    if op == "puts":
        per_shard = [obs.value(f"shard.{i}.puts") for i in range(n_shards)]
        total = sum(per_shard)
        if total:
            obs.gauge("shard.put_imbalance").set(
                max(per_shard) * n_shards / total
            )


class ShardedObjectStore(ObjectStore):
    """Fan one object namespace out across N backend shards."""

    #: duck-typed marker: callers holding a span handle may pass it to
    #: :meth:`put` so PUT service time is attributed to the owning shard
    accepts_span = True

    def __init__(
        self,
        shards: Sequence[ObjectStore],
        router: Optional[ShardRouter] = None,
        obs: Optional[Registry] = None,
    ):
        if not shards:
            raise ValueError("need at least one shard")
        self.shards: List[ObjectStore] = list(shards)
        self.router = router if router is not None else ShardRouter(len(self.shards))
        if self.router.n_shards != len(self.shards):
            raise ValueError(
                f"router expects {self.router.n_shards} shards, got {len(self.shards)}"
            )
        self.obs = obs if obs is not None else Registry()
        # register the aggregate metrics up front for stable snapshots
        self.obs.counter("shard.puts")
        self.obs.counter("shard.gets")
        self.obs.counter("shard.deletes")
        self.obs.counter("shard.bytes_put")
        self.obs.gauge("shard.put_imbalance")

    # -- routing ----------------------------------------------------------
    def shard_of(self, name: str) -> int:
        return self.router.shard_of_name(name)

    def _owner(self, name: str) -> Tuple[int, ObjectStore]:
        index = self.router.shard_of_name(name)
        return index, self.shards[index]

    # -- accounting -------------------------------------------------------
    def _count(self, index: int, op: str, nbytes: int = 0) -> None:
        count_shard_op(self.obs, index, len(self.shards), op, nbytes)

    # -- the ObjectStore interface ----------------------------------------
    def put(self, name: str, data: bytes, span=NULL_SPAN):
        index, shard = self._owner(name)
        stage = span.begin("shard_put", shard=index, bytes=len(data))
        handle = shard.put(name, data)
        stage.end()
        self._count(index, "puts", len(data))
        if handle is None:
            return None
        # unsettled shard: composite token, still opaque+hashable for the
        # volume's settlement ledger
        return (index, handle)

    def get(self, name: str) -> bytes:
        index, shard = self._owner(name)
        data = shard.get(name)
        self._count(index, "gets")
        return data

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        index, shard = self._owner(name)
        piece = shard.get_range(name, offset, length)
        self._count(index, "gets")
        return piece

    def delete(self, name: str) -> None:
        index, shard = self._owner(name)
        shard.delete(name)
        self._count(index, "deletes")

    def list(self, prefix: str = "") -> List[str]:
        """Scatter-gather LIST: the sorted union of every shard's view.

        This is what makes recovery shard-agnostic — the consecutive-run
        scan in :meth:`BlockStore._recover` sees one global listing and
        never needs to know placement exists.
        """
        names: List[str] = []
        for shard in self.shards:
            names.extend(shard.list(prefix))
        return sorted(names)

    def exists(self, name: str) -> bool:
        _index, shard = self._owner(name)
        return shard.exists(name)

    def size(self, name: str) -> int:
        _index, shard = self._owner(name)
        return shard.size(name)

    # -- merged views -----------------------------------------------------
    @property
    def stats(self) -> ObjectStoreStats:
        """Aggregate of every shard's counters (computed on read)."""
        return ObjectStoreStats.merged(
            s.stats for s in self.shards if hasattr(s, "stats")
        )

    def shard_stats(self) -> List[ObjectStoreStats]:
        """Per-shard counters, indexed by shard."""
        return [
            getattr(s, "stats", None) or ObjectStoreStats() for s in self.shards
        ]

    def total_bytes(self, prefix: str = "") -> int:
        total = 0
        for shard in self.shards:
            if hasattr(shard, "total_bytes"):
                total += shard.total_bytes(prefix)
            else:
                total += sum(shard.size(n) for n in shard.list(prefix))
        return total

    def shard_usage(self, prefix: str = "") -> List[Tuple[int, int]]:
        """Per-shard ``(object_count, bytes)`` — the shard-status view."""
        usage = []
        for shard in self.shards:
            names = shard.list(prefix)
            usage.append((len(names), sum(shard.size(n) for n in names)))
        return usage

    # -- fault-injection pass-throughs ------------------------------------
    def settle(self, handle: Tuple[int, object]) -> None:
        """Complete one in-flight PUT via its composite handle."""
        index, inner = handle
        self.shards[index].settle(inner)  # type: ignore[attr-defined]

    def settle_all(self) -> None:
        for shard in self.shards:
            if hasattr(shard, "settle_all"):
                shard.settle_all()

    def crash(self) -> List[str]:
        """Client crash: every shard's in-flight PUTs vanish at once."""
        lost: List[str] = []
        for shard in self.shards:
            if hasattr(shard, "crash"):
                lost.extend(shard.crash())
        return lost

    @property
    def in_flight(self) -> int:
        return sum(getattr(s, "in_flight", 0) for s in self.shards)

    def pending_handles(self) -> List[Tuple[int, object]]:
        """Composite handles of every in-flight PUT across all shards."""
        handles: List[Tuple[int, object]] = []
        for index, shard in enumerate(self.shards):
            if hasattr(shard, "pending_handles"):
                handles.extend((index, h) for h in shard.pending_handles())
        return handles


# ---------------------------------------------------------------------------
# directory-backed construction
# ---------------------------------------------------------------------------


def sharded_directory_store(
    root: Union[str, Path],
    n_shards: Optional[int] = None,
    layout: str = "round-robin",
    obs: Optional[Registry] = None,
) -> ShardedObjectStore:
    """Open (or create) a sharded store of per-shard subdirectories.

    The first call writes a ``shard-layout.json`` manifest at ``root``;
    later mounts read it back so routing never changes underneath the
    data.  Passing a conflicting ``n_shards``/``layout`` for an existing
    store is an error — resharding is a migration, not a mount option.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest_path = root / MANIFEST_NAME
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        router = ShardRouter.from_manifest(manifest)
        if n_shards is not None and n_shards != router.n_shards:
            raise ValueError(
                f"store at {root} has {router.n_shards} shards; "
                f"resharding to {n_shards} requires a migration"
            )
        if layout != "round-robin" and layout != router.layout.name:
            raise ValueError(
                f"store at {root} uses layout {router.layout.name!r}, "
                f"not {layout!r}"
            )
    else:
        if any(root.iterdir()):
            raise ValueError(
                f"{root} already holds a non-sharded store; sharding an "
                "existing root requires a migration"
            )
        router = ShardRouter(n_shards if n_shards is not None else 1, layout)
        manifest_path.write_text(json.dumps(router.describe(), sort_keys=True) + "\n")
    shards: List[ObjectStore] = [
        DirectoryObjectStore(root / name) for name in router.shard_names()
    ]
    return ShardedObjectStore(shards, router, obs=obs)


def open_directory_store(
    root: Union[str, Path], obs: Optional[Registry] = None
) -> ObjectStore:
    """Open whatever store lives at ``root``.

    Sharded stores are self-describing via their manifest; anything else
    is a plain single-directory store.  This is what the CLI mounts, so
    a volume created with ``--shards N`` keeps working transparently.
    """
    root = Path(root)
    if (root / MANIFEST_NAME).is_file():
        return sharded_directory_store(root, obs=obs)
    return DirectoryObjectStore(root)


__all__ = [
    "MANIFEST_NAME",
    "NoSuchKeyError",
    "ShardedObjectStore",
    "open_directory_store",
    "sharded_directory_store",
]
