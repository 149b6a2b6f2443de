"""Cache sharing across clones and tenants (§6.3 "Cache Sharing").

A host often runs many virtual machines whose disks are cloned from the
same base image; each clone's reads of un-diverged blocks fetch the *same
backend objects*.  The paper proposes caching that data once per host.

:class:`SharedObjectCache` is keyed by (object name, data offset) —
content identity in LSVD's immutable world — so any volume whose map
points at a shared base object can hit data another volume fetched.
Because objects are immutable, shared entries can never be stale; each
volume's own write cache still takes priority for its divergent writes.

Multi-tenancy (the ``repro.fleet`` control plane) adds two things here:

* **first-class attachment** — :meth:`SharedObjectCache.attach` returns a
  :class:`SharedCacheAttachment` that the block store consults on its
  read path (no monkey-patching), and that can be cleanly detached;
* **per-tenant budgets with weighted eviction** — each attachment is
  tagged with the tenant that populates through it; when the cache is
  over capacity, eviction prefers chunks owned by tenants exceeding
  their declared budget before falling back to the global LRU order, so
  one scan-heavy tenant cannot flush everyone else's working set.

Decoded object headers are shared too (every reader needs them), in a
bounded LRU: a header is dropped when its object's last cached chunk is
evicted, and the header dict itself is capped so a long-running host
cannot leak memory through header accumulation alone.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import Registry

#: default bound on the decoded-header LRU
DEFAULT_MAX_HEADERS = 1024

#: stat fields mirrored into the obs registry as ``sharedcache.<name>``
_STAT_NAMES = ("hits", "misses", "insertions", "evictions", "header_evictions")


@dataclass
class SharedCacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    header_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SharedObjectCache:
    """A host-wide LRU cache of immutable object data.

    Keys are (object name, aligned data offset); values are fixed-size
    chunks.  Immutability makes invalidation unnecessary — entries only
    leave by eviction.
    """

    def __init__(
        self,
        capacity: int,
        chunk_size: int = 64 * 1024,
        max_headers: int = DEFAULT_MAX_HEADERS,
        obs: Optional[Registry] = None,
    ):
        if capacity < chunk_size:
            raise ValueError("capacity smaller than one chunk")
        if max_headers < 1:
            raise ValueError("max_headers must be >= 1")
        self.capacity = capacity
        self.chunk_size = chunk_size
        self.max_headers = max_headers
        self._chunks: OrderedDict[Tuple[str, int], bytes] = OrderedDict()
        self._bytes = 0
        #: decoded object headers, shared across attached volumes (they
        #: are immutable too); bounded LRU — see module docstring
        self.headers: OrderedDict[str, object] = OrderedDict()
        #: live chunk count per object name (header-eviction coupling)
        self._object_chunks: Dict[str, int] = {}
        # per-tenant accounting: chunk key -> owning tenant, tenant ->
        # cached bytes / declared budget (absent = unbudgeted)
        self._owner: Dict[Tuple[str, int], str] = {}
        self._usage: Dict[str, int] = {}
        self._budgets: Dict[str, int] = {}
        self._attachments: List["SharedCacheAttachment"] = []
        self.stats = SharedCacheStats()
        self.obs: Optional[Registry] = None
        self._m: Dict[str, object] = {}
        self._g_bytes = None
        if obs is not None:
            self.bind_obs(obs)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def bind_obs(self, obs: Registry) -> None:
        """Publish the counters into ``obs`` as ``sharedcache.*``.

        Late binding replays the totals accumulated so far, so attaching
        a registry after warm-up loses no history.
        """
        self.obs = obs
        self._m = {name: obs.counter(f"sharedcache.{name}") for name in _STAT_NAMES}
        for name, counter in self._m.items():
            counter.set(getattr(self.stats, name))  # type: ignore[attr-defined]
        self._g_bytes = obs.gauge("sharedcache.bytes")
        self._g_bytes.set(self._bytes)

    def _count(self, name: str, amount: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        counter = self._m.get(name)
        if counter is not None:
            counter.inc(amount)  # type: ignore[attr-defined]

    def _sync_bytes(self) -> None:
        if self._g_bytes is not None:
            self._g_bytes.set(self._bytes)

    # ------------------------------------------------------------------
    # tenant budgets
    # ------------------------------------------------------------------
    def set_budget(self, tenant: str, nbytes: int) -> None:
        """Declare ``tenant``'s share of the cache (0 removes the budget).

        Budgets are soft partitions: a tenant may exceed its budget while
        the cache has slack, but its chunks become the preferred eviction
        victims the moment space is needed — weighted eviction rather
        than hard reservation, so idle budgets don't strand capacity.
        """
        if nbytes <= 0:
            self._budgets.pop(tenant, None)
        else:
            self._budgets[tenant] = nbytes
        self._enforce_budget(tenant)

    def tenant_usage(self, tenant: str) -> int:
        return self._usage.get(tenant, 0)

    def tenant_budget(self, tenant: str) -> Optional[int]:
        return self._budgets.get(tenant)

    def _over_budget(self, tenant: Optional[str]) -> bool:
        if tenant is None:
            return False
        budget = self._budgets.get(tenant)
        return budget is not None and self._usage.get(tenant, 0) > budget

    def _enforce_budget(self, tenant: str) -> None:
        budget = self._budgets.get(tenant)
        if budget is None:
            return
        while self._usage.get(tenant, 0) > budget:
            victim = next(
                (k for k in self._chunks if self._owner.get(k) == tenant), None
            )
            if victim is None:
                break
            self._evict_chunk(victim)
        self._sync_bytes()

    # ------------------------------------------------------------------
    # attachment API
    # ------------------------------------------------------------------
    def attach(
        self, volume, tenant: Optional[str] = None
    ) -> "SharedCacheAttachment":
        """Wire ``volume``'s backend read path through this cache.

        The attachment is first-class: the block store consults it on
        ``fetch``/``header_of`` (no method patching), inserts are tagged
        with ``tenant`` for budget accounting, and :meth:`detach`
        restores the direct path.
        """
        attachment = SharedCacheAttachment(self, volume, tenant)
        self._attachments.append(attachment)
        return attachment

    def attachments(self) -> List["SharedCacheAttachment"]:
        return [a for a in self._attachments if a.attached]

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def get(self, object_name: str, offset: int, length: int) -> Optional[bytes]:
        """Return ``length`` bytes at ``offset`` of the object, if fully
        cached; None on any gap."""
        pieces = []
        for chunk_off, lo, hi in self._chunk_ranges(offset, length):
            chunk = self._chunks.get((object_name, chunk_off))
            if chunk is None or len(chunk) < hi:
                self._count("misses")
                return None
            pieces.append(chunk[lo:hi])
        self._count("hits")
        self._touch(object_name, offset, length)
        return b"".join(pieces)

    def insert(
        self,
        object_name: str,
        offset: int,
        data: bytes,
        tenant: Optional[str] = None,
    ) -> None:
        """Cache object data; offset may be unaligned (clipped to chunks).

        Only whole chunks are stored, except a final partial chunk which
        is kept if it starts at its chunk boundary (objects have tails).
        Inserted chunks are charged to ``tenant``'s budget, if any.
        """
        end = offset + len(data)
        for chunk_off, lo, hi in self._chunk_ranges(offset, len(data)):
            if chunk_off < offset or (chunk_off + self.chunk_size > end and hi != self.chunk_size):
                # partial at the front, or a tail that is not the object's
                # natural end: skip rather than cache a hole-y chunk
                if chunk_off < offset:
                    continue
            key = (object_name, chunk_off)
            if key in self._chunks:
                continue
            chunk = data[chunk_off - offset : chunk_off - offset + self.chunk_size]
            self._chunks[key] = chunk
            self._bytes += len(chunk)
            self._object_chunks[object_name] = (
                self._object_chunks.get(object_name, 0) + 1
            )
            if tenant is not None:
                self._owner[key] = tenant
                self._usage[tenant] = self._usage.get(tenant, 0) + len(chunk)
            self._count("insertions")
        while self._bytes > self.capacity and self._chunks:
            self._evict_chunk(self._pick_victim())
        if tenant is not None:
            self._enforce_budget(tenant)
        self._sync_bytes()

    def _pick_victim(self) -> Tuple[str, int]:
        """Weighted eviction: the LRU chunk of an over-budget tenant, or
        the global LRU chunk when every owner is within budget."""
        for key in self._chunks:
            if self._over_budget(self._owner.get(key)):
                return key
        return next(iter(self._chunks))

    def _evict_chunk(self, key: Tuple[str, int]) -> None:
        evicted = self._chunks.pop(key)
        self._bytes -= len(evicted)
        owner = self._owner.pop(key, None)
        if owner is not None:
            remaining = self._usage.get(owner, 0) - len(evicted)
            if remaining > 0:
                self._usage[owner] = remaining
            else:
                self._usage.pop(owner, None)
        self._count("evictions")
        name = key[0]
        count = self._object_chunks.get(name, 0) - 1
        if count > 0:
            self._object_chunks[name] = count
        else:
            # last chunk gone: the shared header serves no reader that
            # this cache is feeding, drop it with the data
            self._object_chunks.pop(name, None)
            if self.headers.pop(name, None) is not None:
                self._count("header_evictions")

    # ------------------------------------------------------------------
    # shared decoded headers (bounded)
    # ------------------------------------------------------------------
    def header_get(self, object_name: str):
        header = self.headers.get(object_name)
        if header is not None:
            self.headers.move_to_end(object_name)
        return header

    def header_put(self, object_name: str, header) -> None:
        if object_name in self.headers:
            self.headers.move_to_end(object_name)
            return
        self.headers[object_name] = header
        while len(self.headers) > self.max_headers:
            self.headers.popitem(last=False)
            self._count("header_evictions")

    # ------------------------------------------------------------------
    def _chunk_ranges(self, offset: int, length: int):
        """Yield (chunk_offset, lo, hi) covering [offset, offset+length)."""
        pos = offset
        end = offset + length
        while pos < end:
            chunk_off = pos // self.chunk_size * self.chunk_size
            lo = pos - chunk_off
            hi = min(end - chunk_off, self.chunk_size)
            yield chunk_off, lo, hi
            pos = chunk_off + self.chunk_size

    def _touch(self, object_name: str, offset: int, length: int) -> None:
        for chunk_off, _lo, _hi in self._chunk_ranges(offset, length):
            key = (object_name, chunk_off)
            if key in self._chunks:
                self._chunks.move_to_end(key)

    def __len__(self) -> int:
        return len(self._chunks)


class SharedCacheAttachment:
    """One volume's hookup to a :class:`SharedObjectCache`.

    The block store calls :meth:`fetch` / :meth:`header_of` on its read
    path while attached; misses fall through to the store's direct path
    and populate the shared cache (tagged with this attachment's tenant)
    for every other attached volume.
    """

    def __init__(self, shared: SharedObjectCache, volume, tenant: Optional[str]):
        self.shared = shared
        self.volume = volume
        self.tenant = tenant
        self._bs = volume.bs
        self._bs.attach_shared(self)

    @property
    def attached(self) -> bool:
        return self._bs is not None

    def detach(self) -> None:
        """Restore the volume's direct backend read path."""
        if self._bs is not None:
            self._bs.detach_shared(self)
            self._bs = None

    # -- block-store read-path hooks ------------------------------------
    def fetch(self, bs, seq: int, offset: int, length: int) -> bytes:
        name = bs.name_for_seq(seq)
        cached = self.shared.get(name, offset, length)
        if cached is not None:
            return cached
        data = bs.fetch_direct(seq, offset, length)
        self.shared.insert(name, offset, data, tenant=self.tenant)
        return data

    def header_of(self, bs, seq: int):
        name = bs.name_for_seq(seq)
        header = self.shared.header_get(name)
        if header is None:
            header = bs.header_of_direct(seq)
            self.shared.header_put(name, header)
        else:
            bs.cache_header(seq, header)
        return header
