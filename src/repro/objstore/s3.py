"""Pure, in-memory S3-like object stores.

These implement the minimal S3 semantics LSVD depends on: PUTs are atomic
and objects immutable-by-convention; LIST returns lexicographically sorted
names; ranged GETs are cheap.  The :class:`UnsettledObjectStore` wrapper
adds the failure behaviour of real object stores that §3.3 is written
against: concurrent PUTs complete out of order, and a client crash loses
any PUT that has not completed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List


class NoSuchKeyError(KeyError):
    """GET/DELETE of a missing object (S3 NoSuchKey)."""


@dataclass
class ObjectStoreStats:
    """Operation counters, used for backend-load accounting."""

    puts: int = 0
    gets: int = 0
    range_gets: int = 0
    deletes: int = 0
    lists: int = 0
    bytes_put: int = 0
    bytes_got: int = 0

    def add(self, other: "ObjectStoreStats") -> None:
        """Accumulate ``other`` into this instance (per-shard merging)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @classmethod
    def merged(cls, parts: Iterable["ObjectStoreStats"]) -> "ObjectStoreStats":
        total = cls()
        for part in parts:
            total.add(part)
        return total

    def publish(self, obs, prefix: str = "objstore") -> None:
        """Mirror the counters into a :class:`repro.obs.Registry`.

        Called at reporting time (``repro stats``) so per-store counters
        land in the same snapshot as the stack's own metrics.
        """
        for f in fields(self):
            obs.counter(f"{prefix}.{f.name}").set(getattr(self, f.name))


class ObjectStore:
    """Abstract S3-ish interface (see module docstring)."""

    def put(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def get(self, name: str) -> bytes:
        raise NotImplementedError

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[str]:
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def size(self, name: str) -> int:
        raise NotImplementedError


class InMemoryObjectStore(ObjectStore):
    """Immediate in-memory store: every operation completes synchronously."""

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self.stats = ObjectStoreStats()

    def put(self, name: str, data: bytes) -> None:
        self._objects[name] = bytes(data)
        self.stats.puts += 1
        self.stats.bytes_put += len(data)

    def get(self, name: str) -> bytes:
        try:
            data = self._objects[name]
        except KeyError:
            raise NoSuchKeyError(name) from None
        self.stats.gets += 1
        self.stats.bytes_got += len(data)
        return data

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        try:
            data = self._objects[name]
        except KeyError:
            raise NoSuchKeyError(name) from None
        if offset < 0 or length < 0:
            raise ValueError("negative range")
        piece = data[offset : offset + length]
        self.stats.range_gets += 1
        self.stats.bytes_got += len(piece)
        return piece

    def delete(self, name: str) -> None:
        if name not in self._objects:
            raise NoSuchKeyError(name)
        del self._objects[name]
        self.stats.deletes += 1

    def list(self, prefix: str = "") -> List[str]:
        self.stats.lists += 1
        return sorted(n for n in self._objects if n.startswith(prefix))

    def exists(self, name: str) -> bool:
        return name in self._objects

    def size(self, name: str) -> int:
        try:
            return len(self._objects[name])
        except KeyError:
            raise NoSuchKeyError(name) from None

    def total_bytes(self, prefix: str = "") -> int:
        return sum(len(d) for n, d in self._objects.items() if n.startswith(prefix))


@dataclass
class _PendingPut:
    name: str
    data: bytes


class UnsettledObjectStore(ObjectStore):
    """Holds PUTs in flight until :meth:`settle`; crash drops the rest.

    Models multiple overlapped PUTs completing out of order over the
    network: object N+1 can become visible while object N is still in
    flight, producing exactly the "stranded write" streams (e.g. objects
    99, 100, 102 present but 101 lost) that LSVD's prefix-rule recovery
    must clean up (§3.3).
    """

    def __init__(self, inner: ObjectStore, obs=None):
        self.inner = inner
        #: optional repro.obs Registry; crash() records a trace event in it
        self.obs = obs
        # Share the inner store's counters so wrapping is transparent to
        # accounting: ``repro stats`` sees PUT/GET traffic whether or
        # not the store was wrapped for fault injection.
        self.stats = getattr(inner, "stats", None) or ObjectStoreStats()
        self._pending: Dict[int, _PendingPut] = {}
        self._next_handle = 0

    # -- in-flight control ------------------------------------------------
    def put(self, name: str, data: bytes) -> int:
        """Start a PUT; returns a handle. NOT visible until settled."""
        handle = self._next_handle
        self._next_handle += 1
        self._pending[handle] = _PendingPut(name, bytes(data))
        return handle

    def settle(self, handle: int) -> None:
        """Complete one in-flight PUT (any order)."""
        put = self._pending.pop(handle)
        self.inner.put(put.name, put.data)

    def settle_all(self) -> None:
        for handle in sorted(self._pending):
            self.settle(handle)

    def crash(self) -> List[str]:
        """Client crash: in-flight PUTs vanish; returns their names."""
        lost = [p.name for p in self._pending.values()]
        self._pending.clear()
        if self.obs is not None:
            self.obs.trace.emit("crash", lost_puts=len(lost))
        return lost

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def pending_handles(self) -> List[int]:
        """Handles of every in-flight PUT, oldest first."""
        return sorted(self._pending)

    # -- reads pass through (only settled objects are visible) ------------
    def get(self, name: str) -> bytes:
        return self.inner.get(name)

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        return self.inner.get_range(name, offset, length)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def list(self, prefix: str = "") -> List[str]:
        return self.inner.list(prefix)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def size(self, name: str) -> int:
        return self.inner.size(name)
