"""Shared-resource primitives for the simulation engine.

These model contention points in the storage stack: device queues and
channels (:class:`Resource`), producer/consumer hand-off between the write
path and the destage/GC daemons (:class:`Store`), and link or device
bandwidth (:class:`TokenBucket`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, Simulator, Timeout


class Resource:
    """A counted resource (e.g. device channels) with a FIFO wait queue.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        # busy-time accounting (for utilisation reports)
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0

    def request(self) -> Event:
        """Return an event that fires when a unit is granted."""
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return one unit; grants the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without matching request()")
        self.in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())
        elif self.in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None

    def _grant(self, ev: Event) -> None:
        if self.in_use == 0 and self._busy_since is None:
            self._busy_since = self.sim.now
        self.in_use += 1
        ev.succeed(self)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time at least one unit was held."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        span = elapsed if elapsed is not None else self.sim.now
        return busy / span if span > 0 else 0.0


class Store:
    """Unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks (capacity limits in the storage stack are modelled
    explicitly by the components, not by this primitive).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> list:
        """Take every queued item without blocking.

        The group-commit pattern: a consumer that woke up for one item
        absorbs everything else already queued, so one expensive action
        (a device FLUSH) settles the whole batch.  Returns the items in
        FIFO order; empty list when nothing is queued.
        """
        items = list(self._items)
        self._items.clear()
        return items

    def __len__(self) -> int:
        return len(self._items)


class TokenBucket:
    """A rate limiter modelling bandwidth (bytes/second).

    ``consume(nbytes)`` returns an event that fires when the transfer slot
    ends; back-to-back consumers serialise, so sustained throughput equals
    ``rate``.  This models a full-duplex link direction or a device's
    internal transfer engine.
    """

    def __init__(self, sim: Simulator, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate
        self._free_at = 0.0
        self.total_bytes = 0

    def reserve(self, nbytes: int) -> float:
        """Book the next transfer slot of ``nbytes``; return when it ends."""
        # a conditional, not max(): this runs for every device and link transfer
        now = self.sim.now
        start = now if now >= self._free_at else self._free_at
        self._free_at = start + nbytes / self.rate
        self.total_bytes += nbytes
        return self._free_at

    def consume(self, nbytes: int) -> Event:
        """:meth:`reserve`, as an event that fires when the slot ends."""
        sim = self.sim
        return Timeout(sim, self.reserve(nbytes) - sim.now)
