"""Common machinery for queued storage devices.

A device is a :class:`~repro.sim.resources.Resource` of ``channels``
service slots plus a per-operation service-time model supplied by the
subclass.  Completion events fire after (queue wait + service time +
pipeline latency); sustained throughput is ``channels / service_time``.

An operation in flight is a :class:`_DeviceOp` record advanced by event
callbacks — path grant, service end, completion — not a generator
process: backend device ops are most of the events of a timed run, and a
record costs three of them where a process cost seven (DESIGN.md
"Simulation engine & device ops"; batches: :meth:`QueuedDevice.submit_many`).

Every device keeps :class:`DeviceStats` — the same counters the paper
collects from ``/proc/diskstats`` (ops, sectors, busy time) to compute
backend utilisation in §4.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.engine import AllOf, Event, Simulator
from repro.sim.resources import Resource, TokenBucket

READ = "read"
WRITE = "write"
#: journal/WAL append: group-committed sequential metadata write that
#: does not move an HDD's head (WALs live on flash or are batched)
LOGWRITE = "logwrite"
FLUSH = "flush"


@dataclass
class DeviceStats:
    """Operation and busy-time counters, /proc/diskstats style."""

    reads: int = 0
    writes: int = 0
    flushes: int = 0
    read_bytes: int = 0
    written_bytes: int = 0
    busy_time: float = 0.0
    #: histogram of write sizes: {bucket_lower_bound_bytes: total_bytes}
    write_size_bytes: Dict[int, int] = field(default_factory=dict)

    def record(self, kind: str, nbytes: int, service: float) -> None:
        if kind == READ:
            self.reads += 1
            self.read_bytes += nbytes
        elif kind in (WRITE, LOGWRITE):
            self.writes += 1
            self.written_bytes += nbytes
            # largest power of two <= nbytes (zero-byte writes land in 1)
            bucket = 1 << ((nbytes if nbytes > 1 else 1).bit_length() - 1)
            sizes = self.write_size_bytes
            sizes[bucket] = sizes.get(bucket, 0) + nbytes
        elif kind == FLUSH:
            self.flushes += 1
        self.busy_time += service

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.written_bytes

    def utilization(self, elapsed: float) -> float:
        """Fraction of wall-clock time the device was servicing requests."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class _DeviceOp:
    """``count`` identical operations in flight on a :class:`QueuedDevice`.

    ``submit`` queues the record on its path; each callback below runs
    when the event the previous stage left behind fires, in the order a
    process body would have run them.  Between ops the path unit passes
    to the record's next op — where ``release()`` would have handed it,
    the ops being queued back to back — and goes back to the path exactly
    once: when the last op's service time has passed, or its pricing raised.
    """

    __slots__ = (
        "device", "kind", "offset", "nbytes", "count", "done", "path",
        "service", "latency", "remaining", "started",
    )

    def __init__(
        self, device: "QueuedDevice", kind: str, offset: int, nbytes: int, count: int = 1
    ):
        self.device = device
        self.kind = kind
        self.offset = offset
        self.nbytes = nbytes
        self.count = count  # ops not yet served, this one included
        self.done = Event(device.sim)
        self.path = device._path_for(kind)
        self.path.request().callbacks.append(self._granted)

    def _granted(self, _grant: Optional[Event]) -> None:
        device = self.device
        kind = self.kind
        nbytes = self.nbytes
        try:
            # latency first: it may depend on state service_time() advances
            self.latency = device._latency(kind, self.offset)
            self.service = service = device.service_time(kind, self.offset, nbytes)
            device.stats.record(kind, nbytes, service)
        except BaseException as exc:
            # later ops still run, completing into an event nobody waits on
            done, self.done = self.done, Event(device.sim)
            self._pass_path(inline=False)
            if device.sim.strict or not isinstance(exc, Exception):
                raise
            done.fail(exc)
            return
        self.started = device.sim.now
        # shared controller: mixed R/W cannot exceed its bandwidth
        self.remaining = (
            nbytes if device.controller is not None and kind != FLUSH else 0
        )
        self._transfer(_grant)

    def _transfer(self, _previous: Optional[Event]) -> None:
        device = self.device
        sim = device.sim
        remaining = self.remaining
        chunk = device.CONTROLLER_CHUNK
        if remaining > chunk:
            self.remaining = remaining - chunk
            slot = device.controller.consume(chunk)  # type: ignore[union-attr]
            slot.callbacks.append(self._transfer)
            return
        # the last slot and the rest of the service time in one wake, at
        # the float a slot timeout, then a service timeout, would reach
        end = now = sim.now
        if remaining:
            end = now + (device.controller.reserve(remaining) - now)  # type: ignore[union-attr]
        elapsed = end - self.started
        if elapsed < self.service:
            end += self.service - elapsed
        elif not remaining:
            # no controller slot and the service time is over (or zero):
            # nothing to wait for, no event
            self._served(_previous)
            return
        sim.call_at(end, self._served)

    def _pass_path(self, inline: bool) -> bool:
        """Hand the unit to the record's next op — via the grant event
        ``release()`` would have queued — or back to the path."""
        if self.count > 1:
            self.count -= 1
            self.device.sim.call_next(self._granted, inline)
            return True
        self.path.release()
        return False

    def _served(self, _previous: Optional[Event]) -> None:
        # only the last op completes (no op completes after a later one);
        # release before scheduling it: the next waiter's grant is queued,
        # its timeouts made only when that grant is dispatched — after
        # this op's completion is on the heap
        if self._pass_path(inline=True):
            return
        if self.latency:
            self.done.succeed_after(self.latency)
        else:
            self.done.succeed()


class QueuedDevice:
    """Base class: FIFO service channels + a service-time model."""

    #: controller transfers are granted in chunks so one huge op cannot
    #: head-of-line block small ones (the device interleaves internally)
    CONTROLLER_CHUNK = 32 * 1024

    def __init__(
        self,
        sim: Simulator,
        name: str,
        channels: int = 1,
        pipeline_latency: float = 0.0,
    ):
        self.sim = sim
        self.name = name
        self.channels = Resource(sim, capacity=channels)
        self.pipeline_latency = pipeline_latency
        #: bandwidth every op's bytes also pass through (None: no such cap)
        self.controller: Optional[TokenBucket] = None
        self.stats = DeviceStats()

    # -- subclass hooks -----------------------------------------------------
    def service_time(self, kind: str, offset: int, nbytes: int) -> float:
        raise NotImplementedError

    def _path_for(self, kind: str) -> Resource:
        """The service slots an op of ``kind`` queues on."""
        return self.channels

    def _latency(self, kind: str, offset: int) -> float:
        """Completion latency after service; asked before ``service_time``."""
        return self.pipeline_latency

    # -- public API -----------------------------------------------------
    def submit(self, kind: str, offset: int = 0, nbytes: int = 0) -> Event:
        """Issue an operation; the returned event fires on completion."""
        return _DeviceOp(self, kind, offset, nbytes).done

    def submit_many(self, kind: str, offset: int, nbytes: int, count: int) -> Event:
        """Issue ``count`` identical ops back to back; the event fires (or
        fails) where a flat ``AllOf`` over ``count`` submits would decide.

        A one-unit path gets one record (a wider one would serve the ops
        side by side: ``count`` submits).  Its one completion stands for
        all: with ``nbytes > 0`` no op completes after a later one on any
        device here, a repeated offset never being sequential."""
        if count < 1 or nbytes <= 0:
            raise ValueError(f"submit_many: count {count}, nbytes {nbytes}")
        if self._path_for(kind).capacity > 1:
            return AllOf(self.sim, [self.submit(kind, offset, nbytes) for _ in range(count)])
        return _DeviceOp(self, kind, offset, nbytes, count).done

    def read(self, offset: int, nbytes: int) -> Event:
        return self.submit(READ, offset, nbytes)

    def write(self, offset: int, nbytes: int) -> Event:
        return self.submit(WRITE, offset, nbytes)

    def flush(self) -> Event:
        return self.submit(FLUSH)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        return self.stats.utilization(
            elapsed if elapsed is not None else self.sim.now
        )
