"""Common machinery for queued storage devices.

A device is a :class:`~repro.sim.resources.Resource` of ``channels``
service slots plus a per-operation service-time model supplied by the
subclass.  Completion events fire after (queue wait + service time +
pipeline latency); sustained throughput is ``channels / service_time``.

An operation in flight is a :class:`_DeviceOp` record advanced by event
callbacks — path grant, controller transfer, service time, completion —
not a generator process: backend device ops are most of the events of a
timed run, and a record costs four of them where a process cost seven.

Every device keeps :class:`DeviceStats` — the same counters the paper
collects from ``/proc/diskstats`` (ops, sectors, busy time) to compute
backend utilisation in §4.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.engine import Event, Simulator, Timeout
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
            bucket = 1 << (max(nbytes, 1).bit_length() - 1)
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
    """One operation in flight on a :class:`QueuedDevice`.

    ``submit`` queues it on its path; each callback below runs when the
    event the previous stage left behind fires, in the order a process
    body would have run them.  The path unit is released exactly once:
    when the service time has passed, or when pricing the op raised.
    """

    __slots__ = (
        "device", "kind", "offset", "nbytes", "done", "path",
        "service", "latency", "remaining", "started",
    )

    def __init__(self, device: "QueuedDevice", kind: str, offset: int, nbytes: int):
        self.device = device
        self.kind = kind
        self.offset = offset
        self.nbytes = nbytes
        self.done = Event(device.sim)
        self.path = device._path_for(kind)
        self.path.request().callbacks.append(self._granted)  # type: ignore[union-attr]

    def _granted(self, _grant: Event) -> None:
        device = self.device
        kind = self.kind
        nbytes = self.nbytes
        try:
            # latency first: it may depend on state service_time() advances
            self.latency = device._latency(kind, self.offset)
            self.service = service = device.service_time(kind, self.offset, nbytes)
            device.stats.record(kind, nbytes, service)
        except BaseException as exc:
            self.path.release()
            if device.sim.strict or not isinstance(exc, Exception):
                raise
            self.done.fail(exc)
            return
        self.started = device.sim.now
        # shared controller: mixed R/W cannot exceed its bandwidth
        self.remaining = (
            nbytes if device.controller is not None and kind != FLUSH else 0
        )
        self._transfer(_grant)

    def _transfer(self, _previous: Event) -> None:
        device = self.device
        remaining = self.remaining
        if remaining > 0:
            take = min(remaining, device.CONTROLLER_CHUNK)
            self.remaining = remaining - take
            chunk = device.controller.consume(take)  # type: ignore[union-attr]
            chunk.callbacks.append(self._transfer)  # type: ignore[union-attr]
            return
        elapsed = device.sim.now - self.started
        if elapsed < self.service:
            rest = Timeout(device.sim, self.service - elapsed)
            rest.callbacks.append(self._served)  # type: ignore[union-attr]
        else:
            # the controller transfer covered the service time (or both
            # are zero): nothing to wait for, no event
            self._served(_previous)

    def _served(self, _previous: Event) -> None:
        # release before scheduling the completion: the next waiter's
        # grant is queued, but its timeouts are only created when that
        # grant is dispatched — after this op's completion is on the heap
        self.path.release()
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
