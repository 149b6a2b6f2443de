"""The timed LSVD stack (Figure 1 under the simulator).

Write path: client CPU -> (back-pressure if the cache log is full) ->
sequential log write on the cache SSD -> acknowledge.  A background
destage pipeline reads batched data back off the SSD (the prototype
passes data through the SSD between kernel and user space, §3.7/§4.7),
PUTs 8-32 MiB objects through the erasure-coded backend, and frees cache
space when each PUT settles.

The data plane is an event-driven multi-queue pipeline of ``__slots__``
records, not generator processes: each record hangs its next step on the
event its last step left behind (CPU grant, timeout, device op, queue
get), in the order a process body would have run them (DESIGN.md "Data
plane pipeline"):

* **client ops** — one :class:`_ClientOp` per I/O: QoS admission, CPU,
  cache-log append or read, acknowledge.
* **group commit** — concurrent commit barriers are queued to a single
  :class:`_Committer` that coalesces everything waiting into one batch,
  issues one device FLUSH, and only then settles every barrier in the
  group (the LSVD014 invariant).  Writers are never gated behind a barrier.
* **per-shard destage queues** — destage work is routed to the queue of
  the shard its object key lands on, each queue drained by its own
  :class:`_Destager` records, so one shard's slow PUT cannot
  head-of-line-block another's (``destage.<i>.queue_depth`` gauges
  expose the skew).
* **overlapped recovery** — :meth:`recovery_scan` fans the per-shard
  LISTs and the header GETs out concurrently (latency ~= the slowest
  shard, not the sum).

Batching, garbage-collection triggering, and relocation volumes come from
an embedded page-map simulator (:class:`~repro.gcsim.GCSimulator`), so
backend object counts, GC reads/writes, and occupancy timelines (Figure
15) all emerge from the same algorithm the pure-logic core implements.

Read path: write-cache/read-cache hits are SSD reads; misses pay the S3
range-GET latency and insert the fetched+prefetched data into the read
cache (an SSD write — the §4.7 pass-through overhead).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.config import LSVDConfig
from repro.core.log import align_up
from repro.core.placement import TEMP_NAMES, make_policy
from repro.gcsim.simulator import PAGE, GCSimulator
from repro.obs import Registry, bind_metrics, gauge_field, metric_field
from repro.runtime.backend import SimulatedObjectStore
from repro.runtime.machine import ClientMachine
from repro.runtime.params import LSVDParams
from repro.sim.engine import AllOf, Event, Simulator, Timeout
from repro.sim.resources import Store
from repro.workloads.base import FLUSH, READ, WRITE, IOOp

#: bucket edges for the barrier group-size histogram (barriers per FLUSH)
_GROUP_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


class _Stages(list):
    """Stage spans opened together, one per barrier of a group."""

    def end(self) -> None:
        for stage in self:
            stage.end()


class _Steps:
    """Base of the data-plane records: each step hangs the next on the
    event it leaves behind.  A record starts from the boot event a process
    had (``call_next(..., inline=False)``: inline, it could run ahead of
    callbacks still due on its caller's event) and never reads an event's
    outcome — nothing it waits on fails unless a device's pricing raises,
    which a strict simulator surfaces.  Continuations are functions, not
    bound methods: a stored bound method would make the record a cycle."""

    __slots__ = ("rt", "stage", "_then", "_cpu_s")
    rt: "LSVDRuntime"

    def _wait(self, stage, event: Event, then) -> None:
        """Once ``event`` has fired: end ``stage``, call ``then(self)``."""
        self.stage, self._then = stage, then
        event.callbacks.append(self._waited)

    def _waited(self, _event: Optional[Event]) -> None:
        self.stage.end()
        self._then(self)

    def _cpu(self, stage, seconds: float, then) -> None:
        """``ClientMachine.cpu_work`` as callbacks; then as :meth:`_wait`."""
        self.stage, self._then, self._cpu_s = stage, then, seconds
        self.rt.machine.cpu.request().callbacks.append(self._cpu_granted)

    def _cpu_granted(self, _grant: Event) -> None:
        Timeout(self.rt.sim, self._cpu_s).callbacks.append(self._cpu_served)

    def _cpu_served(self, _slice: Event) -> None:
        self.rt.machine.cpu.release()
        self.stage.end()
        self._then(self)


class _ClientOp(_Steps):
    """One client write or read: QoS admission, CPU, then the cache-log
    append, or the read-cache read — or, on a miss, a range GET and a
    read-cache insert (the pass-through SSD of §4.7)."""

    __slots__ = ("op", "done", "span", "footprint")

    def __init__(self, rt: "LSVDRuntime", op: IOOp, done: Event, span):
        self.rt, self.op, self.done, self.span = rt, op, done, span
        rt.sim.call_next(self._admit, inline=False)

    def _admit(self, _boot: Event) -> None:
        """Serve the tenant's token-bucket delay before the I/O touches
        any shared resource (CPU, SSD, backend)."""
        qos = self.rt.qos
        delay = 0.0 if qos is None else qos.admit(self.rt.sim.now, self.op.length)
        if delay <= 0:
            self._start()
        else:
            qos.wait_started()
            self._wait(self.span.begin("throttle_wait", kind="queue"),
                       Timeout(self.rt.sim, delay), _ClientOp._admitted)

    def _admitted(self) -> None:
        self.rt.qos.wait_finished()
        self._start()

    def _start(self) -> None:
        rt, span = self.rt, self.span
        if self.op.kind == WRITE:
            rt._inflight.add(self.done)
            self._cpu(span.begin("write_cpu"), rt.params.write_cpu, _ClientOp._reserve)
            return
        hit = rt._chance() < rt.read_hit_rate
        span.annotate(hit=hit)
        if hit:
            self._cpu(span.begin("read_cpu"), rt.params.read_hit_cpu, _ClientOp._lookup)
        else:
            self._cpu(span.begin("read_cpu"), rt.params.read_miss_cpu, _ClientOp._fetch)

    def _reserve(self) -> None:
        rt = self.rt
        self.footprint = align_up(self.op.length) + rt.params.log_header_bytes
        if rt.dirty_bytes + self.footprint <= rt.write_cache_capacity:
            self._append()
        else:
            # cache log full: stall until destage frees room
            rt.destage_space_stalls += 1
            self.stage = self.span.begin("space_wait", kind="queue")
            self._stall(None)

    def _stall(self, _freed: Optional[Event]) -> None:
        rt = self.rt
        if rt.dirty_bytes + self.footprint > rt.write_cache_capacity:
            waiter = Event(rt.sim)
            rt._space_waiters.append(waiter)
            waiter.callbacks.append(self._stall)
        else:
            self.stage.end()
            self._append()

    def _append(self) -> None:
        rt, footprint = self.rt, self.footprint
        rt.dirty_bytes += footprint
        self._wait(self.span.begin("wc_append", bytes=footprint),
                   rt.machine.ssd.write(rt._log_head, footprint), _ClientOp._appended)

    def _appended(self) -> None:
        rt, op = self.rt, self.op
        rt._log_head += self.footprint
        rt._last_write_at = rt.sim.now
        rt.client_writes += 1
        rt.client_bytes_written += op.length
        self.done.succeed()
        self.span.end()
        # feed the batcher (synchronous map/batch state; PUTs are queued
        # to the destagers via the on_object hook); the accumulated
        # footprint is released exactly when the covering object's PUT
        # settles
        rt._batch_log_bytes += self.footprint
        rt.pagemap.write(op.offset, op.length)
        rt._inflight.discard(self.done)

    def _lookup(self) -> None:
        rt, op = self.rt, self.op
        self._wait(self.span.begin("rc_lookup", bytes=op.length),
                   rt.machine.ssd.read(rt._scatter(op.offset), op.length), _ClientOp._served)

    def _fetch(self) -> None:
        rt = self.rt
        fetch = max(self.op.length, rt.config.prefetch_bytes)
        self._wait(self.span.begin("backend_fetch", bytes=fetch),
                   rt.backend.get_range(f"{rt.name}.{rt._seq:08d}", 0, fetch), _ClientOp._insert)

    def _insert(self) -> None:
        rt = self.rt
        fetch = max(self.op.length, rt.config.prefetch_bytes)
        self._wait(self.span.begin("rc_insert", bytes=fetch),
                   rt.machine.ssd.write(rt._rc_slot(fetch), fetch), _ClientOp._served)

    def _served(self) -> None:
        self.rt.client_reads += 1
        self.rt.client_bytes_read += self.op.length
        self.done.succeed()
        self.span.end()


class _Committer(_Steps):
    """The group-commit worker: one device FLUSH settles every queued
    barrier.  Safety (LSVD014): every barrier in the group is settled
    strictly after the covering FLUSH completes.  Late joiners that arrive
    while the group is quiescing are folded in — their covered writes
    finished the SSD log write before the FLUSH issues, so it covers them.
    """

    __slots__ = ("group",)

    def __init__(self, rt: "LSVDRuntime"):
        self.rt = rt
        rt.sim.call_next(self._next, inline=False)

    def _next(self, _event: Optional[Event] = None) -> None:
        self.rt._barrier_q.get().callbacks.append(self._take)

    def _stages(self, name: str, **attrs) -> _Stages:
        return _Stages([span.begin(name, **attrs) for _done, span, _q in self.group])

    def _join(self, members: list) -> None:
        """Fold ``members`` and every queued barrier into the group; a
        member's queue wait ends here."""
        members.extend(self.rt._barrier_q.drain())
        for _done, _span, qwait in members:
            qwait.end()
        self.group.extend(members)

    def _take(self, first: Event) -> None:
        self.group: list = []
        self._join([first._value])
        # one CPU charge per group — the commit-path amortisation
        self._cpu(self._stages("barrier_cpu"), self.rt.params.barrier_cpu, _Committer._quiesce)

    def _quiesce(self) -> None:
        # writes admitted before this FLUSH issues must reach the cache
        # SSD first (drain-then-flush; new writes are never gated)
        pending = [ev for ev in self.rt._inflight if not ev.triggered]
        stages = self._stages("barrier_quiesce", kind="queue")
        if pending:
            self._wait(stages, AllOf(self.rt.sim, pending), _Committer._flush)
        else:
            stages.end()
            self._flush()

    def _flush(self) -> None:
        self._join([])
        # a flushed log must not strand a half-built object: seal the
        # partial batch through the page map's public API so destage
        # starts catching the backend up (satellite of §3.2)
        self.rt.pagemap.flush_batch()
        self.stage = self._stages("device_flush")
        self.rt.machine.ssd.flush().callbacks.append(self._settle_barriers)

    def _settle_barriers(self, _flush: Event) -> None:
        rt, group = self.rt, self.group
        self.stage.end()
        rt.barrier_flushes += 1
        rt._group_size_h.observe(len(group))
        rt.obs.trace.emit("barrier_group", size=len(group))
        for done, span, _qwait in group:
            done.succeed()
            span.end(group=len(group))
        self._next()


class _Destager(_Steps):
    """One destage worker of a shard's queue: PUT, GC read or DELETE."""

    __slots__ = ("queue", "index", "item", "root")

    def __init__(self, rt: "LSVDRuntime", queue: Store, index: int):
        self.rt, self.queue, self.index = rt, queue, index
        rt.sim.call_next(self._next, inline=False)

    def _next(self, _event: Optional[Event] = None) -> None:
        self.queue.get().callbacks.append(self._take)

    def _take(self, event: Event) -> None:
        rt = self.rt
        self.item = kind, key, seq, nbytes, _log, _temp, self.root, qwait = event._value
        rt.destage_queue_depth -= 1
        rt._queue_gauges[self.index].set(len(self.queue))
        qwait.end()
        if kind == "put":
            # the userspace daemon reads outgoing data from the cache SSD
            # (§3.7), then PUTs the object (relocated data arrived through
            # its "gcread" instead); seq only picks a distinct simulated
            # SSD address here — no real log offsets exist in the timed model
            address = rt._log_head + seq  # lint: disable=LSVD002
            self._wait(self.root.begin("destage_read", bytes=nbytes),
                       rt.machine.ssd.read(address, nbytes), _Destager._put_cpu)
        elif kind == "gcput":
            self._put_cpu()
        elif kind == "gcread":
            cached = int(nbytes * rt.params.gc_cache_hit)
            if cached:
                self._wait(self.root.begin("gc_cache_read", bytes=cached),
                           rt.machine.ssd.read(rt._rc_slot(cached), cached), _Destager._fetch)
            else:
                self._fetch()
        else:
            self._wait(self.root.begin("shard_delete", shard=self.index),
                       rt.backend.delete(key), _Destager._done)

    def _put_cpu(self) -> None:
        self._cpu(self.root.begin("destage_cpu"), self.rt.params.destage_user_cpu, _Destager._put)

    def _put(self) -> None:
        _kind, key, _seq, nbytes, _log, _temp, _root, _q = self.item
        self.stage = self.root.begin("shard_put", shard=self.index, bytes=nbytes)
        self.rt.backend.put(key, nbytes).callbacks.append(self._put_done)

    def _put_done(self, _put: Event) -> None:
        rt = self.rt
        kind, _key, _seq, nbytes, log_bytes, temp, _root, _q = self.item
        self.stage.end()
        rt.backend_bytes_put += nbytes
        rt._class_puts[temp].inc()
        rt._class_bytes_put[temp].inc(nbytes)
        if kind == "put":
            rt.objects_put += 1
            rt._release_space(log_bytes)
        else:
            rt.gc_objects_put += 1
        self._done()

    def _fetch(self) -> None:
        _kind, key, _seq, nbytes, _log, _temp, _root, _q = self.item
        remote = nbytes - int(nbytes * self.rt.params.gc_cache_hit)
        if remote:
            self._wait(self.root.begin("backend_fetch", bytes=remote),
                       self.rt.backend.get_range(key, 0, remote), _Destager._done)
        else:
            self._done()

    def _done(self) -> None:
        self.root.end()
        self._next()


class LSVDRuntime:
    """A simulated LSVD virtual disk."""

    # statistics (registry-backed; see repro.obs)
    dirty_bytes = gauge_field("lsvd.dirty_bytes")
    client_writes = metric_field("lsvd.client_writes")
    client_reads = metric_field("lsvd.client_reads")
    client_bytes_written = metric_field("lsvd.client_bytes_written")
    client_bytes_read = metric_field("lsvd.client_bytes_read")
    objects_put = metric_field("lsvd.objects_put")
    gc_objects_put = metric_field("lsvd.gc_objects_put")
    backend_bytes_put = metric_field("lsvd.backend_bytes_put")
    recovery_scans = metric_field("lsvd.recovery_scans")
    # pipeline instrumentation
    barrier_requests = metric_field("barrier.requests")
    barrier_flushes = metric_field("barrier.flushes")
    destage_queue_depth = gauge_field("destage.queue_depth")
    destage_space_stalls = metric_field("destage.space_stalls")

    def __init__(
        self,
        sim: Simulator,
        machine: ClientMachine,
        backend: SimulatedObjectStore,
        volume_size: int,
        cache_size: int,
        config: Optional[LSVDConfig] = None,
        params: Optional[LSVDParams] = None,
        name: str = "vd",
        read_hit_rate: float = 1.0,
        gc_enabled: bool = True,
        obs: Optional[Registry] = None,
        tenant: Optional[str] = None,
        qos=None,
    ):
        self.sim = sim
        self.machine = machine
        self.backend = backend
        self.config = config or LSVDConfig()
        self.params = params or LSVDParams()
        self.name = name
        self.volume_size = volume_size
        self.read_hit_rate = read_hit_rate
        #: multi-tenant hookup (repro.fleet): tenant tag lands on every
        #: root span; qos is a TenantThrottle whose admit() delay is
        #: served on the simulated clock before the I/O enters the
        #: pipeline
        self.tenant = tenant
        self.qos = qos
        self._tags = {} if tenant is None else {"tenant": tenant}
        #: share the backend facade's registry so lsvd.* and backend.*
        #: metrics of one stack land in one snapshot (``is None``, not
        #: ``or``: an empty Registry is falsy)
        if obs is None:
            obs = getattr(backend, "obs", None)
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)
        # span trees read the simulated clock (same contract as the trace)
        self.obs.spans.clock = lambda: self.sim.now

        self.write_cache_capacity = int(
            cache_size * self.config.write_cache_fraction
        )
        self._batch_log_bytes = 0  # log footprint of the accumulating batch
        self._space_waiters: Deque[Event] = deque()
        self._log_head = 0  # for sequential SSD writes
        self._rc_head = 0

        gc_low = self.config.gc_low_watermark if gc_enabled else 1e-9
        gc_high = self.config.gc_high_watermark if gc_enabled else 2e-9
        # the page map shares the full stack's placement implementation:
        # the same classifier object type, victim ordering, and relocation
        # planner (core.placement) drive this timed model; the runtime
        # listens for the object/GC I/O the algorithm implies
        self.pagemap = GCSimulator(
            volume_size=volume_size,
            batch_size=self.config.batch_size,
            gc_low=gc_low,
            gc_high=gc_high,
            policy=make_policy(self.config),
            gc_policy=self.config.gc_policy,
            listener=self,
        )
        self._class_puts = [
            self.obs.counter(f"lsvd.class_{cls}.objects_put") for cls in TEMP_NAMES
        ]
        self._class_bytes_put = [
            self.obs.counter(f"lsvd.class_{cls}.bytes_put") for cls in TEMP_NAMES
        ]
        # one destage queue per backend shard (a plain backend is the
        # single-queue special case); routing delegates to the backend's
        # shard router so placement stays owned by repro.shard
        n_queues = int(getattr(backend, "n_shards", 1))
        self._destage_qs: List[Store] = [Store(sim) for _ in range(n_queues)]
        self._queue_gauges = [
            self.obs.gauge(f"destage.{i}.queue_depth") for i in range(n_queues)
        ]
        workers = max(self.params.destage_workers, n_queues)
        for index in range(workers):
            queue = index - (index // n_queues) * n_queues  # round-robin spread
            _Destager(self, self._destage_qs[queue], queue)
        sim.process(self._idle_flusher(), name=f"{name}-flusher")
        self._last_write_at = 0.0

        # group commit: barriers queue to one commit worker; the inflight
        # set is what a FLUSH must quiesce (writes admitted before it)
        self._inflight: set = set()
        self._barrier_q: Store = Store(sim)
        self._group_size_h = self.obs.histogram(
            "barrier.group_size", buckets=_GROUP_SIZE_BUCKETS
        )
        _Committer(self)

        self._seq = 0
        self._rng_state = 12345

    # ------------------------------------------------------------------
    # block device interface
    # ------------------------------------------------------------------
    def submit(self, op: IOOp) -> Event:
        done = Event(self.sim)
        kind = op.kind
        if kind == WRITE or kind == READ:
            _ClientOp(self, op, done, self.obs.spans.root(kind, bytes=op.length, **self._tags))
        elif kind == FLUSH:
            self.barrier_requests += 1
            span = self.obs.spans.root("barrier", **self._tags)
            qwait = span.begin("barrier_queue", kind="queue")
            self._barrier_q.put((done, span, qwait))
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        return done

    # ------------------------------------------------------------------
    # destage / GC plumbing
    # ------------------------------------------------------------------
    def on_object(self, nbytes: int, gc: bool, temp: int) -> None:
        """Page-map listener: an object of ``nbytes`` was sealed in class
        ``temp``; the class tag rides the destage queue item."""
        self._seq += 1  # lint: disable=LSVD002 -- timed model's own object counter
        key = f"{self.name}.{self._seq:08d}"
        if gc:
            self._enqueue_destage(key, ("gcput", key, self._seq, nbytes, 0, temp))
        else:
            log_bytes, self._batch_log_bytes = self._batch_log_bytes, 0
            self._enqueue_destage(
                key, ("put", key, self._seq, nbytes, log_bytes, temp)
            )

    def on_gc_read(self, nbytes: int) -> None:
        if nbytes > 0:
            key = f"{self.name}.{self._seq:08d}"
            self._enqueue_destage(key, ("gcread", key, self._seq, nbytes, 0, 0))

    def on_gc_delete(self, count: int) -> None:
        key = f"{self.name}.{self._seq:08d}"
        for _ in range(count):
            self._enqueue_destage(key, ("delete", key, self._seq, 0, 0, 0))

    def _shard_index(self, key: str) -> int:
        """Destage queue for ``key`` — the shard its PUT will land on.

        Placement itself stays owned by the backend's ShardRouter; a
        plain single-endpoint backend maps everything to queue 0.
        """
        shard_of = getattr(self.backend, "shard_of", None)
        if shard_of is None:
            return 0
        return shard_of(key)

    def _enqueue_destage(self, key: str, item: Tuple) -> None:
        index = self._shard_index(key)
        root = self.obs.spans.root("destage", op=item[0], shard=index)
        qwait = root.begin("destage_queue", kind="queue")
        self._destage_qs[index].put(item + (root, qwait))
        self.destage_queue_depth += 1
        self._queue_gauges[index].set(len(self._destage_qs[index]))

    def _idle_flusher(self):
        """Flush partial batches after a quiet period (batch_timeout).

        A daemon: its wake-ups are background events, so an unbounded
        ``sim.run()`` ends when the client work drains.
        """
        while True:
            yield self.sim.timeout(self.config.batch_timeout, background=True)
            quiet = self.sim.now - self._last_write_at
            if quiet >= self.config.batch_timeout:
                self.pagemap.flush_batch()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recovery_scan(self, max_headers: int = 16) -> Event:
        """Timed mount sweep (§3.3): LIST the volume's objects, then read
        the newest ``max_headers`` object headers to rebuild the map tail.

        Both fans — the per-shard LISTs and the header GETs — are issued
        concurrently, so the sweep costs ~one round trip of the slowest
        shard instead of the sum of all of them.
        The event's value reports ``{"objects", "headers", "duration"}``.
        """
        done = self.sim.event()
        self.sim.process(
            self._recovery_scan(done, max_headers), name=f"{self.name}-mount"
        )
        return done

    def _recovery_scan(self, done: Event, max_headers: int):
        started = self.sim.now
        self.recovery_scans += 1
        span = self.obs.spans.root("recovery_scan")
        stage = span.begin("recovery_list")
        names = yield self.backend.list_keys(f"{self.name}.")
        stage.end(objects=len(names))
        recent = names[-max_headers:] if max_headers > 0 else []
        header = self.params.log_header_bytes
        stage = span.begin("recovery_headers", headers=len(recent))
        if recent:
            yield self.sim.all_of(
                [self.backend.get_range(n, 0, header) for n in recent]
            )
        stage.end()
        span.end()
        duration = self.sim.now - started
        self.obs.trace.emit(
            "recovery_scan",
            objects=len(names),
            headers=len(recent),
            duration=duration,
        )
        done.succeed(
            {"objects": len(names), "headers": len(recent), "duration": duration}
        )

    # ------------------------------------------------------------------
    # cache-space accounting
    # ------------------------------------------------------------------
    def _release_space(self, nbytes: int) -> None:
        self.dirty_bytes = max(0, self.dirty_bytes - nbytes)
        while self._space_waiters:
            self._space_waiters.popleft().succeed()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _chance(self) -> float:
        # deterministic cheap LCG (Date/random-free for reproducibility)
        self._rng_state = (self._rng_state * 1103515245 + 12345) % (1 << 31)
        return self._rng_state / (1 << 31)

    def _scatter(self, offset: int) -> int:
        """Map a volume offset to a pseudo-random cache SSD offset."""
        return (offset * 2654435761) % (1 << 38)

    def _rc_slot(self, nbytes: int) -> int:
        slot = self._rc_head
        self._rc_head += align_up(nbytes)
        return (1 << 39) + slot

    # ------------------------------------------------------------------
    def occupancy(self) -> Tuple[int, int]:
        """(live bytes, total backend data bytes) — Figure 15's curves."""
        live, total = self.pagemap.occupancy()
        return live * PAGE, total * PAGE

    @property
    def write_amplification(self) -> float:
        if self.client_bytes_written == 0:
            return 0.0
        return self.backend_bytes_put / self.client_bytes_written
