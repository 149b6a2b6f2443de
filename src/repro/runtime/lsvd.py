"""The timed LSVD stack (Figure 1 under the simulator).

Write path: client CPU -> (back-pressure if the cache log is full) ->
sequential log write on the cache SSD -> acknowledge.  A background
destage pipeline reads batched data back off the SSD (the prototype
passes data through the SSD between kernel and user space, §3.7/§4.7),
PUTs 8-32 MiB objects through the erasure-coded backend, and frees cache
space when each PUT settles.

The data plane is an event-driven multi-queue pipeline:

* **group commit** — concurrent commit barriers are queued to a single
  commit worker that coalesces everything waiting into one batch, issues
  one device FLUSH, and only then settles every barrier in the group
  (the LSVD014 invariant).  Writers are never gated behind a barrier.
* **per-shard destage queues** — destage work is routed to the queue of
  the shard its object key lands on, each queue drained by its own
  workers, so one shard's slow PUT cannot head-of-line-block another's
  (``destage.<i>.queue_depth`` gauges expose the skew).
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
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Store
from repro.workloads.base import FLUSH, READ, WRITE, IOOp

#: bucket edges for the barrier group-size histogram (barriers per FLUSH)
_GROUP_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


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
        #: share the backend facade's registry so lsvd.* and backend.*
        #: metrics of one stack land in one snapshot
        # explicit None checks: a freshly created Registry is empty and
        # therefore falsy, and `or` would silently discard it — binding
        # this stack's lsvd.* metrics (including the dirty_bytes gauge
        # that space accounting reads) to the shared backend registry
        if obs is None:
            obs = getattr(backend, "obs", None)
        self.obs = obs if obs is not None else Registry()
        bind_metrics(self)
        # the per-op metrics, bound once (a descriptor += costs ~1 us)
        self._dirty = LSVDRuntime.dirty_bytes.metric(self)
        self._writes = LSVDRuntime.client_writes.metric(self)
        self._reads = LSVDRuntime.client_reads.metric(self)
        self._bytes_written = LSVDRuntime.client_bytes_written.metric(self)
        self._bytes_read = LSVDRuntime.client_bytes_read.metric(self)
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
        # shard router so placement stays owned by repro.shard (LSVD008)
        n_queues = int(getattr(backend, "n_shards", 1))
        self._destage_qs: List[Store] = [Store(sim) for _ in range(n_queues)]
        self._queue_gauges = [
            self.obs.gauge(f"destage.{i}.queue_depth") for i in range(n_queues)
        ]
        workers = max(self.params.destage_workers, n_queues)
        for index in range(workers):
            queue = index - (index // n_queues) * n_queues  # round-robin spread
            sim.process(
                self._destage_worker(self._destage_qs[queue], queue),
                name=f"{name}-destage{queue}",
            )
        sim.process(self._idle_flusher(), name=f"{name}-flusher")
        self._last_write_at = 0.0

        # group commit: barriers queue to one commit worker; the inflight
        # set is what a FLUSH must quiesce (writes admitted before it)
        self._inflight: set = set()
        self._barrier_q: Store = Store(sim)
        self._group_size_h = self.obs.histogram(
            "barrier.group_size", buckets=_GROUP_SIZE_BUCKETS
        )
        sim.process(self._group_commit_worker(), name=f"{name}-commit")

        self._seq = 0
        self._rng_state = 12345
        # per-op process names, built once rather than per submit
        self._write_name = f"{name}-w"
        self._read_name = f"{name}-r"

    # ------------------------------------------------------------------
    # block device interface
    # ------------------------------------------------------------------
    def submit(self, op: IOOp) -> Event:
        done = self.sim.event()
        if op.kind == WRITE:
            span = self._root_span("write", bytes=op.length)
            self.sim.process(self._write(op, done, span), name=self._write_name)
        elif op.kind == READ:
            span = self._root_span("read", bytes=op.length)
            self.sim.process(self._read(op, done, span), name=self._read_name)
        elif op.kind == FLUSH:
            self.barrier_requests += 1
            span = self._root_span("barrier")
            qwait = span.begin("barrier_queue", kind="queue")
            self._barrier_q.put((done, span, qwait))
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        return done

    # ------------------------------------------------------------------
    def _root_span(self, name: str, **attrs):
        """Root span of one client op, tagged with the owning tenant."""
        if self.tenant is not None:
            attrs["tenant"] = self.tenant
        return self.obs.spans.root(name, **attrs)

    def _admission(self, op: IOOp, span):
        """QoS admission: serve the tenant's token-bucket delay before
        the I/O touches any shared resource (CPU, SSD, backend)."""
        if self.qos is None:
            return
        delay = self.qos.admit(self.sim.now, op.length)
        if delay > 0:
            stage = span.begin("throttle_wait", kind="queue")
            self.qos.wait_started()
            yield self.sim.timeout(delay)
            self.qos.wait_finished()
            stage.end()

    def _write(self, op: IOOp, done: Event, span):
        yield from self._admission(op, span)
        self._inflight.add(done)
        try:
            stage = span.begin("write_cpu")
            yield from self.machine.cpu_work(self.params.write_cpu)
            stage.end()
            footprint = align_up(op.length) + self.params.log_header_bytes
            dirty = self._dirty
            if dirty.value + footprint > self.write_cache_capacity:
                # cache log full: stall until destage frees room
                self.destage_space_stalls += 1
                stage = span.begin("space_wait", kind="queue")
                while dirty.value + footprint > self.write_cache_capacity:
                    waiter = self.sim.event()
                    self._space_waiters.append(waiter)
                    yield waiter
                stage.end()
            dirty.inc(footprint)
            stage = span.begin("wc_append", bytes=footprint)
            yield self.machine.ssd.write(self._log_head, footprint)
            stage.end()
            self._log_head += footprint
            self._last_write_at = self.sim.now
            self._writes.inc()
            self._bytes_written.inc(op.length)
            done.succeed()
            span.end()
            # feed the batcher (synchronous map/batch state; PUTs are
            # queued to the destage workers via the on_object hook);
            # the accumulated footprint is released exactly when the
            # covering object's PUT settles
            self._batch_log_bytes += footprint
            self.pagemap.write(op.offset, op.length)
        finally:
            self._inflight.discard(done)

    def _read(self, op: IOOp, done: Event, span):
        yield from self._admission(op, span)
        hit = self._chance() < self.read_hit_rate
        span.annotate(hit=hit)
        if hit:
            stage = span.begin("read_cpu")
            yield from self.machine.cpu_work(self.params.read_hit_cpu)
            stage.end()
            stage = span.begin("rc_lookup", bytes=op.length)
            yield self.machine.ssd.read(self._scatter(op.offset), op.length)
            stage.end()
        else:
            stage = span.begin("read_cpu")
            yield from self.machine.cpu_work(self.params.read_miss_cpu)
            stage.end()
            fetch = max(op.length, self.config.prefetch_bytes)
            stage = span.begin("backend_fetch", bytes=fetch)
            yield self.backend.get_range(
                f"{self.name}.{self._seq:08d}", 0, fetch
            )
            stage.end()
            # the prototype stores fetched data in the read cache before
            # replying (pass-through SSD, §4.7)
            stage = span.begin("rc_insert", bytes=fetch)
            yield self.machine.ssd.write(self._rc_slot(fetch), fetch)
            stage.end()
        self._reads.inc()
        self._bytes_read.inc(op.length)
        done.succeed()
        span.end()

    # ------------------------------------------------------------------
    # commit barriers
    # ------------------------------------------------------------------
    def _group_commit_worker(self):
        """Coalesce queued barriers: one device FLUSH settles the group.

        Safety (LSVD014): every barrier in the group is settled strictly
        after the covering FLUSH event completes.  Late joiners that
        arrive while the group is quiescing are folded in — their
        covered writes finished the SSD log write before the FLUSH
        issues, so the same FLUSH covers them.
        """
        while True:
            first = yield self._barrier_q.get()
            group = [first]
            group.extend(self._barrier_q.drain())
            # each member's queue wait ends when it is folded into a group
            for _done, _span, qwait in group:
                qwait.end()
            # one CPU charge per group — the commit-path amortisation
            stages = [span.begin("barrier_cpu") for _d, span, _q in group]
            yield from self.machine.cpu_work(self.params.barrier_cpu)
            for stage in stages:
                stage.end()
            # quiesce: writes admitted before this FLUSH issues must
            # reach the cache SSD first (drain-then-flush; new writes are
            # never gated)
            pending = [ev for ev in self._inflight if not ev.triggered]
            stages = [
                span.begin("barrier_quiesce", kind="queue")
                for _d, span, _q in group
            ]
            if pending:
                yield self.sim.all_of(pending)
            for stage in stages:
                stage.end()
            late = self._barrier_q.drain()
            for _done, _span, qwait in late:
                qwait.end()
            group.extend(late)
            # a flushed log must not strand a half-built object: seal the
            # partial batch through the page map's public API so destage
            # starts catching the backend up (satellite of §3.2)
            self.pagemap.flush_batch()
            stages = [span.begin("device_flush") for _d, span, _q in group]
            yield self.machine.ssd.flush()
            for stage in stages:
                stage.end()
            self.barrier_flushes += 1
            self._group_size_h.observe(len(group))
            self.obs.trace.emit("barrier_group", size=len(group))
            for done, span, _qwait in group:
                done.succeed()
                span.end(group=len(group))

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

        Placement itself stays owned by the backend's ShardRouter
        (LSVD008); a plain single-endpoint backend maps everything to
        queue 0.
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

    def _destage_worker(self, queue: Store, index: int):
        while True:
            kind, key, seq, nbytes, log_bytes, temp, root, qwait = yield queue.get()
            self.destage_queue_depth -= 1
            self._queue_gauges[index].set(len(queue))
            qwait.end()
            if kind == "put" or kind == "gcput":
                if kind == "put":
                    # the userspace daemon reads outgoing data from the
                    # cache SSD (§3.7), then PUTs the object (relocated
                    # data arrived through its "gcread" instead); seq only
                    # picks a distinct simulated SSD address here — no
                    # real log offsets exist in the timed model
                    stage = root.begin("destage_read", bytes=nbytes)
                    yield self.machine.ssd.read(self._log_head + seq, nbytes)  # lint: disable=LSVD002
                    stage.end()
                stage = root.begin("destage_cpu")
                yield from self.machine.cpu_work(self.params.destage_user_cpu)
                stage.end()
                stage = root.begin("shard_put", shard=index, bytes=nbytes)
                yield self.backend.put(key, nbytes)
                stage.end()
                self.backend_bytes_put += nbytes
                self._class_puts[temp].inc()
                self._class_bytes_put[temp].inc(nbytes)
                if kind == "put":
                    self.objects_put += 1
                    self._release_space(log_bytes)
                else:
                    self.gc_objects_put += 1
            elif kind == "gcread":
                cached = int(nbytes * self.params.gc_cache_hit)
                remote = nbytes - cached
                if cached:
                    stage = root.begin("gc_cache_read", bytes=cached)
                    yield self.machine.ssd.read(self._rc_slot(cached), cached)
                    stage.end()
                if remote:
                    stage = root.begin("backend_fetch", bytes=remote)
                    yield self.backend.get_range(key, 0, remote)
                    stage.end()
            elif kind == "delete":
                stage = root.begin("shard_delete", shard=index)
                yield self.backend.delete(key)
                stage.end()
            root.end()

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
        self._dirty.set(max(0, self._dirty.value - nbytes))
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
