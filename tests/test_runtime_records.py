"""The timed data plane's records against the generator processes they
replaced, and a structural guard that keeps it on records.

The reference model is the pre-record implementation, verbatim: one
generator process per client op (QoS admission, CPU, cache-log append or
read path), a group-commit worker process, destage worker processes, and
one process per backend PUT/GET/DELETE.  The records in
``runtime/lsvd.py`` and ``runtime/backend.py`` must produce the same
virtual-clock history — every completion at the same float and in the same
order, the same span trees, metrics, device and backend state — over a grid
that reaches every branch: 1 and 4 shards, QoS on and off, read hit rates
0 / 0.5 / 1, a write cache small enough to stall writers, GC on, and GC
reads served partly from the cache.  Only the event count may differ: a
record has no process-end event.
"""

import itertools

import pytest

import repro.fleet.runtime as fleet_runtime
import repro.runtime.lsvd as lsvd
from repro.cluster import StorageCluster
from repro.core import LSVDConfig
from repro.core.log import align_up
from repro.devices.ssd import SSD, SSDSpec
from repro.fleet import FleetRuntime, QoSLimits
from repro.obs import Registry, spans
from repro.runtime import ClientMachine, SimulatedObjectStore
from repro.runtime.params import LSVDParams
from repro.runtime.sharded import make_sharded_backend
from repro.sim import Simulator
from repro.sim.engine import Event
from repro.sim.resources import Store
from repro.workloads import FioJob
from repro.workloads.base import FLUSH, READ, WRITE, IOOp

KiB = 1 << 10
MiB = 1 << 20


class _GeneratorRuntime(lsvd.LSVDRuntime):
    """The runtime with its pre-record generator bodies."""

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

    def _write(self, op: IOOp, done, span):
        yield from self._admission(op, span)
        self._inflight.add(done)
        try:
            stage = span.begin("write_cpu")
            yield from self.machine.cpu_work(self.params.write_cpu)
            stage.end()
            footprint = align_up(op.length) + self.params.log_header_bytes
            if self.dirty_bytes + footprint > self.write_cache_capacity:
                # cache log full: stall until destage frees room
                self.destage_space_stalls += 1
                stage = span.begin("space_wait", kind="queue")
                while self.dirty_bytes + footprint > self.write_cache_capacity:
                    waiter = self.sim.event()
                    self._space_waiters.append(waiter)
                    yield waiter
                stage.end()
            self.dirty_bytes += footprint
            stage = span.begin("wc_append", bytes=footprint)
            yield self.machine.ssd.write(self._log_head, footprint)
            stage.end()
            self._log_head += footprint
            self._last_write_at = self.sim.now
            self.client_writes += 1
            self.client_bytes_written += op.length
            done.succeed()
            span.end()
            self._batch_log_bytes += footprint
            self.pagemap.write(op.offset, op.length)
        finally:
            self._inflight.discard(done)

    def _read(self, op: IOOp, done, span):
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
            stage = span.begin("rc_insert", bytes=fetch)
            yield self.machine.ssd.write(self._rc_slot(fetch), fetch)
            stage.end()
        self.client_reads += 1
        self.client_bytes_read += op.length
        done.succeed()
        span.end()

    def _group_commit_worker(self):
        while True:
            first = yield self._barrier_q.get()
            group = [first]
            group.extend(self._barrier_q.drain())
            for _done, _span, qwait in group:
                qwait.end()
            stages = [span.begin("barrier_cpu") for _d, span, _q in group]
            yield from self.machine.cpu_work(self.params.barrier_cpu)
            for stage in stages:
                stage.end()
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

    def _destage_worker(self, queue: Store, index: int):
        while True:
            kind, key, seq, nbytes, log_bytes, temp, root, qwait = yield queue.get()
            self.destage_queue_depth -= 1
            self._queue_gauges[index].set(len(queue))
            qwait.end()
            if kind == "put" or kind == "gcput":
                if kind == "put":
                    stage = root.begin("destage_read", bytes=nbytes)
                    yield self.machine.ssd.read(self._log_head + seq, nbytes)
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


# the backend's pre-record request bodies: one process per request


def _put(self, key, nbytes):
    done = self.sim.event()
    self.puts += 1
    self.bytes_put += nbytes
    started = self.sim.now

    def run():
        yield self.network.send(nbytes)
        yield self.sim.timeout(self.request_latency)
        yield self.layout.put(self.cluster, key, nbytes)
        self._keys[key] = nbytes
        self._put_latency.observe(self.sim.now - started)
        done.succeed()

    self.sim.process(run(), name=f"put:{key}")
    return done


def _get_range(self, key, offset, nbytes):
    done = self.sim.event()
    self.gets += 1
    self.bytes_got += nbytes
    started = self.sim.now

    def run():
        yield self.sim.timeout(self.request_latency)
        yield self.layout.get_range(self.cluster, key, offset, nbytes)
        yield self.network.receive(nbytes)
        self._get_latency.observe(self.sim.now - started)
        done.succeed()

    self.sim.process(run(), name=f"get:{key}")
    return done


def _delete(self, key):
    done = self.sim.event()
    self.deletes += 1
    started = self.sim.now

    def run():
        yield self.sim.timeout(self.request_latency)
        yield self.layout.delete(self.cluster, key)
        self._keys.pop(key, None)
        self._delete_latency.observe(self.sim.now - started)
        done.succeed()

    self.sim.process(run(), name=f"del:{key}")
    return done


def _start_process(rt, op, done, span):
    body = rt._write if op.kind == WRITE else rt._read
    rt.sim.process(body(op, done, span), name=f"{rt.name}-{op.kind}")


def _patch_generators(patch):
    """Run the reference: every record constructor starts its process."""
    patch.setattr(fleet_runtime, "LSVDRuntime", _GeneratorRuntime)
    patch.setattr(lsvd, "_ClientOp", _start_process)
    patch.setattr(lsvd, "_Committer", lambda rt: rt.sim.process(rt._group_commit_worker()))
    patch.setattr(
        lsvd, "_Destager",
        lambda rt, queue, index: rt.sim.process(rt._destage_worker(queue, index)),
    )
    patch.setattr(SimulatedObjectStore, "put", _put)
    patch.setattr(SimulatedObjectStore, "get_range", _get_range)
    patch.setattr(SimulatedObjectStore, "delete", _delete)


# ---------------------------------------------------------------------------
# the workload: a small fleet, closed-loop clients over fixed op lists
# ---------------------------------------------------------------------------


def _cluster(sim):
    return StorageCluster(sim, 2, 4, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n))


def _fleet(shards, qos, hit):
    """vd0: a write cache small enough to stall writers; vd1: a roomy
    one whose GC reads are half served from the cache, and free CPU work
    (zero-delay timeouts: ties that only the scheduling order breaks);
    with ``qos`` the first tenant is throttled."""
    sim = Simulator()
    machine = ClientMachine(sim)
    if shards == 1:
        backend = SimulatedObjectStore(sim, _cluster(sim), machine.network)
    else:
        backend = make_sharded_backend(sim, machine.network, _cluster, shards)
    fleet = FleetRuntime(
        sim, machine, backend, obs=Registry(), config=LSVDConfig(batch_size=128 * KiB)
    )
    fleet.add_vdisk(
        "vd0", "t0", volume_size=1 * MiB, cache_size=2 * MiB, read_hit_rate=hit,
        limits=QoSLimits(iops=4000, burst_ops=40) if qos else None,
    )
    fleet.add_vdisk(
        "vd1", "t1", volume_size=1 * MiB, cache_size=64 * MiB, read_hit_rate=hit,
        params=LSVDParams(
            write_cpu=0.0, read_hit_cpu=0.0, read_miss_cpu=0.0, barrier_cpu=0.0,
            destage_user_cpu=0.0, gc_cache_hit=0.5,
        ),
    )
    return sim, machine, backend, fleet


def _drive(shards, qos, hit, depth=4):
    sim, machine, backend, fleet = _fleet(shards, qos, hit)
    completions = []

    def client(name, device, stream, index):
        for op in stream:
            done = device.submit(op)
            done.add_callback(
                lambda _e, tag=(name, index, op.kind): completions.append((tag, sim.now))
            )
            yield done

    for vd, (device, rw, ops) in enumerate(
        zip(fleet.vdisks(), ("randwrite", "randrw"), (240, 300))
    ):
        stream = itertools.islice(
            FioJob(rw=rw, rwmixread=0.3, bs=4096, iodepth=depth, size=1 * MiB,
                   seed=vd, fsync_every=4, distribution="zipfian").ops(),
            ops,
        )
        for index in range(depth):
            sim.process(client(device.name, device, stream, index))
    sim.run()
    registries = [fleet.obs, backend.obs] + [d.obs for d in fleet.vdisks()]
    disks = [machine.ssd] + [
        disk for b in getattr(backend, "backends", [backend]) for disk in b.cluster.disks
    ]
    observed = {
        "completions": completions,
        "now": sim.now,
        "snapshots": [r.snapshot() for r in registries],
        "trees": [
            [root.to_dict() for root in d.obs.spans.analyzer.roots()]
            for d in fleet.vdisks()
        ],
        "bundles": [d.obs.spans.debug_bundle() for d in fleet.vdisks()],
        "trace": [[e.to_dict() for e in r.trace.events()] for r in registries],
        "devices": [(disk.stats, disk.channels.busy_time) for disk in disks],
        "cpu": (machine.cpu.busy_time, machine.cpu.in_use),
        "network": (machine.network.bytes_sent, machine.network._rx.total_bytes),
        "keys": [dict(b._keys) for b in getattr(backend, "backends", [backend])],
    }
    return observed, fleet


@pytest.mark.parametrize("hit", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("qos", [False, True])
@pytest.mark.parametrize("shards", [1, 4])
def test_records_match_the_generator_reference(shards, qos, hit, monkeypatch):
    # every op traced, so the stage-coverage checks below see every stage
    monkeypatch.setattr(spans, "SAMPLE_EVERY", 1)
    with pytest.MonkeyPatch.context() as patch:
        _patch_generators(patch)
        reference, ref_fleet = _drive(shards, qos, hit)
    observed, fleet = _drive(shards, qos, hit)
    assert all(isinstance(d, _GeneratorRuntime) for d in ref_fleet.vdisks())
    assert not any(isinstance(d, _GeneratorRuntime) for d in fleet.vdisks())
    # the grid reaches what it claims: stalls, GC, the cached GC read,
    # throttling, and hits and misses as the hit rate says
    small, roomy = fleet.vdisks()
    assert small.destage_space_stalls > 0
    assert small.gc_objects_put > 0 and roomy.gc_objects_put > 0
    stages = {s for trees in observed["trees"] for t in trees for s in _stage_names(t)}
    assert "gc_cache_read" in stages and "space_wait" in stages
    assert ("throttle_wait" in stages) == qos
    assert ("rc_lookup" in stages) == (hit > 0) and ("rc_insert" in stages) == (hit < 1)
    for key in reference:
        assert observed[key] == reference[key], key


def _stage_names(tree):
    yield tree["name"]
    for child in tree.get("children", ()):
        yield from _stage_names(child)


# ---------------------------------------------------------------------------
# structural guard: no process per client op, barrier, destage item or
# backend request
# ---------------------------------------------------------------------------


#: dispatched events (``Event._process`` calls) of the guard's run below,
#: as the records leave it (the processes they replaced took 3 675); a
#: change that brings a process per op back raises the count
GUARD_EVENTS = 3347


def test_data_plane_starts_no_process_per_operation():
    started, dispatched = [], [0]
    process, dispatch = Simulator.process, Event._process

    def counting_process(sim, gen, name=""):
        started.append(getattr(gen, "__qualname__", name))
        return process(sim, gen, name)

    def counting_dispatch(event):
        dispatched[0] += 1
        dispatch(event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "process", counting_process)
        patch.setattr(Event, "_process", counting_dispatch)
        sim, _machine, backend, fleet = _fleet(shards=4, qos=True, hit=0.5)
        assert started == ["LSVDRuntime._idle_flusher"] * 2
        for device in fleet.vdisks():
            for index in range(64):
                device.submit(IOOp(WRITE, index * 4096, 4096))
                device.submit(IOOp(READ, index * 4096, 4096))
            device.submit(IOOp(FLUSH))
        sim.run()
    # only the two idle flushers: no process per client op, barrier,
    # destage item or backend request
    assert started == ["LSVDRuntime._idle_flusher"] * 2
    assert backend.puts > 0 and backend.gets > 0
    assert all(d.barrier_flushes and d.client_reads == 64 for d in fleet.vdisks())
    assert dispatched[0] <= GUARD_EVENTS
