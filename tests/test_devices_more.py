"""Additional device-model behaviours: mixed load, controller sharing."""


import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ErasureCodedLayout, StorageCluster
from repro.devices.base import FLUSH, LOGWRITE, READ, WRITE, DeviceStats, QueuedDevice
from repro.devices.hdd import HDD, HDDSpec
from repro.devices.ssd import SSD, SSDSpec
from repro.sim import Simulator


def run_duration(sim, gen):
    proc = sim.process(gen)
    sim.run_until_event(proc)
    return sim.now


def test_ssd_reads_and_writes_overlap():
    """Independent read/write paths: a mixed stream finishes faster than
    the sum of its serialized halves."""
    spec = SSDSpec.nvme_p3700()
    n, size = 400, 64 * 1024

    def reader(sim, ssd):
        for i in range(n):
            yield ssd.read(i * size, size)

    def writer(sim, ssd):
        for i in range(n):
            yield ssd.write((n + i) * size, size)

    sim = Simulator()
    ssd = SSD(sim, spec)
    a = sim.process(reader(sim, ssd))
    b = sim.process(writer(sim, ssd))
    sim.run()
    mixed = sim.now

    sim2 = Simulator()
    ssd2 = SSD(sim2, spec)
    run_duration(sim2, reader(sim2, ssd2))
    t_reads = sim2.now
    sim3 = Simulator()
    ssd3 = SSD(sim3, spec)
    run_duration(sim3, writer(sim3, ssd3))
    t_writes = sim3.now
    assert mixed < (t_reads + t_writes) * 0.95


def test_ssd_controller_caps_combined_bandwidth():
    """Read + write streams together cannot exceed total_bw."""
    spec = SSDSpec.nvme_p3700()
    sim = Simulator()
    ssd = SSD(sim, spec)
    n, size = 300, 1 << 20  # 300 MiB each direction

    def reader():
        for i in range(n):
            yield ssd.read(i * size, size)

    def writer():
        for i in range(n):
            yield ssd.write((n + i) * size, size)

    sim.process(reader())
    sim.process(writer())
    sim.run()
    total_bytes = 2 * n * size
    achieved = total_bytes / sim.now
    assert achieved <= spec.total_bw * 1.05
    # and it does better than a single direction alone could
    assert achieved > spec.seq_write_bw * 1.2


def test_ssd_random_write_latency_penalty():
    """Random writes carry extra completion latency vs sequential ones."""
    spec = SSDSpec.nvme_p3700()
    sim = Simulator()
    ssd = SSD(sim, spec)

    def one(kind, offset):
        start = sim.now
        done = ssd.submit(kind, offset, 4096)
        yield done
        return sim.now - start

    seq1 = sim.run_until_event(sim.process(one("write", 0)))
    # second sequential write continues at the last end offset
    seq2 = sim.run_until_event(sim.process(one("write", 4096)))
    rand = sim.run_until_event(sim.process(one("write", 1 << 30)))
    assert rand > seq2
    assert rand - seq2 == pytest.approx(spec.rand_write_latency, rel=0.5)


def test_hdd_flush_is_cheap_on_sas():
    spec = HDDSpec.sas_10k()
    sim = Simulator()
    hdd = HDD(sim, spec)
    sim.run_until_event(hdd.flush())
    assert sim.now <= 0.5e-3


def test_ssd_write_size_histogram_buckets_power_of_two():
    sim = Simulator()
    ssd = SSD(sim)
    for size in (4096, 5000, 16384, 1 << 20):
        sim.run_until_event(ssd.write(0, size))
    buckets = ssd.stats.write_size_bytes
    assert 4096 in buckets
    assert (1 << 20) in buckets
    assert sum(buckets.values()) == 4096 + 5000 + 16384 + (1 << 20)


# --------------------------------------------------------------------------
# differential test: callback-driven device ops vs the generator processes
# they replaced
# --------------------------------------------------------------------------
#
# The reference model is the pre-record implementation, verbatim: one
# generator process per op (boot event, path grant, controller timeouts,
# service timeout, latency timeout, ``done``, process end).  The record in
# devices/base.py must complete every op at the same float, in the same
# order, with the same stats — the virtual-clock baselines depend on it.


class _GeneratorOps:
    """Mixin: ``submit`` spawns the reference ``_serve`` process."""

    def submit(self, kind, offset=0, nbytes=0):
        done = self.sim.event()
        self.sim.process(self._serve(kind, offset, nbytes, done), name=self.name)
        return done

    def _serve(self, kind, offset, nbytes, done):
        req = self.channels.request()
        yield req
        try:
            service = self.service_time(kind, offset, nbytes)
            self.stats.record(kind, nbytes, service)
            yield self.sim.timeout(service)
        finally:
            self.channels.release()
        if self.pipeline_latency:
            yield self.sim.timeout(self.pipeline_latency)
        done.succeed()


class _ReferenceHDD(_GeneratorOps, HDD):
    pass


class _ReferenceSSD(_GeneratorOps, SSD):
    def _serve(self, kind, offset, nbytes, done):
        path = self._paths[READ if kind == READ else WRITE]
        req = path.request()
        yield req
        try:
            sequential_before = self._next_seq_offset.get(kind) == offset
            service = self.service_time(kind, offset, nbytes)
            self.stats.record(kind, nbytes, service)
            started = self.sim.now
            if nbytes and kind != FLUSH:
                # shared controller: mixed R/W cannot exceed total_bw
                remaining = nbytes
                while remaining > 0:
                    take = min(remaining, self.CONTROLLER_CHUNK)
                    yield self.controller.consume(take)
                    remaining -= take
            elapsed = self.sim.now - started
            if elapsed < service:
                yield self.sim.timeout(service - elapsed)
        finally:
            path.release()
        latency = self.pipeline_latency
        if kind == WRITE and not sequential_before:
            latency += self.spec.rand_write_latency
        if latency:
            yield self.sim.timeout(latency)
        done.succeed()


class _FixedDevice(QueuedDevice):
    """One channel, service time == completion latency == 1 s: an op's
    completion and its successor's service timeout share a timestamp."""

    def __init__(self, sim):
        super().__init__(sim, "fixed", channels=1, pipeline_latency=1.0)

    def service_time(self, kind, offset, nbytes):
        if offset < 0:
            raise ValueError("bad offset")
        return 1.0


class _ReferenceFixedDevice(_GeneratorOps, _FixedDevice):
    pass


_DEVICES = {
    "sata": (
        lambda sim: SSD(sim, SSDSpec.sata_consumer()),
        lambda sim: _ReferenceSSD(sim, SSDSpec.sata_consumer()),
    ),
    "nvme": (
        lambda sim: SSD(sim, SSDSpec.nvme_p3700()),
        lambda sim: _ReferenceSSD(sim, SSDSpec.nvme_p3700()),
    ),
    "hdd": (lambda sim: HDD(sim), lambda sim: _ReferenceHDD(sim)),
    "fixed": (_FixedDevice, _ReferenceFixedDevice),
}

#: gaps between submissions: mostly none (a burst at one timestamp), else
#: the devices' own setup/latency/service constants so that a submission
#: lands exactly on another op's stage boundary
_GAPS = (0.0, 0.0, 0.0, 2e-6, 10e-6, 25e-6, 60e-6, 80e-6, 100e-6, 1e-4, 1.5e-3, 1.0)
_CHUNK = QueuedDevice.CONTROLLER_CHUNK
#: around the controller chunk: one slot (a single wake) vs several
_SIZES = (
    0, 1, 512, 4096, 4096, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK,
    2 * _CHUNK + 1, 100_000, 1 << 20, 4 << 20,
)

_op = st.tuples(
    st.sampled_from(_GAPS),
    st.sampled_from((READ, WRITE, WRITE, LOGWRITE, FLUSH)),
    # None = continue where the previous op of this kind ended (sequential)
    st.one_of(st.none(), st.integers(0, 1 << 30)),
    st.one_of(st.sampled_from(_SIZES), st.integers(0, 4 << 20)),
)


def _drive(make, schedule):
    """Submit ``schedule`` to a fresh device; return what an observer of
    the device can see: completions in order, and the final stats."""
    sim = Simulator()
    device = make(sim)
    trace = []
    next_offset = {}

    def driver():
        for index, (gap, kind, offset, nbytes) in enumerate(schedule):
            if gap:
                yield sim.timeout(gap)
            if offset is None:
                offset = next_offset.get(kind, 0)
            next_offset[kind] = offset + nbytes
            done = device.submit(kind, offset, nbytes)
            done.add_callback(
                lambda _e, index=index: trace.append(
                    (index, sim.now, len(device._path_for(WRITE)._waiters))
                )
            )

    sim.process(driver())
    sim.run()
    assert len(trace) == len(schedule)
    paths = {id(p): p for p in (device._path_for(READ), device._path_for(WRITE))}
    busy = [(p.in_use, p.busy_time) for p in paths.values()]
    return trace, device.stats, busy, sim.now


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_DEVICES)), st.lists(_op, min_size=1, max_size=24))
# zero-service ops (sequential 0-byte HDD reads) end one heap hop after
# their grant, as the generator's timeout(0) does, so the first
# completion sees the waiter the reference sees
@example("hdd", [(0.0, READ, None, 0), (1e-4, READ, None, 0), (0.0, READ, None, 0)])
def test_device_ops_match_the_generator_reference(name, schedule):
    make, make_reference = _DEVICES[name]
    trace, stats, busy, end = _drive(make, schedule)
    ref_trace, ref_stats, ref_busy, ref_end = _drive(make_reference, schedule)
    # exact float equality throughout: same completion times, same
    # completion order, same queue seen at each completion
    assert trace == ref_trace
    assert stats == ref_stats  # dataclass eq: counters, busy_time, histogram
    assert busy == ref_busy and all(in_use == 0 for in_use, _t in busy)
    assert end == ref_end


# --------------------------------------------------------------------------
# differential test: submit_many vs the serial submits it replaced
# --------------------------------------------------------------------------
#
# The reference is ``count`` submits — what the layouts issued before,
# into one flat AllOf per PUT.  A batch must decide where that AllOf
# would: at the same float and in the same order against every other
# completion, failures included, with the same stats, path and controller
# state; capacity 2 (the per-submit fallback) included.


def _when_all(events, callback):
    """A flat AllOf's verdict on ``events``, seen without its own queue
    hop: ``callback`` runs inside the dispatch of the first failed event
    or of the last one."""
    pending = [len(events)]

    def check(event):
        if pending[0]:
            pending[0] = 0 if not event.ok else pending[0] - 1
            if not pending[0]:
                callback(event)

    for event in events:
        event.add_callback(check)

class _InstantDevice(_FixedDevice):
    """Zero service time: an op is served one heap hop after its own
    grant, at the same instant, so the next op's grant must queue behind
    whatever that instant already holds."""

    def service_time(self, kind, offset, nbytes):
        super().service_time(kind, offset, nbytes)  # raises on a bad offset
        return 0.0


_BATCH_DEVICES = {
    "sata": lambda sim: SSD(sim, SSDSpec.sata_consumer()),
    "nvme": lambda sim: SSD(sim, SSDSpec.nvme_p3700()),
    "nvme-2ch": lambda sim: SSD(sim, SSDSpec(channels=2)),
    "hdd": HDD,
    "fixed": _FixedDevice,
    "instant": _InstantDevice,
}

_batch_op = st.tuples(
    st.sampled_from(_GAPS),
    st.sampled_from((READ, WRITE, WRITE, LOGWRITE, LOGWRITE, FLUSH)),
    # -1 makes the fixed device's pricing raise
    st.one_of(st.none(), st.just(-1), st.integers(0, 1 << 30)),
    st.one_of(st.sampled_from(_SIZES[1:]), st.integers(1, 4 << 20)),
    st.integers(1, 12),
)


def _drive_batches(make, schedule, batched):
    sim = Simulator()
    device = make(sim)
    paths = (device._path_for(WRITE), device._path_for(READ))
    trace = []
    next_offset = {}

    def driver():
        for index, (gap, kind, offset, nbytes, count) in enumerate(schedule):
            if gap:
                yield sim.timeout(gap)
            if offset is None:
                offset = next_offset.get(kind, 0)
            next_offset[kind] = offset + nbytes

            def seen(event, index=index):
                trace.append((index, sim.now, event.ok, [p.in_use for p in paths]))

            if kind == FLUSH:
                device.flush().add_callback(seen)
            elif batched:
                device.submit_many(kind, offset, nbytes, count).add_callback(seen)
            else:
                _when_all([device.submit(kind, offset, nbytes) for _ in range(count)], seen)

    sim.process(driver())
    sim.run()
    assert len(trace) == len(schedule)
    controller = device.controller
    return (
        trace,
        device.stats,
        [(p.in_use, p.busy_time) for p in paths],
        controller and (controller._free_at, controller.total_bytes),
        sim.now,
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_BATCH_DEVICES)), st.lists(_batch_op, min_size=1, max_size=16))
def test_submit_many_matches_serial_submits(name, schedule):
    make = _BATCH_DEVICES[name]
    # exact float equality throughout, as in the generator differential
    assert _drive_batches(make, schedule, True) == _drive_batches(make, schedule, False)


def test_submit_many_needs_data_ops():
    device = SSD(Simulator())
    with pytest.raises(ValueError):
        device.submit_many(WRITE, 0, 0, 2)  # a 0-byte write may be sequential
    with pytest.raises(ValueError):
        device.submit_many(LOGWRITE, 0, 4096, 0)


class _SerialECLayout(ErasureCodedLayout):
    """The PUT before submit_many: 64 submits, one per device write."""

    def put(self, cluster, key, nbytes):
        disks = cluster.placement(key, self.width)
        chunk = (nbytes + self.k - 1) // self.k
        events = [disk.submit("write", (i + 1) * 2**30, chunk) for i, disk in enumerate(disks)]
        for j in range(self.meta_writes_per_object):
            events.append(
                disks[j % self.width].submit("logwrite", 3 * 2**30, self.meta_write_bytes)
            )
        return cluster.sim.all_of(events)


@pytest.mark.parametrize(
    "make_disk",
    [lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n), lambda s, n: HDD(s, name=n)],
    ids=["sata", "hdd"],
)
def test_ec_put_matches_the_serial_reference_layout(make_disk):
    """One 4 MiB PUT is still 64 device writes (Figs 12-14) with the same
    stats and completion time — overlapping a second PUT and a GET on a
    small pool, so the batches queue behind other work — but waits on 12
    children (6 chunk writes, 6 metadata batches) instead of 64."""

    def run(layout):
        sim = Simulator()
        cluster = StorageCluster(sim, 2, 4, make_disk)
        done = [layout.put(cluster, "vd.00000001", 4 << 20)]
        done.append(layout.get_range(cluster, "vd.00000001", 0, 1 << 20))
        done.append(layout.put(cluster, "vd.00000002", 1 << 20))
        finished = []
        for index, event in enumerate(done):
            event.add_callback(lambda _e, index=index: finished.append((index, sim.now)))
        sim.run()
        return finished, [disk.stats for disk in cluster.disks], cluster.totals(), done

    finished, stats, totals, done = run(ErasureCodedLayout())
    ref_finished, ref_stats, ref_totals, ref_done = run(_SerialECLayout())
    assert finished == ref_finished
    assert stats == ref_stats
    assert totals == ref_totals and totals.writes == 2 * 64
    assert len(done[0].events) == 12 and len(ref_done[0].events) == 64


@pytest.mark.parametrize("make", _DEVICES["fixed"], ids=["record", "reference"])
def test_releasing_op_schedules_its_completion_before_the_next_grant(make):
    """A releases the path at t=1: its completion (t=2) must reach the
    heap before B, granted at t=1, creates its service timeout (also
    t=2) — so A completes while B still holds the path and C waits."""
    sim = Simulator()
    device = make(sim)
    seen = []
    for tag in "ABC":
        device.write(0, 4096).add_callback(
            lambda _e, tag=tag: seen.append(
                (tag, sim.now, device.channels.in_use, len(device.channels._waiters))
            )
        )
    sim.run()
    assert seen == [("A", 2.0, 1, 1), ("B", 3.0, 1, 0), ("C", 4.0, 0, 0)]


@pytest.mark.parametrize("strict", [False, True])
def test_failing_service_time_releases_the_path_exactly_once(strict):
    sim = Simulator(strict=strict)
    device = _FixedDevice(sim)
    bad = device.write(-1, 4096)
    good = device.write(0, 4096)
    if strict:
        with pytest.raises(ValueError):
            sim.run()
        assert not bad.triggered
    sim.run()
    assert good.processed and good.ok and sim.now == 2.0
    if not strict:
        assert bad.processed and not bad.ok
        assert isinstance(bad.value, ValueError)
    # the unit came back once: not leaked, not released twice
    assert device.channels.in_use == 0
    assert not device.channels._waiters
    assert device.stats.writes == 1


def test_write_size_histogram_bucket_is_the_power_of_two_floor():
    stats = DeviceStats()
    sizes = [0, 1, 2, 3, 4, 4095, 4096, 4097, (1 << 20) - 1, 1 << 20, (4 << 20) + 5]
    expected = {}
    for size in sizes:
        stats.record(WRITE, size, 0.0)
        bucket = 1
        while bucket * 2 <= max(size, 1):
            bucket *= 2
        expected[bucket] = expected.get(bucket, 0) + size
    assert stats.write_size_bytes == expected
    assert stats.writes == len(sizes)
