"""Unit tests for Resource, Store, and TokenBucket."""

import pytest

from repro.sim import Simulator
from repro.sim.resources import Resource, Store, TokenBucket


def hold(sim, res, duration, log, tag):
    req = res.request()
    yield req
    log.append(("acquire", tag, sim.now))
    try:
        yield sim.timeout(duration)
    finally:
        res.release()
    log.append(("release", tag, sim.now))


def test_resource_serialises_when_capacity_one():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    sim.process(hold(sim, res, 2.0, log, "a"))
    sim.process(hold(sim, res, 2.0, log, "b"))
    sim.run()
    assert log == [
        ("acquire", "a", 0.0),
        ("release", "a", 2.0),
        ("acquire", "b", 2.0),
        ("release", "b", 4.0),
    ]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []
    for tag in ("a", "b", "c"):
        sim.process(hold(sim, res, 2.0, log, tag))
    sim.run()
    acquires = {tag: t for op, tag, t in log if op == "acquire"}
    assert acquires == {"a": 0.0, "b": 0.0, "c": 2.0}


def test_resource_release_without_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_utilization_tracks_busy_time():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def delayed():
        yield sim.timeout(5.0)
        yield from hold(sim, res, 5.0, log, "x")

    sim.process(delayed())
    sim.run()
    # busy 5..10 out of 10 seconds
    assert res.utilization() == pytest.approx(0.5)


def test_resource_queue_length():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    sim.process(hold(sim, res, 10.0, log, "a"))
    sim.process(hold(sim, res, 1.0, log, "b"))
    sim.process(hold(sim, res, 1.0, log, "c"))
    sim.run(until=1.0)
    assert len(res._waiters) == 2


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    def producer():
        for i in range(3):
            yield sim.timeout(1.0)
            store.put(i)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_buffered_get_is_immediate():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    assert len(store) == 1
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer())
    sim.run()
    assert got == [(0.0, "x")]
    assert len(store) == 0


def test_token_bucket_rate_limits():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=100.0)  # 100 bytes/sec
    times = []

    def sender():
        for _ in range(3):
            yield bucket.consume(100)
            times.append(sim.now)

    sim.process(sender())
    sim.run()
    assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
    assert bucket.total_bytes == 300


def test_token_bucket_concurrent_consumers_serialise():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=100.0)
    times = []

    def sender(tag):
        yield bucket.consume(50)
        times.append((tag, sim.now))

    sim.process(sender("a"))
    sim.process(sender("b"))
    sim.run()
    assert times == [("a", pytest.approx(0.5)), ("b", pytest.approx(1.0))]


def test_token_bucket_rejects_bad_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        TokenBucket(sim, rate=0)
