"""Unit tests for the discrete-event simulation engine."""

import cProfile

import pytest

from repro.devices import SSD, NetworkLink
from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


def test_timeout_ordering():
    sim = Simulator()
    log = []

    def worker(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(worker("late", 2.0))
    sim.process(worker("early", 1.0))
    sim.run()
    assert log == [(1.0, "early"), (2.0, "late")]


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["payload"]


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    log = []

    def proc(tag):
        yield sim.timeout(0.0)
        log.append(tag)

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert log == ["a", "b"]
    assert sim.now == 0.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        return 42

    def outer(results):
        value = yield sim.process(inner())
        results.append(value)

    results = []
    sim.process(outer(results))
    sim.run()
    assert results == [42]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(3.0, "open")]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_propagates_into_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_event_value_unavailable_until_triggered():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    ev.succeed(7)
    assert ev.value == 7


def test_process_exception_fails_process_event():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("broken")

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered
    assert not proc.ok
    assert isinstance(proc.value, ValueError)


def test_strict_mode_reraises():
    sim = Simulator(strict=True)

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("broken")

    sim.process(bad())
    with pytest.raises(ValueError):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 17

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    results = []

    def proc():
        values = yield AllOf(sim, [sim.timeout(1, "a"), sim.timeout(3, "b")])
        results.append((sim.now, values))

    sim.process(proc())
    sim.run()
    assert results == [(3.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    results = []

    def proc():
        values = yield AllOf(sim, [])
        results.append(values)

    sim.process(proc())
    sim.run()
    assert results == [[]]


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def proc():
        event, value = yield AnyOf(sim, [sim.timeout(5, "slow"), sim.timeout(1, "fast")])
        results.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert results == [(1.0, "fast")]


def test_interrupt_is_catchable():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_run_until_limits_clock():
    sim = Simulator()
    log = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(ticker())
    sim.run(until=5.5)
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return "done"

    result = sim.run_until_event(sim.process(proc()))
    assert result == "done"
    assert sim.now == 2.0


def test_run_until_event_raises_if_queue_drains():
    sim = Simulator()
    orphan = sim.event()
    with pytest.raises(SimulationError):
        sim.run_until_event(orphan)


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


# --------------------------------------------------------------------------
# ordering contract (DESIGN.md "sim"): what callback-driven device ops and
# every committed virtual-clock baseline rely on
# --------------------------------------------------------------------------


def test_events_triggered_at_one_instant_run_in_trigger_order():
    sim = Simulator()
    order = []
    events = [sim.event() for _ in range(4)]
    for tag, ev in enumerate(events):
        ev.add_callback(lambda _e, tag=tag: order.append(tag))
    for tag in (2, 0, 3, 1):
        events[tag].succeed()
    sim.run()
    assert order == [2, 0, 3, 1]


def test_equal_deadline_timeouts_run_in_creation_order():
    sim = Simulator()
    order = []

    def late_creator():
        yield sim.timeout(1.0)
        # created second, at t=1, for the same instant t=2
        sim.timeout(1.0).add_callback(lambda _e: order.append("second"))

    sim.timeout(2.0).add_callback(lambda _e: order.append("first"))
    sim.process(late_creator())
    sim.timeout(2.0).add_callback(lambda _e: order.append("third"))
    sim.run()
    # "third" was created at t=0, before "second" (t=1)
    assert order == ["first", "third", "second"]
    assert sim.now == 2.0


def test_same_time_queue_drains_before_the_heap_is_popped():
    sim = Simulator()
    order = []
    chained = sim.event()
    chained.add_callback(lambda _e: order.append("triggered-at-1"))

    def trigger(_e):
        order.append("timeout-a")
        chained.succeed()

    sim.timeout(1.0).add_callback(trigger)
    sim.timeout(1.0).add_callback(lambda _e: order.append("timeout-b"))
    sim.run()
    # the event caused at t=1 runs before the next heap entry for t=1
    assert order == ["timeout-a", "triggered-at-1", "timeout-b"]


def test_succeed_after_takes_the_timeouts_place_in_the_heap():
    sim = Simulator()
    order = []
    sim.timeout(1.0).add_callback(lambda _e: order.append("before"))
    done = sim.event().succeed_after(1.0, "payload")
    sim.timeout(1.0).add_callback(lambda _e: order.append("after"))
    done.add_callback(lambda e: order.append(e.value))
    assert done.triggered and not done.processed
    with pytest.raises(SimulationError):
        done.succeed()
    with pytest.raises(ValueError):
        sim.event().succeed_after(-1e-9)
    sim.run()
    assert order == ["before", "payload", "after"]
    assert done.processed and sim.now == 1.0


def test_interrupted_process_ignores_the_stale_wakeup():
    sim = Simulator()
    log = []
    gate = sim.event()

    def sleeper():
        try:
            yield gate
            log.append("woken by gate")
        except Interrupt:
            log.append(("interrupted", sim.now))
        value = yield sim.timeout(5.0, "slept on")
        log.append((value, sim.now))

    def meddler(target):
        yield sim.timeout(1.0)
        target.interrupt()
        yield sim.timeout(1.0)
        gate.succeed("too late")  # the process no longer waits on this

    target = sim.process(sleeper())
    sim.process(meddler(target))
    sim.run()
    assert log == [("interrupted", 1.0), ("slept on", 6.0)]
    assert target.ok


def test_run_until_dispatches_nothing_later_and_lands_on_until():
    sim = Simulator()
    fired = []
    for when in (1.0, 2.0, 2.0 + 1e-12, 3.0):
        sim.timeout(when).add_callback(lambda _e, when=when: fired.append(when))
    sim.run(until=2.0)
    assert fired == [1.0, 2.0]  # when == until runs, when > until does not
    assert sim.now == 2.0
    assert sim.queue_size == 2
    sim.run(until=2.0 + 5e-13)  # nothing due: the clock still lands on until
    assert fired == [1.0, 2.0] and sim.now == 2.0 + 5e-13
    sim.run(until=1.0)  # an earlier bound never moves the clock back
    assert sim.now == 2.0 + 5e-13
    sim.run()
    assert fired == [1.0, 2.0, 2.0 + 1e-12, 3.0]


def test_background_only_events_do_not_hold_run_open():
    sim = Simulator()
    fired = []
    daemon = sim.timeout(1.0, background=True)
    daemon.add_callback(lambda _e: fired.append("daemon"))
    sim.run()
    assert fired == [] and sim.now == 0.0 and sim.queue_size == 1
    # a foreground event behind it carries the daemon along
    sim.timeout(2.0).add_callback(lambda _e: fired.append("client"))
    sim.run()
    assert fired == ["daemon", "client"]
    assert sim.step() is False


def _busy_sim():
    """A small sim touching every event source: processes, timeouts,
    resources, conditions, stores, device ops, an interrupt and a
    failing process."""
    sim = Simulator()
    ssd = SSD(sim)
    for block in range(3):
        ssd.write(block * 4096, 4096)
    ssd.read(0, 100_000)  # several controller chunks
    NetworkLink(sim).send(4096)
    cpu = Resource(sim, capacity=1)
    box = Store(sim)

    def worker(n):
        for _ in range(n):
            yield cpu.request()
            yield sim.timeout(0.5)
            cpu.release()
            box.put(n)

    def collector():
        while True:
            yield box.get()

    def waiter(procs):
        yield AllOf(sim, procs)
        yield AnyOf(sim, [sim.timeout(1.0), sim.timeout(2.0)])
        raise RuntimeError("ends failed")

    procs = [sim.process(worker(n)) for n in (1, 2, 3)]
    sim.process(waiter(procs))
    sim.process(collector()).interrupt("stop")
    return sim


def test_every_event_dispatches_through_process():
    """benchmarks/ledger reads ``sim.events_per_op`` as the profile's
    call count of ``Event._process``; an engine that dispatches an event
    any other way silently zeroes that figure."""
    counted = _busy_sim()
    dispatched = 0
    while counted.step():
        dispatched += 1
    assert dispatched > 40  # 28 engine-only events + the device ops

    profiled = _busy_sim()
    profile = cProfile.Profile()
    profile.enable()
    profiled.run(until=2.0)
    profiled.run()
    profile.disable()
    profile.create_stats()
    calls = sum(
        entry[1]
        for (filename, _line, func), entry in profile.stats.items()
        if func == "_process" and filename.endswith("engine.py")
    )
    assert calls == dispatched
    assert profiled.now == counted.now
