"""Additional engine edge cases: composite events, stores, errors."""


from repro.sim import AllOf, Simulator
from repro.sim.resources import Store


def test_all_of_failure_propagates():
    sim = Simulator()
    good = sim.timeout(1.0, "ok")
    bad = sim.event()
    caught = []

    def proc():
        try:
            yield AllOf(sim, [good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc())
    bad.fail(RuntimeError("child failed"))
    sim.run()
    assert caught == ["child failed"]


def test_nested_conditions():
    sim = Simulator()
    results = []

    def proc():
        inner = AllOf(sim, [sim.timeout(1, "a"), sim.timeout(2, "b")])
        values = yield AllOf(sim, [inner, sim.timeout(0.5, "c")])
        results.append((values, sim.now))

    sim.process(proc())
    sim.run()
    assert results == [([["a", "b"], "c"], 2.0)]


def test_process_waiting_on_completed_process():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(quick())
    sim.run()
    results = []

    def late_waiter():
        value = yield proc  # already-processed event: immediate callback
        results.append(value)

    sim.process(late_waiter())
    sim.run()
    assert results == ["done"]


def test_store_many_waiting_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    for tag in ("a", "b", "c"):
        sim.process(consumer(tag))

    def producer():
        for i in range(3):
            yield sim.timeout(1.0)
            store.put(i)

    sim.process(producer())
    sim.run()
    assert got == [("a", 0), ("b", 1), ("c", 2)]


def test_simultaneous_timeouts_fire_in_creation_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]
