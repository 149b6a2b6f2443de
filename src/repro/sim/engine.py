"""Core discrete-event simulation engine.

Time is a float in **seconds**.  The :class:`Simulator` owns an event heap;
:class:`Process` objects are generator-driven coroutines that yield
:class:`Event` instances and resume when they trigger.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, Optional

#: value of an event nobody has triggered yet (``None`` is a legal value)
_PENDING: Any = object()
_FOREVER = float("inf")


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double trigger, bad yield)."""


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event moves through three states: *pending* -> *triggered* ->
    *processed*.  ``succeed``/``fail`` trigger it; the simulator then runs
    its callbacks at the current simulation time.

    ``background`` marks daemon activity (periodic pollers): an
    unbounded :meth:`Simulator.run` stops once only background events
    remain, the way a program exits when only daemon threads are left.
    """

    # pending = ``_value is _PENDING``; processed = ``callbacks is None``
    # (typed as a list: only ``_process`` sets it to None)
    __slots__ = ("sim", "callbacks", "_value", "_ok", "background")

    def __init__(self, sim: "Simulator", background: bool = False):
        self.sim = sim
        self.callbacks: list = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self.background = background

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        sim = self.sim
        sim._queue.append(self)
        if self.background:
            sim._background += 1
        return self

    def succeed_after(self, delay: float, value: Any = None) -> "Event":
        """Trigger now, run the callbacks ``delay`` seconds from now.

        What a process that yields ``sim.timeout(delay)`` and then calls
        ``succeed`` achieves, in one heap entry instead of two events:
        the event takes the timeout's place in the heap.
        """
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1  # lint: disable=LSVD002 -- event-heap tiebreaker, not a log seq
        heapq.heappush(sim._heap, (sim.now + delay, seq, self))
        if self.background:
            sim._background += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._queue.append(self)
        if self.background:
            sim._background += 1
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed."""
        if self.callbacks is None:
            # Already processed: run immediately (still inside sim step).
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        # every dispatched event goes through exactly one call of this
        # function: benchmarks/ledger counts its profile calls as
        # ``sim.events_per_op``
        callbacks = self.callbacks
        self.callbacks = None  # type: ignore[assignment]
        for fn in callbacks:
            fn(self)


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        background: bool = False,
    ):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # one per CPU slice and link transfer: built flat, without the
        # Event.__init__ / succeed_after call chain
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.background = background
        sim._seq = seq = sim._seq + 1  # lint: disable=LSVD002 -- event-heap tiebreaker, not a log seq
        heapq.heappush(sim._heap, (sim.now + delay, seq, self))
        if background:
            sim._background += 1


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator must yield :class:`Event` instances.  When a yielded
    event succeeds the generator is resumed with its value; when it fails
    the exception is thrown into the generator.
    """

    __slots__ = ("gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot.succeed()

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.sim.strict:
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)  # already processed: continue at once
        else:
            callbacks.append(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; value = list of values."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self.events])


class Simulator:
    """Event loop with a monotonically advancing virtual clock.

    Ordering contract (tests/test_sim_engine.py pins each clause):
    events triggered at one instant run in trigger order (the same-time
    queue is FIFO); events scheduled for one later instant run in the
    order they were scheduled (the heap breaks ties by a sequence
    number); the same-time queue is drained before the heap is looked
    at, so everything caused at ``now`` happens before the clock moves.
    """

    def __init__(self, strict: bool = False):
        #: current simulation time in seconds
        self.now: float = 0.0
        #: re-raise process exceptions instead of failing the process event
        self.strict = strict
        self._heap: list = []  # (time, seq, event)
        self._seq = 0
        self._queue: Deque[Event] = deque()  # events triggered at `now`, FIFO
        self._background = 0  # scheduled background (daemon) events

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(
        self, delay: float, value: Any = None, background: bool = False
    ) -> Timeout:
        return Timeout(self, delay, value, background)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- callback scheduling (device-op records) ---------------------------
    def call_at(self, when: float, fn: Callable[[Event], None]) -> None:
        """Run ``fn(event)`` at ``when`` (>= now) exactly: no float round
        trip through a delay."""
        event = Event(self)
        event._value = None
        event.callbacks.append(fn)
        self._seq = seq = self._seq + 1  # lint: disable=LSVD002 -- event-heap tiebreaker, not a log seq
        heapq.heappush(self._heap, (when, seq, event))

    def call_next(self, fn: Callable[[Optional[Event]], None], inline: bool = True) -> None:
        """Run ``fn`` from an event queued at ``now`` or, ``inline`` with
        nothing queued, at once — exact as the current event's last act."""
        if inline and not self._queue:
            return fn(None)
        event = Event(self)
        event.callbacks.append(fn)
        event.succeed()

    # -- execution ---------------------------------------------------------
    def _dispatch(self, until: float, once: bool, daemons: bool) -> bool:
        """The one dispatch loop: process events up to ``until``.

        ``once`` stops after one event; ``daemons=False`` stops when only
        background events are left.  Returns True if it stopped on either
        of those, False when nothing was left to run at or before
        ``until``.  Delays are never negative, so the heap top is never
        earlier than ``now``.
        """
        queue = self._queue
        heap = self._heap
        popleft = queue.popleft
        heappop = heapq.heappop
        while daemons or len(queue) + len(heap) > self._background:
            if queue:
                event = popleft()
            elif heap and heap[0][0] <= until:
                self.now, _seq, event = heappop(heap)
            else:
                return False
            if event.background:
                self._background -= 1
            event._process()
            if once:
                break
        return True

    def step(self) -> bool:
        """Process one event; return False when nothing remains."""
        return self._dispatch(until=_FOREVER, once=True, daemons=True)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or ``until`` seconds pass.

        With no ``until``, the run ends once only *background* (daemon)
        events remain — periodic pollers never hold the simulation open.
        A bounded run dispatches nothing scheduled after ``until`` and
        leaves ``now == until``.
        """
        if until is None:
            self._dispatch(until=_FOREVER, once=False, daemons=False)
        else:
            self._dispatch(until=until, once=False, daemons=True)
            self.now = max(self.now, until)

    def run_until_event(self, event: Event, limit: float = _FOREVER) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, or
        :class:`SimulationError` if the queue drains first.
        """
        while not event.processed:
            if self.now > limit:
                raise SimulationError(f"event not triggered by t={limit}")
            if not self.step():
                raise SimulationError("simulation ended before event fired")
        if not event._ok:
            raise event._value
        return event._value
