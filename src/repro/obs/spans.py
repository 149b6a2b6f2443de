"""Causal span trees with critical-path latency attribution.

The pipelined data plane (group commit, per-shard destage queues,
overlapped recovery) means a single virtual-disk write's latency is
spread across several queues and service stations.  Aggregate counters
and histograms (repro.obs.metrics) say *how much* time the system spent
flushing; they cannot say *which request* waited on that flush.  This
module adds the request-scoped view: a root :class:`Span` per I/O with
child spans for every stage it passes through — write-cache append,
batch seal (with seal reason), destage queue wait vs shard PUT service,
barrier queue wait vs device FLUSH, read-cache lookup / backend fetch,
GC select/materialize/relocate.

Propagation is by **explicit handles**: a stage that wants children
takes a ``span`` parameter (defaulting to :data:`NULL_SPAN`, a no-op
singleton, so uninstrumented callers pay nothing).  There is no
thread-local or ambient context — the simulator interleaves dozens of
generator processes on one thread, and an ambient context would
attribute one request's time to another.

Clock rules are the Trace's (LSVD003): timestamps come from whatever
virtual clock the embedding stack runs on (``sim.now`` in the timed
runtime, the TimedStore cost-model clock in the CLI) or from a logical
step counter when no clock is wired.  Never the wall clock; identical
runs serialise to byte-identical JSON.

Attribution is **exact-additive** by construction: a boundary sweep
over the tree's elementary intervals charges every instant of the
root's lifetime to exactly one stage (the deepest span active at that
instant, or ``"unattributed"`` when no child covers it), so the
per-stage components sum to the measured completion latency — the
invariant ``benchmarks/obs_smoke.py`` gates.

Completed trees feed two bounded consumers:

* :class:`CriticalPathAnalyzer` — per-tree (total, breakdown) records,
  p50/p99 tail decomposition, stage tables for ``repro spans`` and the
  stage-attribution section of ``repro stats``;
* :class:`FlightRecorder` — ring buffer of the last N complete trees,
  dumped as a JSON debug bundle on SLO breach, crash-test failure, or
  ``repro flightrec dump``.

The LSVD015 lint rule (span-hygiene) enforces the handle discipline:
every span begun must be ended or adopted on all normal-exit paths.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import Registry

#: attribution key for root time no child span covers
SELF_STAGE = "unattributed"

#: span kinds: time spent waiting in a queue vs being serviced
KIND_QUEUE = "queue"
KIND_SERVICE = "service"
_KINDS = (KIND_QUEUE, KIND_SERVICE)

AttrValue = object

#: shared empty-collection sentinels: a fresh span owns no attrs dict
#: and no children list until it actually needs one, keeping tracked
#: allocations per span to the instance itself (the cyclic collector's
#: traversal cost scales with tracked containers — it shows in the
#: ledger's ``obs.self_us_per_op``)
_NO_ATTRS: Dict[str, AttrValue] = {}
_NO_CHILDREN: Tuple["Span", ...] = ()


class Span:
    """One node of a causal span tree.

    ``start``/``stop`` are virtual-clock timestamps; ``stop`` is None
    while the span is open.  ``begin`` opens a child, ``end`` closes
    this span (idempotent — a second ``end`` is a no-op so ``finally``
    blocks stay simple).  Ending a *root* span hands the completed tree
    to its :class:`SpanRecorder`.
    """

    __slots__ = ("name", "kind", "start", "stop", "attrs", "children",
                 "_recorder", "_root")

    def __init__(
        self,
        name: str,
        kind: str,
        start: float,
        recorder: Optional["SpanRecorder"],
        root: bool = False,
    ):
        if kind is not KIND_SERVICE and kind not in _KINDS:
            raise ValueError(f"unknown span kind {kind!r}")
        self.name = name
        self.kind = kind
        self.start = start
        self.stop: Optional[float] = None
        # lazily materialized: the shared sentinels are never mutated
        self.attrs: Dict[str, AttrValue] = _NO_ATTRS
        self.children: List["Span"] = _NO_CHILDREN  # type: ignore[assignment]
        self._recorder = recorder
        self._root = root

    # -- lifecycle -------------------------------------------------------
    def begin(self, name: str, kind: str = KIND_SERVICE, **attrs: AttrValue) -> "Span":
        """Open a child span; the caller must ``end`` (or adopt) it."""
        # clock read and allocation inlined (vs recorder._now() and the
        # Span() constructor frame): begin/end bracket every stage on
        # the data plane, so each saved call is visible in the
        # ledger's obs.self_us_per_op
        if kind is not KIND_SERVICE and kind not in _KINDS:
            raise ValueError(f"unknown span kind {kind!r}")
        recorder = self._recorder
        if recorder is None:
            start = self.start
        elif recorder.clock is not None:
            start = float(recorder.clock())
        else:
            start = recorder._step
            recorder._step = start + 1.0
        child: "Span" = Span.__new__(Span)
        child.name = name
        child.kind = kind
        child.start = start
        child.stop = None
        child.attrs = attrs if attrs else _NO_ATTRS  # fresh dict: take it
        child.children = _NO_CHILDREN  # type: ignore[assignment]
        child._recorder = recorder
        child._root = False
        children = self.children
        if children is _NO_CHILDREN:
            children = self.children = []
        children.append(child)
        return child

    def end(self, **attrs: AttrValue) -> None:
        """Close the span (idempotent); roots complete into the recorder."""
        if attrs:
            self._merge_attrs(attrs)
        if self.stop is not None:
            return
        recorder = self._recorder
        if recorder is None:
            self.stop = self.start
            return
        if recorder.clock is not None:
            self.stop = float(recorder.clock())
        else:
            step = recorder._step
            recorder._step = step + 1.0
            self.stop = step
        if self._root:
            recorder._complete(self)

    def annotate(self, **attrs: AttrValue) -> None:
        if attrs:
            self._merge_attrs(attrs)

    def _merge_attrs(self, attrs: Dict[str, AttrValue]) -> None:
        if self.attrs is _NO_ATTRS:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    # -- inspection ------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self.stop is not None

    @property
    def duration(self) -> float:
        """Seconds (virtual) from start to stop; 0 while still open."""
        return (self.stop - self.start) if self.stop is not None else 0.0

    @property
    def enabled(self) -> bool:
        return True

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order over the tree rooted here."""
        stack: List["Span"] = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.stop,
        }
        if self.attrs:
            out["attrs"] = dict(sorted(self.attrs.items()))
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        """Rebuild a (completed, recorder-less) tree from :meth:`to_dict`."""
        span = cls(
            str(data["name"]),
            str(data.get("kind", KIND_SERVICE)),
            float(data["start"]),  # type: ignore[arg-type]
            recorder=None,
        )
        end = data.get("end")
        span.stop = float(end) if end is not None else None  # type: ignore[arg-type]
        attrs = data.get("attrs")
        if isinstance(attrs, dict) and attrs:
            span.attrs = dict(attrs)
        children = data.get("children")
        if isinstance(children, list):
            span.children = [
                cls.from_dict(child)
                for child in children
                if isinstance(child, dict)
            ]
        return span

    def __repr__(self) -> str:
        state = f"{self.duration:.6g}s" if self.ended else "open"
        return f"Span({self.name!r}, {self.kind}, {state}, children={len(self.children)})"


class _NullSpan:
    """No-op span: ``begin`` returns itself, everything else is free.

    Handed out by a disabled recorder and used as the default for every
    ``span=`` parameter, so uninstrumented call paths allocate nothing.
    """

    __slots__ = ()

    name = "null"
    kind = KIND_SERVICE
    start = 0.0
    stop: Optional[float] = 0.0
    attrs: Dict[str, AttrValue] = {}
    children: List[Span] = []

    def begin(self, name: str, kind: str = KIND_SERVICE, **attrs: AttrValue) -> "_NullSpan":
        return self

    def end(self, **attrs: AttrValue) -> None:
        return None

    def annotate(self, **attrs: AttrValue) -> None:
        return None

    @property
    def ended(self) -> bool:
        return True

    @property
    def duration(self) -> float:
        return 0.0

    @property
    def enabled(self) -> bool:
        return False

    def walk(self) -> Iterator[Span]:
        return iter(())

    def to_dict(self) -> Dict[str, object]:
        return {"name": "null", "kind": KIND_SERVICE, "start": 0.0, "end": 0.0}

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: the shared no-op span; identity-comparable (``span is NULL_SPAN``)
NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# critical-path attribution
# ---------------------------------------------------------------------------
def attribute(root: Span) -> Dict[str, float]:
    """Exact-additive decomposition of a completed tree's latency.

    Boundary sweep: collect every completed descendant interval (clamped
    to the root's bounds), cut the root's lifetime at every start/stop
    boundary, and charge each elementary interval to the **deepest**
    span covering it (ties broken by latest start — the most recently
    entered stage).  Intervals no child covers are charged to
    :data:`SELF_STAGE`.  The values sum to ``root.duration`` up to
    floating-point summation error.
    """
    if root.stop is None:
        raise ValueError(f"cannot attribute open span {root.name!r}")
    lo0, hi0 = root.start, root.stop
    intervals: List[Tuple[float, float, int, float, str]] = []

    def collect(span: Span, depth: int) -> None:
        for child in span.children:
            if child.stop is not None:
                a = max(child.start, lo0)
                b = min(child.stop, hi0)
                if b > a:
                    intervals.append((a, b, depth, child.start, child.name))
            collect(child, depth + 1)

    collect(root, 1)
    breakdown: Dict[str, float] = {}
    if not intervals:
        if hi0 > lo0:
            breakdown[SELF_STAGE] = hi0 - lo0
        return breakdown
    bounds = sorted({lo0, hi0, *(i[0] for i in intervals), *(i[1] for i in intervals)})
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        best: Optional[Tuple[int, float, str]] = None
        for a, b, depth, started, name in intervals:
            if a <= lo and hi <= b:
                key = (depth, started, name)
                if best is None or key > best:
                    best = key
        stage = best[2] if best is not None else SELF_STAGE
        breakdown[stage] = breakdown.get(stage, 0.0) + (hi - lo)
    return breakdown


def stage_kinds(root: Span) -> Dict[str, str]:
    """Stage name -> queue/service kind, over one tree."""
    kinds: Dict[str, str] = {}
    for span in root.walk():
        kinds.setdefault(span.name, span.kind)
    return kinds


class TreeRecord:
    """Bounded summary of one completed tree (the Span itself may be
    long gone from the flight-recorder ring)."""

    __slots__ = ("name", "total", "breakdown", "kinds")

    def __init__(self, name: str, total: float, breakdown: Dict[str, float],
                 kinds: Dict[str, str]):
        self.name = name
        self.total = total
        self.breakdown = breakdown
        self.kinds = kinds


class CriticalPathAnalyzer:
    """Additive queue/service decomposition of completion latency.

    Holds a bounded window (newest ``capacity`` trees); attribution is
    computed lazily at query time so completion stays cheap on the hot
    path (the ledger's ``obs.self_us_per_op``).  :meth:`decompose` averages the
    breakdowns of the trees at/above a latency percentile, so the
    reported stage components sum exactly to the reported mean tail
    latency.
    """

    def __init__(self, capacity: int = 16384):
        if capacity <= 0:
            raise ValueError("analyzer capacity must be positive")
        self.capacity = capacity
        self._roots: Deque[Span] = deque(maxlen=capacity)
        self.dropped = 0

    def add(self, root: Span) -> None:
        if len(self._roots) == self.capacity:
            self.dropped += 1
        self._roots.append(root)

    def __len__(self) -> int:
        return len(self._roots)

    def kinds(self) -> Dict[str, str]:
        """Stage name -> queue/service kind over the retained window."""
        out: Dict[str, str] = {}
        for root in self._roots:
            for span in root.walk():
                out.setdefault(span.name, span.kind)
        return out

    def roots(self, name: Optional[str] = None) -> List[Span]:
        """The retained trees (oldest first), optionally one root name's."""
        return [r for r in self._roots if name is None or r.name == name]

    def records(self, name: Optional[str] = None) -> List[TreeRecord]:
        return [
            TreeRecord(root.name, root.duration, attribute(root),
                       stage_kinds(root))
            for root in self.roots(name)
        ]

    def root_names(self) -> List[str]:
        return sorted({root.name for root in self._roots})

    def decompose(self, p: float, name: Optional[str] = None) -> Dict[str, object]:
        """Mean additive breakdown of the latency tail at percentile ``p``.

        Takes the ``ceil(count * (100 - p) / 100)`` slowest trees (at
        least one), and returns their mean total plus the mean per-stage
        contribution — stage values sum to ``latency_s`` exactly (mean
        of sums == sum of means).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p!r} out of range")
        records = self.records(name)
        if not records:
            return {"count": 0, "tail_count": 0, "latency_s": 0.0, "stages": {}}
        records.sort(key=lambda r: r.total)
        tail = max(1, -(-len(records) * (100 - int(p)) // 100))
        slowest = records[-tail:]
        stages: Dict[str, float] = {}
        for record in slowest:
            for stage, seconds in record.breakdown.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
        n = float(len(slowest))
        return {
            "count": len(records),
            "tail_count": len(slowest),
            "latency_s": sum(r.total for r in slowest) / n,
            "stages": {s: t / n for s, t in sorted(stages.items())},
        }

    def stage_totals(
        self, name: Optional[str] = None
    ) -> Dict[str, Tuple[str, int, float]]:
        """Stage -> (kind, trees containing it, total attributed seconds)."""
        out: Dict[str, Tuple[str, int, float]] = {}
        for record in self.records(name):
            for stage, seconds in record.breakdown.items():
                kind, count, total = out.get(
                    stage, (record.kinds.get(stage, KIND_SERVICE), 0, 0.0)
                )
                out[stage] = (kind, count + 1, total + seconds)
        return dict(sorted(out.items()))

    def clear(self) -> None:
        self._roots.clear()
        self.dropped = 0


class FlightRecorder:
    """Ring buffer of the last ``capacity`` complete span trees."""

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._trees: Deque[Span] = deque(maxlen=capacity)
        self.dropped = 0

    def add(self, root: Span) -> None:
        if len(self._trees) == self.capacity:
            self.dropped += 1
        self._trees.append(root)

    def trees(self) -> List[Span]:
        return list(self._trees)

    def __len__(self) -> int:
        return len(self._trees)

    def clear(self) -> None:
        self._trees.clear()
        self.dropped = 0


class SpanRecorder:
    """Factory + sink for span trees of one stack instance.

    Mirrors the Trace clock contract: ``clock`` is any zero-arg virtual
    clock (``sim.now``, ``TimedStore.now``); when None, a logical step
    counter stamps each begin/end so pure-logic code still yields
    well-ordered (if unit-free) trees.  ``enabled=False`` (or
    ``disable()``) makes :meth:`root` return :data:`NULL_SPAN`, so the
    whole instrumented path degenerates to attribute lookups on a
    singleton.
    """

    SLOWEST_KEEP = 32

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        flight_capacity: int = 64,
        analyzer_capacity: int = 16384,
        slo_s: Optional[float] = None,
        sample_every: int = 1,
    ):
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.clock = clock
        self.enabled = enabled
        #: head sampling: trace 1 of every N roots (1 = every request);
        #: counter-based, so identical runs sample identical requests
        self.sample_every = sample_every
        self._sample_tick = 0
        self.flight = FlightRecorder(flight_capacity)
        self.analyzer = CriticalPathAnalyzer(analyzer_capacity)
        #: completion-latency SLO; breaching trees bump the counter and
        #: invoke ``on_breach(root)`` (e.g. a debug-bundle dump hook)
        self.slo_s = slo_s
        self.on_breach: Optional[Callable[[Span], None]] = None
        self.completed = 0
        self.open_roots = 0
        self.slo_breaches = 0
        self._step = 0.0
        self._arrival = 0
        # K slowest completed trees, min-heap on (total, -seq) so the
        # fastest of the kept set is evicted first; deterministic ties.
        self._slowest: List[Tuple[float, int, Span]] = []
        global _LAST_RECORDER
        _LAST_RECORDER = self

    # -- clock -----------------------------------------------------------
    def _now(self) -> float:
        if self.clock is not None:
            return float(self.clock())
        step = self._step
        self._step = step + 1.0
        return step

    # -- tree lifecycle --------------------------------------------------
    def root(self, name: str, **attrs: AttrValue):
        """Open a root span (one per I/O / GC round / recovery sweep)."""
        if not self.enabled:
            return NULL_SPAN
        if self.sample_every > 1:
            self._sample_tick += 1
            if self._sample_tick % self.sample_every:
                return NULL_SPAN
        if self.clock is not None:
            start = float(self.clock())
        else:
            start = self._step
            self._step = start + 1.0
        span: Span = Span.__new__(Span)
        span.name = name
        span.kind = KIND_SERVICE
        span.start = start
        span.stop = None
        span.attrs = attrs if attrs else _NO_ATTRS  # fresh dict: take it
        span.children = _NO_CHILDREN  # type: ignore[assignment]
        span._recorder = self
        span._root = True
        self.open_roots += 1
        return span

    def _complete(self, root: Span) -> None:
        # one call per finished I/O: bounded-window bookkeeping is
        # inlined (no analyzer.add/flight.add calls) — this function is
        # most of what the ledger's obs.self_us_per_op measures
        self.completed += 1
        if self.open_roots > 0:
            self.open_roots -= 1
        analyzer = self.analyzer
        roots = analyzer._roots
        if len(roots) == analyzer.capacity:
            analyzer.dropped += 1
        roots.append(root)
        flight = self.flight
        trees = flight._trees
        if len(trees) == flight.capacity:
            flight.dropped += 1
        trees.append(root)
        duration = root.stop - root.start  # type: ignore[operator]
        slowest = self._slowest
        if len(slowest) < self.SLOWEST_KEEP or duration > slowest[0][0]:
            arrival = self._arrival
            self._arrival += 1
            heapq.heappush(slowest, (duration, -arrival, root))
            if len(slowest) > self.SLOWEST_KEEP:
                heapq.heappop(slowest)
        # Retained trees must not point back at the recorder: recorder
        # -> bounded deque -> span -> recorder is a reference cycle, so
        # every evicted tree would be cyclic garbage and the cyclic
        # collector a hot-path cost.  Ended spans never touch the
        # recorder again (end() bails on stop-is-set before reading
        # it); rare still-open children keep theirs so a late end()
        # still stamps the virtual clock.  Trees are root -> stages;
        # grandchildren are rare enough to take a slow path.
        root._recorder = None
        for child in root.children:
            if child.stop is not None:
                child._recorder = None
            if child.children:
                stack = list(child.children)
                while stack:
                    span = stack.pop()
                    if span.stop is not None:
                        span._recorder = None
                    if span.children:
                        stack.extend(span.children)
        if self.slo_s is not None and duration > self.slo_s:
            self.slo_breaches += 1
            if self.on_breach is not None:
                self.on_breach(root)

    def slowest(self, k: int = 10) -> List[Span]:
        """The K slowest completed trees, slowest first."""
        ranked = sorted(self._slowest, key=lambda item: (-item[0], item[1]))
        return [root for _, _, root in ranked[:k]]

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def clear(self) -> None:
        self.flight.clear()
        self.analyzer.clear()
        self.completed = 0
        self.open_roots = 0
        self.slo_breaches = 0
        self._step = 0.0
        self._arrival = 0
        self._sample_tick = 0
        self._slowest = []

    # -- export ----------------------------------------------------------
    def debug_bundle(self, reason: str = "manual") -> Dict[str, object]:
        """JSON-ready flight-recorder bundle (ring + slowest + stages)."""
        return {
            "bundle": "flightrec",
            "reason": reason,
            "completed": self.completed,
            "open_roots": self.open_roots,
            "slo_breaches": self.slo_breaches,
            "flight_dropped": self.flight.dropped,
            "stage_totals": {
                stage: {"trees": count, "seconds": total, "kind": kind}
                for stage, (kind, count, total)
                in self.analyzer.stage_totals().items()
            },
            "slowest": [root.to_dict() for root in self.slowest(self.SLOWEST_KEEP)],
            "trees": [root.to_dict() for root in self.flight.trees()],
        }

    def dump_debug_bundle(self, path: str, reason: str = "manual") -> str:
        """Write the bundle as JSON; returns the serialized text."""
        text = json.dumps(self.debug_bundle(reason), sort_keys=True, indent=2)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return text

    def publish(self, registry: "Registry") -> None:
        """Mirror span aggregates into the metrics registry (idempotent:
        absolute sets, so repeated publishes don't double-count)."""
        registry.counter("span.trees", "completed span trees").set(self.completed)
        registry.counter("span.slo_breaches", "trees over slo_s").set(self.slo_breaches)
        registry.gauge("span.open_roots", "roots begun, not ended").set(self.open_roots)
        registry.counter(
            "span.dropped", "trees evicted from bounded windows"
        ).set(self.flight.dropped + self.analyzer.dropped)
        for stage, (_kind, _count, total) in self.analyzer.stage_totals().items():
            registry.gauge(
                f"span.stage.{stage}_s", "attributed seconds (all trees)"
            ).set(total)


# module-level pointer to the most recently constructed recorder, so
# post-mortem hooks (pytest failure reports, crash harness) can dump a
# flight-recorder bundle without plumbing a registry through the stack.
_LAST_RECORDER: Optional[SpanRecorder] = None


def dump_last_flight(path: str, reason: str) -> bool:
    """Dump the most recent recorder's bundle; False when there is none
    or it never completed a tree (nothing worth writing)."""
    recorder = _LAST_RECORDER
    if recorder is None or recorder.completed == 0:
        return False
    recorder.dump_debug_bundle(path, reason)
    return True


# ---------------------------------------------------------------------------
# text rendering (repro spans / repro stats)
# ---------------------------------------------------------------------------
def format_tree(root: Span, unit: str = "s") -> str:
    """One tree as an indented text outline with durations and attrs."""
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        attrs = "".join(
            f" {k}={v}" for k, v in sorted(span.attrs.items())
        )
        marker = "~" if span.kind == KIND_QUEUE else " "
        lines.append(
            f"{'  ' * depth}{span.name:<{max(2, 24 - 2 * depth)}}"
            f"{marker}{span.duration:>12.6f}{unit}{attrs}"
        )
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)


def format_stage_table(analyzer: CriticalPathAnalyzer,
                       name: Optional[str] = None) -> str:
    """Stage breakdown table (stage, kind, trees, total, share)."""
    totals = analyzer.stage_totals(name)
    grand = sum(total for _kind, _count, total in totals.values()) or 1.0
    rows = [f"{'stage':<20} {'kind':<8} {'trees':>8} {'seconds':>14} {'share':>7}"]
    for stage, (kind, count, total) in totals.items():
        rows.append(
            f"{stage:<20} {kind:<8} {count:>8} {total:>14.6f} "
            f"{100.0 * total / grand:>6.1f}%"
        )
    return "\n".join(rows)


def format_decomposition(analyzer: CriticalPathAnalyzer,
                         name: Optional[str] = None) -> str:
    """p50/p99 tail decomposition lines for the stats headline."""
    lines: List[str] = []
    for p in (50, 99):
        decomp = analyzer.decompose(p, name)
        if not decomp["count"]:
            continue
        stages = decomp["stages"]
        assert isinstance(stages, dict)
        parts = " + ".join(
            f"{stage}:{seconds:.6f}" for stage, seconds in stages.items()
        ) or "(no timed stages)"
        lines.append(
            f"p{p} tail ({decomp['tail_count']}/{decomp['count']} trees) "
            f"{decomp['latency_s']:.6f}s = {parts}"
        )
    return "\n".join(lines)
