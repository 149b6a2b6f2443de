"""Deterministic metrics registry: counters, gauges, latency histograms.

Every layer of the stack registers named metrics into one
:class:`Registry` so that the numbers behind the paper's evaluation
(write amplification, cache hit ratios, GC relocation volume, backend
latency percentiles — Figs. 6-16, Tabs. 3-6) all come from the same
substrate instead of ad-hoc per-class counters.

Metric names are dotted, ``<layer>.<quantity>[_<unit>]`` —
``store.gc_bytes``, ``rc.hits``, ``backend.put_latency_s`` — so a
snapshot sorts into layer groups and exporters can mangle them
mechanically (Prometheus replaces the dots with underscores).

Determinism rules (the same LSVD003 contract as the rest of the tree):
nothing in this module reads a wall clock or draws randomness; histogram
bucket bounds are fixed at construction, so identical runs produce
byte-identical snapshots.

Declared fields: metrics by pull
--------------------------------
:class:`metric_field` / :class:`gauge_field` are plain class-level
declarations.  :func:`bind_metrics` zeroes each as an instance attribute
(``self.hits += 1`` is one store) and registers ``(instance, attribute)``
as a source that ``value``/``get``/``snapshot``/``reset`` sum.  Holders of
one name on one registry are summed, so a registry observes one volume
instance's lifetime.  Never write ``obj.__dict__``: on CPython 3.11 that
takes every later attribute load off the inline-values fast path.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: 1-2-5 log-spaced latency buckets, 1 microsecond .. 50 seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    float(f"{m}e{e}") for e in range(-6, 2) for m in (1, 2, 5)
)

#: power-of-two object/request size buckets, 512 B .. 256 MiB.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = tuple(float(512 << i) for i in range(20))


class Counter:
    """A monotonically *intended* integer counter (set() exists for
    report-time copies that assign absolute values)."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time level (cache occupancy, dirty bytes)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with exact min/max/sum/count.

    Percentiles resolve to the upper bound of the bucket containing the
    requested rank, clamped into ``[min, max]`` so single-sample and
    tight distributions report exact values; samples beyond the last
    bound land in an overflow bucket that reports the observed maximum.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        # one count per bound, plus the overflow bucket
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value`` (merged-op accounting)."""
        if count <= 0:
            return
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        self.bucket_counts[index] += count
        self.count += count
        self.sum += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100), bucket-resolution."""
        if self.count == 0:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p!r} out of range")
        rank = max(1, math.ceil(self.count * p / 100.0))
        running = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            running += bucket_count
            if running >= rank:
                if index < len(self.bounds):
                    estimate = self.bounds[index]
                else:
                    estimate = self.max if self.max is not None else 0.0
                lo = self.min if self.min is not None else estimate
                hi = self.max if self.max is not None else estimate
                return min(max(estimate, lo), hi)
        return self.max if self.max is not None else 0.0

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


Metric = Union[Counter, Gauge, Histogram]


class Registry:
    """Named metrics plus the structured trace for one stack instance.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers the metric, later calls return the same object (and raise
    if the name is already registered as a different kind).
    """

    def __init__(self) -> None:
        from repro.obs.spans import SpanRecorder  # local import, avoids a cycle
        from repro.obs.trace import Trace

        self._metrics: Dict[str, Metric] = {}
        #: metric name -> the (holder, attribute) pairs whose sum it reads
        self._sources: Dict[str, List[Tuple[object, str]]] = {}
        self.trace = Trace()
        #: causal span trees (same clock contract as the trace)
        self.spans: SpanRecorder = SpanRecorder()

    # -- get-or-create ---------------------------------------------------
    def _register(self, name: str, kind: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._register(name, "counter", lambda: Counter(name, help))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._register(name, "gauge", lambda: Gauge(name, help))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        metric = self._register(
            name, "histogram", lambda: Histogram(name, buckets, help)
        )
        assert isinstance(metric, Histogram)
        return metric

    # -- inspection ------------------------------------------------------
    def _pull(self, metric: Metric) -> Metric:
        """Refresh a sourced counter/gauge from its holders' attributes."""
        sources = self._sources.get(metric.name)
        if sources:
            metric.value = sum(getattr(holder, attr) for holder, attr in sources)
        return metric

    def get(self, name: str) -> Optional[Metric]:
        metric = self._metrics.get(name)
        return None if metric is None else self._pull(metric)

    def value(self, name: str, default: float = 0) -> float:
        """Scalar value of a counter/gauge (``default`` when absent)."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return default
        return self._pull(metric).value

    def metrics(self) -> List[Metric]:
        """All registered metrics, sorted by name (deterministic order)."""
        return [self._pull(self._metrics[name]) for name in sorted(self._metrics)]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self.metrics())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- lifecycle -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Name -> value map (histograms expand to their summary dict)."""
        return {metric.name: metric.snapshot() for metric in self.metrics()}

    def reset(self) -> None:
        """Zero every metric, clear the trace and spans; names stay
        registered."""
        for sources in self._sources.values():
            for holder, attr in sources:
                setattr(holder, attr, 0)
        for metric in self._metrics.values():
            metric.reset()
        self.trace.clear()
        self.spans.clear()


# ---------------------------------------------------------------------------
# declared fields
# ---------------------------------------------------------------------------
class metric_field:
    """Class-level declaration of a per-instance counter attribute.

    After :func:`bind_metrics` the instance attribute is a plain int;
    the class attribute stays this declaration, so ``+=`` on an unbound
    instance raises ``TypeError``.
    """

    kind = "counter"
    __slots__ = ("metric_name",)

    def __init__(self, metric_name: str):
        self.metric_name = metric_name


class gauge_field(metric_field):
    """Like :class:`metric_field`, but read as a Gauge (levels, not
    cumulative counts — e.g. ``dirty_bytes``)."""

    kind = "gauge"
    __slots__ = ()


def bind_metrics(obj: object) -> None:
    """Zero every declared field of ``obj`` and register it as a source.

    Called from each holder's constructor once ``obj.obs`` is set, so
    the registry lists all the class's metrics (at zero) before the
    first increment and snapshots have a stable shape across runs.
    """
    registry: Registry = getattr(obj, "obs")
    cls = type(obj)
    for attr in dir(cls):
        field = getattr(cls, attr, None)
        if isinstance(field, metric_field):
            setattr(obj, attr, 0)
            getattr(registry, field.kind)(field.metric_name)  # counter()/gauge()
            registry._sources.setdefault(field.metric_name, []).append((obj, attr))
