"""Measurement core of the ledger: host clock, calibration, the run protocol.

**Host clock.**  Every workload is one thread that never sleeps, so the
time it costs is this process's CPU clock (``time.process_time``): wall
clock minus whatever the hypervisor or scheduler took away.  On the
shared 2-core box this was built on even CPU seconds stretch up to 2x
for seconds at a stretch (a sibling hyperthread, frequency steps), so
each measured section is bracketed by a fixed calibration kernel and its
cost is rescaled to *reference seconds*: the CPU seconds the section
would have cost had the kernel run at :data:`K_REF` beside it.  The
sections are short (~0.1 s) because the slowdowns are: calibrating every
0.1 s instead of every 1 s cut the run-to-run spread of ``vol-read-miss``
from 8 % to 2 % (raw CPU clock: 11 %; README.md, "Noise").

**Run protocol** (one fresh interpreter per run, see ``run.py``)::

    set-up x N (timed; the last world is kept)  ->  warm-up (untimed)
    -> exact window: a fixed number of fixed-size segments (each one timed
       section); every count
       and virtual-clock figure is read at its end, so it repeats exactly
    -> untraced run: more segments until ``--seconds`` of wall clock
       traced run:   a fixed number of segments under cProfile
    -> finish (crash + remount checks, accounting identities)
"""

from __future__ import annotations

import gc
import resource
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layerprof

#: calibration bursts per CPU second on a quiet core of the box the first
#: baseline was measured on; only fixes the scale of reference seconds,
#: never the comparison of two commits
K_REF = 180.0
#: the slowest 5 % of ops form the latency tail (see :func:`tail_mean`)
TAIL_SHARE = 0.05

_CALIB_BUF = bytearray(1 << 20)
_CALIB_PACK = struct.Struct("<8Q")


class _Box:
    __slots__ = ("lba", "length", "offset")

    def __init__(self, lba: int, length: int):
        self.lba = lba
        self.length = length
        self.offset = lba * 3

    def end(self) -> int:
        return self.lba + self.length


_CALIB_BOXES = [_Box(i * 8, 8) for i in range(6000)]


def calibrate() -> float:
    """Calibration bursts per CPU second, right now (one burst, ~6 ms).

    Half the burst is what the stack's hot paths are made of — 4 KiB slice
    copies, small-object construction, a method call, dict stores,
    ``struct`` packing into a buffer; the other half chases pointers
    through a list of small objects, as the map scans do.  A pure integer
    loop tracked the workloads' slowdowns half as well as the first half
    alone, and ``vol-read-miss`` needed the second half too (README.md,
    "Noise").
    """
    buf = _CALIB_BUF
    table: Dict[int, object] = {}
    pack_into = _CALIB_PACK.pack_into
    boxes = _CALIB_BOXES
    start = time.process_time()
    for i in range(1300):
        off = (i * 4096) & 0xFF000
        block = bytes(buf[off : off + 4096])
        table[i & 1023] = (_Box(off, 4096).end(), block)
        pack_into(buf, off, i, i, i, i, i, i, i, i)
    for lo in range(24000, 24011):
        hi = lo + 100
        table[lo] = [b for b in boxes if not (b.offset + b.length <= lo or b.offset >= hi)]
    return 1.0 / (time.process_time() - start)


class Meter:
    """CPU-clock stopwatch that calibrates beside everything it times."""

    def __init__(self) -> None:
        self.samples: List[float] = [calibrate()]

    def timed(self, fn: Callable, *args, profiler=None):
        """Run ``fn(*args)`` (under ``profiler`` if given); returns
        (result, reference seconds, factor).

        ``factor`` converts a host duration measured inside the call to
        reference time (multiply).
        """
        before = self.samples[-1]
        start = time.process_time()
        out = fn(*args) if profiler is None else profiler.call(fn, *args)
        cpu = time.process_time() - start
        after = calibrate()
        self.samples.append(after)
        factor = (before + after) / (2.0 * K_REF)
        return out, cpu * factor, factor


@dataclass
class Segment:
    """One measured section of the timed phase."""

    ops: int  # client reads + writes completed
    ref_s: float  # host cost in reference seconds
    #: per-op client latencies in seconds by kind ("read"/"write"/"sim");
    #: host-clock samples arrive already rescaled to reference time
    lat: Dict[str, List[float]] = field(default_factory=dict)


class Scenario:
    """What a workload must provide; see ``scenarios.py``."""

    #: which latency kinds feed the end-to-end client latency metrics
    client_kinds: Sequence[str] = ()
    #: client latencies are on the virtual clock: take them from the exact
    #: window only, so they repeat exactly like every other virtual figure
    virtual_client = False

    def __init__(self, name: str, seed: int, quick: bool = False):
        self.name = name
        self.seed = seed
        self.quick = quick
        self.attempted = 0  # client ops issued, set-up and warm-up included
        self.failed = 0  # ops that raised or returned the wrong bytes
        self.first_failure: Optional[str] = None
        #: backend bytes stored / live bytes, sampled after every segment:
        #: utilisation saw-tooths between the GC watermarks, so one reading
        #: at the window's end moved 7 % with the seed; the mean does not
        self.space_amp: List[float] = []

    def window_space_amp(self, start: Dict[str, float], end: Dict[str, float]) -> float:
        """Mean of the samples taken between two :meth:`counters` reads
        (both carry ``space_samples``, the sample count at the time)."""
        samples = self.space_amp[int(start["space_samples"]) : int(end["space_samples"])]
        return sum(samples) / len(samples) if samples else 0.0

    def setup(self) -> None:
        """Build a fresh world from the seed, replacing any previous one."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed ops that bring caches and the cleaner to steady state."""
        raise NotImplementedError

    def segment(self, meter: Meter, profiler=None) -> Segment:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative raw counts read through public stats objects."""
        raise NotImplementedError

    def exact(self, start: Dict[str, float], end: Dict[str, float]) -> Dict[str, float]:
        """Metrics that repeat exactly, from two :meth:`counters` reads."""
        raise NotImplementedError

    def finish(self) -> Dict[str, object]:
        """Post-run checks; returns at least ``durability_errors``."""
        raise NotImplementedError


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def tail_mean(ordered: Sequence[float], share: float = TAIL_SHARE) -> float:
    """Mean of the slowest ``share`` of an already sorted sample.

    The write path's latency density is steep exactly at p99 (0.3 % of
    writes seal a batch and run the cleaner, 100-1000x the median), so
    the p99 *quantile* moved 2-4x between identical runs, while the mean
    of the slow ops — their total cost — held to a few percent.  It is
    also what ``obs.spans.CriticalPathAnalyzer.decompose`` reports.
    """
    if not ordered:
        return 0.0
    count = max(1, int(len(ordered) * share))
    return sum(ordered[-count:]) / count


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median — the driver's steadiness figure."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


def _pooled(segments: Sequence[Segment], kinds: Sequence[str]) -> List[float]:
    out: List[float] = []
    for seg in segments:
        for kind in kinds:
            out.extend(seg.lat.get(kind, ()))
    out.sort()
    return out


def _rate(segments: Sequence[Segment]) -> Tuple[int, float]:
    return sum(s.ops for s in segments), sum(s.ref_s for s in segments)


def run(
    make_scenario: Callable[[], Scenario],
    seconds: float,
    trace: bool,
    exact_segments: int,
    profile_segments: int,
    setup_reps: int,
) -> Dict[str, object]:
    """Drive one workload through the run protocol; returns the report."""
    meter = Meter()
    setup_s: List[float] = []
    scenario = None
    # at least ``setup_reps`` set-ups; a set-up of a few ms (the timed rig)
    # is repeated until a quarter second has been measured, so that its
    # median is as steady as the slow ones'
    while len(setup_s) < setup_reps or (sum(setup_s) < 0.25 and len(setup_s) < 31):
        del scenario  # the previous world must be gone before the next is built
        gc.collect()
        scenario = make_scenario()
        _, ref_s, _ = meter.timed(scenario.setup)
        setup_s.append(ref_s)
    scenario.warmup()
    gc.collect()

    began = time.perf_counter()
    start = scenario.counters()
    window = [scenario.segment(meter) for _ in range(exact_segments)]
    exact = scenario.exact(start, scenario.counters())
    extra: List[Segment] = []
    profile = layerprof.Profile()
    if trace:
        extra = [scenario.segment(meter, profile) for _ in range(profile_segments)]
    else:
        while time.perf_counter() - began < seconds:
            extra.append(scenario.segment(meter))
    measured_s = time.perf_counter() - began
    # read before the post-run checks so their memory does not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = scenario.finish()

    metrics: Dict[str, float] = dict(exact)
    ops, ref_s = _rate(window)
    if trace:
        traced_ops, traced_s = _rate(extra)
        metrics.update(profile.report(traced_ops))
        metrics["profile.overhead_frac"] = (traced_s / traced_ops) / (ref_s / ops) - 1.0
        events = metrics["sim.events_per_op"]
        metrics["sim.host_us_per_event"] = ref_s / ops / events * 1e6 if events else 0.0
        for kind in ("read", "write"):
            samples = _pooled(window, (kind,))
            metrics[f"core.volume.{kind}_p50_us"] = percentile(samples, 0.5) * 1e6
            metrics[f"core.volume.{kind}_tail_us"] = tail_mean(samples) * 1e6
        metrics["bench.calib_per_s"] = statistics.median(meter.samples)
        metrics["bench.calib_spread"] = spread(meter.samples)
        metrics["bench.durability_errors"] = verdict["durability_errors"]
    else:
        segments = window + extra
        ops, ref_s = _rate(segments)
        client = _pooled(
            window if scenario.virtual_client else segments, scenario.client_kinds
        )
        metrics["host_ops_per_cpu_s"] = ops / ref_s
        metrics["client_lat_p50_us"] = percentile(client, 0.5) * 1e6
        metrics["client_lat_tail_us"] = tail_mean(client) * 1e6
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = peak_rss_mb
    return {
        "scenario": scenario,
        "metrics": metrics,
        "verdict": verdict,
        "info": {
            "measured_s": measured_s,
            "segments": len(window) + len(extra),
            "latency_samples": sum(
                len(v) for s in window + extra for v in s.lat.values()
            ),
            "calib_per_s": statistics.median(meter.samples),
            "calib_spread": spread(meter.samples),
        },
    }
