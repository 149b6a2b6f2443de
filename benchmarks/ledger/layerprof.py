"""Per-layer host-time attribution from a ``cProfile`` run.

Every profiled function's *self* time lands in exactly one bucket, so the
buckets add up to the profiled total:

* a function under ``src/repro`` belongs to its module's layer
  (``core/volume.py`` -> ``core.volume``, ``sim/engine.py`` -> ``sim``;
  modules outside ``catalog.LAYERS`` go to ``other``);
* a function in the benchmark's own files is ``bench`` (harness frames);
* everything else — built-ins, the standard library, numpy — is charged
  to whichever layer called it, following the profile's caller edges
  through other foreign frames until a layer is reached.

The profiler stays in the benchmark's files on purpose: spans inside the
program are a later change (ROADMAP item 1a).
"""

from __future__ import annotations

import cProfile
import os
from typing import Callable, Dict, Optional, Tuple

from catalog import FUNCTIONS, LAYERS

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + "repro" + os.sep
OTHER = "other"

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """Bucket of a source file; None for foreign code."""
    if filename.startswith(_HERE):
        return "bench"
    at = filename.rfind(_REPRO)
    if at < 0:
        return None
    parts = filename[at + len(_REPRO) :].split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    qualified = f"{parts[0]}.{stem}" if len(parts) > 1 else stem
    if qualified in LAYERS:
        return qualified
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else OTHER


class Profile:
    """Accumulates cProfile data over several profiled calls."""

    def __init__(self) -> None:
        self._prof = cProfile.Profile()

    def call(self, fn: Callable, *args):
        self._prof.enable()
        try:
            return fn(*args)
        finally:
            self._prof.disable()

    def report(self, ops: int) -> Dict[str, float]:
        """Self time per layer, calls and inclusive time per catalogued
        function, all per client op, plus coverage and DES event count."""
        self._prof.create_stats()
        stats = self._prof.stats  # func -> (cc, nc, tt, ct, callers)
        buckets = attribute(stats)
        total = sum(entry[2] for entry in stats.values())
        per_op = 1e6 / ops
        out = {f"{layer}.self_us_per_op": buckets.get(layer, 0.0) * per_op for layer in LAYERS}
        out[f"{OTHER}.self_us_per_op"] = (
            sum(v for k, v in buckets.items() if k not in LAYERS) * per_op
        )
        out["profile.total_us_per_op"] = total * per_op
        covered = sum(buckets.get(layer, 0.0) for layer in LAYERS)
        out["profile.coverage_frac"] = covered / total if total else 0.0
        for prefix, (suffix, name) in FUNCTIONS.items():
            calls = busy = 0.0
            for (filename, _line, func), entry in stats.items():
                if func == name and filename.endswith(os.sep + suffix):
                    calls += entry[1]
                    busy += entry[3]
            out[f"{prefix}.calls_per_op"] = calls / ops
            out[f"{prefix}.busy_us_per_op"] = busy * per_op
        events = sum(
            entry[1]
            for (filename, _line, func), entry in stats.items()
            if func == "_process" and filename.endswith(os.path.join("sim", "engine.py"))
        )
        out["sim.events_per_op"] = events / ops
        return out


def attribute(stats: Dict[FuncKey, tuple]) -> Dict[str, float]:
    """Self seconds per bucket; foreign time follows its callers."""
    shares_memo: Dict[FuncKey, Dict[str, float]] = {}

    def shares(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Who answers for time spent under foreign ``func``, as fractions."""
        known = shares_memo.get(func)
        if known is not None:
            return known
        callers = stats[func][4]
        if not callers or func in visiting:
            return {OTHER: 1.0}
        weights = {c: edge[3] for c, edge in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(edge[0]) for c, edge in callers.items()}
        scale = sum(weights.values())
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            layer = layer_of(caller[0])
            owners = (
                {layer: 1.0}
                if layer is not None
                else shares(caller, visiting | {func})
            )
            for owner, fraction in owners.items():
                out[owner] = out.get(owner, 0.0) + fraction * weight / scale
        shares_memo[func] = out
        return out

    buckets: Dict[str, float] = {}
    for func, (_cc, _nc, self_s, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            buckets[layer] = buckets.get(layer, 0.0) + self_s
            continue
        if self_s <= 0.0:
            continue
        # the caller edges' self times add up to the function's own, except
        # for root frames (no caller: theirs stays in ``other``) and rare
        # recursive built-ins (edges double-count: rescaled to the total)
        owed: Dict[str, float] = {}
        for caller, edge in callers.items():
            caller_layer = layer_of(caller[0])
            owners = (
                {caller_layer: 1.0}
                if caller_layer is not None
                else shares(caller, frozenset((func,)))
            )
            for owner, fraction in owners.items():
                owed[owner] = owed.get(owner, 0.0) + edge[2] * fraction
        charged = sum(owed.values())
        if charged <= 0.0:
            owed, charged = {OTHER: self_s}, self_s
        for owner, seconds in owed.items():
            buckets[owner] = buckets.get(owner, 0.0) + seconds * self_s / charged
    return buckets
