"""LSVD003 — core/sim/workload code must be deterministic.

Every experiment in the paper is a replayable simulation: results are a
pure function of (trace, config, seed).  A single ``time.time()`` or
unseeded RNG in the hot path silently breaks replayability — failures
stop reproducing, CI becomes flaky, and §4's figures stop being
regenerable.  Inside the deterministic directories only the simulated
clock (``sim.now``) and explicitly seeded ``random.Random(seed)``
instances are allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.framework import ModuleContext, Rule

#: directories whose code must be deterministic (simulated clock +
#: seeded RNG only) for experiments to be replayable (§4)
DETERMINISM_DIRS: Tuple[str, ...] = (
    "core/",
    "sim/",
    "gcsim/",
    "workloads/",
    "devices/",
    "crash/",
    "obs/",
    "shard/",
    "fleet/",
)

#: call origins that read the wall clock
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: call origins that draw from the OS entropy pool (plus all of ``secrets``)
OS_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: module-level random.* functions draw from the shared, unseeded global RNG
RANDOM_MODULE = "random"
RANDOM_CLASS = "random.Random"
SYSTEM_RANDOM = "random.SystemRandom"


class DeterminismRule(Rule):
    """Invariant:
        Simulation and core logic read time only from the simulated
        clock and randomness only from seeded generators, so every
        experiment replays bit-identically.

    Example violation::

        start = time.time()        # wall clock inside core/

    Paper:
        §4 — the evaluation compares latency/throughput curves across
        runs; nondeterministic inputs would make Figures 13-15
        unreproducible.
    """

    code = "LSVD003"
    name = "determinism"
    summary = (
        "wall-clock reads and unseeded randomness are forbidden in "
        + ", ".join(DETERMINISM_DIRS[:-1])
        + f" and {DETERMINISM_DIRS[-1]}"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_in_dirs(ctx.path, DETERMINISM_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.imports.qualified(node.func)
            if origin is None:
                continue
            finding = self._classify(node, origin)
            if finding is None:
                continue
            message, fixit = finding
            yield self.diag(ctx, node, message, fixit)

    def _classify(self, node: ast.Call, origin: str) -> Optional[tuple]:
        if origin in WALL_CLOCK_CALLS:
            return (
                f"wall-clock read {origin}() in deterministic code; experiments "
                "must be a pure function of (trace, config, seed)",
                "take the simulated clock (sim.now) or a timestamp parameter instead",
            )
        if origin in OS_ENTROPY_CALLS or origin.startswith("secrets."):
            return (
                f"{origin}() draws from the OS entropy pool and can never be replayed",
                "derive the value from a seeded source (random.Random(seed) or an "
                "id the caller passes in)",
            )
        if origin == SYSTEM_RANDOM:
            return (
                "random.SystemRandom draws from the OS entropy pool and can "
                "never be replayed",
                "use random.Random(seed) with a seed derived from the experiment config",
            )
        if origin == RANDOM_CLASS and not node.args and not node.keywords:
            return (
                "unseeded random.Random() is seeded from the OS and breaks replay",
                "pass an explicit seed (or derive one from existing deterministic state)",
            )
        if origin.startswith(RANDOM_MODULE + ".") and origin.count(".") == 1:
            func = origin.split(".", 1)[1]
            if func not in {"Random", "SystemRandom"}:
                return (
                    f"module-level random.{func}() uses the shared unseeded "
                    "global RNG",
                    "hold a random.Random(seed) instance and call its method instead",
                )
        return None
