"""Shared pytest wiring: flight-recorder bundles for failed tests.

When a test fails, dump the most recent span recorder's flight-recorder
bundle (last N completed span trees + stage totals) next to the other
bench artifacts so CI can upload it; see DESIGN.md "Span tracing".
Directory override: ``REPRO_FLIGHTREC_DIR`` (default ``bench-out``).
"""

import os
import re
from bisect import bisect_right

import pytest

from repro.core import extent_map
from repro.obs.spans import dump_last_flight


def _bundle_path(nodeid: str) -> str:
    out_dir = os.environ.get("REPRO_FLIGHTREC_DIR", "bench-out")
    os.makedirs(out_dir, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", nodeid)[-80:]
    return os.path.join(out_dir, f"flightrec_{safe}.json")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        try:
            dump_last_flight(_bundle_path(item.nodeid), reason=f"pytest: {item.nodeid}")
        except (OSError, ValueError):  # ValueError: a span the failure left open
            pass  # a failed dump must never mask the real test failure


@pytest.fixture
def count_routings(monkeypatch):
    """``count_routings(*maps)`` returns a list that grows by one entry per
    leaf routing into any of ``maps`` from then on — a bisect of an
    ``ExtentMap``'s top-level leaf index, the step every map visit starts
    with.  A count, not a clock: cost guards hold the map work per I/O."""

    def start(*maps):
        indexes = {id(m._firsts) for m in maps}
        routed = []

        def counting_bisect(a, x, *args):
            if id(a) in indexes:
                routed.append(x)
            return bisect_right(a, x, *args)

        monkeypatch.setattr(extent_map, "bisect_right", counting_bisect)
        return routed

    return start
