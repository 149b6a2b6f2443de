"""Unit tests for repro.obs.spans: span trees, exact-additive attribution,
the bounded window, hot-path invariants (lazy sentinels, no cyclic garbage)."""

import gc
import random

import pytest

from repro.obs import (
    NULL_SPAN,
    Registry,
    SpanRecorder,
)
from repro.obs import spans
from repro.obs.spans import SELF_STAGE, attribute


@pytest.fixture
def every_op_traced(monkeypatch):
    """Span mechanics below build one tree per root: no sampling."""
    monkeypatch.setattr(spans, "SAMPLE_EVERY", 1)


class ManualClock:
    """Virtual clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_step_clock_orders_tree(self):
        rec = SpanRecorder()
        root = rec.root("write")
        child = root.begin("wc_append")
        child.end()
        root.end()
        assert (root.start, child.start, child.stop, root.stop) == (0.0, 1.0, 2.0, 3.0)
        assert root.duration == 3.0
        assert [s.name for s in root.walk()] == ["write", "wc_append"]

    def test_end_is_idempotent(self):
        rec = SpanRecorder()
        root = rec.root("write")
        root.end()
        stop = root.stop
        root.end()
        assert root.stop == stop
        assert rec.completed == 1

    def test_unknown_kind_rejected(self):
        rec = SpanRecorder()
        root = rec.root("write")
        with pytest.raises(ValueError):
            root.begin("stage", kind="data")
        root.end()

    def test_queue_kind_recorded(self):
        rec = SpanRecorder()
        root = rec.root("write")
        q = root.begin("space_wait", kind="queue")
        q.end()
        root.end()
        assert q.kind == "queue"

    def test_end_and_annotate_merge_attrs(self):
        rec = SpanRecorder()
        root = rec.root("write", lba=8)
        root.annotate(qd=4)
        root.end(bytes=4096)
        assert root.attrs == {"lba": 8, "qd": 4, "bytes": 4096}

    def test_open_roots_accounting(self):
        rec = SpanRecorder()
        a, b = rec.root("write"), rec.root("read")
        assert rec.open_roots == 2
        a.end()
        assert rec.open_roots == 1 and rec.completed == 1
        b.end()
        assert rec.open_roots == 0


# ---------------------------------------------------------------------------
# the null span (default of every span= parameter)
# ---------------------------------------------------------------------------


class TestNullPath:
    def test_null_span_is_a_no_op_singleton(self):
        assert NULL_SPAN.begin("stage") is NULL_SPAN
        NULL_SPAN.annotate(x=1)
        NULL_SPAN.end(y=2)
        assert NULL_SPAN.ended and NULL_SPAN.duration == 0.0
        assert NULL_SPAN.attrs == {} and list(NULL_SPAN.walk()) == []


# ---------------------------------------------------------------------------
# lazy sentinels (hot-path allocation discipline)
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("every_op_traced")
class TestLazySentinels:
    def test_fresh_spans_share_the_empty_sentinels(self):
        rec = SpanRecorder()
        a, b = rec.root("write"), rec.root("write")
        assert a.attrs is b.attrs and a.attrs == {}
        assert a.children is b.children and tuple(a.children) == ()

    def test_mutation_materializes_without_polluting_the_sentinel(self):
        rec = SpanRecorder()
        a = rec.root("write")
        a.annotate(x=1)
        child = a.begin("stage")
        child.end()
        a.end(y=2)
        fresh = rec.root("write")
        assert fresh.attrs == {} and tuple(fresh.children) == ()
        assert a.attrs == {"x": 1, "y": 2}
        assert [c.name for c in a.children] == ["stage"]
        fresh.end()

    def test_end_attrs_on_attrless_span_stay_private(self):
        rec = SpanRecorder()
        a = rec.root("flush")
        a.end(reason="drain")
        b = rec.root("flush")
        assert b.attrs == {}
        b.end()


# ---------------------------------------------------------------------------
# evicted trees and attribution leave no cyclic garbage
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("every_op_traced")
class TestCycleBreak:
    def test_completion_severs_only_the_root_backref(self):
        rec = SpanRecorder()
        root = rec.root("read")
        done = root.begin("rc_lookup")
        done.end()
        still_open = root.begin("backend_fetch")
        root.end()
        assert root._recorder is None
        # ended stages keep theirs: no cycle once the tree leaves the window
        assert done._recorder is rec
        # a stage that outlives its root keeps the clock for a late end
        assert still_open._recorder is rec
        still_open.end()
        assert still_open.stop is not None

    def test_evicted_tree_dies_without_the_cyclic_collector(self, monkeypatch):
        monkeypatch.setattr(spans, "ANALYZER_TREES", 1)
        died = []

        class Canary:
            def __del__(self):
                died.append(True)

        gc.collect()
        gc.disable()  # refcount reclamation only: a cyclic tree would leak
        try:
            rec = SpanRecorder()
            rec.SLOWEST_KEEP = 1
            first = rec.root("write", canary=Canary())
            stage = first.begin("batch_seal")
            stage.begin("backend_put").end()
            stage.end()
            first.end()
            # the evicted tree's ended stages still point at the recorder
            assert stage._recorder is rec
            assert stage.children[0]._recorder is rec
            del first, stage
            # longer tree evicts the first from the window and slowest
            second = rec.root("write")
            for _ in range(3):
                second.begin("wc_append").end()
            second.end()
            assert died, "evicted tree must be refcount-reclaimable"
            # the recorder this one replaced as _LAST_RECORDER is cyclic
            gc.collect()
            for _ in range(200):
                tree = rec.root("write")
                stage = tree.begin("wc_append")
                stage.begin("device_flush").end()
                stage.end()
                tree.end()
            del tree, stage
            assert gc.collect() == 0, "evicted trees left cyclic garbage"
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------


class TestAttribution:
    def test_breakdown_is_exactly_additive_with_gap(self):
        clock = ManualClock()
        rec = SpanRecorder(clock=clock)
        root = rec.root("write")
        clock.t = 1.0
        a = rec_child = root.begin("wc_append")
        clock.t = 3.0
        rec_child.end()
        # gap [3, 5) belongs to no stage
        clock.t = 5.0
        b = root.begin("backend_put")
        clock.t = 9.0
        b.end()
        clock.t = 10.0
        root.end()
        breakdown = attribute(root)
        assert breakdown == {
            "wc_append": 2.0,
            "backend_put": 4.0,
            SELF_STAGE: 4.0,  # [0,1) + [3,5) + [9,10)
        }
        assert sum(breakdown.values()) == root.duration
        assert a.duration == 2.0

    def test_deepest_span_wins_overlap(self):
        clock = ManualClock()
        rec = SpanRecorder(clock=clock)
        root = rec.root("write")
        outer = root.begin("batch_seal")
        clock.t = 1.0
        inner = outer.begin("backend_put")
        clock.t = 4.0
        inner.end()
        clock.t = 5.0
        outer.end()
        root.end()
        breakdown = attribute(root)
        assert breakdown == {"batch_seal": 2.0, "backend_put": 3.0}
        assert sum(breakdown.values()) == root.duration

    def test_zero_duration_and_open_children_are_excluded(self):
        clock = ManualClock()
        rec = SpanRecorder(clock=clock)
        root = rec.root("read")
        root.begin("rc_lookup").end()  # zero-duration
        root.begin("backend_fetch")  # never ended
        clock.t = 2.0
        root.end()
        assert attribute(root) == {SELF_STAGE: 2.0}

    def test_open_root_cannot_be_attributed(self):
        rec = SpanRecorder()
        root = rec.root("write")
        with pytest.raises(ValueError):
            attribute(root)
        root.end()

    def test_explicit_stack_walk_matches_the_recursive_reference(self):
        rng = random.Random(7)
        for _ in range(300):
            root = random_tree(rng)
            got, want = attribute(root), reference_attribute(root)
            assert list(got.items()) == list(want.items())

    def test_attribute_leaves_no_cyclic_garbage(self):
        rng = random.Random(11)
        roots = [random_tree(rng) for _ in range(20)]
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                for root in roots:
                    attribute(root)
            assert gc.collect() == 0
        finally:
            gc.enable()


def reference_attribute(root):
    """The recursive-closure ``attribute`` the explicit stack replaced;
    kept as the reference model (same output, dict order included)."""
    lo0, hi0 = root.start, root.stop
    intervals = []

    def collect(span, depth):
        for child in span.children:
            if child.stop is not None:
                a = max(child.start, lo0)
                b = min(child.stop, hi0)
                if b > a:
                    intervals.append((a, b, depth, child.start, child.name))
            collect(child, depth + 1)

    collect(root, 1)
    breakdown = {}
    if not intervals:
        if hi0 > lo0:
            breakdown[SELF_STAGE] = hi0 - lo0
        return breakdown
    bounds = sorted({lo0, hi0, *(i[0] for i in intervals), *(i[1] for i in intervals)})
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        best = None
        for a, b, depth, started, name in intervals:
            if a <= lo and hi <= b:
                key = (depth, started, name)
                if best is None or key > best:
                    best = key
        stage = best[2] if best is not None else SELF_STAGE
        breakdown[stage] = breakdown.get(stage, 0.0) + (hi - lo)
    return breakdown


STAGES = ("wc_append", "batch_seal", "backend_put", "device_flush", "space_wait")


def random_tree(rng):
    """A completed root with nested, overlapping, zero-length, open and
    root-outliving stages on a hand-advanced clock."""
    clock = ManualClock()
    rec = SpanRecorder(clock=clock)
    root = rec.root("write")
    open_spans = [root]
    for _ in range(rng.randrange(0, 12)):
        clock.t += rng.choice((0.0, 0.5, 1.0, rng.random()))
        action = rng.random()
        if action < 0.55 or len(open_spans) == 1:
            parent = rng.choice(open_spans)
            open_spans.append(parent.begin(rng.choice(STAGES)))
        elif action < 0.9:
            open_spans.pop(rng.randrange(1, len(open_spans))).end()
        # else: leave everything open this step
    clock.t += rng.random()
    root.end()
    for span in open_spans[1:]:
        if rng.random() < 0.5:  # ends after its root: clamped
            clock.t += rng.random()
            span.end()
    return root


# ---------------------------------------------------------------------------
# bounded consumers
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("every_op_traced")
class TestBoundedConsumers:
    def finish_tree(self, rec, n_children=1):
        root = rec.root("write")
        for _ in range(n_children):
            root.begin("wc_append").end()
        root.end()
        return root

    def test_analyzer_window_evicts_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(spans, "ANALYZER_TREES", 2)
        obs = Registry()
        rec = obs.spans
        for _ in range(5):
            self.finish_tree(rec)
        assert len(rec.analyzer) == 2
        assert rec.completed == 5
        rec.publish(obs)
        assert obs.value("span.dropped") == 3

    def test_flight_ring_keeps_newest(self):
        rec = SpanRecorder()
        trees = [self.finish_tree(rec) for _ in range(100)]
        bundle = rec.debug_bundle()
        assert bundle["trees"] == [tree.to_dict() for tree in trees[-64:]]
        assert bundle["flight_dropped"] == 36

    def test_slowest_ranked_by_duration(self):
        rec = SpanRecorder()
        short = self.finish_tree(rec, n_children=1)
        long = self.finish_tree(rec, n_children=5)
        mid = self.finish_tree(rec, n_children=3)
        assert rec.slowest(2) == [long, mid]
        assert rec.slowest(10)[-1] is short

    def test_decompose_stages_sum_to_reported_latency(self):
        rec = SpanRecorder()
        for n in (1, 2, 4):
            self.finish_tree(rec, n_children=n)
        decomp = rec.analyzer.decompose(99, name="write")
        assert decomp["count"] == 3 and decomp["tail_count"] == 1
        assert sum(decomp["stages"].values()) == pytest.approx(decomp["latency_s"])

    def test_full_window_leaves_ten_write_trees_beyond_p99(self):
        # fleet-fsync's completed-tree mix: fsync every 4 writes plus the
        # destage roots, writes ~64 % of the window
        rng = random.Random(5)
        clock = ManualClock()
        rec = SpanRecorder(clock=clock)
        mix = ["write"] * 16 + ["barrier"] * 4 + ["destage"] * 5
        for i in range(spans.ANALYZER_TREES + len(mix)):
            root = rec.root(mix[i % len(mix)])
            clock.t += rng.random()
            root.begin("wc_append").end()
            clock.t += rng.random()
            root.end()
        assert len(rec.analyzer) == spans.ANALYZER_TREES
        assert rec.analyzer.decompose(99, "write")["tail_count"] >= 10

    def test_stage_totals_report_kind_and_tree_count(self):
        rec = SpanRecorder()
        self.finish_tree(rec)
        self.finish_tree(rec)
        totals = rec.analyzer.stage_totals()
        kind, count, total = totals["wc_append"]
        assert kind == "service" and count == 2 and total > 0


# ---------------------------------------------------------------------------
# publish
# ---------------------------------------------------------------------------


class TestPublish:
    def test_publish_mirrors_aggregates_into_registry(self):
        obs = Registry()
        rec = obs.spans
        root = rec.root("write")
        root.begin("wc_append").end()
        root.end()
        rec.root("read")  # left open
        rec.publish(obs)
        assert obs.value("span.trees") == 1
        assert obs.value("span.open_roots") == 1
        assert obs.value("span.stage.wc_append_s") > 0
