"""Unit tests for repro.obs.spans: span trees, exact-additive attribution,
the bounded window, hot-path invariants (lazy sentinels, acyclic trees)."""

import gc

import pytest

from repro.obs import (
    NULL_SPAN,
    Registry,
    SpanRecorder,
)
from repro.obs import spans
from repro.obs.spans import SELF_STAGE, attribute


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
# completed trees are acyclic (refcount-reclaimable, no gc pressure)
# ---------------------------------------------------------------------------


class TestCycleBreak:
    def test_completion_severs_recorder_backrefs(self):
        rec = SpanRecorder()
        root = rec.root("read")
        done = root.begin("rc_lookup")
        done.end()
        still_open = root.begin("backend_fetch")
        root.end()
        assert root._recorder is None
        assert done._recorder is None
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

        gc.disable()  # refcount reclamation only: a cyclic tree would leak
        try:
            rec = SpanRecorder()
            rec.SLOWEST_KEEP = 1
            first = rec.root("write", canary=Canary())
            first.begin("wc_append").end()
            first.end()
            del first
            # longer tree evicts the first from the window and slowest
            second = rec.root("write")
            for _ in range(3):
                second.begin("wc_append").end()
            second.end()
            assert died, "evicted tree must be refcount-reclaimable"
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


# ---------------------------------------------------------------------------
# bounded consumers
# ---------------------------------------------------------------------------


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
