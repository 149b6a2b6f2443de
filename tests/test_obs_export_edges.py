"""Exporter edge cases: empty registries, single samples, empty traces,
span-tree JSON round-trips, and the sectioned BENCH writer."""

import json

from repro.obs import (
    Histogram,
    Registry,
    SpanRecorder,
    Trace,
    metrics_json,
    prometheus_text,
    registry_csv,
    write_bench_json,
    write_bench_sections_json,
)
from repro.obs.spans import Span


# ---------------------------------------------------------------------------
# empty registry
# ---------------------------------------------------------------------------


class TestEmptyRegistry:
    def test_prometheus_text_is_empty_but_valid(self):
        text = prometheus_text(Registry())
        assert text == ""

    def test_csv_has_header_only(self):
        assert registry_csv(Registry()) == "metric,value\n"

    def test_metrics_json_parses_with_empty_snapshot(self):
        document = json.loads(metrics_json(Registry()))
        assert document == {"metrics": {}}

    def test_write_bench_json_empty_registry(self, tmp_path):
        path = write_bench_json("edge", Registry(), out_dir=tmp_path)
        document = json.loads(path.read_text())
        assert document["bench"] == "edge"
        assert document["figures"] == {}
        assert document["metrics"] == {}


# ---------------------------------------------------------------------------
# single-sample histogram
# ---------------------------------------------------------------------------


class TestSingleSampleHistogram:
    def make(self):
        obs = Registry()
        obs.histogram("lat").observe(0.004)
        return obs

    def test_prometheus_buckets_are_cumulative_and_sum_matches(self):
        text = prometheus_text(self.make())
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert "lat_sum 0.004" in text
        # cumulative: every bucket count is 0 or 1, never resets
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 1

    def test_csv_expands_summary_rows(self):
        rows = dict(
            line.split(",", 1)
            for line in registry_csv(self.make()).strip().splitlines()[1:]
        )
        assert rows["lat.count"] == "1"
        assert float(rows["lat.p50"]) == 0.004
        assert float(rows["lat.min"]) == float(rows["lat.max"]) == 0.004

    def test_json_snapshot_percentiles_collapse_to_the_sample(self):
        document = json.loads(metrics_json(self.make()))
        snap = document["metrics"]["lat"]
        assert snap["count"] == 1
        assert snap["p50"] == snap["p99"] == snap["mean"] == 0.004

    def test_empty_histogram_still_exports(self):
        obs = Registry()
        h = obs.histogram("lat")
        assert isinstance(h, Histogram)
        assert "lat_count 0" in prometheus_text(obs)
        assert json.loads(metrics_json(obs))["metrics"]["lat"]["count"] == 0


# ---------------------------------------------------------------------------
# zero-event trace
# ---------------------------------------------------------------------------


class TestZeroEventTrace:
    def test_empty_trace_exports_cleanly(self):
        trace = Trace()
        assert len(trace) == 0
        assert trace.to_jsonl() == ""
        assert trace.counts() == {}
        assert trace.events() == []


# ---------------------------------------------------------------------------
# span-tree JSON dump round-trip
# ---------------------------------------------------------------------------


class TestSpanTreeRoundTrip:
    def build_tree(self):
        rec = SpanRecorder()
        root = rec.root("write", lba=128)
        queue = root.begin("space_wait", kind="queue")
        queue.end()
        service = root.begin("wc_append", bytes=4096)
        service.end()
        root.end()
        return root

    def test_round_trip_preserves_structure_attrs_and_clock(self):
        root = self.build_tree()
        encoded = json.dumps(root.to_dict(), sort_keys=True)
        rebuilt = Span.from_dict(json.loads(encoded))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == encoded
        assert rebuilt.name == "write"
        assert rebuilt.attrs == {"lba": 128}
        assert [c.name for c in rebuilt.children] == ["space_wait", "wc_append"]
        assert rebuilt.children[0].kind == "queue"
        assert rebuilt.children[1].attrs == {"bytes": 4096}
        assert rebuilt.duration == root.duration

    def test_round_trip_of_attrless_childless_span(self):
        rec = SpanRecorder()
        root = rec.root("flush")
        root.end()
        data = root.to_dict()
        assert "attrs" not in data and "children" not in data
        rebuilt = Span.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data
        assert rebuilt.children == [] or tuple(rebuilt.children) == ()

    def test_open_child_survives_round_trip_with_null_end(self):
        rec = SpanRecorder()
        root = rec.root("read")
        root.begin("backend_fetch")  # never ended: crash-shaped tree
        root.end()
        rebuilt = Span.from_dict(json.loads(json.dumps(root.to_dict())))
        assert rebuilt.children[0].stop is None
        assert not rebuilt.children[0].ended


# ---------------------------------------------------------------------------
# sectioned BENCH writer
# ---------------------------------------------------------------------------


class TestSectionedBench:
    def test_sections_flatten_into_prefixed_figures(self, tmp_path):
        core, runtime = Registry(), Registry()
        core.counter("a").inc(3)
        runtime.gauge("b").set(7)
        path = write_bench_sections_json(
            "obs",
            {
                "core": (core, {"write_amplification": 1.5}),
                "runtime": (runtime, {"iops": 100.0}),
            },
            out_dir=tmp_path,
        )
        assert path.name == "BENCH_obs.json"
        document = json.loads(path.read_text())
        assert document["sections"] == ["core", "runtime"]
        assert document["figures"] == {
            "core_write_amplification": 1.5,
            "runtime_iops": 100.0,
        }
        assert document["metrics"]["core"]["a"] == 3
        assert document["metrics"]["runtime"]["b"] == 7

    def test_both_writers_make_the_nested_directory_they_write_into(self, tmp_path):
        out = tmp_path / "not" / "yet"
        write_bench_json("one", Registry(), out_dir=out)
        write_bench_sections_json("two", {"core": (Registry(), {})}, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == ["BENCH_one.json", "BENCH_two.json"]
