"""Tests for repro.obs: registry, histograms, trace, exporters, wiring."""

import json
import random

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore, UnsettledObjectStore
from repro.obs import (
    EVENT_TYPES,
    Histogram,
    Registry,
    TimedStore,
    Trace,
    bind_metrics,
    gauge_field,
    metric_field,
    metrics_json,
    prometheus_text,
    registry_csv,
    write_bench_json,
)

MiB = 1 << 20


def small_config(**kw):
    defaults = dict(batch_size=64 * 1024, checkpoint_interval=8)
    defaults.update(kw)
    return LSVDConfig(**defaults)


def make_volume(size=16 * MiB, cache=4 * MiB, store=None, obs=None, **kw):
    store = store if store is not None else InMemoryObjectStore()
    image = DiskImage(cache, name="cache")
    vol = LSVDVolume.create(store, "vd", size, image, small_config(**kw), obs=obs)
    return store, image, vol


# ---------------------------------------------------------------------------
# histogram edge cases
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_empty_reports_zero(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.snapshot()["p99"] == 0.0

    def test_single_sample_is_exact_at_every_percentile(self):
        h = Histogram("h")
        h.observe(0.0037)
        for p in (0, 50, 95, 99, 100):
            assert h.percentile(p) == pytest.approx(0.0037)

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(50.0)  # beyond the last bound
        assert h.percentile(99) == 50.0
        assert h.max == 50.0

    def test_percentiles_are_clamped_into_min_max(self):
        h = Histogram("h", buckets=[1.0, 10.0])
        h.observe(3.0)
        h.observe(4.0)
        # bucket upper bound is 10.0 but nothing above 4.0 was seen
        assert h.percentile(99) <= 4.0
        assert h.percentile(1) >= 3.0

    def test_merged_count_accounting(self):
        h = Histogram("h")
        h.observe(0.001, count=8)
        assert h.count == 8
        assert h.sum == pytest.approx(0.008)
        h.observe(0.001, count=0)  # no-op
        assert h.count == 8

    def test_reset_clears_but_keeps_bounds(self):
        h = Histogram("h", buckets=[1.0])
        h.observe(0.5)
        h.reset()
        assert h.count == 0 and h.min is None and h.sum == 0.0
        h.observe(0.25)
        assert h.percentile(50) == 0.25

    def test_rejects_empty_buckets_and_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        obs = Registry()
        assert obs.counter("a.b") is obs.counter("a.b")
        assert obs.histogram("a.h") is obs.histogram("a.h")

    def test_kind_mismatch_raises(self):
        obs = Registry()
        obs.counter("a.b")
        with pytest.raises(TypeError):
            obs.gauge("a.b")

    def test_snapshot_is_sorted_and_expands_histograms(self):
        obs = Registry()
        obs.counter("z.last").inc(3)
        obs.gauge("a.first").set(7)
        obs.histogram("m.mid").observe(1.0)
        snap = obs.snapshot()
        assert list(snap) == ["a.first", "m.mid", "z.last"]
        assert snap["z.last"] == 3
        assert snap["m.mid"]["count"] == 1

    def test_reset_zeroes_values_but_keeps_names(self):
        obs = Registry()
        obs.counter("a").inc(5)
        obs.trace.emit("crash")
        obs.reset()
        assert obs.value("a") == 0
        assert "a" in obs
        assert len(obs.trace) == 0

    def test_value_defaults_for_missing_and_histogram(self):
        obs = Registry()
        obs.histogram("h").observe(1.0)
        assert obs.value("nope", default=-1) == -1
        assert obs.value("h", default=-1) == -1


class TestMetricFields:
    class Holder:
        hits = metric_field("t.hits")
        level = gauge_field("t.level")

        def __init__(self, obs):
            self.obs = obs
            bind_metrics(self)

    def test_bind_registers_all_fields_at_zero(self):
        obs = Registry()
        self.Holder(obs)
        assert obs.names() == ["t.hits", "t.level"]

    def test_increment_and_assignment_write_through(self):
        obs = Registry()
        holder = self.Holder(obs)
        holder.hits += 2
        holder.hits += 1
        holder.level = 10
        holder.level = max(0, holder.level - 4)
        assert obs.value("t.hits") == 3
        assert obs.value("t.level") == 6
        assert holder.hits == 3

    def test_two_holders_one_registry_share_the_metric(self):
        obs = Registry()
        a, b = self.Holder(obs), self.Holder(obs)
        a.hits += 1
        b.hits += 1
        assert a.hits == b.hits == 2

    def test_metric_is_resolved_once_per_instance(self, monkeypatch):
        obs = Registry()
        holder = self.Holder(obs)
        lookups = []
        honest = Registry._register

        def counting(registry, name, kind, factory):
            lookups.append(name)
            return honest(registry, name, kind, factory)

        monkeypatch.setattr(Registry, "_register", counting)
        for _ in range(100):
            holder.hits += 1
            holder.level = holder.level + 1
        assert lookups == []  # bind_metrics resolved both; nothing since
        assert (obs.value("t.hits"), obs.value("t.level")) == (100, 100)

    def test_rebinding_obs_resolves_in_the_new_registry(self):
        first, second = Registry(), Registry()
        holder = self.Holder(first)
        holder.hits += 1
        assert not second  # an empty Registry is falsy: identity decides
        holder.obs = second
        holder.hits += 5
        holder.level = 7
        assert (first.value("t.hits"), second.value("t.hits")) == (1, 5)
        assert second.value("t.level") == 7
        holder.obs = first  # and back: no stale metric from either side
        holder.hits += 1
        assert (first.value("t.hits"), second.value("t.hits")) == (2, 5)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


class TestTrace:
    def test_rejects_unknown_event_type(self):
        with pytest.raises(ValueError):
            Trace().emit("made_up_event")

    def test_extra_types_extend_the_catalogue(self):
        t = Trace(extra_types=["custom"])
        assert t.emit("custom", x=1) is not None

    def test_logical_clock_is_monotonic_steps(self):
        t = Trace()
        events = [t.emit("crash") for _ in range(3)]
        assert [e.ts for e in events] == [0.0, 1.0, 2.0]

    def test_wired_clock_stamps_events(self):
        now = {"t": 1.5}
        t = Trace(clock=lambda: now["t"])
        assert t.emit("crash").ts == 1.5
        now["t"] = 2.5
        assert t.emit("crash").ts == 2.5

    def test_ring_buffer_drops_oldest_and_counts(self):
        t = Trace(capacity=2)
        t.emit("crash", n=1)
        t.emit("crash", n=2)
        t.emit("crash", n=3)
        assert t.dropped == 1
        assert [dict(e.fields)["n"] for e in t.events()] == [2, 3]

    def test_disabled_trace_records_nothing(self):
        t = Trace(enabled=False)
        assert t.emit("crash") is None
        assert len(t) == 0

    def test_jsonl_is_compact_sorted_and_limitable(self):
        t = Trace()
        t.emit("crash", b=1, a=2)
        line = t.to_jsonl().strip()
        assert line == '{"a":2,"b":1,"ts":0.0,"type":"crash"}'
        t.emit("crash", n=2)
        assert t.to_jsonl(limit=1).count("\n") == 1

    def test_counts_by_type(self):
        t = Trace()
        t.emit("crash")
        t.emit("checkpoint")
        t.emit("crash")
        assert t.counts() == {"checkpoint": 1, "crash": 2}


# ---------------------------------------------------------------------------
# stack wiring: one registry per stack, deterministic trace
# ---------------------------------------------------------------------------


class TestStackWiring:
    def test_volume_stack_shares_one_registry(self):
        obs = Registry()
        _, _, vol = make_volume(obs=obs)
        assert vol.obs is obs
        assert vol.bs.obs is obs
        assert vol.wc.obs is obs
        assert vol.rc.obs is obs
        assert vol.gc.obs is obs

    def test_volume_metrics_report_the_evaluation_numbers(self):
        obs = Registry()
        _, _, vol = make_volume(obs=obs)
        state = 1
        for i in range(256):
            # scattered overwrites leave live extents in every object, so
            # GC victims have something to relocate
            state = (state * 48271) % 2147483647
            vol.write((state % 64) * 4096, bytes([i % 255 + 1]) * 4096)
        vol.flush()
        vol.drain()
        vol.read(0, 4096)
        assert obs.value("volume.writes") == 256
        assert obs.value("store.client_bytes") > 0
        assert obs.value("wc.bytes_logged") >= obs.value("wc.client_bytes")
        # overwrite-heavy workload must have triggered relocation
        assert obs.value("gc.bytes_relocated") > 0
        assert obs.trace.events("gc_round")
        assert obs.trace.events("write_commit")

    def _run_traced(self):
        obs = Registry()
        _, _, vol = make_volume(obs=obs)
        for i in range(48):
            vol.write((i % 6) * 4096, bytes([i + 1]) * 4096)
            if i % 16 == 15:
                vol.flush()
        vol.close()
        return obs.trace.to_jsonl()

    def test_trace_determinism_golden(self):
        """Two identical runs serialise to byte-identical JSONL."""
        first, second = self._run_traced(), self._run_traced()
        assert first == second
        assert first  # non-empty
        types = {json.loads(line)["type"] for line in first.splitlines()}
        assert types <= EVENT_TYPES
        assert "backend_put" in types

    def test_recovery_replay_events_match_replayed_count(self):
        obs = Registry()
        # batch far larger than the writes: records stay cache-only
        store, image, vol = make_volume(obs=obs, batch_size=8 * MiB)
        for i in range(12):
            vol.write(i * 4096, bytes([i + 1]) * 4096)
        vol.flush()
        image.crash(rng=random.Random(7), survive_probability=1.0, allow_torn=False)
        obs2 = Registry()
        LSVDVolume.open(store, "vd", image, small_config(batch_size=8 * MiB), obs=obs2)
        replays = obs2.trace.events("recovery_replay")
        [complete] = obs2.trace.events("recovery_complete")
        done = dict(complete.fields)
        assert done["cache_lost"] is False and done["read_cache_warm"] is False
        assert done["replayed"] == len(replays) > 0

    def test_cache_lost_mount_traces_zero_replay(self):
        store, _, vol = make_volume()
        vol.write(0, b"x" * 4096)
        vol.drain()
        obs2 = Registry()
        LSVDVolume.open(
            store, "vd", DiskImage(4 * MiB), small_config(), cache_lost=True, obs=obs2
        )
        [complete] = obs2.trace.events("recovery_complete")
        assert dict(complete.fields) == {
            "cache_lost": True, "replayed": 0, "read_cache_warm": False,
        }

    def test_unsettled_store_crash_emits_trace_event(self):
        obs = Registry()
        store = UnsettledObjectStore(InMemoryObjectStore(), obs=obs)
        store.put("vd.00000001", b"a")
        store.put("vd.00000002", b"b")
        store.crash()
        [event] = obs.trace.events("crash")
        assert dict(event.fields) == {"lost_puts": 2}


# ---------------------------------------------------------------------------
# timed store
# ---------------------------------------------------------------------------


class TestTimedStore:
    def test_latencies_land_in_shared_registry(self):
        obs = Registry()
        timed = TimedStore(InMemoryObjectStore(), obs)
        timed.put("k", b"x" * 1000)
        timed.get("k")
        timed.delete("k")
        assert obs.histogram("backend.put_latency_s").count == 1
        assert obs.histogram("backend.get_latency_s").count == 1
        assert obs.histogram("backend.delete_latency_s").count == 1

    def test_clock_advances_by_request_plus_transfer(self):
        timed = TimedStore(
            InMemoryObjectStore(), request_latency=0.001, bandwidth_bps=1e6
        )
        timed.put("k", b"x" * 1000)  # 1 ms + 1 ms transfer
        assert timed.now() == pytest.approx(0.002)
        timed.delete("k")  # request only
        assert timed.now() == pytest.approx(0.003)

    def test_wraps_a_volume_and_times_its_backend(self):
        obs = Registry()
        timed = TimedStore(InMemoryObjectStore(), obs)
        obs.trace.clock = timed.now
        image = DiskImage(4 * MiB)
        vol = LSVDVolume.create(timed, "vd", 16 * MiB, image, small_config(), obs=obs)
        for i in range(32):
            vol.write(i * 4096, bytes([i + 1]) * 4096)
        vol.close()
        put = obs.histogram("backend.put_latency_s")
        assert put.count > 0
        assert put.percentile(99) > 0.0
        # trace timestamps come from the cost-model clock, not step counts
        assert obs.trace.events("backend_put")[-1].ts > 0.0


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def _registry(self):
        obs = Registry()
        obs.counter("store.puts", help="objects PUT").inc(4)
        obs.gauge("wc.occupancy_bytes").set(512)
        obs.histogram("backend.put_latency_s", buckets=[0.001, 0.01]).observe(0.005)
        return obs

    def test_prometheus_text(self):
        text = prometheus_text(self._registry())
        assert "# HELP store_puts objects PUT" in text
        assert "store_puts 4" in text
        assert 'backend_put_latency_s_bucket{le="0.01"} 1' in text
        assert 'backend_put_latency_s_bucket{le="+Inf"} 1' in text
        assert "backend_put_latency_s_count 1" in text

    def test_csv_expands_histograms(self):
        text = registry_csv(self._registry())
        lines = text.strip().splitlines()
        assert lines[0] == "metric,value"
        assert "store.puts,4" in lines
        assert any(line.startswith("backend.put_latency_s.p99,") for line in lines)

    def test_json_round_trips_and_is_sorted(self):
        text = metrics_json(self._registry(), extra={"volume": "vd"})
        doc = json.loads(text)
        assert doc["volume"] == "vd"
        assert doc["metrics"]["store.puts"] == 4
        assert metrics_json(self._registry()) == metrics_json(self._registry())

    def test_write_bench_json(self, tmp_path):
        path = write_bench_json(
            "smoke", self._registry(), figures={"wa": 1.25}, out_dir=tmp_path
        )
        assert path.name == "BENCH_smoke.json"
        doc = json.loads(path.read_text())
        assert doc["bench"] == "smoke"
        assert doc["figures"]["wa"] == 1.25
        assert "metrics" in doc
