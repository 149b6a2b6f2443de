"""What the ledger measures: workloads, metric names, units, directions, bounds.

``BENCHMARK.json`` at the repo root declares the same names to the driver;
``test_ledger.py`` fails when the two drift apart.  Every workload emits
every metric (the driver's schema has no per-workload metric lists), so a
metric that does not apply to a workload reads 0 there — which is why the
end-to-end list only holds quantities that exist on all four workloads and
everything finer lives in the per-layer list.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: workload name -> why it exists (one line; README.md has the long form)
WORKLOADS: Dict[str, str] = {
    "vol-write-churn": (
        "pure stack, zipfian 4 KiB overwrites with GC: write cache, batch seal, "
        "commit, maps, placement and the cleaner; the read cache is idle"
    ),
    "vol-read-miss": (
        "pure stack, uniform 4 KiB reads over a working set 5x the read cache: "
        "miss, evict, insert, backend range GET; the write path and GC are idle"
    ),
    "vol-mixed-hot": (
        "pure stack, 70/30 zipfian read/write on a span that fits in cache: reads "
        "hit while writes invalidate, seal and GC beside them"
    ),
    "fleet-fsync": (
        "timed stack, 4 tenants x qd8 with fsync every 4 writes on a 4-shard "
        "backend: DES engine, group commit, destage, page-map GC, QoS throttle"
    ),
}

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen, about three times the largest ten-seed
#: spread measured on the first-baseline commit (README.md); the schema caps
#: it at 0.25, which is what the host-clock metrics on a shared box need.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("host_ops_per_cpu_s", "1/s", "higher", 0.25),
    ("client_lat_p50_us", "us", "lower", 0.25),
    ("client_lat_tail_us", "us", "lower", 0.25),
    ("backend_amp", "B/B", "lower", 0.15),
    ("space_amp", "B/B", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

#: layers whose self time the traced run reports (this repo's module names)
LAYERS: List[str] = [
    "core.volume", "core.write_cache", "core.read_cache", "core.batch",
    "core.block_store", "core.extent_map", "core.object_map", "core.placement",
    "core.gc", "core.log", "core.sgio", "objstore", "devices.image",
    "sim", "devices", "cluster", "runtime", "shard", "fleet", "gcsim",
    "obs", "workloads", "bench",
]

#: layers predicted idle per workload: each one's self time stays under
#: IDLE_SHARE of the traced total (README.md "how the metrics interact";
#: test_ledger.py checks it).  ``core.placement`` is shared by design: the
#: timed runtime's page map classifies writes with the same policy object.
_TIMED_ONLY = ["sim", "devices", "cluster", "runtime", "shard", "fleet", "gcsim", "workloads"]
IDLE: Dict[str, List[str]] = {
    "vol-write-churn": _TIMED_ONLY + ["core.read_cache"],
    "vol-read-miss": _TIMED_ONLY + [
        "core.write_cache", "core.batch", "core.placement", "core.gc",
    ],
    "vol-mixed-hot": _TIMED_ONLY,
    "fleet-fsync": [
        layer for layer in LAYERS
        if layer.startswith("core.") and layer != "core.placement"
    ] + ["objstore", "devices.image"],
}
IDLE_SHARE = 0.02

#: public functions whose call count and inclusive time the traced run
#: reports: metric prefix -> (path suffix under src/repro, function name)
FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "core.volume.write": ("core/volume.py", "write"),
    "core.volume.read": ("core/volume.py", "read"),
    "core.volume.flush": ("core/volume.py", "flush"),
    "core.write_cache.append": ("core/write_cache.py", "append"),
    "core.write_cache.barrier": ("core/write_cache.py", "barrier"),
    "core.read_cache.read": ("core/read_cache.py", "read"),
    "core.read_cache.insert": ("core/read_cache.py", "insert"),
    "core.block_store.add_write": ("core/block_store.py", "add_write"),
    "core.block_store.commit": ("core/block_store.py", "commit"),
    "core.block_store.fetch_with_prefetch": ("core/block_store.py", "fetch_with_prefetch"),
    "core.block_store.write_checkpoint": ("core/block_store.py", "write_checkpoint"),
    "core.extent_map.update": ("core/extent_map.py", "update"),
    "core.extent_map.lookup": ("core/extent_map.py", "lookup"),
    "core.placement.on_write": ("core/placement.py", "on_write"),
    "core.gc.select": ("core/gc.py", "select"),
    "core.gc.execute": ("core/gc.py", "execute"),
    "core.log.encode_object": ("core/log.py", "encode_object"),
    "objstore.put": ("objstore/s3.py", "put"),
    "objstore.get_range": ("objstore/s3.py", "get_range"),
    "devices.image.write": ("devices/image.py", "write"),
    "devices.submit": ("devices/base.py", "submit"),
    "runtime.submit": ("runtime/lsvd.py", "submit"),
    "fleet.admit": ("fleet/qos.py", "admit"),
    "gcsim.write": ("gcsim/simulator.py", "write"),
    "gcsim.flush_batch": ("gcsim/simulator.py", "flush_batch"),
}

#: virtual-clock stages of the timed runtime's own span analyzer
STAGES: List[str] = [
    "barrier_queue", "barrier_quiesce", "device_flush", "wc_append", "write_cpu",
    "throttle_wait", "destage_queue", "shard_put", "space_wait",
]

#: exact counts and ratios read from the program's public stats objects at
#: the end of the untraced exact window: (name, unit, better)
COUNTERS: List[Tuple[str, str, str]] = [
    ("core.volume.read_p50_us", "us", "lower"),
    ("core.volume.read_tail_us", "us", "lower"),
    ("core.volume.write_p50_us", "us", "lower"),
    ("core.volume.write_tail_us", "us", "lower"),
    ("core.read_cache.hit_rate", "ratio", "higher"),
    ("core.read_cache.inserted_bytes", "B", "lower"),
    ("core.read_cache.evicted_bytes", "B", "lower"),
    ("core.write_cache.device_flushes", "count", "lower"),
    ("core.write_cache.barriers_coalesced", "count", "higher"),
    ("core.block_store.objects_put", "count", "lower"),
    ("core.block_store.merge_ratio", "ratio", "higher"),
    ("core.block_store.forced_seals", "count", "lower"),
    ("core.block_store.checkpoints", "count", "lower"),
    ("core.extent_map.extents", "count", "lower"),
    ("core.gc.rounds", "count", "lower"),
    ("core.gc.bytes_relocated", "B", "lower"),
    ("core.gc.reclaim_per_reloc", "ratio", "higher"),
    ("objstore.bytes_put", "B", "lower"),
    ("objstore.bytes_got", "B", "lower"),
    ("objstore.gets", "count", "lower"),
    ("devices.image.bytes_written", "B", "lower"),
    ("write_amp", "B/B", "lower"),
    ("read_amp", "B/B", "lower"),
    ("sim.events_per_op", "count", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("runtime.sim_iops", "1/s", "higher"),
    ("runtime.flushes_per_barrier", "ratio", "lower"),
    ("runtime.barrier_group_size_mean", "count", "higher"),
    ("runtime.objects_put", "count", "lower"),
    ("runtime.gc_objects_put", "count", "lower"),
    ("runtime.destage_space_stalls", "count", "lower"),
    ("devices.cache_ssd.util", "ratio", "lower"),
    ("cluster.mean_util", "ratio", "lower"),
    ("shard.put_imbalance", "ratio", "lower"),
    ("fleet.throttled", "count", "lower"),
    ("fleet.throttle_delay_s", "s", "lower"),
    ("bench.failed_ops", "count", "lower"),
    ("bench.durability_errors", "count", "lower"),
    ("bench.calib_per_s", "1/s", "higher"),
    ("bench.calib_spread", "ratio", "lower"),
    ("profile.total_us_per_op", "us", "lower"),
    ("profile.coverage_frac", "ratio", "higher"),
    ("profile.overhead_frac", "ratio", "lower"),
]


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{layer}.self_us_per_op", "us", "lower") for layer in LAYERS]
    out.append(("other.self_us_per_op", "us", "lower"))
    for prefix in FUNCTIONS:
        out.append((f"{prefix}.calls_per_op", "count", "lower"))
        out.append((f"{prefix}.busy_us_per_op", "us", "lower"))
    out.extend(
        (f"runtime.stage.{stage}.virt_us_per_op", "us", "lower") for stage in STAGES
    )
    out.extend(COUNTERS)
    return out
