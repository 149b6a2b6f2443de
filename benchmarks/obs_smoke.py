"""Observability smoke run: exercise both stacks, dump BENCH_obs.json.

``make obs-smoke`` (CI uploads the artifact) runs two quick workloads —
the pure-logic volume behind a :class:`~repro.obs.TimedStore`, and the
timed LSVD runtime under a short fio job — and writes both registries to
a single ``BENCH_obs.json`` with ``core`` / ``runtime`` sections via
:func:`~repro.obs.write_bench_sections_json`, plus the rendered metric
tables to stdout.  Everything is deterministic, so diffs between two runs
of the same tree are real regressions (``make bench-diff`` enforces
exactly that against benchmarks/baselines/).

The same two runs carry the span-tracing gates (:mod:`repro.obs.spans`),
all on the virtual clock (exit 1 on failure, with both recorders' flight
bundles dumped next to the artifact so the offending trees ship with the
CI log):

* **additivity** — every completed tree's critical-path breakdown sums
  to its measured completion latency (the boundary sweep charges each
  elementary interval exactly once, so the error bound is float
  rounding, not model slack), and again for the p50/p99 decompositions
  (mean-of-sums == sum-of-means); the core run must also leave no root
  open.
* **round-trip** — the slowest trees survive ``to_dict``/``from_dict``
  with byte-identical JSON (the flight-recorder bundle's contract).

Tracing *cost* shows here in its exact form, span density (mean spans
per completed tree): a stage added to the hot path moves it, a noisy box
cannot.  Its host-time face is the ledger's ``obs.self_us_per_op``.

Usage::

    python benchmarks/obs_smoke.py [--out-dir DIR] [--ops N]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, Sequence

from repro.analysis.report import registry_table
from repro.core import LSVDConfig, LSVDVolume
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore
from repro.obs import Registry, TimedStore, write_bench_sections_json
from repro.obs.spans import Span, SpanRecorder

MiB = 1 << 20
GiB = 1 << 30

#: additivity tolerance: float rounding across one tree's boundary sweep
ADD_TOL = 1e-9


def core_smoke(ops: int) -> Registry:
    """Pure-logic stack: overwrite-heavy writes + a read pass."""
    obs = Registry()
    timed = TimedStore(InMemoryObjectStore(), obs)
    obs.trace.clock = timed.now
    obs.spans.clock = timed.now
    config = LSVDConfig(batch_size=256 * 1024, checkpoint_interval=16)
    vol = LSVDVolume.create(timed, "smoke", 32 * MiB, DiskImage(8 * MiB), config, obs=obs)
    window = 256  # 1 MiB of 4 KiB blocks: garbage accumulates fast
    state = 1
    offsets = []
    for i in range(ops):
        state = (state * 48271) % 2147483647
        offset = (state % window) * 4096
        offsets.append(offset)
        vol.write(offset, bytes([i % 256]) * 4096)
        if i % 16 == 15:
            vol.flush()
    vol.drain()
    for offset in offsets[: ops // 2]:
        vol.read(offset, 4096)
    vol.close()
    return obs


def runtime_smoke() -> Registry:
    """Timed runtime: a short random-write fio job on simulated LSVD."""
    from repro.cluster import StorageCluster
    from repro.devices.ssd import SSD, SSDSpec
    from repro.runtime import (
        ClientMachine,
        LSVDRuntime,
        SimulatedObjectStore,
        run_fio,
    )
    from repro.sim import Simulator
    from repro.workloads import FioJob

    sim = Simulator()
    machine = ClientMachine(sim)
    cluster = StorageCluster(
        sim, 4, 8, lambda s, n: SSD(s, SSDSpec.sata_consumer(), name=n)
    )
    backend = SimulatedObjectStore(sim, cluster, machine.network)
    device = LSVDRuntime(sim, machine, backend, 1 * GiB, 4 * GiB, LSVDConfig())
    job = FioJob(rw="randwrite", bs=4096, iodepth=16, size=256 * MiB, seed=1)
    result = run_fio(sim, device, job, duration=0.5, warmup=0.1)
    obs = device.obs
    fio = obs.histogram("fio.write_latency_s")
    for bound, count in zip(result.latency.bounds, result.latency.bucket_counts):
        if count:
            fio.observe(bound, count=count)
    obs.gauge("fio.iops").set(result.iops)
    obs.gauge("fio.mbps").set(result.mbps)
    return obs


def _additive(parts: float, whole: float) -> bool:
    return abs(parts - whole) <= ADD_TOL + ADD_TOL * whole


def span_figures(
    stack: str, recorder: SpanRecorder, roots: Sequence[str]
) -> Dict[str, object]:
    """Tree count, non-additive trees, and span density per root name."""
    analyzer = recorder.analyzer
    records = analyzer.records()
    figures: Dict[str, object] = {
        "trees": len(records),
        "nonadditive": sum(
            not _additive(sum(r.breakdown.values()), r.total) for r in records
        ),
    }
    for name in roots:
        sizes = [sum(1 for _ in root.walk()) for root in analyzer.roots(name)]
        figures[f"spans_per_{name}"] = sum(sizes) / len(sizes)
    summary = ", ".join(f"{key} {value:.6g}" for key, value in figures.items())
    print(f"spans {stack}: {summary}, open roots {recorder.open_roots}")
    return figures


def decompose_additive(recorder: SpanRecorder) -> bool:
    """p50/p99 tail decompositions sum to their latency, every root name."""
    analyzer = recorder.analyzer
    tails = (
        analyzer.decompose(pct, name)
        for name in analyzer.root_names()
        for pct in (50, 99)
    )
    return all(_additive(sum(t["stages"].values()), t["latency_s"]) for t in tails)


def roundtrips(recorder: SpanRecorder) -> bool:
    """The slowest trees survive to_dict/from_dict byte-identically."""
    return all(
        json.dumps(Span.from_dict(root.to_dict()).to_dict(), sort_keys=True)
        == json.dumps(root.to_dict(), sort_keys=True)
        for root in recorder.slowest(8)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="bench-out")
    parser.add_argument("--ops", type=int, default=800)
    args = parser.parse_args(argv)

    core = core_smoke(args.ops)
    client = core.value("store.client_bytes")
    backend_bytes = (
        core.value("store.data_bytes")
        + core.value("store.gc_bytes")
        + core.value("store.ckpt_bytes")
    )
    put = core.histogram("backend.put_latency_s")
    core_figures: dict = {
        "write_amplification": backend_bytes / client if client else 0.0,
        "gc_bytes_relocated": core.value("gc.bytes_relocated"),
        "read_cache_hits": core.value("rc.hits"),
        "read_cache_misses": core.value("rc.misses"),
        "backend_put_p99_s": put.percentile(99),
        "trace_events": len(core.trace),
    }
    print(registry_table(core, caption="obs smoke: pure-logic stack").render())

    runtime = runtime_smoke()
    runtime_figures: dict = {
        "iops": runtime.value("fio.iops"),
        "mbps": runtime.value("fio.mbps"),
        "write_p99_s": runtime.histogram("fio.write_latency_s").percentile(99),
        "objects_put": runtime.value("lsvd.objects_put"),
    }
    print()
    print(registry_table(runtime, caption="obs smoke: timed runtime").render())

    print()
    core_figures.update(span_figures("core", core.spans, ("write", "read")))
    runtime_figures.update(span_figures("runtime", runtime.spans, ("write",)))
    recorders = {"core": core.spans, "runtime": runtime.spans}
    gates: Dict[str, object] = {
        "gate_additive_core": core_figures["trees"] > 0
        and core_figures["nonadditive"] == 0
        and core.spans.open_roots == 0,
        # fio stops mid-flight, so the runtime legitimately leaves roots open
        "gate_additive_runtime": runtime_figures["trees"] > 0
        and runtime_figures["nonadditive"] == 0,
        "gate_decompose_additive": all(map(decompose_additive, recorders.values())),
        "gate_roundtrip": all(map(roundtrips, recorders.values())),
    }
    path = write_bench_sections_json(
        "obs",
        {"core": (core, core_figures), "runtime": (runtime, runtime_figures)},
        out_dir=args.out_dir,
        shared_figures=gates,
    )
    print(f"\nwrote {path}")

    failed = sorted(name for name, ok in gates.items() if not ok)
    if failed:
        for stack, recorder in recorders.items():
            bundle = Path(args.out_dir) / f"flightrec_obs_smoke_{stack}.json"
            recorder.dump_debug_bundle(str(bundle), reason="obs_smoke gate failure")
            print(f"flight bundle dumped to {bundle}")
        print(f"obs-smoke: FAIL: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
