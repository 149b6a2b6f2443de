"""WA smoke run: temperature-aware placement vs the greedy baseline.

``make wa-smoke`` (CI uploads the artifact) replays skewed write
workloads through the page-map simulator (:mod:`repro.gcsim`) twice per
workload, with everything equal except placement:

* **greedy** — the pre-placement baseline: one output stream
  (``placement="legacy"``) cleaned greedily by utilisation;
* **sepbit** — SepBIT-style invalidation-time separation
  (``placement="sepbit"``) with cost-benefit victim selection — the
  default data plane since the placement layer landed.

Both runs use the same watermarks, so steady-state utilisation is pinned
by the cleaner and the comparison is apples-to-apples: the gate demands
the SepBIT write amplification beat greedy by ``WA_REDUCTION_FLOOR`` on
every workload while final utilisations stay within
``UTILIZATION_SLACK`` of each other (a WA win bought by running the
disk emptier would be cheating).

The simulator runs the *same* policy objects and victim ordering as the
full stack (see ``tests/test_placement_differential.py``), so these
figures are the full stack's placement behaviour, measured at page
granularity.  Everything is deterministic: same tree, same numbers.

Usage::

    python benchmarks/wa_smoke.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.placement import TEMP_NAMES, make_policy
from repro.gcsim import GCSimulator
from repro.obs import Registry, write_bench_json
from repro.workloads import FioJob
from repro.workloads.base import WRITE, take

KiB = 1 << 10
MiB = 1 << 20

#: simulated volume and batch geometry — small enough for seconds of
#: wall clock, large enough for dozens of GC rounds
VOLUME = 16 * MiB
BATCH = 256 * KiB

#: client writes per workload, as a multiple of the volume (past several
#: overwrite generations WA is steady-state, not fill-phase noise)
OVERWRITE_FACTOR = 8

#: SepBIT + cost-benefit must cut WA by at least this fraction vs the
#: greedy single-stream baseline on every skewed workload
WA_REDUCTION_FLOOR = 0.05

#: ...at the same steady-state utilisation (absolute slack)
UTILIZATION_SLACK = 0.05

#: the skewed workloads the placement layer exists for
WORKLOADS = (
    ("zipfian", dict(distribution="zipfian", zipf_theta=0.99)),
    ("hotspot", dict(distribution="hotspot", hotspot_frac=0.1, hotspot_rate=0.9)),
)


def run_once(job_kw: dict, placement: str, gc_policy: str) -> GCSimulator:
    """One deterministic replay; returns the finished simulator."""
    job = FioJob(rw="randwrite", bs=4096, size=VOLUME, seed=11, **job_kw)
    sim = GCSimulator(
        VOLUME,
        batch_size=BATCH,
        policy=make_policy(placement),
        gc_policy=gc_policy,
    )
    budget = OVERWRITE_FACTOR * (VOLUME // 4096)
    for op in take(job.ops(), budget):
        if op.kind == WRITE:
            sim.write(op.offset, op.length)
    sim.finish()
    return sim


def class_mix(sim: GCSimulator) -> str:
    """Human-readable per-class backend-page shares."""
    total = max(1, sum(sim.class_pages.values()))
    parts = []
    for temp in sorted(sim.class_pages):
        name = TEMP_NAMES[temp] if temp < len(TEMP_NAMES) else str(temp)
        parts.append(f"{name} {sim.class_pages[temp] / total:.0%}")
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="bench-out")
    args = parser.parse_args(argv)

    summary = Registry()
    figures: dict = {}
    all_reduced = True
    all_equal_util = True
    for name, job_kw in WORKLOADS:
        greedy = run_once(job_kw, "legacy", "greedy")
        sepbit = run_once(job_kw, "sepbit", "cost_benefit")
        wa_greedy = greedy.finish().waf
        wa_sepbit = sepbit.finish().waf
        util_greedy = greedy.utilization()
        util_sepbit = sepbit.utilization()
        reduction = 1.0 - wa_sepbit / wa_greedy
        equal_util = abs(util_sepbit - util_greedy) <= UTILIZATION_SLACK
        all_reduced = all_reduced and reduction >= WA_REDUCTION_FLOOR
        all_equal_util = all_equal_util and equal_util

        print(f"{name}:")
        print(f"  WA greedy/1-stream:   {wa_greedy:6.3f}  (util {util_greedy:.3f})")
        print(f"  WA sepbit/cost-ben.:  {wa_sepbit:6.3f}  (util {util_sepbit:.3f})")
        print(f"  reduction:            {reduction:6.1%}  (floor {WA_REDUCTION_FLOOR:.0%})")
        print(f"  sepbit class mix:     {class_mix(sepbit)}")
        figures[f"{name}_wa_greedy"] = round(wa_greedy, 4)
        figures[f"{name}_wa_sepbit"] = round(wa_sepbit, 4)
        figures[f"{name}_wa_reduction"] = round(reduction, 4)
        figures[f"{name}_utilization_greedy"] = round(util_greedy, 4)
        figures[f"{name}_utilization_sepbit"] = round(util_sepbit, 4)
        figures[f"{name}_gc_pages_greedy"] = int(greedy.gc_pages)
        figures[f"{name}_gc_pages_sepbit"] = int(sepbit.gc_pages)
        for temp in sorted(sepbit.class_pages):
            label = TEMP_NAMES[temp] if temp < len(TEMP_NAMES) else str(temp)
            figures[f"{name}_sepbit_pages_{label}"] = int(sepbit.class_pages[temp])
        summary.gauge(f"wa_smoke.{name}.wa_greedy").set(wa_greedy)
        summary.gauge(f"wa_smoke.{name}.wa_sepbit").set(wa_sepbit)
        summary.gauge(f"wa_smoke.{name}.reduction").set(reduction)

    figures["gate_wa_reduction"] = bool(all_reduced)
    figures["gate_equal_utilization"] = bool(all_equal_util)
    gate_ok = all_reduced and all_equal_util
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    path = write_bench_json("wa", summary, figures=figures, out_dir=args.out_dir)
    print(f"\nWA reduction + equal-utilization gates: {gate_ok}")
    print(f"wrote {path}")

    if not gate_ok:
        print(
            "wa-smoke: FAIL: placement did not cut WA at equal utilization",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
