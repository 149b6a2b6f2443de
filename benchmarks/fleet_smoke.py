"""Fleet smoke run: multi-tenant scaling and noisy-neighbour isolation.

``make fleet-smoke`` (CI uploads the artifact) drives the timed fleet
(:class:`repro.fleet.FleetRuntime`) through the two §4.5 acceptance
shapes:

1. **Aggregate scaling** — one host and one sharded backend serve first
   a single tenant, then eight.  Packing tenants onto shared hardware is
   the fleet's economic case, so the eight-tenant aggregate IOPS must
   beat the lone tenant (one vdisk cannot saturate the shared rig).

2. **Noisy-neighbour isolation** — a latency-sensitive victim runs
   solo, then next to an unthrottled bulk writer (p99 collapses), then
   next to the same writer behind a per-tenant token-bucket cap.  With
   QoS admission on, the victim's p99 must land within a bounded factor
   of its solo p99 — the throttle, not luck, restores the tail.

Per-tenant throttle counters (``fleet.<tenant>.*``) from the isolation
run land in ``BENCH_fleet.json`` alongside the figures.  Everything is
deterministic — same tree, same numbers — so ``bench-diff`` holds the
simulated IOPS and p99 ratios exact beside the gate booleans.

Usage::

    python benchmarks/fleet_smoke.py [--out-dir DIR] [--duration S]
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster import StorageCluster
from repro.devices.hdd import HDD, HDDSpec
from repro.fleet import FleetRuntime, QoSLimits
from repro.obs import Registry, write_bench_json
from repro.runtime import ClientMachine, make_sharded_backend
from repro.runtime.blockdev import run_jobs
from repro.sim import Simulator
from repro.workloads import FioJob

MiB = 1 << 20
GiB = 1 << 30

#: tenants in the scaling fleet (the ISSUE floor is "at least 8")
FLEET_TENANTS = 8

#: noisy neighbour's per-tenant cap in the throttled isolation run;
#: burst_ops=1 below makes the bucket pace smoothly — a 50 ms default
#: burst of 256 KiB ops would still swamp the shared SSD queue in spikes
NOISY_CAP_IOPS = 100.0

#: with the noisy tenant capped, the victim's p99 must sit within this
#: factor of its solo p99 (unthrottled it blows far past this)
ISOLATION_P99_FACTOR = 4.0


def hdd_cluster(sim: Simulator) -> StorageCluster:
    return StorageCluster(sim, 1, 6, lambda s, n: HDD(s, HDDSpec(), name=n))


def build_fleet():
    """Fresh rig: one simulated host + sharded HDD backend + fleet."""
    sim = Simulator()
    machine = ClientMachine(sim)
    backend = make_sharded_backend(sim, machine.network, hdd_cluster, 4)
    fleet = FleetRuntime(sim, machine, backend, obs=Registry())
    return sim, fleet


def run_scaling(n_tenants: int, duration: float):
    """n unthrottled tenants hammer the shared rig; returns per-vdisk IOPS."""
    sim, fleet = build_fleet()
    pairs = []
    for i in range(n_tenants):
        device = fleet.add_vdisk(
            f"vd{i}",
            tenant=f"t{i}",
            volume_size=1 * GiB,
            cache_size=64 * MiB,
            gc_enabled=False,
        )
        pairs.append(
            (device, FioJob(rw="randwrite", bs=4096, iodepth=8, size=1 * GiB, seed=i + 1))
        )
    results = run_jobs(sim, pairs, duration=duration)
    return [r.iops for r in results]


def run_isolation(noisy: bool, cap: QoSLimits | None, duration: float):
    """Victim (qd1 writer) with an optional bulk neighbour; returns
    (victim p99 seconds, victim IOPS, fleet registry)."""
    sim, fleet = build_fleet()
    victim = fleet.add_vdisk(
        "victim",
        tenant="victim",
        volume_size=1 * GiB,
        cache_size=64 * MiB,
        gc_enabled=False,
    )
    pairs = [
        (victim, FioJob(rw="randwrite", bs=4096, iodepth=1, size=1 * GiB, seed=1))
    ]
    if noisy:
        # big cache: the bulk writer must hammer the shared SSD, not
        # stall on its own write-cache space accounting
        neighbour = fleet.add_vdisk(
            "noisy",
            tenant="noisy",
            volume_size=4 * GiB,
            cache_size=4 * GiB,
            limits=cap,
            gc_enabled=False,
        )
        pairs.append(
            (neighbour, FioJob(rw="randwrite", bs=256 * 1024, iodepth=32, size=1 * GiB, seed=2))
        )
    results = run_jobs(sim, pairs, duration=duration)
    return results[0].latency_percentile(99), results[0].iops, fleet.obs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="bench-out")
    parser.add_argument("--duration", type=float, default=0.5)
    args = parser.parse_args(argv)

    summary = Registry()
    figures = {}

    # -- scaling: 1 tenant vs FLEET_TENANTS on the same rig ------------
    solo = run_scaling(1, args.duration)
    fleet_iops = run_scaling(FLEET_TENANTS, args.duration)
    single_iops = solo[0]
    aggregate = sum(fleet_iops)
    gate_scaling = aggregate > single_iops
    print(f"single tenant:            {single_iops:>9.0f} IOPS")
    print(
        f"{FLEET_TENANTS} tenants aggregate:      {aggregate:>9.0f} IOPS  "
        f"(min {min(fleet_iops):.0f} / max {max(fleet_iops):.0f} per vdisk)"
    )
    summary.gauge("fleet_smoke.single_tenant_iops").set(single_iops)
    summary.gauge("fleet_smoke.aggregate_iops").set(aggregate)
    summary.gauge("fleet_smoke.tenants").set(FLEET_TENANTS)
    figures["single_tenant_iops"] = round(single_iops, 1)
    figures[f"aggregate_iops_{FLEET_TENANTS}_tenants"] = round(aggregate, 1)
    figures["gate_aggregate_scaling"] = bool(gate_scaling)

    # -- isolation: victim p99 solo / noisy / noisy-throttled ----------
    p99_solo, iops_solo, _ = run_isolation(False, None, args.duration)
    p99_noisy, iops_noisy, _ = run_isolation(True, None, args.duration)
    p99_capped, iops_capped, obs = run_isolation(
        True, QoSLimits(iops=NOISY_CAP_IOPS, burst_ops=1), args.duration
    )
    ratio_noisy = p99_noisy / p99_solo
    ratio_capped = p99_capped / p99_solo
    gate_isolation = ratio_capped <= ISOLATION_P99_FACTOR
    print(f"victim p99 solo:          {p99_solo * 1e3:>9.2f} ms")
    print(
        f"victim p99 noisy:         {p99_noisy * 1e3:>9.2f} ms  "
        f"({ratio_noisy:.1f}x solo)"
    )
    print(
        f"victim p99 noisy capped:  {p99_capped * 1e3:>9.2f} ms  "
        f"({ratio_capped:.1f}x solo, bound {ISOLATION_P99_FACTOR:.1f}x)"
    )
    for tenant in ("victim", "noisy"):
        for metric in ("admitted", "throttled"):
            name = f"fleet.{tenant}.{metric}"
            summary.counter(name).inc(int(obs.value(name)))
    summary.gauge("fleet_smoke.victim_p99_solo_s").set(p99_solo)
    summary.gauge("fleet_smoke.victim_p99_noisy_s").set(p99_noisy)
    summary.gauge("fleet_smoke.victim_p99_capped_s").set(p99_capped)
    figures["victim_iops_solo"] = round(iops_solo, 1)
    figures["victim_iops_noisy"] = round(iops_noisy, 1)
    figures["victim_iops_capped"] = round(iops_capped, 1)
    figures["victim_p99_ratio_noisy"] = round(ratio_noisy, 3)
    figures["victim_p99_ratio_capped"] = round(ratio_capped, 3)
    figures["noisy_throttled_events"] = int(obs.value("fleet.noisy.throttled"))
    figures["gate_isolation_p99"] = bool(gate_isolation)

    gate_ok = gate_scaling and gate_isolation
    figures["fleet_gates_pass"] = bool(gate_ok)
    path = write_bench_json("fleet", summary, figures=figures, out_dir=args.out_dir)
    print(f"\naggregate scaling + isolation gates: {gate_ok}")
    print(f"wrote {path}")

    if not gate_ok:
        print("fleet-smoke: FAIL: fleet gates did not hold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
