"""The performance ledger: four workloads, two clocks, exact counts.

One command runs every workload, checks the program's outputs against an
oracle, and prints every metric by name with its unit::

    python benchmarks/ledger/run.py [--workload W] [--seed N] [--seconds S]
                                    [--trace [0|1]] [--quick] [--out-dir DIR]

``--trace 0`` (default) measures the end-to-end metrics with no profiler;
``--trace 1`` reruns the same workload and seed under ``cProfile`` and
reports the per-layer metrics.  Each workload run is a fresh interpreter
(back-to-back runs in one interpreter slowed identical work 20x), so this
file is both the parent that spawns runs and, with ``--child``, the run
itself.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the same figures
land in ``<out-dir>/BENCH_ledger.json`` as ``<workload>.<metric>``.

README.md in this directory explains the workloads, the metrics and how
they interact, and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import catalog  # noqa: E402  (needs the path set up above)

#: segments are sized to cost ~0.1 s on the first-baseline commit
SEGMENTS_PER_SECOND = 10

if not (SRC / "repro").is_dir():
    raise SystemExit(f"ledger: the program under test is missing ({SRC}/repro)")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(catalog.WORKLOADS), action="append",
        help="run only this workload (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall-clock length of the timed phase (default 10, --quick 1)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: per-layer metrics from a cProfile run; 0: end-to-end metrics",
    )
    parser.add_argument("--quick", action="store_true", help="self-test sizes")
    parser.add_argument("--out-dir", default="bench-out")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 10.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared(trace: int):
    """(name, unit) of every metric a run in this mode must emit."""
    if trace:
        return [(name, unit) for name, unit, _better in catalog.per_layer()]
    return [(name, unit) for name, unit, _better, _bound in catalog.END_TO_END]


# ---------------------------------------------------------------------------
# child: one workload run in this interpreter
# ---------------------------------------------------------------------------
def run_child(args: argparse.Namespace) -> int:
    import harness
    import scenarios

    [workload] = args.workload
    per_half = max(2, int(args.seconds * SEGMENTS_PER_SECOND / 2))
    report = harness.run(
        lambda: scenarios.make(workload, args.seed, args.quick),
        seconds=args.seconds,
        trace=bool(args.trace),
        # the exact window fills about half of --seconds on the commit the
        # segment sizes were fitted to; cProfile costs 2-3x, so the traced
        # part is a quarter as many segments (the stated shrink factor)
        exact_segments=per_half,
        profile_segments=max(2, per_half // 4),
        setup_reps=1 if args.trace else 3,
    )
    scenario = report["scenario"]
    measured = report["metrics"]
    measured["bench.failed_ops"] = scenario.failed
    verdict = report["verdict"]
    correct = (
        scenario.failed == 0
        and verdict["durability_errors"] == 0
        and not verdict["problems"]
    )
    result = {
        "workload": workload,
        "correct": correct,
        "attempted": scenario.attempted,
        "failed": scenario.failed,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in declared(args.trace)
        },
        "first_failure": scenario.first_failure,
        "verdict": verdict,
        "info": report["info"],
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn runs, print the ledger, write BENCH_ledger.json
# ---------------------------------------------------------------------------
def spawn(workload: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return run_child(args)

    from repro.obs import Registry, write_bench_json

    workloads = args.workload or list(catalog.WORKLOADS)
    summary = Registry()
    figures = {}
    combined = {}
    correct = True
    attempted = failed = 0
    for workload in workloads:
        result = spawn(workload, args)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        info = result["info"]
        print(
            f"== {workload} seed={args.seed} trace={args.trace}: "
            f"{result['attempted']} ops attempted, {result['failed']} failed, "
            f"{info['latency_samples']} latency samples, "
            f"{info['segments']} segments in {info['measured_s']:.1f} s, "
            f"calibration {info['calib_per_s']:.0f} bursts/s "
            f"(spread {info['calib_spread']:.2f})"
        )
        for problem in result["verdict"]["problems"]:
            print(f"   PROBLEM: {problem}")
        if result["first_failure"]:
            print(f"   FIRST FAILURE: {result['first_failure']}")
        for name, entry in result["metrics"].items():
            print(f"   {name:<48} {entry['value']:>16.6g} {entry['unit']}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            combined[key] = entry
            figures[f"{workload}.{name}"] = entry["value"]
            summary.gauge(f"ledger.{workload}.{name}").set(entry["value"])
    figures["correct"] = bool(correct)

    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    path = write_bench_json("ledger", summary, figures=figures, out_dir=args.out_dir)
    print(f"wrote {path}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": combined,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
