"""Compare fresh BENCH_*.json against the committed baselines.

``make bench-diff`` reads every ``benchmarks/baselines/BENCH_*.json`` and
diffs it against the same-named file in ``bench-out/`` (produced by the
smoke targets).  Every smoke runs on a virtual clock, so every figure is
deterministic and every figure gates; there are two classes, told apart
by type, never by name:

* **gates** — boolean figures (``gate_*``, ``monotonic_*``, ...).  A
  baseline ``true`` that came back ``false`` is a hard failure; a new
  ``true`` is an improvement and just noted.
* **numbers** — everything else numeric (counts, write amplification,
  simulated IOPS / MB/s / percentiles).  Each must match the baseline to
  ``--tolerance`` (relative, default 1e-6) or the diff fails.

Host-clock cost is the performance ledger's job (benchmarks/ledger/),
which compares commits by paired runs instead of a committed baseline.

A figure present in the baseline but missing from the fresh run fails the
diff (schema regressions should be deliberate: rerun the smokes and
``--update`` the baselines).  A fresh figure with no baseline is noted
only.  A pair where either side has no figures at all fails too: a
misshapen BENCH file must not pass for having nothing to compare.  A
baseline with no fresh counterpart is skipped with a warning so a partial
smoke run stays usable locally.

Usage::

    python benchmarks/bench_diff.py [--bench-dir bench-out]
        [--baseline-dir benchmarks/baselines] [--tolerance 1e-6] [--update]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
from typing import Dict, List, Tuple


def load_figures(path: pathlib.Path) -> Dict[str, object]:
    document = json.loads(path.read_text(encoding="utf-8"))
    figures = document.get("figures", {})
    return figures if isinstance(figures, dict) else {}


def rel_delta(base: float, fresh: float) -> float:
    if base == fresh:
        return 0.0
    scale = max(abs(base), abs(fresh))
    return (fresh - base) / scale if scale else 0.0


def diff_bench(
    name: str,
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    tolerance: float,
) -> Tuple[List[str], List[str]]:
    """Return (report lines, failure lines) for one BENCH file pair."""
    lines: List[str] = []
    failures: List[str] = []
    for side, figures in (("baseline", baseline), ("fresh run", fresh)):
        if not figures:
            failures.append(f"{name}: no figures in the {side} -- nothing to gate")
    for key in sorted(set(baseline) | set(fresh)):
        if key not in fresh:
            failures.append(f"{name}: figure '{key}' missing from fresh run")
            continue
        if key not in baseline:
            lines.append(f"  {key:<44} {fresh[key]!r:>14}  new (no baseline)")
            continue
        base, new = baseline[key], fresh[key]
        if isinstance(base, bool) or isinstance(new, bool):
            if base and not new:
                failures.append(f"{name}: gate '{key}' regressed true -> false")
            note = "ok" if bool(base) == bool(new) else (
                "REGRESSED" if base else "improved"
            )
            lines.append(f"  {key:<44} {base!s:>7} -> {new!s:<7} {note}")
            continue
        if not isinstance(base, (int, float)) or not isinstance(new, (int, float)):
            if base != new:
                failures.append(f"{name}: figure '{key}' changed {base!r} -> {new!r}")
            continue
        delta = rel_delta(float(base), float(new))
        status = "ok" if abs(delta) <= tolerance else "DRIFTED"
        lines.append(f"  {key:<44} {base:>14.6g} -> {new:<14.6g} {delta:+8.2%}  {status}")
        if abs(delta) > tolerance:
            failures.append(
                f"{name}: figure '{key}' drifted "
                f"{base!r} -> {new!r} ({delta:+.2%} > {tolerance:g} relative tolerance)"
            )
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", default="bench-out")
    parser.add_argument("--baseline-dir", default="benchmarks/baselines")
    parser.add_argument("--tolerance", type=float, default=1e-6)
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy fresh BENCH files over the baselines instead of diffing",
    )
    args = parser.parse_args(argv)

    bench_dir = pathlib.Path(args.bench_dir)
    baseline_dir = pathlib.Path(args.baseline_dir)

    if args.update:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        copied = 0
        for path in sorted(bench_dir.glob("BENCH_*.json")):
            shutil.copy(path, baseline_dir / path.name)
            print(f"baseline updated: {baseline_dir / path.name}")
            copied += 1
        if not copied:
            print(f"no BENCH_*.json under {bench_dir}; run the smoke targets first")
            return 1
        return 0

    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {baseline_dir}; seed them with --update")
        return 1

    failures: List[str] = []
    compared = 0
    for base_path in baselines:
        fresh_path = bench_dir / base_path.name
        if not fresh_path.exists():
            print(f"{base_path.name}: not in {bench_dir} (smoke not run) -- skipped")
            continue
        compared += 1
        lines, bench_failures = diff_bench(
            base_path.name,
            load_figures(base_path),
            load_figures(fresh_path),
            args.tolerance,
        )
        print(f"{base_path.name}:")
        for line in lines:
            print(line)
        failures.extend(bench_failures)

    if not compared:
        print("nothing compared: no fresh BENCH files matched a baseline")
        return 1
    if failures:
        print(f"\nbench-diff: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"\nbench-diff: {compared} bench file(s) within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
