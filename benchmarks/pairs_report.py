"""Render committed ledger pairs: the numbers a performance claim quotes.

``make ledger-pairs`` appends one line per run to ``<workload>.jsonl``:
``{"side": "base" | "head", "seed": N, "result": <the ledger's result
line>}``.  A claim commits those files under ``benchmarks/pairs/PR-<n>/``;
this script re-renders them, reading no clock:

* per end-to-end metric, each side's median [q1–q3] over the seeds run on
  both sides, the ratio of the medians, the pairs the change won (in the
  metric's declared direction), and whether the medians are further apart
  than the parent's interquartile range;
* per exact metric, the per-seed ``==`` verdict.  Exact are the metrics
  that repeat bit for bit at a seed (``benchmarks/ledger/README.md``): the
  amplification ratios everywhere, client latency where it is read on the
  virtual clock.

Exit status 1 when an exact metric differs at some seed or a run reports
``correct: false``.

    python benchmarks/pairs_report.py                  # every committed file
    python benchmarks/pairs_report.py bench-out/pairs/fleet-fsync.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "ledger"))

from catalog import END_TO_END  # noqa: E402

#: exact on every workload / also exact where the client clock is virtual
EXACT = ("backend_amp", "space_amp")
VIRTUAL_CLIENT = {"fleet-fsync": ("client_lat_p50_us", "client_lat_tail_us")}
BETTER = {name: better for name, _unit, better, _bound in END_TO_END}


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _num(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def load(path: Path) -> Tuple[Dict[int, Dict[str, dict]], List[str]]:
    """Seed -> side -> result, and the problems: runs not ``correct``."""
    runs: Dict[int, Dict[str, dict]] = {}
    problems = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        runs.setdefault(row["seed"], {})[row["side"]] = row["result"]
        if not row["result"]["correct"]:
            problems.append(f"seed {row['seed']} {row['side']}: correct is false")
    return runs, problems


def headline(workload: str, metric: str, base: List[float], head: List[float]) -> str:
    """One metric's line: medians [q1–q3], their ratio, the change's wins."""
    lower = BETTER[metric] == "lower"
    q1b, mb, q3b = _quartiles(base)
    q1h, mh, q3h = _quartiles(head)
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    apart = abs(mh - mb) > q3b - q1b
    ratio = mh / mb if mb else float("nan")
    return (
        f"{workload} {metric}: {_num(mb)} [{_num(q1b)}–{_num(q3b)}] → "
        f"{_num(mh)} [{_num(q1h)}–{_num(q3h)}], ×{ratio:.3f}, "
        f"{wins}/{len(base)} wins, {'beyond' if apart else 'within'} the parent's IQR"
    )


def render(path: Path) -> Tuple[List[str], bool]:
    """The report lines for one pairs file, and whether it holds."""
    workload = path.stem
    runs, problems = load(path)
    seeds = sorted(s for s, sides in runs.items() if {"base", "head"} <= set(sides))
    seed_list = ", ".join(map(str, seeds))
    lines = [f"{path.parent.name}/{path.name}: {len(seeds)} pairs, seeds {seed_list}"]
    if not seeds:
        problems.append("no seed was run on both sides")
    metrics = runs[seeds[0]]["base"]["metrics"] if seeds else {}
    exact = EXACT + VIRTUAL_CLIENT.get(workload, ())
    for metric in metrics:
        base = [runs[s]["base"]["metrics"][metric]["value"] for s in seeds]
        head = [runs[s]["head"]["metrics"][metric]["value"] for s in seeds]
        if metric not in exact:
            lines.append("  " + headline(workload, metric, base, head))
            continue
        differ = [s for s, b, h in zip(seeds, base, head) if b != h]
        lines.append(f"  {metric}: == on {len(seeds) - len(differ)}/{len(seeds)} seeds")
        problems += [f"{metric} differs at seed {s}" for s in differ]
    lines += [f"  FAIL: {problem}" for problem in problems]
    return lines, not problems


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="pairs files (default: all committed)")
    args = parser.parse_args(argv)
    files = args.files or sorted((HERE / "pairs").glob("*/*.jsonl"))
    ok = True
    for path in files:
        lines, holds = render(path)
        print("\n".join(lines))
        ok &= holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
