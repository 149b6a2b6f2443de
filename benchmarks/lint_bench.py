"""Lint wall-clock gate: the flow-sensitive analyzer must stay cheap.

``make lint-bench`` (CI uploads the artifact) runs the full invariant
checker — every rule, including the CFG/dataflow passes — over
every linted tree (``src/repro``, ``benchmarks``, ``examples``) and
writes ``BENCH_lint.json`` with:

* total wall-clock for the combined run, plus per-rule wall-clock from
  single-rule passes (each pass re-parses, so per-rule numbers bound the
  rule's own cost from above);
* the machine-readable diagnostics document (the same JSON the CLI
  emits), so the artifact doubles as a lint report.

The gate fails (exit 1) if the combined run exceeds a deliberately
generous budget — the point is to catch a superlinear regression in the
CFG builder or a non-converging transfer function, not to police noise —
or if any diagnostic is produced.

Usage::

    python benchmarks/lint_bench.py [--out-dir DIR] [--budget SECONDS]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace
from typing import List

from repro.lint import LintConfig, run_lint
from repro.lint.reporters import json_document
from repro.lint.rules import ALL_RULES

REPO = pathlib.Path(__file__).resolve().parents[1]
#: every tree the analyzer gates (mirror tests/test_lint_clean.py)
LINTED = [REPO / "src" / "repro", REPO / "benchmarks", REPO / "examples"]

#: generous ceiling for the combined all-rules run.  The tree currently
#: lints in well under a second; 30 s only trips on a superlinear
#: regression (CFG blow-up, worklist that stops converging).
DEFAULT_BUDGET_S = 30.0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="bench-out", type=pathlib.Path)
    parser.add_argument("--budget", default=DEFAULT_BUDGET_S, type=float)
    args = parser.parse_args(argv)

    config = LintConfig.from_pyproject(REPO / "pyproject.toml")
    paths = [str(p) for p in LINTED]

    t0 = time.perf_counter()
    diagnostics = run_lint(paths, config)
    total_s = time.perf_counter() - t0

    per_rule = {}
    for cls in ALL_RULES:
        single = replace(config, select=(cls.code,))
        t0 = time.perf_counter()
        run_lint(paths, single)
        per_rule[cls.code] = round(time.perf_counter() - t0, 4)

    doc = {
        "bench": "lint",
        "paths": [str(p.relative_to(REPO)) for p in LINTED],
        "rules": len(ALL_RULES),
        "budget_s": args.budget,
        "total_s": round(total_s, 4),
        "per_rule_s": per_rule,
        "report": json_document(diagnostics),
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "BENCH_lint.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    slowest = max(per_rule, key=per_rule.__getitem__)
    print(
        f"lint-bench: {len(ALL_RULES)} rules over {len(paths)} trees in "
        f"{total_s:.3f}s (budget {args.budget:.0f}s); slowest rule "
        f"{slowest} at {per_rule[slowest]:.3f}s -> {out}"
    )

    if diagnostics:
        print(
            f"lint-bench: FAIL: {len(diagnostics)} diagnostic(s); see {out}",
            file=sys.stderr,
        )
        return 1
    if total_s > args.budget:
        print(
            f"lint-bench: FAIL: {total_s:.3f}s exceeds the {args.budget:.0f}s "
            "budget -- the analyzer regressed superlinearly",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
