"""Committed performance claims re-render from their pairs files.

Every ``benchmarks/pairs/PR-<n>/<workload>.jsonl`` must hold: every run
correct and every exact metric ``==`` per seed.  CHANGES.md quotes at
least one rendered line of each ``PR-<n>/`` verbatim (the claim's), so a
claim is the renderer's output, not a hand-typed table; the other files
are cited by path.  And every CHANGES.md entry numbered ``BUDGET_FROM``
or later fits a character budget.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "pairs_report", ROOT / "benchmarks" / "pairs_report.py"
)
pairs_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs_report)

COMMITTED = sorted((ROOT / "benchmarks" / "pairs").glob("*/*.jsonl"))
CLAIMS = sorted({path.parent for path in COMMITTED})
CHANGES = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
#: characters per CHANGES.md entry, and the first entry number held to it
ENTRY_BUDGET, BUDGET_FROM = 1200, 32


def test_claims_are_committed():
    assert COMMITTED, "no committed pairs file"


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_committed_pairs_render_and_hold(path, capsys):
    assert pairs_report.main([str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda p: p.name)
def test_changes_quotes_a_rendered_line_of_each_claim(claim, capsys):
    rendered = []
    for path in sorted(claim.glob("*.jsonl")):
        pairs_report.main([str(path)])
        rendered += [line.strip() for line in capsys.readouterr().out.splitlines() if " → " in line]
    assert any(line in CHANGES for line in rendered), f"CHANGES.md quotes no line of {claim.name}"


def test_changes_entries_fit_the_budget():
    entries = [e.strip() for e in re.split(r"^(?=PR \d+:)", CHANGES, flags=re.M) if e.strip()]
    numbers = [int(re.match(r"PR (\d+):", entry)[1]) for entry in entries]
    over = {
        number: len(entry)
        for number, entry in zip(numbers, entries)
        if number >= BUDGET_FROM and len(entry) > ENTRY_BUDGET
    }
    assert not over, f"CHANGES.md entries over {ENTRY_BUDGET} characters: {over}"


def _run(seed, side, correct=True, amp=1.5, ops=100.0):
    metrics = {
        "host_ops_per_cpu_s": {"value": ops, "unit": "1/s"},
        "backend_amp": {"value": amp, "unit": "B/B"},
    }
    return {"side": side, "seed": seed, "result": {"correct": correct, "metrics": metrics}}


def _write(tmp_path, rows, workload="vol-mixed-hot"):
    path = tmp_path / f"{workload}.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def test_report_renders_medians_wins_and_exact_verdicts(tmp_path, capsys):
    rows = [_run(s, side, ops=100.0 + s + (10 if side == "head" else 0))
            for s in (1, 2, 3) for side in ("base", "head")]
    assert pairs_report.main([str(_write(tmp_path, rows))]) == 0
    out = capsys.readouterr().out
    assert "ops_per_cpu_s: 102 [101.5–102.5] → 112 [111.5–112.5], ×1.098, 3/3 wins" in out
    assert "backend_amp: == on 3/3 seeds" in out


def test_an_exact_metric_that_moves_fails_the_report(tmp_path, capsys):
    rows = [_run(1, "base"), _run(1, "head", amp=1.6)]
    assert pairs_report.main([str(_write(tmp_path, rows))]) == 1
    assert "FAIL: backend_amp differs at seed 1" in capsys.readouterr().out


def test_a_run_that_is_not_correct_fails_the_report(tmp_path, capsys):
    rows = [_run(1, "base"), _run(1, "head", correct=False)]
    assert pairs_report.main([str(_write(tmp_path, rows))]) == 1
    assert "FAIL: seed 1 head: correct is false" in capsys.readouterr().out
