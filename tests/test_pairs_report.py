"""Committed performance claims re-render from their pairs files.

Every ``benchmarks/pairs/PR-<n>/<workload>.jsonl`` must hold: every run
correct and every exact metric ``==`` per seed.  And CHANGES.md quotes
each file's rendered ``host_ops_per_cpu_s`` line, so a claim is the
renderer's output, not a hand-typed table.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "pairs_report", ROOT / "benchmarks" / "pairs_report.py"
)
pairs_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs_report)

COMMITTED = sorted((ROOT / "benchmarks" / "pairs").glob("*/*.jsonl"))


def test_claims_are_committed():
    assert COMMITTED, "no committed pairs file"


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_committed_pairs_render_and_hold(path, capsys):
    assert pairs_report.main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    headline = next(line.strip() for line in out.splitlines() if " host_ops_per_cpu_s: " in line)
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    assert headline in changes, f"CHANGES.md does not quote {headline!r}"


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
