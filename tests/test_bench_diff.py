"""``bench-diff`` gates every figure, and no smoke can read the host clock.

The smokes run on virtual clocks only, so ``benchmarks/bench_diff.py``
has two classes told apart by type — boolean gates and numbers held to
``--tolerance`` — and no name-based "informational" class for a drifted
throughput figure to hide in.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

_spec = importlib.util.spec_from_file_location("bench_diff", BENCHMARKS / "bench_diff.py")
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)

BASE = {
    "put_mbps_4_shards": 234.881,
    "aggregate_iops_8_tenants": 26208.0,
    "gc_pages": 1200,
    "gate_scaling": True,
    "gate_pending": False,
    "policy": "sepbit",
}


def diff(fresh, baseline=BASE):
    return bench_diff.diff_bench("BENCH_x.json", baseline, fresh, 1e-6)


@pytest.mark.parametrize("name", ["put_mbps_4_shards", "aggregate_iops_8_tenants"])
def test_throughput_named_figures_are_gated_like_any_number(name):
    assert diff(dict(BASE))[1] == []
    assert diff({**BASE, name: BASE[name] * (1 + 1e-9)})[1] == []
    [failure] = diff({**BASE, name: BASE[name] * 1.01})[1]
    assert name in failure and "drifted" in failure


def test_gate_regression_fails_and_improvement_is_noted():
    [failure] = diff({**BASE, "gate_scaling": False})[1]
    assert "gate_scaling" in failure
    lines, failures = diff({**BASE, "gate_pending": True})
    assert failures == []
    assert any("gate_pending" in line and "improved" in line for line in lines)


def test_missing_fails_new_is_noted_and_non_numeric_must_be_equal():
    [failure] = diff({k: v for k, v in BASE.items() if k != "gc_pages"})[1]
    assert "gc_pages" in failure and "missing" in failure
    lines, failures = diff({**BASE, "spans_per_write": 3.0})
    assert failures == []
    assert any("spans_per_write" in line and "no baseline" in line for line in lines)
    [failure] = diff({**BASE, "policy": "greedy"})[1]
    assert "policy" in failure


def test_a_side_without_figures_fails(tmp_path):
    assert any("nothing to gate" in f for f in diff(dict(BASE), baseline={})[1])
    assert any("nothing to gate" in f for f in diff({})[1])
    # a BENCH file with no top-level "figures" key (the old BENCH_lint.json)
    # loads as empty; main() must exit 1, not count the file as compared
    for side in ("base", "fresh"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCH_x.json").write_text('{"bench": "x", "total_s": 1.0}')
    argv = ["--bench-dir", str(tmp_path / "fresh"), "--baseline-dir", str(tmp_path / "base")]
    assert bench_diff.main(argv) == 1


def test_no_smoke_script_reads_the_host_clock():
    """A stopwatch belongs in ``benchmarks/ledger/`` or to pytest-benchmark
    (the paper-figure ``test_*.py``); the top-level scripts stay exact."""
    clocks = {"perf_counter", "perf_counter_ns", "process_time", "monotonic"}
    scripts = [p for p in sorted(BENCHMARKS.glob("*.py")) if not p.name.startswith("test_")]
    assert len(scripts) >= 6
    offenders = []
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                timed = any(alias.name == "time" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                timed = node.module == "time"
            else:
                timed = isinstance(node, ast.Attribute) and node.attr in clocks
            if timed:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
