"""Self-test of the ledger (``PYTHONPATH=src pytest benchmarks/ledger -q``).

Runs every workload at ``--quick`` sizes through the real entry point and
checks the contract between ``BENCHMARK.json``, ``catalog.py`` and what a
run prints: declared == emitted, exact metrics repeat bit for bit, a
corrupted read is counted as a failed op, the per-layer self times add up
to the traced total, and the README's idle-layer predictions hold.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import harness  # noqa: E402
import scenarios  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = list(catalog.WORKLOADS)
#: metrics that must repeat exactly for one seed, whatever the host does
EXACT_E2E = ("backend_amp", "space_amp")


def ledger(workload: str, seed: int, trace: int, tmp: Path) -> dict:
    """One run through the parent entry point; the last line it prints."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.3",
            "--workload", workload, "--seed", str(seed), "--trace", str(trace),
            "--out-dir", str(tmp),
        ],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Memoised quick runs: runs(workload, seed, trace) -> result line."""
    tmp = tmp_path_factory.mktemp("ledger")
    return functools.lru_cache(maxsize=None)(
        lambda workload, seed=1, trace=0: ledger(workload, seed, trace, tmp)
    )


def test_benchmark_json_declares_the_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["command"][-1] == "benchmarks/ledger/run.py"
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(
        catalog.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == catalog.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == catalog.per_layer()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(doc["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_declared_metrics_are_exactly_what_a_run_emits(runs, workload):
    for trace, declared in (
        (0, [m[0] for m in catalog.END_TO_END]),
        (1, [m[0] for m in catalog.per_layer()]),
    ):
        result = runs(workload, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == declared
        if trace == 0:  # end-to-end metrics are never 0, on any workload
            assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(runs, tmp_path, workload):
    first = runs(workload)["metrics"]
    again = ledger(workload, 1, 0, tmp_path)["metrics"]
    exact = EXACT_E2E
    if workload == "fleet-fsync":  # client latency is on the virtual clock
        exact += ("client_lat_p50_us", "client_lat_tail_us")
    for name in exact:
        assert first[name]["value"] == again[name]["value"], name


# one workload per stack: both stacks draw their ops from the same FioJob
@pytest.mark.parametrize("workload", ["vol-mixed-hot", "fleet-fsync"])
def test_another_seed_is_another_op_stream(runs, workload):
    first = runs(workload)["metrics"]
    other = runs(workload, seed=2)["metrics"]
    assert any(first[n]["value"] != other[n]["value"] for n in EXACT_E2E)


def test_traced_counts_repeat_exactly(runs, tmp_path):
    first = runs("fleet-fsync", trace=1)["metrics"]
    again = ledger("fleet-fsync", 1, 1, tmp_path)["metrics"]
    for name in (
        "sim.events_per_op", "runtime.sim_iops", "runtime.objects_put",
        "runtime.submit.calls_per_op", "runtime.stage.shard_put.virt_us_per_op",
    ):
        assert first[name]["value"] == again[name]["value"] != 0, name


def test_a_flipped_byte_in_a_read_is_a_failed_op():
    scenario = scenarios.make("vol-read-miss", seed=1, quick=True)
    scenario.setup()
    honest = scenario.vol.read
    calls = []

    def tampered(offset, length):
        data = honest(offset, length)
        calls.append(offset)
        if len(calls) == 5:
            return bytes([data[0] ^ 1]) + data[1:]
        return data

    scenario.vol.read = tampered
    before = scenario.failed
    segment = scenario.segment(harness.Meter())
    assert segment.ops == scenario.spec.segment_ops
    assert scenario.failed == before + 1
    assert "read at" in scenario.first_failure


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_and_cover_the_run(runs, workload):
    metrics = {k: v["value"] for k, v in runs(workload, trace=1)["metrics"].items()}
    total = metrics["profile.total_us_per_op"]
    buckets = [metrics[f"{layer}.self_us_per_op"] for layer in catalog.LAYERS]
    assert sum(buckets) + metrics["other.self_us_per_op"] == pytest.approx(total, rel=0.01)
    assert metrics["profile.coverage_frac"] >= 0.95
    assert metrics["profile.coverage_frac"] == pytest.approx(sum(buckets) / total)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_idle_layer_predictions_hold(runs, workload):
    metrics = {k: v["value"] for k, v in runs(workload, trace=1)["metrics"].items()}
    total = metrics["profile.total_us_per_op"]
    for layer in catalog.IDLE[workload]:
        share = metrics[f"{layer}.self_us_per_op"] / total
        assert share < catalog.IDLE_SHARE, (layer, share)
    busiest = max(catalog.LAYERS, key=lambda layer: metrics[f"{layer}.self_us_per_op"])
    assert busiest not in catalog.IDLE[workload]
