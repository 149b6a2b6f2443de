"""The traffic census sees what one production run calls."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("traffic", ROOT / "benchmarks" / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)


def test_one_create_calls_cmd_create_and_not_cmd_fsck():
    uncalled = traffic.census([["{py}", "-m", "repro.cli", "{tmp}/bucket", "create", "v"]])
    names = {qualname for _package, qualname, _lines in uncalled.values()}
    assert "cmd_fsck" in names
    assert "cmd_create" not in names
    assert len(uncalled) < len(traffic.defs())
