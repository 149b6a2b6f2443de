"""Tier-1 gate: the real tree must satisfy every LSVD invariant.

Any PR that reintroduces a violation (a stray ``store.put``, wall-clock
read in the simulator, swallowed recovery exception...) fails here with
the exact ``file:line code message`` diagnostics.
"""

import json
import pathlib

from repro.lint import ALL_RULES, LintConfig, run_lint
from repro.lint.cli import main as lint_main

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
#: every tree the analyzer gates: library code plus the benchmark and
#: example drivers (which exercise the same store/volume APIs)
LINTED = [SRC, REPO / "benchmarks", REPO / "examples"]


def test_source_tree_is_clean():
    config = LintConfig.from_pyproject(REPO / "pyproject.toml")
    diagnostics = run_lint(LINTED, config)
    assert diagnostics == [], "LSVD invariant violations:\n" + "\n".join(
        d.render() for d in diagnostics
    )


def test_cli_clean_run_exits_zero(capsys):
    assert lint_main([str(p) for p in LINTED]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_clean_document(capsys):
    assert lint_main([str(p) for p in LINTED] + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["clean"] is True
    assert doc["summary"]["total"] == 0
    assert doc["diagnostics"] == []


def test_no_allowlist_entry_is_stale():
    """Every allowlist/default entry must still match a file (and, for a
    ``module::function`` entry, a ``def``) in the package it exempts."""
    config = LintConfig.from_pyproject(REPO / "pyproject.toml")
    assert config.stale_entries(SRC) == []


def test_stale_allowlist_entry_is_an_error(tmp_path, capsys):
    from dataclasses import replace

    config = replace(
        LintConfig.from_pyproject(REPO / "pyproject.toml"),
        sequence_allow=("core/log.py", "core/gone.py"),
        durability_allow=("core/volume.py::_finish_gc_round", "core/volume.py::_gone"),
        shard_allow=("shard/", "elsewhere/"),
    )
    assert config.stale_entries(SRC) == [
        "sequence_allow: core/gone.py",
        "shard_allow: elsewhere/",
        "durability_allow: core/volume.py::_gone",
    ]
    # the CLI refuses to lint a package with a stale exemption
    package = tmp_path / "repro"
    (package / "core").mkdir(parents=True)
    (package / "core" / "log.py").write_text("x = 1\n")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\nsequence-allow = ["core/gone.py"]\n'
    )
    assert lint_main([str(package)]) == 1
    assert "sequence_allow: core/gone.py" in capsys.readouterr().err


def test_every_rule_actually_ran_against_the_tree():
    """Guard against a rule being silently disabled by configuration."""
    config = LintConfig.from_pyproject(REPO / "pyproject.toml")
    for code in (rule.code for rule in ALL_RULES):
        assert config.code_enabled(code), f"{code} is disabled in pyproject.toml"
