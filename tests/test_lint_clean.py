"""Tier-1 gate: the real tree must satisfy every LSVD invariant.

Any PR that reintroduces a violation (a stray ``store.put``, wall-clock
read in the simulator, swallowed recovery exception...) fails here with
the exact ``file:line code message`` diagnostics.
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro.lint import ALL_RULES, LintConfig, cli
from repro.lint.cli import main as lint_main

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
#: every tree the analyzer gates: library code plus the benchmark and
#: example drivers (which exercise the same store/volume APIs)
LINTED = [SRC, REPO / "benchmarks", REPO / "examples"]


@pytest.fixture(scope="module")
def tree_run():
    """Lint the tree once, through the JSON CLI path: (exit code, JSON
    document, the config and diagnostics ``run_lint`` saw)."""
    seen = []
    run_lint = cli.run_lint

    def spy(paths, config):
        seen.append((config, run_lint(paths, config)))
        return seen[-1][1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "run_lint", spy)
        code = lint_main([str(p) for p in LINTED] + ["--format", "json"])
    assert len(seen) == 1
    return code, json.loads(out.getvalue()), *seen[0]


def test_source_tree_is_clean(tree_run):
    _code, doc, config, diagnostics = tree_run
    assert config == LintConfig.from_pyproject(REPO / "pyproject.toml")
    assert diagnostics == [], "LSVD invariant violations:\n" + "\n".join(
        d.render() for d in diagnostics
    )
    assert [d.as_dict() for d in diagnostics] == doc["diagnostics"]


def test_cli_clean_run_exits_zero(tmp_path, capsys):
    """The text format's exit code and banner, on a small clean tree."""
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    (tree / "b.py").write_text("def f(y):\n    return y\n")
    assert lint_main([str(tree), "--no-config"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_clean_document(tree_run):
    code, doc, _config, _diagnostics = tree_run
    assert code == 0
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
