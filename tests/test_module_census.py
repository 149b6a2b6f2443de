"""Every module has a consumer: each module under ``src/repro/`` must be
imported by another ``src/`` module or a benchmark.  A test file alone
does not count — a module only tests exercise is dead weight (ROADMAP
item 11)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: modules with no importer, each with the reason it may stay
EXEMPT = {
    # entry point: ``python -m repro.cli``
    "repro.cli",
    # the test suite's oracle for cross-structure invariants; item 2's
    # crash harness is to drive it
    "repro.core.validate",
    # a comparison baseline kept in repro/baselines/ (ROADMAP conventions):
    # the reference model of tests/test_extent_map_model.py
    "repro.baselines.flat_extent_map",
    # item 11: adopt (trace_io as item 2's replay format, mrc as a cache
    # sizing or read-ahead cost model), move to examples/ (dedup is a §6.3
    # demonstration) or delete — that decision stays with item 11
    "repro.analysis.mrc",
    "repro.workloads.trace_io",
    "repro.core.dedup",
}


def module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(path, package):
    """Every dotted name an import statement in ``path`` may bind:
    ``from a import b`` counts as both ``a`` and ``a.b``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + [base] if base else anchor)
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def importers():
    found = {}
    for path in [*(SRC / "repro").rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]:
        if path.is_relative_to(SRC):
            name = module_name(path)
            package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        else:
            name, package = str(path.relative_to(ROOT)), ""
        for imported in imported_names(path, package):
            # importing a module imports every package above it
            parts = imported.split(".")
            for cut in range(1, len(parts) + 1):
                found.setdefault(".".join(parts[:cut]), set()).add(name)
    return found


def test_every_module_is_imported_outside_the_tests():
    found = importers()
    orphans = sorted(
        name
        for name in map(module_name, (SRC / "repro").rglob("*.py"))
        if not name.endswith("__main__")
        and "." in name
        and not found.get(name, set()) - {name}
        and name not in EXEMPT
    )
    assert not orphans, f"modules nothing outside tests/ imports: {orphans}"


def test_every_exemption_is_still_needed():
    found = importers()
    stale = sorted(name for name in EXEMPT if found.get(name, set()) - {name})
    assert not stale, f"exempt modules that now have an importer: {stale}"
