"""Docs that match the tree: every repo path DESIGN.md, README.md and
EXPERIMENTS.md name must resolve to a file or directory, and every dotted
``repro.*`` name they put in backticks must import."""

import importlib
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
#: what makes a backticked token a path into this repo (not a generated
#: artefact such as ``BENCH_x.json``): a source/doc suffix, or a leading
#: top-level directory
SUFFIXES = (".py", ".md", ".yml", ".toml")
TOP_DIRS = ("src/", "tests/", "benchmarks/", "examples/", ".github/")


def repo_files():
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    ).stdout.split()
    if not listed:  # not a git checkout (sdist): walk the tree instead
        listed = [str(p.relative_to(ROOT)) for p in ROOT.rglob("*") if p.is_file()]
    return listed


def named_paths(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    # python files wherever they are named (the package inventory is a
    # fenced block, not backticks)...
    yield from re.findall(r"(?<![\w<>*{}./-])[\w./-]*\w\.py\b", text)
    # ...and everything else in backticks that reads as a path
    for token in re.findall(r"`([^`\s]+)`", text):
        path = token.split("::")[0].rstrip(".,:;")
        if re.search(r"[*<>{}$]", path):
            continue  # a glob or a placeholder, not one path
        if path.endswith(SUFFIXES) or path.startswith(TOP_DIRS):
            yield path


@pytest.mark.parametrize("doc", DOCS)
def test_every_repo_path_named_in_the_docs_resolves(doc):
    files = repo_files()
    # a path may be written relative to the package the paragraph is about
    # (``flow/cfg.py``, ``quickstart.py``): any file or directory whose path
    # ends with it counts
    haystack = "\n" + "\n".join("/" + f for f in files) + "\n"
    missing = sorted(
        {
            path
            for path in named_paths(doc)
            if not (ROOT / path).exists()
            and "/" + path.rstrip("/") + "\n" not in haystack
            and "/" + path.rstrip("/") + "/" not in haystack
        }
    )
    assert not missing, f"{doc} names paths that do not exist: {missing}"


def resolves(dotted):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_repro_name_in_the_docs_resolves(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    names = set(re.findall(r"`(repro(?:\.\w+)+)", text))
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, f"{doc} names objects that do not import: {missing}"


#: DESIGN.md's line budget per ``## `` section (heading to the next one;
#: the title and intro before the first are "(preamble)"), set at each
#: section's size when the budget was introduced.  A section may shrink; one
#: that would grow past its ceiling moves a measured table out to a cited
#: file, or argues for the new ceiling here.  Every section needs an entry,
#: so one added, renamed or lost fails until this table says so.
DESIGN_CEILINGS = {
    "(preamble)": 10,
    "What the paper builds": 28,
    "Substitutions (paper used → we build → why it preserves behaviour)": 21,
    "Package inventory": 82,
    "Experiment index (every table & figure)": 28,
    "Design choices to ablate (benchmarks/ablations)": 10,
    "Consistency model (tested by crash-point enumeration)": 10,
    "Observability (`repro.obs`)": 46,
    "Span tracing & critical-path attribution (`repro.obs.spans`)": 59,
    "Sharding (`repro.shard`)": 54,
    "Chunked extent map & the data-plane fast path"
    " (`repro.core.extent_map`, `repro.core.sgio`)": 126,
    "Read cache: byte ring addressed by position (`repro.core.read_cache`)": 170,
    "Simulation engine & device ops (`repro.sim`, `repro.devices.base`)": 98,
    "Data plane pipeline (`repro.runtime.lsvd`): group commit, per-shard destage,"
    " overlapped recovery": 99,
    "Multi-tenant fleet & QoS (`repro.fleet`)": 43,
    "Temperature-aware placement (`repro.core.placement`)": 104,
    "Invariants & static checks (`repro.lint`)": 107,
}


def design_section_lines():
    sections, name = {}, "(preamble)"
    for line in (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            name = line[3:].strip()
        sections[name] = sections.get(name, 0) + 1
    return sections


def test_design_sections_stay_within_their_line_budget():
    sections = design_section_lines()
    assert sorted(sections) == sorted(DESIGN_CEILINGS), "a DESIGN.md section was added or lost"
    over = {
        name: f"{lines} > {DESIGN_CEILINGS[name]}"
        for name, lines in sections.items()
        if lines > DESIGN_CEILINGS[name]
    }
    assert not over, f"DESIGN.md sections over their line budget: {over}"
