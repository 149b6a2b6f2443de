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
