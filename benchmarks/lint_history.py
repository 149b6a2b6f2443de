"""Lint history: today's invariant rules run over every committed tree (``make lint-history``).

For each commit on the current branch, oldest first, ``git archive <sha> src`` is unpacked
into a temporary directory and checked by the current ``ALL_RULES`` under the current
``pyproject.toml`` configuration, with ``# lint: disable`` comments read but not applied.
Prints per-rule counts per commit, then each finding the commit removed: ``catch`` when the
commit's tree no longer has it at all, ``suppressed`` when only a comment now hides it (a
suppression is not a catch).  Needs full history; ~2.5 min on a 2-core box."""

import io
import re
import subprocess
import tarfile
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

from repro.lint import framework
from repro.lint.config import discover_config
from repro.lint.rules import ALL_RULES

ROOT = Path(__file__).resolve().parent.parent
_LINE = re.compile(r"\bline \d+")


def removed(parent, child):
    """Findings live in ``parent`` that ``child`` no longer reports, as (catches, suppressed).

    Each side lists ``(key, suppressed)`` pairs, a key naming one finding across commits.  A
    catch is a key the child has nowhere; one it has only behind a comment was suppressed.
    Two flagged call sites folded into one keep their key, so that is neither."""
    live = {key for key, hidden in parent if not hidden}
    child_live = {key for key, hidden in child if not hidden}
    child_all = {key for key, _hidden in child}
    return sorted(live - child_all), sorted((live - child_live) & child_all)


def lint_tree(root, config):
    """``(key, suppressed)`` for every finding in ``root/src``; a key is (code, path, message)."""
    with mock.patch.object(framework, "parse_suppressions", lambda source: {}):
        found = framework.run_lint([root / "src"], config)
    tables, out = {}, []
    for diag in found:
        if diag.path not in tables:
            tables[diag.path] = framework.parse_suppressions(Path(diag.path).read_text("utf-8"))
        path = Path(diag.path).relative_to(root).as_posix()
        key = (diag.code, path, _LINE.sub("line N", diag.message))
        out.append((key, diag.code in tables[diag.path].get(diag.line, ())))
    return out


def main():
    config = discover_config(ROOT)
    shas = subprocess.run(["git", "rev-list", "--reverse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.split()
    caught, parent = Counter(), []
    for sha in shas:
        blob = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT, check=True,
                              capture_output=True).stdout
        with tempfile.TemporaryDirectory() as tmp:
            tarfile.open(fileobj=io.BytesIO(blob)).extractall(tmp)
            child = lint_tree(Path(tmp), config)
        counts = Counter(key[0] for key, hidden in child if not hidden)
        print(sha[:8], " ".join(f"{cls.code}={counts[cls.code]}" for cls in ALL_RULES), flush=True)
        catches, suppressed = removed(parent, child)
        for verdict, keys in (("catch", catches), ("suppressed", suppressed)):
            for code, path, message in keys:
                print(f"  {verdict} {code} {path}: {message}")
        caught.update(code for code, _path, _message in catches)
        parent = child
    print("catches per rule:", " ".join(f"{cls.code}={caught[cls.code]}" for cls in ALL_RULES))


if __name__ == "__main__":
    main()
