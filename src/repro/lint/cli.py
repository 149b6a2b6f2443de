"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

Exit status: 0 clean, 1 findings, 2 usage error.  ``--format json``
emits the machine-readable document described in
:mod:`repro.lint.reporters`.  ``--explain`` (optionally with ``--rule
LSVD0NN``) prints each rule's invariant, example violation, paper
section and evidence, parsed live from the rule class docstrings so the
help text can never drift from the implementation.
"""

from __future__ import annotations

import argparse
import inspect
import pathlib
import re
import sys
import textwrap
from typing import Dict, List, Optional, Type

from repro.lint.config import PACKAGE_MARKER, LintConfig, discover_config
from repro.lint.framework import Rule, run_lint
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import ALL_RULES

#: docstring section headers --explain prints, in order (``::`` starts an
#: RST literal block for the example snippet)
SECTIONS = ("Invariant", "Example violation", "Paper", "Evidence")
_SECTION_RE = re.compile(rf"^({'|'.join(SECTIONS)})::?$")


def rule_sections(cls: Type[Rule]) -> Dict[str, str]:
    """Parse the ``Invariant:`` / ``Example violation:`` / ``Paper:`` /
    ``Evidence:`` sections out of a rule class docstring."""
    doc = inspect.cleandoc(cls.__doc__ or "")
    sections: Dict[str, List[str]] = {}
    current: Optional[str] = None
    for line in doc.splitlines():
        match = _SECTION_RE.match(line.strip())
        if match:
            current = match.group(1)
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return {
        key: textwrap.dedent("\n".join(lines)).strip("\n")
        for key, lines in sections.items()
    }


def explain_rules(codes: Optional[List[str]] = None) -> str:
    chunks: List[str] = []
    for cls in ALL_RULES:
        if codes is not None and cls.code not in codes:
            continue
        sections = rule_sections(cls)
        lines = [f"{cls.code} · {cls.name}", f"  {cls.summary}"]
        for header in SECTIONS:
            body = sections.get(header)
            if not body:
                continue
            lines.append(f"{header}:")
            lines.extend(f"  {ln}" if ln else "" for ln in body.splitlines())
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Check the LSVD tree against its global invariants "
        f"({ALL_RULES[0].code}-{ALL_RULES[-1].code}).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated codes to skip",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="skip pyproject.toml discovery; use built-in defaults only",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    parser.add_argument(
        "--rule",
        metavar="CODE",
        default=None,
        help="restrict the run (or --explain) to one rule code",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print each rule's invariant, example violation, paper "
        "section and evidence (from the rule docstrings) and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [c.strip().upper() for c in raw.split(",") if c.strip()]


def list_rules() -> str:
    lines = []
    for cls in ALL_RULES:
        lines.append(f"{cls.code}  {cls.name}")
        lines.append(f"        {cls.summary}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    known = {cls.code for cls in ALL_RULES}
    rule = args.rule.strip().upper() if args.rule else None
    if rule is not None and rule not in known:
        print(
            f"repro-lint: unknown code: {rule} (see --list-rules)",
            file=sys.stderr,
        )
        return 2
    if args.explain:
        print(explain_rules([rule] if rule is not None else None))
        return 0

    first = pathlib.Path(args.paths[0]).resolve()
    if not first.exists():
        print(f"repro-lint: no such path: {args.paths[0]}", file=sys.stderr)
        return 2
    config = LintConfig() if args.no_config else discover_config(first)

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    if rule is not None:
        select = [rule] if select is None else [c for c in select if c == rule]
    unknown = [c for c in (select or []) + (ignore or []) if c not in known]
    if unknown:
        print(
            f"repro-lint: unknown code(s): {', '.join(unknown)} "
            f"(see --list-rules)",
            file=sys.stderr,
        )
        return 2
    if select is not None or ignore is not None:
        from dataclasses import replace

        config = replace(
            config,
            select=tuple(select) if select is not None else config.select,
            ignore=config.ignore + tuple(ignore or ()),
        )

    # allowlists are judged against the package they exempt, whenever the
    # package directory itself is being checked
    stale = [
        entry
        for path in map(pathlib.Path, args.paths)
        if path.is_dir() and path.name == PACKAGE_MARKER
        for entry in config.stale_entries(path)
    ]
    if stale:
        for entry in stale:
            print(
                f"repro-lint: stale allowlist entry (matches no file or "
                f"function): {entry}",
                file=sys.stderr,
            )
        return 1

    diagnostics = run_lint(args.paths, config)
    report = render_json(diagnostics) if args.format == "json" else render_text(diagnostics)
    print(report)
    return 1 if diagnostics else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
