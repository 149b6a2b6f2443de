"""LSVD005 — LBA-denominated and byte-denominated values must not mix.

The map layers translate between 512-byte virtual LBAs, 4 KiB cache
blocks and byte offsets inside objects; the classic log-structured-store
bug is adding an LBA to a byte offset and reading garbage that still
CRCs (the CRC covers the *object*, not the *addressing*).  Two checks:

* a function whose parameters span both families (``*lba*`` and
  ``*byte*``/``*off*``) must annotate those parameters, so reviewers and
  mypy can see the units;
* an ``lba``-named operand may never be directly added to or subtracted
  from a ``byte``/``off``-named operand — multiply through ``BLOCK``
  (or a named conversion helper) first.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.typestate import matches_marker, tail_name
from repro.lint.framework import ModuleContext, Rule

#: identifier substrings marking LBA-denominated values
LBA_MARKERS: Tuple[str, ...] = ("lba",)

#: identifier substrings marking byte-denominated values
BYTE_MARKERS: Tuple[str, ...] = ("byte", "off")


class UnitConfusionRule(Rule):
    """Invariant:
        LBA-denominated and byte-denominated values never mix without
        an explicit conversion; functions taking both must annotate
        their parameters.

    Example violation::

        def read(lba, nbytes):
            end = lba + nbytes      # adds sectors to bytes

    Paper:
        §3.1 — the virtual disk is addressed in sectors but the log
        and object layer in bytes; a silent 512x error corrupts the
        extent map.
    """

    code = "LSVD005"
    name = "unit-confusion"
    summary = (
        "functions mixing lba- and byte/offset-named parameters need "
        "annotations; lba +/- byte arithmetic needs an explicit conversion"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_signature(ctx, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                yield from self._check_mix(ctx, node)

    def _check_signature(
        self,
        ctx: ModuleContext,
        node: ast.FunctionDef,
    ) -> Iterator[Diagnostic]:
        args: List[ast.arg] = [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]
        lba_args = [a for a in args if matches_marker(a.arg, LBA_MARKERS)]
        byte_args = [a for a in args if matches_marker(a.arg, BYTE_MARKERS)]
        if not lba_args or not byte_args:
            return
        missing = [a for a in (*lba_args, *byte_args) if a.annotation is None]
        for arg in missing:
            yield self.diag(
                ctx,
                arg,
                f"function {node.name!r} mixes LBA- and byte-denominated "
                f"parameters but {arg.arg!r} is unannotated",
                "annotate every lba/byte/offset parameter (plain `int` is "
                "enough) so the unit mix is visible to reviewers and mypy",
            )

    def _check_mix(self, ctx: ModuleContext, node: ast.BinOp) -> Iterator[Diagnostic]:
        pair = self._mixed_operands(node)
        if pair is None:
            return
        lba_name, byte_name = pair
        op = "+" if isinstance(node.op, ast.Add) else "-"
        yield self.diag(
            ctx,
            node,
            f"direct {lba_name!r} {op} {byte_name!r} mixes LBA and byte units; "
            "the result addresses garbage that still passes CRC checks",
            "convert explicitly first (e.g. lba * BLOCK, or a named "
            "helper) so both operands share a unit",
        )

    @staticmethod
    def _mixed_operands(node: ast.BinOp) -> Optional[Tuple[str, str]]:
        left, right = tail_name(node.left), tail_name(node.right)
        for a, b in ((left, right), (right, left)):
            if (
                a
                and b
                and matches_marker(a, LBA_MARKERS)
                and not matches_marker(a, BYTE_MARKERS)
                and matches_marker(b, BYTE_MARKERS)
                and not matches_marker(b, LBA_MARKERS)
            ):
                return a, b
        return None
