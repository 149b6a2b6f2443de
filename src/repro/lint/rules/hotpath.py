"""LSVD009 — hot-path hygiene in the data-plane modules.

Every client I/O funnels through the extent map and the encode/seal path,
so the paper's production rewrite moved the map to a B+-tree precisely
because per-operation O(n) work there dominates client CPU at scale.
This rule keeps the data plane from quietly regressing to the patterns
the chunked-map/zero-copy rework removed:

* ``list.insert(i, x)`` and ``del seq[i]`` — O(n) element shuffles.  In
  the chunked extent map these are legal only inside the blessed leaf
  helpers, where the shifted list is a bounded chunk rather than the
  whole map.
* ``bytes(buf[a:b])`` — a per-extent payload copy.  Request assembly
  must go through :mod:`repro.core.sgio` (one pre-sized buffer per
  request); deliberate copies in cold paths (checkpoint restore,
  recovery decode) are allowlisted per function via
  ``[tool.repro-lint] hotpath-allow``.

The rule only examines the modules named by ``hotpath_modules`` — the
data-plane files — so slow-path modules (checkpointing, recovery
tooling) are untouched.  Blessed entries take the form
``core/extent_map.py::_leaf_insert`` (one function) or a bare module
suffix to exempt a whole file.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.framework import ModuleContext, Rule

#: data-plane modules held to hot-path hygiene (LSVD009): no O(n) list
#: shuffles or per-extent ``bytes()`` copies outside blessed helpers
HOTPATH_MODULES: Tuple[str, ...] = (
    "core/extent_map.py",
    "core/volume.py",
    "core/batch.py",
    "core/log.py",
)


def _bytes_of_subscript(node: ast.Call) -> bool:
    """True for ``bytes(<subscript>)`` — a per-extent slice copy."""
    return (
        isinstance(node.func, ast.Name)
        and node.func.id == "bytes"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Subscript)
    )


def _is_list_insert(node: ast.Call) -> bool:
    """True for ``<obj>.insert(i, x)`` — the O(n) element shuffle."""
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "insert"
        and len(node.args) == 2
        and not node.keywords
    )


class HotPathRule(Rule):
    """Invariant:
        Data-plane modules avoid O(n) list shuffles and per-extent
        ``bytes()`` copies outside blessed bounded helpers — per-I/O
        work must stay logarithmic and zero-copy.

    Example violation::

        self.extents.insert(i, ext)      # O(n) shuffle per write

    Paper:
        §3.7/§4.2 — the production rewrite moved the map to a B+-tree
        because per-op O(n) work dominated client CPU at scale.

    Evidence:
        Commit 9987950: ten ``list.insert``/``del`` shuffles in
        ``core/extent_map.py`` became bounded-chunk helpers, and two per-extent
        ``bytes(...)`` copies in ``core/batch.py`` went.
    """

    code = "LSVD009"
    name = "hot-path-hygiene"
    summary = (
        "O(n) list mutation or per-extent bytes() copy in a data-plane "
        "module outside the blessed bounded helpers"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_allowed(ctx.path, HOTPATH_MODULES):
            return
        blessed, whole_module = config.scoped_allow(ctx.path, config.hotpath_blessed)
        if whole_module:
            return
        yield from self._scan(ctx, ctx.tree, enclosing=None, blessed=blessed)

    def _scan(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        enclosing: Optional[str],
        blessed: FrozenSet[str],
    ) -> Iterator[Diagnostic]:
        """Visit every node once, tracking the innermost enclosing function
        (nested defs shadow their parent, so blessing is per-function)."""
        for child in ast.iter_child_nodes(node):
            name = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if name not in blessed:
                yield from self._flag(ctx, child)
            yield from self._scan(ctx, child, name, blessed)

    def _flag(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Diagnostic]:
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    yield self.diag(
                        ctx,
                        node,
                        "del on a subscript in a data-plane module: an O(n) "
                        "element shuffle on the hot path",
                        "keep O(n) deletes inside a blessed bounded-chunk "
                        "helper, or allowlist the function via hotpath-allow",
                    )
        elif isinstance(node, ast.Call):
            if _is_list_insert(node):
                yield self.diag(
                    ctx,
                    node,
                    "list.insert in a data-plane module: an O(n) element "
                    "shuffle on the hot path",
                    "insert inside a blessed bounded-chunk helper (e.g. the "
                    "extent map's _leaf_insert), or allowlist via hotpath-allow",
                )
            elif _bytes_of_subscript(node):
                yield self.diag(
                    ctx,
                    node,
                    "bytes(<slice>) in a data-plane module: a per-extent "
                    "payload copy on the hot path",
                    "assemble through repro.core.sgio (gather/concat) or "
                    "allowlist the cold-path function via hotpath-allow",
                )
