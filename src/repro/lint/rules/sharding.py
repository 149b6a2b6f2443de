"""LSVD008 — shard placement is owned by the shard router.

A sharded volume stays recoverable only while every writer and reader
agree on which shard owns a given object name, forever.  That mapping is
a *persisted contract* (the ``shard-layout.json`` manifest), so a second
module computing ``seq % n_shards`` on its own — or spelling out a
``shard-NN`` name by hand — is the sharded-store equivalent of the
seq-collision bug LSVD002 guards against: it works until the layouts
drift, then objects silently land on (or are read from) the wrong
backend.  All placement must go through
:class:`repro.shard.router.ShardRouter`; only ``repro/shard/`` computes
it directly.

Two patterns are flagged outside the allowlisted modules:

* modulo arithmetic whose operand names a shard count
  (``n_shards``, ``num_shards``, ``shard_count``);
* construction of a shard *name* by string formatting — an f-string,
  ``str.format`` or ``%`` template whose literal part pairs ``shard-``
  with a substituted value.  Fixed literals such as ``"shard-status"``
  (a CLI verb) are fine: without a substitution no placement decision
  is being made.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.typestate import tail_name
from repro.lint.framework import ModuleContext, Rule

#: identifier shapes that denote a shard count: ``n_shards``,
#: ``self.num_shards``, ``shard_count``...
SHARD_COUNT_RE = re.compile(r"(^|_)n_?shards$|(^|_)num_shards$|(^|_)shard_count$")

#: literal fragments that smell like a shard-name template when they sit
#: next to a substitution: ``f"shard-{i}"``, ``"shard-{}".format(i)``,
#: ``"shard-%02d" % i``
_TEMPLATE_MARKS = ("shard-{", "shard-%")


def _shard_count_identifier(node: ast.expr) -> Optional[str]:
    """The matched identifier when ``node`` names a shard count."""
    name = tail_name(node)
    if name and SHARD_COUNT_RE.search(name.lower()):
        return name
    return None


def _formats_shard_name(node: ast.AST) -> bool:
    """True for string-formatting constructs that build a shard name."""
    if isinstance(node, ast.JoinedStr):
        # f-string: a literal part ending in "shard-" directly followed
        # by a formatted value
        parts = node.values
        for i, part in enumerate(parts[:-1]):
            if (
                isinstance(part, ast.Constant)
                and isinstance(part.value, str)
                and part.value.endswith("shard-")
                and isinstance(parts[i + 1], ast.FormattedValue)
            ):
                return True
        return False
    if isinstance(node, ast.Call):
        # "shard-{}".format(...)
        fn = node.func
        return (
            isinstance(fn, ast.Attribute)
            and fn.attr == "format"
            and isinstance(fn.value, ast.Constant)
            and isinstance(fn.value.value, str)
            and any(mark in fn.value.value for mark in _TEMPLATE_MARKS)
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        # "shard-%02d" % i
        left = node.left
        return (
            isinstance(left, ast.Constant)
            and isinstance(left.value, str)
            and any(mark in left.value for mark in _TEMPLATE_MARKS)
        )
    return False


class ShardOwnershipRule(Rule):
    """Invariant:
        The shard router owns the name->shard mapping and its persisted
        layout; placement computed anywhere else can diverge from the
        manifest and route reads to the wrong backend.

    Example violation::

        idx = hash(name) % len(self.backends)   # ad-hoc placement

    Paper:
        §3.6 — striping across backends must be stable across mounts;
        recovery's global LIST assumes one authoritative layout.
    """

    code = "LSVD008"
    name = "shard-ownership"
    summary = (
        "shard placement computed outside repro/shard; the router owns the "
        "name->shard mapping and its persisted layout"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if config.module_allowed(ctx.path, config.shard_allow) or config.module_in_dirs(
            ctx.path, config.shard_allow
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                name = _shard_count_identifier(node.right) or _shard_count_identifier(
                    node.left
                )
                if name is not None:
                    yield self.diag(
                        ctx,
                        node,
                        f"modulo arithmetic on shard count {name!r} outside the "
                        "shard router; placement must stay consistent with the "
                        "persisted layout",
                        "route through ShardRouter.shard_of_seq / shard_of_name "
                        "instead of computing placement locally",
                    )
                    continue
            if _formats_shard_name(node):
                yield self.diag(
                    ctx,
                    node,
                    "shard name constructed outside the shard router; "
                    "only repro/shard may spell out shard-NN names",
                    "use ShardRouter.shard_name(index) (or shard_names()) "
                    "so naming follows the persisted layout",
                )
