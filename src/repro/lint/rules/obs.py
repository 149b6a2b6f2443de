"""LSVD007 — stat counters and reporting go through ``repro.obs``.

The paper's whole evaluation is counter-derived (write amplification,
GC relocation volume, cache hit ratios, latency percentiles); scattering
those counters across ad-hoc instance attributes made them impossible to
snapshot, reset, or export coherently.  Inside the instrumented layers
(``core/``, ``runtime/``, ``fleet/``) three patterns are therefore flagged:

* a public ``self.<stat-name> += ...`` increment whose attribute is not
  a declared field (a class-level ``repro.obs`` ``metric_field`` /
  ``gauge_field``) — the counter would live outside the registry;
* a class that declares fields but whose ``__init__`` never calls
  ``bind_metrics(self)`` — ``+=`` on an unbound field raises;
* a bare ``print(...)`` call — reporting belongs to the CLI/analysis
  layers, which render registry snapshots.

Private attributes (leading underscore) are exempt: they are mechanism
state (ring heads, in-flight counts), not metrics.  Functional
accounting that happens to match a stat-ish name takes a line-scoped
``# lint: disable=LSVD007`` with a justification, per the usual policy.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.typestate import attr_on_self, matches_marker, tail_name
from repro.lint.framework import ModuleContext, Rule

#: directories whose stat counters / reporting must go through repro.obs
OBS_DIRS: Tuple[str, ...] = (
    "core/",
    "runtime/",
    "fleet/",
)

#: class-level declaration factories that mark an attribute as obs-backed
OBS_FIELD_FACTORIES = frozenset({"metric_field", "gauge_field"})
OBS_MODULE_PREFIX = "repro.obs"


def _is_obs_factory(ctx: ModuleContext, node: ast.expr) -> bool:
    """True when ``node`` is a call target naming an obs field factory."""
    origin = ctx.imports.qualified(node)
    if origin is not None:
        return origin.startswith(OBS_MODULE_PREFIX + ".") and origin.rsplit(
            ".", 1
        )[-1] in OBS_FIELD_FACTORIES
    # unresolved (e.g. defined in-module for a fixture): accept bare names
    return tail_name(node) in OBS_FIELD_FACTORIES


def _class_fields(ctx: ModuleContext, node: ast.ClassDef) -> Set[str]:
    """Attribute names ``node`` declares as metric_field/gauge_field."""
    declared: Set[str] = set()
    for stmt in node.body:
        targets: list = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not isinstance(value, ast.Call):
            continue
        if not _is_obs_factory(ctx, value.func):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                declared.add(target.id)
    return declared


def _binds_self(node: ast.ClassDef) -> bool:
    """True when the class's own ``__init__`` calls ``bind_metrics(self)``."""
    return any(
        isinstance(call, ast.Call) and tail_name(call.func) == "bind_metrics"
        and [getattr(arg, "id", None) for arg in call.args] == ["self"]
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
        for call in ast.walk(stmt)
    )


class ObservabilityRule(Rule):
    """Invariant:
        Statistics in the data plane flow through the ``repro.obs``
        registry — no ad-hoc ``self.hits += 1`` counters, no ``print``
        reporting from core/runtime code.

    Example violation::

        self.cache_hits += 1        # invisible to snapshots/analysis

    Paper:
        §4 — every figure is a metrics timeline; counters outside the
        registry can't be snapshotted, diffed, or plotted.

    Evidence:
        Commit 28a4745: 31 ad-hoc ``self.<stat> +=`` increments in the caches
        and ``runtime/`` moved into the registry.  Commit cb638e6:
        ``runtime/sharded.py`` declared metric fields it never bound.
    """

    code = "LSVD007"
    name = "observability"
    summary = (
        "ad-hoc stat counters and print() reporting in core/ and runtime/ "
        "must go through the repro.obs registry"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_in_dirs(ctx.path, OBS_DIRS):
            return
        if config.module_allowed(ctx.path, config.obs_allow):
            return
        declared: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = _class_fields(ctx, node)
            declared |= fields
            if fields and not _binds_self(node):
                yield self.diag(
                    ctx, node, f"class '{node.name}' declares metric fields but its "
                    "__init__ never calls bind_metrics(self), so += on one raises",
                    "call bind_metrics(self) in __init__ once self.obs is set",
                )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id == "print":
                    yield self.diag(
                        ctx,
                        node,
                        "print()-based reporting inside instrumented code; "
                        "metrics belong in the repro.obs registry, rendering "
                        "belongs to the cli/analysis layers",
                        "record the value in a Registry counter/histogram (or "
                        "emit a trace event) and render it from repro stats",
                    )
                continue
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            attr = attr_on_self(node.target)
            if attr is None or attr.startswith("_") or attr in declared:
                continue
            if not matches_marker(attr, config.stat_markers):
                continue
            yield self.diag(
                ctx,
                node,
                f"ad-hoc stat counter 'self.{attr}' bypasses the repro.obs "
                "registry; it cannot be snapshotted, reset, or exported "
                "with the rest of the stack's metrics",
                f"declare `{attr} = metric_field(\"<layer>.{attr}\")` (or "
                "gauge_field) at class level and bind_metrics(self) in __init__",
            )
