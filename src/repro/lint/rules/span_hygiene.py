"""LSVD015 — every span begun must be ended or adopted on every path.

The causal span trees (:mod:`repro.obs.spans`) are propagated by
explicit handles: a stage span is opened with ``parent.begin(...)`` and
must be closed with ``.end()`` — or *adopted* by passing the handle to
a callee that closes it (``store.put(name, data, span=stage)``).  A
handle that falls off the end of a function is a stage that never
closes: its root span stays open forever, the critical-path analyzer
under-attributes the request's latency, and the flight recorder's last-N
ring silently stops advancing for that tree.  Exactly the settlement-
leak failure shape (LSVD010) transplanted from durability to
observability, so the rule reuses the same typestate lattice: a forward
may-analysis over each function's CFG, raising paths forgiven — an
exception already aborts the measured request, and the recorder counts
the stranded root in ``open_roots``.

Modules inside a ``repro`` package are gated by ``span_dirs``; files
outside any ``repro`` package (benchmarks, examples, fixtures) are
always in scope, since a span leak there corrupts the very latency
attributions the benchmark gates check.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import CFG, Node, iter_function_cfgs
from repro.lint.flow.dataflow import solve
from repro.lint.flow.typestate import (
    Pending,
    PendingSet,
    TypestateAnalysis,
    call_name,
    consuming_loads,
    receiver_matches,
    receiver_tail,
    unwrap_effect,
)
from repro.lint.framework import ModuleContext, Rule

#: repro-package directories whose span handles are hygiene-tracked;
#: files outside any ``repro`` package (benchmarks, examples) are always
#: in scope — span misuse there corrupts the very latency attributions
#: the benchmarks gate on
SPAN_DIRS: Tuple[str, ...] = (
    "core/",
    "runtime/",
    "shard/",
    "objstore/",
    "obs/",
    "crash/",
    "fleet/",
)

#: receiver names whose ``.root()`` / ``.begin()`` yields a span handle;
#: matched as the exact name or a ``_``-separated suffix
SPAN_RECEIVERS: Tuple[str, ...] = (
    "span",
    "spans",
    "root",
    "parent",
    "child",
)

#: method names that open a span (the recorder's ``root`` and a span's
#: ``begin``)
SPAN_BEGIN_METHODS: Tuple[str, ...] = ("root", "begin")


def _begin_call(expr: Optional[ast.expr]) -> Optional[ast.Call]:
    """The ``<span>.begin(...)`` / ``<spans>.root(...)`` call in ``expr``."""
    call = unwrap_effect(expr)
    if not isinstance(call, ast.Call):
        return None
    if call_name(call) not in SPAN_BEGIN_METHODS:
        return None
    if not receiver_matches(receiver_tail(call), SPAN_RECEIVERS):
        return None
    return call


def _single_name_target(stmt: Optional[ast.AST]) -> Optional[str]:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id
    return None


class _SpanAnalysis(TypestateAnalysis):
    """Forward facts: span handles that may still be open here."""

    def gens(self, node: Node) -> Iterable[Pending]:
        stmt = node.stmt
        if not isinstance(stmt, ast.Assign):
            return ()
        var = _single_name_target(stmt)
        if var is None or _begin_call(stmt.value) is None:
            return ()
        return (Pending(key=var, origin=node.index, line=node.line),)

    def kills(self, node: Node, fact: PendingSet) -> Set[str]:
        # any consuming load discharges the obligation: `stage.end()`
        # reads the handle, and passing it to a callee (`span=stage`)
        # adopts it — the callee now owns closing the stage
        killed = set(consuming_loads(node))
        var = _single_name_target(node.stmt)
        if var is not None:
            killed.add(var)
        if isinstance(node.stmt, ast.Delete):
            killed.update(
                t.id for t in node.stmt.targets if isinstance(t, ast.Name)
            )
        return killed


class SpanHygieneRule(Rule):
    """Invariant:
        Every span handle acquired from ``<recorder>.root(...)`` or
        ``<span>.begin(...)`` must be ended or adopted (passed on to a
        callee) on every path that completes normally; only raising
        paths are excused.  A leaked span never closes: its root tree
        never completes, the flight recorder stops capturing it, and
        the critical-path decomposition silently loses that stage's
        time.

    Example violation::

        stage = span.begin("shard_put")   # stage opened
        result = shard.put(name, data)
        return result                     # ...stage never ended

    Paper:
        §4.4/§4.7 — the prototype's latency breakdowns (log write vs
        destage vs barrier FLUSH) are only additive if every stage
        interval closes; an open interval under-reports exactly the
        slow path being measured.
    """

    code = "LSVD015"
    name = "span-hygiene"
    summary = (
        "a span handle is discarded, overwritten, or reaches a normal "
        "exit without being ended or adopted"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        key = config.module_key(ctx.path)
        if "/" in key and not config.module_in_dirs(ctx.path, SPAN_DIRS):
            return
        allowed, whole = config.scoped_allow(ctx.path, config.span_allow)
        if whole:
            return
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            if func.name in allowed:
                continue
            yield from self._check_function(ctx, cfg)

    def _check_function(self, ctx: ModuleContext, cfg: CFG) -> Iterator[Diagnostic]:
        interesting = False
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            # a begin whose result is discarded opened a stage nobody
            # can ever close
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and _begin_call(stmt.value)
            ):
                yield self.diag(
                    ctx,
                    stmt,
                    "span handle discarded: begin()/root() opens a stage "
                    "that must be ended or adopted",
                    "bind the handle and call .end() on it (or pass it to "
                    "the callee that finishes the stage); allowlist "
                    "deliberate cases via span-allow",
                )
            elif isinstance(stmt, ast.Assign) and _begin_call(
                stmt.value
            ):
                interesting = True
        if not interesting:
            return

        solution = solve(cfg, _SpanAnalysis())
        reported: Set[int] = set()

        def report(
            pendings: Iterable[Pending], why: str
        ) -> Iterator[Diagnostic]:
            by_origin: Dict[int, Pending] = {}
            for p in pendings:
                by_origin.setdefault(p.origin, p)
            for p in by_origin.values():
                if p.origin in reported:
                    continue
                reported.add(p.origin)
                origin = cfg.nodes[p.origin].stmt or cfg.func
                yield self.diag(
                    ctx,
                    origin,
                    f"open span {p.key!r} {why}",
                    "end the span on every non-raising path (`stage.end()`"
                    ") or adopt it by passing it to the callee that ends "
                    "it; allowlist the function via span-allow",
                )

        # leaks at normal exit
        exit_fact = solution.before.get(cfg.exit.index, frozenset())
        yield from report(
            exit_fact, "may reach a normal exit without being ended or adopted"
        )
        # leaks by overwrite/delete: the old handle is unrecoverable
        for node in cfg.stmt_nodes():
            before = solution.before.get(node.index, frozenset())
            if not before:
                continue
            var = _single_name_target(node.stmt)
            doomed: List[Pending] = []
            if var is not None and var not in consuming_loads(node):
                doomed = [p for p in before if p.key == var]
            elif isinstance(node.stmt, ast.Delete):
                dropped = {
                    t.id
                    for t in node.stmt.targets
                    if isinstance(t, ast.Name)
                }
                doomed = [p for p in before if p.key in dropped]
            if doomed:
                yield from report(
                    doomed,
                    f"is overwritten at line {node.line} before being "
                    "ended",
                )
