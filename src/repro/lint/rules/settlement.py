"""LSVD010 — an unsettled PUT handle must reach settlement on every path.

Under fault injection (:class:`~repro.objstore.s3.UnsettledObjectStore`)
``store.put`` returns a *handle* for an in-flight write that completes
only when someone calls ``settle(handle)`` or registers the handle in a
settlement ledger.  A code path that acquires such a handle and lets it
fall off the end of the function has silently dropped a write: the real
system would ack data that a crash can still lose — exactly the §3.2
failure the write-cache/settlement split exists to prevent.  The rule
runs a forward typestate analysis over each function's CFG; branch
refinement understands ``if handle is None:`` (a settled-synchronous
store returns no handle), and raising paths are forgiven — an exception
already signals the caller that the write did not complete.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.config import STORE_RECEIVERS, LintConfig
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

#: directories whose PUT handles are settlement-tracked (LSVD010)
SETTLEMENT_DIRS: Tuple[str, ...] = (
    "core/",
    "shard/",
    "objstore/",
    "runtime/",
    "obs/",
    "fleet/",
)

#: method names whose return value is an in-flight-write handle
FLOW_PUT_METHODS: Tuple[str, ...] = ("put",)

#: receiver names whose ``.put()`` yields a trackable handle; matched as
#: the exact name or a ``_``-separated suffix (``dst_shard`` -> ``shard``)
FLOW_PUT_RECEIVERS: Tuple[str, ...] = STORE_RECEIVERS + ("shard",)


def _acquiring_call(expr: Optional[ast.expr]) -> Optional[ast.Call]:
    """The ``<store>.put(...)`` call in ``expr``, unwrapping ``await``."""
    call = unwrap_effect(expr)
    if not isinstance(call, ast.Call):
        return None
    if call_name(call) not in FLOW_PUT_METHODS:
        return None
    if not receiver_matches(receiver_tail(call), FLOW_PUT_RECEIVERS):
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


class _HandleAnalysis(TypestateAnalysis):
    """Forward facts: handles that may still be unsettled here."""

    def gens(self, node: Node) -> Iterable[Pending]:
        stmt = node.stmt
        if not isinstance(stmt, ast.Assign):
            return ()
        var = _single_name_target(stmt)
        if var is None or _acquiring_call(stmt.value) is None:
            return ()
        return (Pending(key=var, origin=node.index, line=node.line),)

    def kills(self, node: Node, fact: PendingSet) -> Set[str]:
        killed = set(consuming_loads(node))
        # rebinding or deleting the name ends the old obligation either
        # way; the rule reports the overwrite as a leak separately
        var = _single_name_target(node.stmt)
        if var is not None:
            killed.add(var)
        if isinstance(node.stmt, ast.Delete):
            killed.update(
                t.id for t in node.stmt.targets if isinstance(t, ast.Name)
            )
        return killed


class SettlementLeakRule(Rule):
    """Invariant:
        Every in-flight PUT handle acquired from an object store must be
        settled or registered in a settlement ledger on every path that
        completes normally; only raising paths are excused.  A leaked
        handle is a write the system believes durable that a crash can
        still lose (write-release-after-settle, paper §3.2/§3.5).

    Example violation::

        handle = self.target.put(name, data)   # in-flight write
        self._copied.add(name)                 # marked shipped...
        return                                 # ...handle never settled

    Paper:
        §3.2 (ack only after the cache log is durable) and §3.5 (an
        object leaves the write cache only once the backend PUT
        settles); PAPERS.md Lomet & Luo on deferred-reclaim ordering.
    """

    code = "LSVD010"
    name = "settlement-leak"
    summary = (
        "an in-flight PUT handle escapes, is overwritten, or reaches a "
        "normal exit without being settled or registered"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_in_dirs(ctx.path, SETTLEMENT_DIRS):
            return
        allowed, whole = config.scoped_allow(ctx.path, config.settlement_allow)
        if whole:
            return
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            # the settlement plumbing itself writes through to the
            # settled inner store; its puts ARE the settlement
            if func.name in allowed or "settle" in func.name:
                continue
            yield from self._check_function(ctx, cfg)

    def _check_function(self, ctx: ModuleContext, cfg: CFG) -> Iterator[Diagnostic]:
        interesting = False
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            # a discarded acquiring call never had a handle to settle; a
            # yielded/awaited put is different — suspending on it *is*
            # waiting for settlement (the timed destage pipeline's idiom)
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and _acquiring_call(stmt.value)
            ):
                yield self.diag(
                    ctx,
                    stmt,
                    "PUT handle discarded: the return value of an "
                    "object-store put is an in-flight write that must be "
                    "settled or registered",
                    "bind the handle and settle it (or register it in the "
                    "settlement ledger); allowlist deliberate fire-and-"
                    "forget writes via settlement-allow",
                )
            elif isinstance(stmt, ast.Assign) and _acquiring_call(
                stmt.value
            ):
                interesting = True
        if not interesting:
            return

        solution = solve(cfg, _HandleAnalysis())
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
                    f"unsettled PUT handle {p.key!r} {why}",
                    "settle the handle on every non-raising path (guard "
                    "with `if handle is not None: store.settle(handle)`) "
                    "or allowlist the function via settlement-allow",
                )

        # leaks at normal exit
        exit_fact = solution.before.get(cfg.exit.index, frozenset())
        yield from report(
            exit_fact, "may reach a normal exit without being settled"
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
                    "settled",
                )
