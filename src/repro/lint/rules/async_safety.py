"""LSVD013 — no unsettled state mutation may straddle an await point.

No ``async def`` exists in ``repro`` outside ``repro.lint`` today: the
data plane is synchronous and the simulator runs generator processes.
The rule guards future code, because coroutines can be *cancelled at
any await*.  If a function mutates settlement-coupled state (the extent
map, a pending-handles ledger, dirty-byte accounting) and only later —
on the far side of an ``await``/``yield`` — settles or registers that
mutation, cancellation in between leaves the mutation dangling with
nobody left to settle it: the async twin of the LSVD010 leak, but
reachable even when the code after the await is perfectly correct.
The rule runs the forward typestate analysis over ``async def`` bodies
only (the synchronous generator-based simulator is cooperative and
cannot be cancelled mid-yield) and flags every suspension point where
a mutation is still pending.  Critical-section helpers that must
straddle an await by design are blessed via ``async-allow``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set, Tuple

from repro.lint.config import STATE_MUTATORS, LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import Node, build_cfg, iter_functions
from repro.lint.flow.dataflow import solve
from repro.lint.flow.typestate import (
    Pending,
    PendingSet,
    TypestateAnalysis,
    attr_on_self,
    calls_named,
    mutated_self_attr,
)
from repro.lint.framework import ModuleContext, Rule

#: directories the async-cancellation rule (LSVD013) watches
ASYNC_DIRS: Tuple[str, ...] = (
    "core/",
    "shard/",
    "objstore/",
    "runtime/",
    "fleet/",
)

#: ``self.<attr>`` substrings naming settlement-coupled state an async
#: function must not leave dangling across an await point
ASYNC_STATE_MARKERS: Tuple[str, ...] = (
    "map",
    "pending",
    "batch",
    "record",
    "seq",
    "head",
    "frontier",
    "ledger",
    "settled",
    "dirty",
    "inflight",
    "in_flight",
    "copied",
)

#: calls that settle/register the pending mutation, closing the window
ASYNC_SETTLE_CALLS: Tuple[str, ...] = (
    "settle",
    "settle_put",
    "settle_all",
    "release",
    "release_through",
    "barrier",
    "flush",
    "commit",
    "checkpoint",
    "succeed",
)


#: container-name words marking the settlement bookkeeping itself: a
#: subscript store into one *registers* a mutation rather than making one
_BOOKKEEPING = ("pending", "ledger")


def _is_registration(node: Node) -> bool:
    """Settlement or ledger registration closes the critical window."""
    if calls_named(node.parts, ASYNC_SETTLE_CALLS):
        return True
    stmt = node.stmt
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                attr = attr_on_self(target.value)
                if attr is not None and any(w in attr for w in _BOOKKEEPING):
                    return True
    return False


class _WindowAnalysis(TypestateAnalysis):
    """Forward facts: mutations not yet settled/registered."""

    def gens(self, node: Node) -> Iterable[Pending]:
        if _is_registration(node):
            return ()
        attr = mutated_self_attr(
            node.stmt, ASYNC_STATE_MARKERS, STATE_MUTATORS, _BOOKKEEPING
        )
        if attr is None:
            return ()
        return (Pending(key=attr, origin=node.index, line=node.line),)

    def kills(self, node: Node, fact: PendingSet) -> Set[str]:
        if _is_registration(node):
            return {p.key for p in fact}
        return set()


class AsyncCancellationRule(Rule):
    """Invariant:
        In an ``async def``, settlement-coupled state mutation and its
        settlement/registration must sit on the same side of every
        ``await``/``yield`` point: cancellation at a suspension point
        must never orphan a mutation nobody will settle.  Helpers that
        must straddle an await are blessed via ``async-allow``.

    Example violation::

        async def destage(self, batch):
            self._dirty_map[batch.seq] = batch     # mutation opens...
            await self.backend.put(batch.name, batch.data)
            self.ledger.settle_put(batch.seq)      # ...window closes late

    Paper:
        §3.7 — the prototype's completion handling: crash/cancellation
        between the cache-log write and backend settlement must leave
        state the recovery scan can reconcile, never a half-recorded
        in-memory claim.
    """

    code = "LSVD013"
    name = "async-cancellation-safety"
    summary = (
        "an async function mutates settlement-coupled state and crosses "
        "an await/yield point before settling or registering it"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_in_dirs(ctx.path, ASYNC_DIRS):
            return
        allowed, whole = config.scoped_allow(ctx.path, config.async_allow)
        if whole:
            return
        for _qualname, func in iter_functions(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            if func.name in allowed:
                continue
            cfg = build_cfg(func)
            suspenders = [n for n in cfg.stmt_nodes() if n.suspends]
            if not suspenders:
                continue
            solution = solve(cfg, _WindowAnalysis())
            for node in suspenders:
                pending = solution.before.get(node.index, frozenset())
                if not pending:
                    continue
                oldest = min(pending, key=lambda p: (p.line, p.key))
                yield self.diag(
                    ctx,
                    node.stmt or func,
                    f"await/yield point while 'self.{oldest.key}' (mutated "
                    f"at line {oldest.line}) is not yet settled or "
                    "registered — cancellation here orphans the mutation",
                    "settle/register before suspending, or move the "
                    "mutation after the await; bless deliberate critical "
                    "sections via async-allow",
                )
