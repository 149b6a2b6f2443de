"""LSVD011 — barrier-before-ack: completion calls need durability evidence.

The paper's central ordering rule (§3.2): a write is acknowledged — and
anything the ack implies is released — only after the covering data is
durable.  In this codebase the "acks" are the calls that release cache
log space, retire superseded checkpoints, advance the release frontier,
or delete GC victims; the *evidence* that durability happened is a
settle/flush/barrier/recover call, a branch taken on ``.settled`` state
or on a *local handle* being ``None`` (``result = store.put(...)``;
``if result is None:`` — a settled-synchronous store returned no handle;
a ``None`` test on anything else, ``self.qos`` say, proves nothing about
durability), or (in the timed model) resuming from a yielded/awaited
backend PUT.  The rule runs a backward may-analysis from each ack site:
if an evidence-free path from function entry can reach the ack, some
caller can release state whose durability nobody established.  Functions
whose *name* contains ``settle`` are the settlement callbacks themselves
— they are the evidence — and are skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import Edge, Node, iter_function_cfgs, walk_in_scope
from repro.lint.flow.typestate import (
    call_name,
    calls_named,
    node_calls,
    none_side,
    suspended_calls,
    unguarded_sites,
)
from repro.lint.framework import ModuleContext, Rule

#: modules holding completion/ack call sites (LSVD011) — the write path,
#: its settlement ledger, replication, and the timed destage pipeline
DURABILITY_MODULES: Tuple[str, ...] = (
    "core/volume.py",
    "core/write_cache.py",
    "core/block_store.py",
    "core/replication.py",
    "runtime/lsvd.py",
)

#: calls that complete/acknowledge client-visible state: releasing cache
#: log space, retiring superseded checkpoints, deleting GC victims
DURABILITY_ACK_CALLS: Tuple[str, ...] = (
    "release_through",
    "retire_old_checkpoints",
    "_advance_release_frontier",
    "delete_victims",
    "_release_space",
)

#: calls whose completion is durability evidence dominating an ack
DURABILITY_EVIDENCE_CALLS: Tuple[str, ...] = (
    "settle",
    "settle_put",
    "settle_all",
    "flush",
    "barrier",
    "recover",
)

#: calls that count as evidence only when awaited/yielded — in the timed
#: model ``yield backend.put(...)`` resumes when the PUT settles
DURABILITY_YIELD_EVIDENCE: Tuple[str, ...] = (
    "put",
    "write",
    "flush",
    "barrier",
)


def _is_evidence_node(node: Node) -> bool:
    if calls_named(node.parts, DURABILITY_EVIDENCE_CALLS):
        return True
    stmt = node.stmt
    # `self.<x>.settled = True` marks settlement directly
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Attribute) and "settled" in target.attr:
                return True
    # resuming from a yielded/awaited PUT/write/flush: in the timed
    # model the coroutine continues only once the backend op completed
    return bool(suspended_calls(node.parts, DURABILITY_YIELD_EVIDENCE))


def _edge_is_evidence(edge: Edge) -> bool:
    """Branch edges that prove settlement: the true side of a test on
    ``.settled`` state, or the ``None`` side of a test on a plain local
    name (``result is None``: a settled-synchronous store returned no
    handle)."""
    if edge.kind == "true" and edge.cond is not None:
        for sub in walk_in_scope(edge.cond):
            if isinstance(sub, ast.Attribute) and "settled" in sub.attr:
                return True
    return none_side(edge, lambda expr: isinstance(expr, ast.Name))


class DurabilityOrderingRule(Rule):
    """Invariant:
        Every completion/acknowledgement call — releasing cache-log
        space, retiring old checkpoints, advancing the release frontier,
        deleting GC victims — must be dominated on every path from
        function entry by durability evidence: a settle/flush/barrier/
        recover call, a branch on settled state, or resumption from an
        awaited backend write.

    Example violation::

        def free_victims(self, victims):
            # no settle/flush/checkpoint evidence on this path
            self.gc.delete_victims(victims)   # ack without barrier

    Paper:
        §3.2 — a write is acknowledged only once its cache-log record
        is durable; §3.5 — GC deletes victims only after a newer
        checkpoint settles (barrier-before-ack).
    """

    code = "LSVD011"
    name = "durability-ordering"
    summary = (
        "a completion/ack call is reachable from function entry along a "
        "path with no dominating settle/flush/barrier evidence"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_allowed(ctx.path, DURABILITY_MODULES):
            return
        allowed, whole = config.scoped_allow(ctx.path, config.durability_allow)
        if whole:
            return
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            if func.name in allowed or "settle" in func.name:
                continue
            for node in unguarded_sites(
                cfg, node_calls(DURABILITY_ACK_CALLS), _is_evidence_node, _edge_is_evidence
            ):
                what = call_name(calls_named(node.parts, DURABILITY_ACK_CALLS)[0])
                yield self.diag(
                    ctx,
                    node.stmt or func,
                    f"{what}() is reachable with no dominating durability "
                    "evidence (settle/flush/barrier/recover or a branch "
                    "on settled state) on some path from function entry",
                    "establish durability before acknowledging: settle or "
                    "flush first, or gate the ack on settled state; "
                    "callback-driven acks can be allowlisted via "
                    "durability-allow",
                )


# re-exported for the fixture tests' readability
__all__ = ["DurabilityOrderingRule"]
