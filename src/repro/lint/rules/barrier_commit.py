"""LSVD014 — barrier-coalescing-safety: settle barriers only after the FLUSH.

Group commit batches concurrent commit barriers so one device FLUSH
settles many callers — but the optimisation is only sound if *every*
caller's completion still happens-after a FLUSH that covers its writes.
This rule checks the commit paths statically: inside a barrier/group-
commit function, a completion event may be settled (``<event>.succeed()``)
only on paths dominated by covering-FLUSH evidence.  In a coroutine the
flush must be *yielded/awaited* — a bare ``ssd.flush()`` there returns an
Event nobody waits on (fire-and-forget), which is precisely the bug class
coalescing tends to introduce.  The analysis is a forward walk from
entry that stops at evidence, structured like LSVD011: if an evidence-free path
from function entry can reach the settlement, some barrier can be
acknowledged before its covering flush completed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import Node, iter_function_cfgs, walk_in_scope
from repro.lint.flow.typestate import (
    calls_named,
    completion_callbacks,
    receiver_matches,
    suspended_calls,
    unguarded_sites,
)
from repro.lint.framework import ModuleContext, Rule

#: modules whose commit-barrier paths are checked for coalescing safety
BARRIER_MODULES: Tuple[str, ...] = (
    "core/write_cache.py",
    "core/volume.py",
    "runtime/lsvd.py",
    "runtime/bcache.py",
)

#: function-name substrings marking a commit-barrier / group-commit path
BARRIER_FUNCTION_MARKERS: Tuple[str, ...] = (
    "barrier",
    "group_commit",
    "commit_worker",
)

#: receiver names of the completion events a barrier settles; matched as
#: the exact name or a ``_``-separated suffix (``first_done`` -> ``done``)
BARRIER_SETTLE_RECEIVERS: Tuple[str, ...] = (
    "done",
    "waiter",
    "barrier",
    "event",
)

#: calls whose completion is the covering-FLUSH evidence; in a coroutine
#: the call must be yielded/awaited (a bare ``ssd.flush()`` there returns
#: an unwaited Event — fire-and-forget, not evidence), and a method hung
#: on nothing but such a call's event (``ssd.flush().callbacks.append(
#: self._settle_barriers)``) starts covered
BARRIER_EVIDENCE_CALLS: Tuple[str, ...] = ("flush",)


def _settles_barrier(node: Node) -> bool:
    """Does this node settle a barrier completion event?

    Only ``<name>.succeed()`` where the receiver is a plain name matching
    the configured completion-event names: gate-release patterns like
    ``self._gate_waiters.popleft().succeed()`` wake *writers*, not
    barrier callers, and are deliberately not settlement sites.
    """
    return any(
        isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and receiver_matches(
            call.func.value.id.lstrip("_"), BARRIER_SETTLE_RECEIVERS
        )
        for call in calls_named(node.parts, ("succeed",))
    )


def _function_is_coroutine(func: ast.AST) -> bool:
    if isinstance(func, ast.AsyncFunctionDef):
        return True
    for stmt in getattr(func, "body", []):
        for sub in walk_in_scope(stmt):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
    return False


def _is_flush_evidence(node: Node, coroutine: bool) -> bool:
    """Covering-FLUSH evidence: a (yielded, when in a coroutine) flush call."""
    find = suspended_calls if coroutine else calls_named
    return any(
        isinstance(call.func, ast.Attribute)
        for call in find(node.parts, BARRIER_EVIDENCE_CALLS)
    )


class BarrierCoalescingRule(Rule):
    """Invariant:
        On every commit-barrier path — serial or group-commit — a
        caller's completion event may be settled (``.succeed()``) only
        after the covering device FLUSH: in a coroutine the flush call
        must be yielded/awaited before the settlement on every path from
        function entry; in a plain function it must be called, or the
        function must run only as a completion callback of the flush.

    Example violation::

        def _group_commit_worker(self):
            while True:
                first = yield self._barrier_q.get()
                group = [first] + self._barrier_q.drain()
                self.machine.ssd.flush()   # not yielded: never waited on
                for waiter in group:
                    waiter.succeed()       # settled before the FLUSH

    Paper:
        §3.2 — the commit barrier's contract is a durable cache-device
        flush covering everything acknowledged before it; batching
        barriers (group commit) must preserve exactly that contract for
        every caller in the batch.

    Evidence:
        Commit eda6aef: a ``runtime/bcache.py`` ``_barrier`` path settled
        ``done`` with no FLUSH; every path now ends in one.  Crash mutant #2
        (``_settle_barriers`` called, not hung on the flush) draws one finding.
    """

    code = "LSVD014"
    name = "barrier-coalescing-safety"
    summary = (
        "a barrier completion event is settled on a path with no "
        "dominating covering-FLUSH evidence"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_allowed(ctx.path, BARRIER_MODULES):
            return
        flushed = completion_callbacks(ctx.tree, BARRIER_EVIDENCE_CALLS)
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            if func.name in flushed:
                continue
            if not any(marker in func.name for marker in BARRIER_FUNCTION_MARKERS):
                continue
            coroutine = _function_is_coroutine(func)
            for node in unguarded_sites(
                cfg, _settles_barrier, lambda n: _is_flush_evidence(n, coroutine)
            ):
                yield self.diag(
                    ctx,
                    node.stmt or func,
                    "barrier completion is settled with no dominating "
                    "covering-FLUSH evidence on some path from function "
                    "entry"
                    + (
                        " (in a coroutine the flush must be yielded/awaited)"
                        if coroutine
                        else ""
                    ),
                    "issue (and in a coroutine: yield) the device flush "
                    "before settling the batch, or settle in a callback "
                    "hung only on the flush's event",
                )


__all__ = ["BarrierCoalescingRule"]
