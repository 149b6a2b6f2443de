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
from typing import Callable, Dict, Iterable, Iterator, Optional, Set, Tuple

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


def _single_name_target(stmt: Optional[ast.AST]) -> Optional[str]:
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id
    return None


def _rebound_names(stmt: Optional[ast.AST]) -> Set[str]:
    """Plain names this statement rebinds (``x = ...``) or deletes."""
    var = _single_name_target(stmt)
    if var is not None:
        return {var}
    if isinstance(stmt, ast.Delete):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


class _HandleAnalysis(TypestateAnalysis):
    """Forward facts: handles that may still be unresolved here."""

    def __init__(self, acquires: Callable[[Optional[ast.expr]], bool]) -> None:
        self.acquires = acquires

    def gens(self, node: Node) -> Iterable[Pending]:
        stmt = node.stmt
        if not isinstance(stmt, ast.Assign):
            return ()
        var = _single_name_target(stmt)
        if var is None or not self.acquires(stmt.value):
            return ()
        return (Pending(key=var, origin=node.index, line=node.line),)

    def kills(self, node: Node, fact: PendingSet) -> Set[str]:
        # any consuming load discharges the obligation: `store.settle(h)`
        # / `stage.end()` reads the handle, and passing it to a callee
        # (`span=stage`) adopts it — the callee now owns resolving it
        # — and rebinding or deleting the name ends the old obligation
        # either way; the rule reports the overwrite as a leak separately
        return consuming_loads(node) | _rebound_names(node.stmt)


class HandleLeakRule(Rule):
    """A handle acquired by ``<receiver>.<method>(...)`` must be consumed
    on every path that completes normally; only raising paths are excused.

    The forward typestate check LSVD010 (PUT handles) and LSVD015 (span
    handles) share.  A concrete rule is a vocabulary: the acquiring
    ``methods`` and the ``receivers`` (exact name or ``_``-separated
    suffix) they are called on, the ``LintConfig`` allowlist excusing a
    function (``allow_field``), the package ``dirs`` in scope, and the
    text for the three ways a handle is lost — ``discarded`` at the call
    (message, fix-it), leaked ``at_exit`` or ``overwritten`` first (message
    templates over ``{key!r}``/``{line}`` sharing ``leak_fixit``).
    """

    methods: Tuple[str, ...]
    receivers: Tuple[str, ...]
    allow_field: str
    dirs: Tuple[str, ...]
    discarded: Tuple[str, str]
    at_exit: str
    overwritten: str
    leak_fixit: str
    #: function-name substrings whose acquiring calls are no obligation
    exempt_words: Tuple[str, ...] = ()

    def in_scope(self, ctx: ModuleContext, config: LintConfig) -> bool:
        return config.module_in_dirs(ctx.path, self.dirs)

    def acquires(self, expr: Optional[ast.expr]) -> bool:
        """Is ``expr`` an acquiring call (``await`` unwrapped)?"""
        call = unwrap_effect(expr)
        return (
            isinstance(call, ast.Call)
            and call_name(call) in self.methods
            and receiver_matches(receiver_tail(call), self.receivers)
        )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not self.in_scope(ctx, config):
            return
        allowed, whole = config.scoped_allow(
            ctx.path, getattr(config, self.allow_field)
        )
        if whole:
            return
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            if func.name in allowed or any(w in func.name for w in self.exempt_words):
                continue
            yield from self._check_function(ctx, cfg)

    def _check_function(self, ctx: ModuleContext, cfg: CFG) -> Iterator[Diagnostic]:
        interesting = False
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            # a discarded acquiring call never had a handle to resolve; a
            # yielded/awaited one is different — suspending on a put *is*
            # waiting for settlement (the timed destage pipeline's idiom)
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and self.acquires(stmt.value)
            ):
                yield self.diag(ctx, stmt, *self.discarded)
            elif isinstance(stmt, ast.Assign) and self.acquires(stmt.value):
                interesting = True
        if not interesting:
            return

        solution = solve(cfg, _HandleAnalysis(self.acquires))
        reported: Set[int] = set()

        def report(
            pendings: Iterable[Pending], template: str, line: int = 0
        ) -> Iterator[Diagnostic]:
            by_origin: Dict[int, Pending] = {}
            for p in pendings:
                by_origin.setdefault(p.origin, p)
            for p in by_origin.values():
                if p.origin in reported:
                    continue
                reported.add(p.origin)
                yield self.diag(
                    ctx,
                    cfg.nodes[p.origin].stmt or cfg.func,
                    template.format(key=p.key, line=line),
                    self.leak_fixit,
                )

        # leaks at normal exit
        yield from report(
            solution.before.get(cfg.exit.index, frozenset()), self.at_exit
        )
        # leaks by overwrite/delete: the old handle is unrecoverable
        for node in cfg.stmt_nodes():
            before = solution.before.get(node.index, frozenset())
            if not before:
                continue
            if _single_name_target(node.stmt) in consuming_loads(node):
                continue  # `h = wrap(h)` hands the old handle on
            lost = _rebound_names(node.stmt)
            doomed = [p for p in before if p.key in lost]
            if doomed:
                yield from report(doomed, self.overwritten, node.line)


class SettlementLeakRule(HandleLeakRule):
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

    methods = FLOW_PUT_METHODS
    receivers = FLOW_PUT_RECEIVERS
    allow_field = "settlement_allow"
    dirs = SETTLEMENT_DIRS
    # the settlement plumbing itself writes through to the settled
    # inner store; its puts ARE the settlement
    exempt_words = ("settle",)
    discarded = (
        "PUT handle discarded: the return value of an "
        "object-store put is an in-flight write that must be "
        "settled or registered",
        "bind the handle and settle it (or register it in the "
        "settlement ledger); allowlist deliberate fire-and-"
        "forget writes via settlement-allow",
    )
    at_exit = (
        "unsettled PUT handle {key!r} may reach a normal exit without "
        "being settled"
    )
    overwritten = (
        "unsettled PUT handle {key!r} is overwritten at line {line} "
        "before being settled"
    )
    leak_fixit = (
        "settle the handle on every non-raising path (guard "
        "with `if handle is not None: store.settle(handle)`) "
        "or allowlist the function via settlement-allow"
    )
