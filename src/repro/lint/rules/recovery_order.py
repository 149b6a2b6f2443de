"""LSVD012 — durable-write-first ordering inside recovery/GC try blocks.

Recovery and GC rebuild authoritative state from the object stream
(§3.3): the in-memory extent map, checkpoint history, and superblock
view are *summaries* of what is durably on the backend.  A try block
that mutates one of those summaries **before** issuing the durable
write it summarizes has a torn-state window — if the write fails and a
handler swallows the exception, memory claims something the backend
never recorded, and the next checkpoint persists the lie.  The rule
flags mutation-before-durable-write orderings inside a ``try`` body in
recovery-marked functions whenever some handler neither re-raises nor
restores the mutated attribute; write-durably-first code (or code whose
handlers propagate the failure) passes untouched.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.config import RECOVERY_DIRS, STATE_MUTATORS, STORE_RECEIVERS, LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import walk_in_scope
from repro.lint.flow.typestate import (
    attr_on_self,
    call_name,
    matches_marker,
    mutated_self_attr,
    receiver_matches,
    receiver_tail,
)
from repro.lint.framework import ModuleContext, Rule

#: function-name substrings marking recovery/GC code paths (LSVD012)
RECOVERY_FUNCTION_MARKERS: Tuple[str, ...] = (
    "recover",
    "replay",
    "restore",
    "mount",
    "load",
    "open",
    "clean",
    "gc",
    "victim",
)

#: ``self.<attr>`` substrings naming recovery-critical in-memory state
RECOVERY_STATE_MARKERS: Tuple[str, ...] = (
    "map",
    "omap",
    "record",
    "snapshot",
    "seq",
    "epoch",
    "super",
    "ckpt",
    "checkpoint",
    "history",
    "frontier",
    "batch",
)

#: calls that persist state durably (checked against durable receivers)
DURABLE_WRITE_CALLS: Tuple[str, ...] = (
    "put",
    "write",
    "flush",
    "barrier",
    "write_checkpoint",
    "write_super",
    "checkpoint",
    "delete",
)

#: receiver names that address durable media (stores, plus the cache
#: image/device and the layered write-path objects)
DURABLE_RECEIVERS: Tuple[str, ...] = STORE_RECEIVERS + (
    "image",
    "device",
    "bs",
    "wc",
)

_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _flatten(stmts: Sequence[ast.stmt]) -> List[ast.stmt]:
    """Source-ordered statements, descending into compound bodies but
    not into nested defs (which run later, if at all)."""
    flat: List[ast.stmt] = []
    for stmt in stmts:
        if isinstance(stmt, _NESTED):
            continue
        flat.append(stmt)
        for field in ("body", "orelse", "finalbody"):
            flat.extend(_flatten(getattr(stmt, field, []) or []))
        for handler in getattr(stmt, "handlers", []) or []:
            flat.extend(_flatten(handler.body))
    return flat


def _durable_write(stmt: ast.stmt) -> Optional[ast.Call]:
    for sub in walk_in_scope(stmt):
        if (
            isinstance(sub, ast.Call)
            and call_name(sub) in DURABLE_WRITE_CALLS
            and receiver_matches(receiver_tail(sub), DURABLE_RECEIVERS)
        ):
            return sub
    return None


def _reraises(handler: ast.excepthandler) -> bool:
    return any(
        isinstance(sub, ast.Raise)
        for stmt in handler.body
        for sub in walk_in_scope(stmt)
    )


def _restores(handler: ast.excepthandler, attrs: Set[str]) -> bool:
    """True when the handler writes one of the mutated attributes back
    (or calls a ``restore``-shaped helper)."""
    for stmt in handler.body:
        for sub in walk_in_scope(stmt):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    attr = attr_on_self(target)
                    if attr in attrs:
                        return True
            if isinstance(sub, ast.Call) and "restore" in call_name(sub):
                return True
    return False


class RecoveryMutationOrderRule(Rule):
    """Invariant:
        Inside a ``try`` body on a recovery/GC path, the durable write
        comes first: in-memory recovery state (maps, checkpoint history,
        superblock views, sequence frontiers) may only be mutated after
        the backend write it summarizes, unless every handler re-raises
        or restores the mutated state.  Memory must never claim more
        than the stream durably holds.

    Example violation::

        def recover(self):
            try:
                self._ckpt_history.append(seq)     # memory first...
                self.store.put(name, blob)         # ...durable second
            except StoreError:
                pass                               # torn state survives

    Paper:
        §3.3 — recovery trusts only the durable object stream; the
        in-memory map is reconstructed *from* it, so it must never get
        ahead of it.
    """

    code = "LSVD012"
    name = "recovery-mutation-ordering"
    summary = (
        "recovery/GC code mutates in-memory summary state before the "
        "durable write it summarizes, under a handler that swallows the "
        "failure"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_in_dirs(ctx.path, RECOVERY_DIRS):
            return
        allowed, whole = config.scoped_allow(
            ctx.path, config.recovery_order_allow
        )
        if whole:
            return
        for func in self._functions(ctx.tree):
            if func.name in allowed:
                continue
            if not matches_marker(func.name, RECOVERY_FUNCTION_MARKERS):
                continue
            for trynode in self._trys(func):
                yield from self._check_try(ctx, trynode)

    def _functions(
        self, tree: ast.AST
    ) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _trys(self, func: ast.AST) -> Iterator[ast.Try]:
        for stmt in func.body if hasattr(func, "body") else []:  # type: ignore[attr-defined]
            for sub in walk_in_scope(stmt):
                if isinstance(sub, ast.Try):
                    yield sub

    def _check_try(self, ctx: ModuleContext, trynode: ast.Try) -> Iterator[Diagnostic]:
        if not trynode.handlers:
            return  # failures propagate; callers see the torn state signal
        flat = _flatten(trynode.body)
        first_mutation: Optional[Tuple[ast.stmt, str]] = None
        mutated: Set[str] = set()
        durable_after: Optional[ast.Call] = None
        for stmt in flat:
            attr = mutated_self_attr(stmt, RECOVERY_STATE_MARKERS, STATE_MUTATORS)
            if attr is not None:
                mutated.add(attr)
                if first_mutation is None:
                    first_mutation = (stmt, attr)
                continue
            if first_mutation is not None and durable_after is None:
                durable_after = _durable_write(stmt)
        if first_mutation is None or durable_after is None:
            return
        for handler in trynode.handlers:
            if _reraises(handler) or _restores(handler, mutated):
                continue
            stmt, attr = first_mutation
            yield self.diag(
                ctx,
                stmt,
                f"in-memory recovery state 'self.{attr}' is mutated before "
                f"the durable write at line {durable_after.lineno} in the "
                f"same try body, and the handler at line {handler.lineno} "
                "neither re-raises nor restores it",
                "issue the durable write first and mutate the summary "
                "after it succeeds, or make the handler re-raise/restore; "
                "deliberate orderings can be allowlisted via "
                "recovery-order-allow",
            )
            return  # one report per try block
