"""LSVD004 — recovery code must not swallow exceptions it cannot classify.

Crash recovery (§3.3) is prefix-consistency: walk the stream, stop at
the first damage, mount what is provably consistent.  A ``try/except
Exception: pass`` in that path converts torn metadata into silent data
loss.  In ``core/`` and ``crash/`` a handler that catches everything
must either re-raise or visibly record the error; better still, catch
the specific LSVD error types (``CorruptRecordError``,
``NoSuchKeyError``...) the callee documents.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import broad_catch
from repro.lint.flow.typestate import call_name
from repro.lint.framework import ModuleContext, Rule

#: directories where exception handlers must not swallow errors
RECOVERY_DIRS: Tuple[str, ...] = (
    "core/",
    "crash/",
)

#: call names that count as "recording" an error inside a handler
ERROR_RECORDING: Tuple[str, ...] = (
    "append",
    "add_error",
    "record_error",
    "warning",
    "error",
    "exception",
    "critical",
    "fail",
)


class RecoveryHandlerRule(Rule):
    """Invariant:
        Exception handlers in recovery/crash code must re-raise or
        record the error; a swallowed failure turns a detectable torn
        state into silent corruption.

    Example violation::

        try:
            header = decode_record(blob)
        except Exception:
            pass                    # corrupt record silently skipped

    Paper:
        §3.3 — recovery distinguishes "end of log" from "corruption";
        a handler that eats the difference breaks prefix consistency.

    Evidence:
        Commit de875c3: ``core/block_store.py`` ``_kind_of`` caught
        ``Exception``; it now catches ``NoSuchKeyError``/``CorruptRecordError``.
    """

    code = "LSVD004"
    name = "recovery-error-handling"
    summary = (
        "broad exception handlers in core/ and crash/ must re-raise or "
        "record the error, never swallow it"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_in_dirs(ctx.path, RECOVERY_DIRS):
            return
        recording = frozenset(ERROR_RECORDING)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not broad_catch(node):
                continue
            if self._reraises(node) or self._records(node, recording):
                continue
            caught = "bare except" if node.type is None else "broad except"
            yield self.diag(
                ctx,
                node,
                f"{caught} swallows errors in recovery-critical code; torn "
                "metadata would become silent data loss (§3.3)",
                "catch the specific LSVD error types, re-raise, or record the "
                "error where a scrub/fsck will surface it",
            )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(n, ast.Raise) for n in ast.walk(handler))

    @staticmethod
    def _records(handler: ast.ExceptHandler, recording: frozenset) -> bool:
        """A call like ``errors.append(...)`` / ``log.warning(...)`` counts."""
        return any(
            isinstance(n, ast.Call) and call_name(n) in recording
            for n in ast.walk(handler)
        )
