"""LSVD013 — no coroutine in the settlement-coupled layers.

The data plane is synchronous and the simulator runs generator
processes, which are cooperative and cannot be cancelled mid-yield.  A
coroutine can be *cancelled at any await*: if it mutated
settlement-coupled state (the extent map, a pending-handles ledger,
dirty-byte accounting) before the await and settles it after, a
cancellation in between leaves the mutation dangling with nobody left
to settle it — the async twin of the LSVD010 leak.  No ``async def``
exists in ``src``, ``benchmarks`` or ``examples``, so the rule is a
lexical ban over its directories: every ``async def``, ``await``,
``async for`` and ``async with`` is flagged.  Whoever introduces a
coroutine there re-adds the flow check (a forward typestate window from
mutation to settlement, reported at each suspension point) with it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.framework import ModuleContext, Rule

#: directories the coroutine ban (LSVD013) covers
ASYNC_DIRS: Tuple[str, ...] = (
    "core/",
    "shard/",
    "objstore/",
    "runtime/",
    "fleet/",
)

#: each coroutine construct and the word the diagnostic names it by
_CONSTRUCTS: Tuple[Tuple[type, str], ...] = (
    (ast.AsyncFunctionDef, "async def"),
    (ast.Await, "await"),
    (ast.AsyncFor, "async for"),
    (ast.AsyncWith, "async with"),
)


class AsyncBanRule(Rule):
    """Invariant:
        The settlement-coupled layers hold no coroutine: no ``async
        def``, ``await``, ``async for`` or ``async with``.  Their state
        mutations and settlements then never straddle a point where a
        cancellation could orphan the mutation.

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
        "a coroutine construct (async def/await/async for/async with) in "
        "a settlement-coupled layer, where cancellation could orphan a mutation"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_in_dirs(ctx.path, ASYNC_DIRS):
            return
        for node in ast.walk(ctx.tree):
            for kind, word in _CONSTRUCTS:
                if isinstance(node, kind):
                    yield self.diag(
                        ctx,
                        node,
                        f"'{word}' in a settlement-coupled layer — "
                        "cancellation at an await can orphan a mutation",
                        "keep the layer synchronous (generator processes "
                        "for timed code), or add the flow check with the coroutine",
                    )
