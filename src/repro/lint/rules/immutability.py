"""LSVD001 — backend objects are immutable; only the block store mutates.

The paper's consistency argument (§3.1) hangs on the object stream being
append-only: a PUT object is never rewritten, and deletes happen only
after GC has made the data dead *and* a newer checkpoint is durable
(§3.6).  Scattering ``store.put(...)`` / ``store.delete(...)`` calls
through the tree would let any module break that ordering, so direct
mutation of an object-store handle is restricted to an allowlist of
modules (the block store, its checkpoint/replication helpers, and the
object-store implementations themselves).

A call site is matched when a method named ``put`` / ``delete`` is
invoked on a receiver whose trailing identifier is a known
store handle name (``store``, ``objstore``, ``backend``, ``inner``...);
plain queues (``q.put``) and dicts never match.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import STORE_RECEIVERS, LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.typestate import tail_name
from repro.lint.framework import ModuleContext, Rule

#: mutating ObjectStore methods (reads are unrestricted)
MUTATING_METHODS = frozenset({"put", "delete"})


class ImmutabilityRule(Rule):
    """Invariant:
        Backend objects are immutable and written exactly once, in
        sequence order, by the block-store layer; no other module may
        call ``ObjectStore.put``/``.delete`` directly.

    Example violation::

        def sneaky(store, data):
            store.put("vol.00000042", data)   # bypasses BlockStore

    Paper:
        §3.1/§3.3 — recovery's longest-consecutive-run rule is sound
        only because nothing mutates or renumbers settled objects.
    """

    code = "LSVD001"
    name = "immutability-discipline"
    summary = (
        "ObjectStore.put/.delete may only be called from the block-store "
        "layer; everything else must go through BlockStore/Replicator APIs"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if config.module_allowed(ctx.path, config.immutability_allow):
            return
        receivers = frozenset(STORE_RECEIVERS)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
                continue
            receiver = tail_name(func.value)
            if receiver not in receivers:
                continue
            yield self.diag(
                ctx,
                node,
                f"direct object-store mutation {receiver}.{func.attr}() outside "
                "the block-store layer breaks backend immutability (§3.1)",
                "route the write through BlockStore/Replicator, or add the module "
                "to [tool.repro-lint] immutability-allow with a review",
            )
