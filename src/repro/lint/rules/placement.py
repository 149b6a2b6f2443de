"""LSVD017 — placement confinement: temperature classes live in one place.

The write-amplification win of temperature-aware placement (SepBIT-style
invalidation-time separation) rests on every consumer — the pure stack,
the timed runtime, and the page-map simulator — sharing *one* classifier
implementation in ``core/placement.py``.  The differential test holds
the engines to identical class decisions; that guarantee dies the moment
a second module grows its own classifier state or class arithmetic.
Two checks, one syntactic and one flow-sensitive:

1. **Confinement** — outside ``core/placement.py``, code must not
   construct a concrete policy class (``SepBitPolicy``,
   ``SingleClassPolicy`` — go through ``make_policy``), touch private
   classifier state (``_page_temp``, ``_page_last``, ``_life_sum``,
   ``_life_n``), or do arithmetic on the class constants
   (``TEMP_HOT``/``TEMP_WARM``/``TEMP_COLD``/``NUM_TEMPS``).  Reading
   the constants (comparisons, indexing, table sizing) stays legal:
   only *deriving new classes* from them is classification.

2. **Relocation-reenters-classifier** — inside the placement-consuming
   modules (``core/block_store.py``, ``core/gc.py``,
   ``gcsim/simulator.py``), any function that writes a GC relocation
   object (``seal_gc_batch``, or a ``gc=True`` object store) must be
   dominated by classifier evidence on every path from function entry —
   a ``plan_relocation``/``split_relocation``/``on_write`` call.  A
   relocation write with no classifier upstream means survivors keep a
   stale class: exactly the slow drift toward mixed objects the
   placement layer exists to prevent.  Helpers that receive an
   already-classified chunk from their caller are allowlisted via
   ``placement-flow-allow`` (``core/gc.py::_commit_chunk``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import Node, iter_function_cfgs
from repro.lint.flow.typestate import call_name, calls_named, node_calls, unguarded_sites
from repro.lint.framework import ModuleContext, Rule

#: concrete policy classes whose construction is confined — everyone
#: else goes through ``make_policy``
PLACEMENT_POLICY_CLASSES: Tuple[str, ...] = (
    "SepBitPolicy",
    "SingleClassPolicy",
)

#: private classifier state; touching it outside the policy forks the
#: invalidation-time metadata
PLACEMENT_STATE_MARKERS: Tuple[str, ...] = (
    "_page_temp",
    "_page_last",
    "_life_sum",
    "_life_n",
)

#: class constants arithmetic on which counts as ad-hoc classification
PLACEMENT_TEMP_CONSTANTS: Tuple[str, ...] = (
    "TEMP_HOT",
    "TEMP_WARM",
    "TEMP_COLD",
    "NUM_TEMPS",
)

#: placement-consuming modules held to the relocation-flow check
PLACEMENT_MODULES: Tuple[str, ...] = (
    "core/block_store.py",
    "core/gc.py",
    "gcsim/simulator.py",
)

#: calls that emit a GC relocation object (``gc=`` keyword, when
#: present, must be the constant True to count)
PLACEMENT_RELOC_CALLS: Tuple[str, ...] = (
    "seal_gc_batch",
    "_store_object",
)

#: calls that count as classifier evidence dominating a relocation write
PLACEMENT_CLASSIFIER_CALLS: Tuple[str, ...] = (
    "plan_relocation",
    "split_relocation",
    "on_write",
)

#: operators that can derive a new class index from a constant;
#: multiplication/indexing by NUM_TEMPS is table sizing, a read
_CLASS_DERIVING_OPS = (ast.Add, ast.Sub, ast.Mod)


def _temp_operand(node: ast.BinOp) -> str:
    """The class-constant name an arithmetic expression consumes, if any."""
    if not isinstance(node.op, _CLASS_DERIVING_OPS):
        return ""
    for side in (node.left, node.right):
        if isinstance(side, ast.Name) and side.id in PLACEMENT_TEMP_CONSTANTS:
            return side.id
    return ""


def _is_reloc_call(call: ast.Call) -> bool:
    """True for calls that emit a GC relocation object.

    A call carrying an explicit ``gc=`` keyword counts only when it is
    the constant ``True`` — ``_store_object(..., gc=False)`` is the
    destage path, which classifies at ``on_write`` time instead.
    """
    if call_name(call) not in PLACEMENT_RELOC_CALLS:
        return False
    for kw in call.keywords:
        if kw.arg == "gc":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return True


def _reloc_calls(node: Node) -> List[ast.Call]:
    return [
        call
        for call in calls_named(node.parts, PLACEMENT_RELOC_CALLS)
        if _is_reloc_call(call)
    ]


class PlacementConfinementRule(Rule):
    """Invariant:
        Temperature classification — policy construction, classifier
        state, and class arithmetic — lives only in ``core/placement.py``
        (``make_policy`` is the blessed constructor everywhere), and in
        the placement-consuming modules every GC relocation write is
        dominated by a classifier call, so relocated survivors always
        re-enter the shared classifier.

    Example violation::

        class MyDestager:
            def destage(self, lba, data):
                policy = SepBitPolicy()             # second classifier
                temp = TEMP_HOT + 1                 # ad-hoc class math
                policy._page_temp[lba // 4096] = 0  # private state

    Paper:
        §3.5 (greedy cleaning) extended with SepBIT-style invalidation
        -time separation; the WA reduction gated by wa_smoke holds only
        while the simulator provably runs the same placement code as
        the full stack.
    """

    code = "LSVD017"
    name = "placement-confinement"
    summary = (
        "temperature classification (policy construction, classifier state, "
        "class arithmetic) must stay in core/placement.py, and GC relocation "
        "writes must be dominated by a classifier call"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if not config.module_allowed(ctx.path, config.placement_allow):
            yield from self._check_confinement(ctx)
        if config.module_allowed(ctx.path, PLACEMENT_MODULES):
            yield from self._check_relocation_flow(ctx, config)

    # -- confinement (syntactic) ----------------------------------------
    def _check_confinement(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in PLACEMENT_POLICY_CLASSES:
                    yield self.diag(
                        ctx,
                        node,
                        f"{name}() constructed outside core/placement.py — "
                        "a second classifier instance diverges from the "
                        "stream the shared policy has seen",
                        "build policies with make_policy(config) so every "
                        "consumer runs the one shared classifier, or add "
                        "the module to [tool.repro-lint] placement-allow "
                        "with a review",
                    )
            elif isinstance(node, ast.Attribute) and node.attr in PLACEMENT_STATE_MARKERS:
                yield self.diag(
                    ctx,
                    node,
                    f"classifier state .{node.attr} touched outside "
                    "core/placement.py — invalidation-time metadata is "
                    "private to the policy",
                    "use on_write/split_relocation (classification) or the "
                    "policy's write_bytes/reloc_bytes counters (reporting), "
                    "or add the module to [tool.repro-lint] placement-allow "
                    "with a review",
                )
            elif isinstance(node, ast.BinOp):
                const = _temp_operand(node)
                if const:
                    yield self.diag(
                        ctx,
                        node,
                        f"arithmetic on {const} outside core/placement.py — "
                        "deriving temperature classes is classification and "
                        "belongs to the policy (§3.5 extension)",
                        "let on_write/split_relocation assign classes and "
                        "pass the result through, or add the module to "
                        "[tool.repro-lint] placement-allow with a review",
                    )

    # -- relocation-reenters-classifier (flow) --------------------------
    def _check_relocation_flow(
        self, ctx: ModuleContext, config: LintConfig
    ) -> Iterator[Diagnostic]:
        allowed, whole = config.scoped_allow(ctx.path, config.placement_flow_allow)
        if whole:
            return
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            if func.name in allowed:
                continue
            for node in unguarded_sites(
                cfg, lambda n: bool(_reloc_calls(n)), node_calls(PLACEMENT_CLASSIFIER_CALLS)
            ):
                yield self.diag(
                    ctx,
                    node.stmt or func,
                    f"{call_name(_reloc_calls(node)[0])}() is reachable from "
                    f"entry of {func.name}() with "
                    "no dominating classifier call (plan_relocation/"
                    "split_relocation/on_write) — relocated survivors keep "
                    "a stale temperature class",
                    "route the relocated pieces through plan_relocation "
                    "(see GarbageCollector.execute), or allowlist the "
                    "helper via placement-flow-allow with a review",
                )


__all__ = ["PlacementConfinementRule"]
