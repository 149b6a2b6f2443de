"""LSVD016 — tenant isolation: QoS enforcement confined, admission first.

Fleet multi-tenancy (§4.5's economics at host scale) is safe only if the
rate-enforcement machinery cannot be re-implemented or bypassed ad hoc.
Two checks, one syntactic and one flow-sensitive:

1. **Confinement** — constructing a token bucket / throttle
   (``QoSTokenBucket``, ``TenantThrottle``, ``ThrottleSet``,
   ``CoreAdmission``) or touching cross-tenant rate state
   (``self._throttles``, ``self._tenants``) is restricted to
   ``repro/fleet/``.  Declaring *limits* (``QoSLimits``) is policy, not
   enforcement, and stays legal everywhere.

2. **Admission-before-forward** — inside the fleet package and the two
   volume I/O entry layers (``core/volume.py``, ``runtime/lsvd.py``),
   any I/O entry point (function name containing ``write``/``read``/
   ``submit``) that forwards an I/O to a shared resource
   (``wc.append``, ``ssd.write``, ``volume.read``...) must be dominated
   by admission evidence on every path from function entry: an
   ``admit``/``_admission`` call, or the no-tenant branch of a
   ``self.qos is None`` test (no QoS attached means nothing to charge).
   The rule runs the same backward may-analysis as LSVD011: if an
   evidence-free path reaches the forward site, a tenant's I/O can
   enter the shared data plane without being charged to its buckets.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import CFG, Edge, Node, iter_function_cfgs, walk_in_scope
from repro.lint.flow.dataflow import BACKWARD, FlowAnalysis, solve
from repro.lint.flow.typestate import call_name, calls_named, receiver_tail
from repro.lint.framework import ModuleContext, Rule

#: class names whose construction is confined to ``fleet_allow`` —
#: declaring limits (QoSLimits) is fine anywhere; *enforcing* them is not
FLEET_BUCKET_CLASSES: Tuple[str, ...] = (
    "QoSTokenBucket",
    "TenantThrottle",
    "ThrottleSet",
    "CoreAdmission",
)

#: ``self.<attr>`` names holding cross-tenant mutable state; touching
#: them outside the fleet package couples tenants behind the QoS layer
FLEET_STATE_MARKERS: Tuple[str, ...] = (
    "_tenants",
    "_throttles",
)

#: modules whose volume I/O entry points must pass admission before
#: forwarding to a shared resource (the flow half of the rule)
FLEET_MODULES: Tuple[str, ...] = (
    "fleet/",
    "core/volume.py",
    "runtime/lsvd.py",
)

#: function-name substrings marking a volume I/O entry point
FLEET_ENTRY_MARKERS: Tuple[str, ...] = (
    "write",
    "read",
    "submit",
)

#: receiver names that address a shared resource at a forward site
FLEET_FORWARD_RECEIVERS: Tuple[str, ...] = (
    "wc",
    "ssd",
    "volume",
    "vol",
    "runtime",
    "device",
)

#: method names that forward an I/O into the data plane
FLEET_FORWARD_METHODS: Tuple[str, ...] = (
    "append",
    "write",
    "writev",
    "read",
    "submit",
)

#: calls that count as admission evidence on a path
FLEET_ADMISSION_CALLS: Tuple[str, ...] = (
    "admit",
    "admit_io",
    "_admission",
    "reserve",
)

#: identifier substrings marking a QoS handle in a branch test — the
#: false side of ``self.qos is not None`` (no tenant attached) is a
#: legitimate admission-free path
FLEET_QOS_MARKERS: Tuple[str, ...] = (
    "qos",
    "throttle",
    "admission",
)

ForwardSet = FrozenSet[int]


def _constructed_class(call: ast.Call) -> str:
    """Name of the class a ``Call`` constructs (``fleet.qos.X()`` -> X)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _mentions_qos(expr: ast.expr, markers: Sequence[str]) -> bool:
    for sub in walk_in_scope(expr):
        if isinstance(sub, ast.Attribute) and any(
            m in sub.attr for m in markers
        ):
            return True
        if isinstance(sub, ast.Name) and any(m in sub.id for m in markers):
            return True
    return False


def _is_admission_node(node: Node) -> bool:
    return bool(calls_named(node.parts, FLEET_ADMISSION_CALLS))


def _edge_is_no_tenant(edge: Edge) -> bool:
    """Branch edges proving no QoS is attached: the true side of
    ``<qos> is None`` or the false side of ``<qos> is not None``."""
    cond = edge.cond
    if cond is None:
        return False
    for sub in walk_in_scope(cond):
        if not (
            isinstance(sub, ast.Compare)
            and len(sub.ops) == 1
            and isinstance(sub.comparators[0], ast.Constant)
            and sub.comparators[0].value is None
            and _mentions_qos(sub.left, FLEET_QOS_MARKERS)
        ):
            continue
        if edge.kind == "true" and isinstance(sub.ops[0], ast.Is):
            return True
        if edge.kind == "false" and isinstance(sub.ops[0], ast.IsNot):
            return True
    return False


class _ForwardReachability(FlowAnalysis[ForwardSet]):
    """Backward: forward sites reachable from here with no admission."""

    direction = BACKWARD

    def __init__(self, forward_nodes: Set[int]) -> None:
        self.forward_nodes = forward_nodes

    def boundary(self, cfg: CFG, node: Node) -> ForwardSet:
        return frozenset()

    def initial(self) -> ForwardSet:
        return frozenset()

    def join(self, a: ForwardSet, b: ForwardSet) -> ForwardSet:
        return a | b

    def transfer(self, node: Node, fact: ForwardSet) -> ForwardSet:
        if _is_admission_node(node):
            return frozenset()
        if node.index in self.forward_nodes:
            return fact | frozenset((node.index,))
        return fact

    def transfer_edge(self, edge: Edge, fact: ForwardSet) -> ForwardSet:
        if _edge_is_no_tenant(edge):
            return frozenset()
        return fact


class TenantIsolationRule(Rule):
    """Invariant:
        Per-tenant rate enforcement lives only in ``repro/fleet/`` —
        token buckets and cross-tenant throttle state are never
        constructed or mutated elsewhere — and every volume I/O entry
        point passes QoS admission before forwarding the I/O to a
        shared resource (cache log, SSD, data plane).

    Example violation::

        class MyVolume:
            def write(self, offset, data):
                self._throttles = {}              # cross-tenant state
                bucket = QoSTokenBucket(500.0)    # enforcement outside fleet/
                self.wc.append([(offset, data)])  # forward w/o admission

    Paper:
        §4.5 — fleet-scale sharing of one host and one backend account
        is the economic case; it holds only if no tenant can bypass
        admission control or starve another's paid-for rate.
    """

    code = "LSVD016"
    name = "tenant-isolation"
    summary = (
        "QoS enforcement (buckets, throttles, cross-tenant state) must stay "
        "in repro/fleet/, and volume I/O entry points must pass admission "
        "before forwarding to shared resources"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        in_fleet = config.module_in_dirs(ctx.path, config.fleet_allow)
        if not in_fleet:
            yield from self._check_confinement(ctx)
        if config.module_in_dirs(ctx.path, FLEET_MODULES):
            yield from self._check_admission(ctx, config)

    # -- confinement (syntactic) ----------------------------------------
    def _check_confinement(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        classes = frozenset(FLEET_BUCKET_CLASSES)
        markers = frozenset(FLEET_STATE_MARKERS)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _constructed_class(node)
                if name in classes:
                    yield self.diag(
                        ctx,
                        node,
                        f"{name}() constructed outside repro/fleet/ — QoS "
                        "enforcement machinery must not be re-implemented "
                        "or instantiated in the data plane",
                        "declare limits with QoSLimits and let the fleet "
                        "(FleetManager/FleetRuntime) wire the throttle, or "
                        "add the module to [tool.repro-lint] fleet-allow "
                        "with a review",
                    )
            elif isinstance(node, ast.Attribute) and node.attr in markers:
                yield self.diag(
                    ctx,
                    node,
                    f"cross-tenant state .{node.attr} touched outside "
                    "repro/fleet/ — per-tenant rate state must stay behind "
                    "the fleet API",
                    "go through ThrottleSet/FleetManager accessors, or add "
                    "the module to [tool.repro-lint] fleet-allow with a "
                    "review",
                )

    # -- admission-before-forward (flow) --------------------------------
    def _check_admission(
        self, ctx: ModuleContext, config: LintConfig
    ) -> Iterator[Diagnostic]:
        allowed, whole = config.scoped_allow(ctx.path, config.fleet_admission_allow)
        if whole:
            return
        receivers = frozenset(FLEET_FORWARD_RECEIVERS)
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            name = func.name
            if name in allowed or "admission" in name or "admit" in name:
                continue
            if not any(marker in name for marker in FLEET_ENTRY_MARKERS):
                continue
            forward_nodes = {
                node.index
                for node in cfg.stmt_nodes()
                if any(
                    receiver_tail(call) in receivers
                    for call in calls_named(
                        node.parts, FLEET_FORWARD_METHODS
                    )
                )
            }
            if not forward_nodes:
                continue
            solution = solve(cfg, _ForwardReachability(forward_nodes))
            unguarded = solution.before.get(cfg.entry.index, frozenset())
            for index in sorted(unguarded):
                node = cfg.nodes[index]
                calls = [
                    call
                    for call in calls_named(
                        node.parts, FLEET_FORWARD_METHODS
                    )
                    if receiver_tail(call) in receivers
                ]
                what = (
                    f"{receiver_tail(calls[0])}.{call_name(calls[0])}()"
                    if calls
                    else "forward"
                )
                yield self.diag(
                    ctx,
                    node.stmt or func,
                    f"{what} is reachable from entry of {name}() with no "
                    "dominating QoS admission (admit/_admission call or a "
                    "no-tenant `qos is None` branch) — a tenant's I/O can "
                    "enter the shared data plane uncharged",
                    "call the volume's admission hook before forwarding "
                    "(see LSVDVolume.write / LSVDRuntime._write), or "
                    "allowlist the function via fleet-admission-allow "
                    "with a review",
                )


__all__ = ["TenantIsolationRule"]
