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
from typing import Iterator, List, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.cfg import Edge, Node, iter_function_cfgs, walk_in_scope
from repro.lint.flow.typestate import (
    call_name,
    calls_named,
    node_calls,
    none_side,
    receiver_tail,
    tail_name,
    unguarded_sites,
)
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


def _forward_calls(node: Node) -> List[ast.Call]:
    """Calls on this node that forward an I/O to a shared resource."""
    return [
        call
        for call in calls_named(node.parts, FLEET_FORWARD_METHODS)
        if receiver_tail(call) in FLEET_FORWARD_RECEIVERS
    ]


def _mentions_qos(expr: ast.expr) -> bool:
    return any(
        marker in tail_name(sub)
        for sub in walk_in_scope(expr)
        for marker in FLEET_QOS_MARKERS
    )


def _edge_is_no_tenant(edge: Edge) -> bool:
    """Branch edges proving no QoS is attached: the true side of
    ``<qos> is None`` or the false side of ``<qos> is not None``."""
    return none_side(edge, _mentions_qos)


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
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in FLEET_BUCKET_CLASSES:
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
            elif isinstance(node, ast.Attribute) and node.attr in FLEET_STATE_MARKERS:
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
        for _qualname, func, cfg in iter_function_cfgs(ctx.tree):
            name = func.name
            if name in allowed or "admission" in name or "admit" in name:
                continue
            if not any(marker in name for marker in FLEET_ENTRY_MARKERS):
                continue
            for node in unguarded_sites(
                cfg,
                lambda n: bool(_forward_calls(n)),
                node_calls(FLEET_ADMISSION_CALLS),
                _edge_is_no_tenant,
            ):
                call = _forward_calls(node)[0]
                yield self.diag(
                    ctx,
                    node.stmt or func,
                    f"{receiver_tail(call)}.{call_name(call)}() is reachable "
                    f"from entry of {name}() with no "
                    "dominating QoS admission (admit/_admission call or a "
                    "no-tenant `qos is None` branch) — a tenant's I/O can "
                    "enter the shared data plane uncharged",
                    "call the volume's admission hook before forwarding "
                    "(see LSVDVolume.write / LSVDRuntime._write), or "
                    "allowlist the function via fleet-admission-allow "
                    "with a review",
                )


__all__ = ["TenantIsolationRule"]
