"""LSVD015 — every span begun must be ended or adopted on every path.

The causal span trees (:mod:`repro.obs.spans`) are propagated by
explicit handles: a stage span is opened with ``parent.begin(...)`` and
must be closed with ``.end()`` — or *adopted* by passing the handle to
a callee that closes it (``store.put(name, data, span=stage)``).  A
handle that falls off the end of a function is a stage that never
closes: its root span stays open forever, the critical-path analyzer
under-attributes the request's latency, and the flight recorder's last-N
ring silently stops advancing for that tree.  Exactly the settlement-
leak failure shape (LSVD010) transplanted from durability to
observability, so the rule reuses the same typestate lattice: a forward
may-analysis over each function's CFG, raising paths forgiven — an
exception already aborts the measured request, and the recorder counts
the stranded root in ``open_roots``.

Modules inside a ``repro`` package are gated by ``span_dirs``; files
outside any ``repro`` package (benchmarks, examples, fixtures) are
always in scope, since a span leak there corrupts the very latency
attributions the benchmark gates check.
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.config import LintConfig
from repro.lint.framework import ModuleContext
from repro.lint.rules.settlement import HandleLeakRule

#: repro-package directories whose span handles are hygiene-tracked;
#: files outside any ``repro`` package (benchmarks, examples) are always
#: in scope — span misuse there corrupts the very latency attributions
#: the benchmarks gate on
SPAN_DIRS: Tuple[str, ...] = (
    "core/",
    "runtime/",
    "shard/",
    "objstore/",
    "obs/",
    "crash/",
    "fleet/",
)

#: receiver names whose ``.root()`` / ``.begin()`` yields a span handle;
#: matched as the exact name or a ``_``-separated suffix
SPAN_RECEIVERS: Tuple[str, ...] = (
    "span",
    "spans",
    "root",
    "parent",
    "child",
)

#: method names that open a span (the recorder's ``root`` and a span's
#: ``begin``)
SPAN_BEGIN_METHODS: Tuple[str, ...] = ("root", "begin")


class SpanHygieneRule(HandleLeakRule):
    """Invariant:
        Every span handle acquired from ``<recorder>.root(...)`` or
        ``<span>.begin(...)`` must be ended or adopted (passed on to a
        callee) on every path that completes normally; only raising
        paths are excused.  A leaked span never closes: its root tree
        never completes, the flight recorder stops capturing it, and
        the critical-path decomposition silently loses that stage's
        time.

    Example violation::

        stage = span.begin("shard_put")   # stage opened
        result = shard.put(name, data)
        return result                     # ...stage never ended

    Paper:
        §4.4/§4.7 — the prototype's latency breakdowns (log write vs
        destage vs barrier FLUSH) are only additive if every stage
        interval closes; an open interval under-reports exactly the
        slow path being measured.
    """

    code = "LSVD015"
    name = "span-hygiene"
    summary = (
        "a span handle is discarded, overwritten, or reaches a normal "
        "exit without being ended or adopted"
    )

    methods = SPAN_BEGIN_METHODS
    receivers = SPAN_RECEIVERS
    allow_field = "span_allow"
    dirs = SPAN_DIRS
    # a begin whose result is discarded opened a stage nobody can ever
    # close
    discarded = (
        "span handle discarded: begin()/root() opens a stage "
        "that must be ended or adopted",
        "bind the handle and call .end() on it (or pass it to "
        "the callee that finishes the stage); allowlist "
        "deliberate cases via span-allow",
    )
    at_exit = (
        "open span {key!r} may reach a normal exit without being ended "
        "or adopted"
    )
    overwritten = (
        "open span {key!r} is overwritten at line {line} before being ended"
    )
    leak_fixit = (
        "end the span on every non-raising path (`stage.end()`"
        ") or adopt it by passing it to the callee that ends "
        "it; allowlist the function via span-allow"
    )

    def in_scope(self, ctx: ModuleContext, config: LintConfig) -> bool:
        # files outside any repro package key on their bare filename
        outside = "/" not in config.module_key(ctx.path)
        return outside or super().in_scope(ctx, config)
