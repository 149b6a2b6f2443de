"""Flow-sensitive analysis engine for the LSVD invariant checker.

The single-pass AST rules (LSVD001-LSVD009) can ban a call; they cannot
see *paths*.  The paper's ordering invariants — ack only after the log
record is durable (§3.2), free a victim only after the relocated copy
and the covering checkpoint settle (§3.5) — are statements about what
must happen *before* something else *on every path*, including the
exception paths a refactor quietly adds.  This package supplies the
machinery the LSVD010-LSVD013 rules are built on:

* :mod:`repro.lint.flow.cfg` — per-function control-flow graphs over
  the Python AST (branches, loops, try/except/finally, with,
  return/raise/break/continue edges, ``await``/``yield`` points);
* :mod:`repro.lint.flow.dataflow` — a small worklist solver running
  forward or backward over a CFG with edge-sensitive transfers;
* :mod:`repro.lint.flow.typestate` — per-variable gen/kill lattices
  (acquire / consume / branch-refine) shared by the typestate rules,
  the backward ``unguarded_sites`` dominance analysis shared by the
  ordering rules (LSVD011/014/016/017), and the AST vocabulary.

Flow rules are ordinary :class:`repro.lint.framework.Rule` subclasses:
they plug into the same registry, suppressions, allowlists, and
reporters as the AST rules.
"""

from repro.lint.flow.cfg import CFG, Edge, Node, build_cfg, iter_function_cfgs
from repro.lint.flow.dataflow import FlowAnalysis, Solution, solve
from repro.lint.flow.typestate import Pending, TypestateAnalysis

__all__ = [
    "CFG",
    "Edge",
    "FlowAnalysis",
    "Node",
    "Pending",
    "Solution",
    "TypestateAnalysis",
    "build_cfg",
    "iter_function_cfgs",
    "solve",
]
