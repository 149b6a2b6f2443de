"""Flow-sensitive analysis engine for the LSVD invariant checker.

The single-pass AST rules (LSVD002-LSVD009) can ban a call; they cannot
see *paths*.  The paper's ordering invariants — ack only after the log
record is durable (§3.2), free a victim only after the relocated copy
and the covering checkpoint settle (§3.5) — are statements about what
must happen *before* something else *on every path*, including the
exception paths a refactor quietly adds.  This package supplies the
machinery the flow rules (LSVD010, 011, 014 and the flow halves of 016
and 017) are built on:

* :mod:`repro.lint.flow.cfg` — per-function control-flow graphs over
  the Python AST (branches, loops, try/except/finally, with,
  return/raise/break/continue edges);
* :mod:`repro.lint.flow.typestate` — per-variable gen/kill lattices
  (acquire / consume / branch-refine) and their forward worklist solver
  with edge-sensitive transfers (LSVD010's handle check),
  the ``unguarded_sites`` reachability walk shared by the
  ordering rules (LSVD011/014/016/017), and the AST vocabulary.

Flow rules are ordinary :class:`repro.lint.framework.Rule` subclasses:
they plug into the same registry, suppressions, allowlists, and
reporters as the AST rules.
"""

from repro.lint.flow.cfg import CFG, Edge, Node, build_cfg, iter_function_cfgs
from repro.lint.flow.typestate import Pending, TypestateAnalysis, solve

__all__ = [
    "CFG",
    "Edge",
    "Node",
    "Pending",
    "TypestateAnalysis",
    "build_cfg",
    "iter_function_cfgs",
    "solve",
]
