"""A small worklist dataflow solver over :mod:`repro.lint.flow.cfg`.

An analysis supplies a join semilattice (``initial`` is the identity of
``join``), a per-node ``transfer``, and optionally an edge-sensitive
``transfer_edge`` — the hook that lets ``true``/``false`` edges refine
facts (e.g. "on this branch the handle is known ``None``").  The solver
iterates forward to a fixpoint: ``before[n]`` is the join over incoming
edges of the transferred predecessor facts; ``boundary`` seeds
``entry``.

Facts must be immutable values with structural equality (frozensets of
small records, in practice); transfers must be pure and monotone, which
every gen/kill formulation is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generic, Set, TypeVar

from repro.lint.flow.cfg import CFG, Edge, Node

T = TypeVar("T")


class FlowAnalysis(Generic[T]):
    """One dataflow problem; subclass and fill in the lattice."""

    def boundary(self, cfg: CFG, node: Node) -> T:
        """Fact seeded at the entry node."""
        raise NotImplementedError

    def initial(self) -> T:
        """The join identity ("no paths reach here yet")."""
        raise NotImplementedError

    def join(self, a: T, b: T) -> T:
        raise NotImplementedError

    def transfer(self, node: Node, fact: T) -> T:
        """Fact after executing ``node`` given the fact before it."""
        raise NotImplementedError

    def transfer_edge(self, edge: Edge, fact: T) -> T:
        """Refine a fact crossing one edge (default: unchanged)."""
        return fact


@dataclass
class Solution(Generic[T]):
    """Fixpoint facts per node index.

    ``before`` is the fact on the *entry* side of each node in program
    order and ``after`` on the exit side.
    """

    before: Dict[int, T]
    after: Dict[int, T]


def solve(cfg: CFG, analysis: FlowAnalysis[T]) -> Solution[T]:
    before: Dict[int, T] = {n.index: analysis.initial() for n in cfg.nodes}
    after: Dict[int, T] = {}
    before[cfg.entry.index] = analysis.boundary(cfg, cfg.entry)

    worklist: Deque[Node] = deque(cfg.nodes)
    queued: Set[int] = {n.index for n in cfg.nodes}
    # gen/kill lattices converge in O(nodes * facts); this only guards
    # against a non-monotone transfer written by a future rule
    steps = 64 * len(cfg.nodes) + 1024
    while worklist:
        steps -= 1
        if steps < 0:  # pragma: no cover - guards a buggy transfer
            raise RuntimeError("dataflow solver failed to converge")
        node = worklist.popleft()
        queued.discard(node.index)
        out = analysis.transfer(node, before[node.index])
        after[node.index] = out
        for edge in node.succ:
            contrib = analysis.transfer_edge(edge, out)
            merged = analysis.join(before[edge.dst], contrib)
            if merged != before[edge.dst]:
                before[edge.dst] = merged
                if edge.dst not in queued:
                    queued.add(edge.dst)
                    worklist.append(cfg.nodes[edge.dst])
    return Solution(before=before, after=after)
