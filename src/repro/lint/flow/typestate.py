"""Typestate lattices and the AST vocabulary shared by the flow rules.

A *typestate* fact is a frozenset of :class:`Pending` records — "this
key (a local variable holding a PUT handle, or a mutated attribute) was
put into a must-be-resolved state at that node and has not been
resolved yet".  :class:`TypestateAnalysis` is the forward gen/kill
skeleton: subclasses say what *acquires* (gen), what *resolves* (kill),
and which branch edges *refine* (a ``handle is None`` test proves there
is nothing to settle on the true side).  Its backward twin is
:func:`unguarded_sites`: which *sites* can control reach from function
entry without first crossing *evidence* — the one dominance question the
ordering rules (LSVD011/014/016/017) ask, each with its own vocabulary.

The module also collects the small AST predicates every flow rule
needs — trailing receiver names, awaited-call unwrapping, load-name
collection, and guard/consumption splitting for branch tests — so the
rules stay about *invariants*, not AST plumbing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.flow.cfg import CFG, Edge, Node, walk_in_scope
from repro.lint.flow.dataflow import BACKWARD, FlowAnalysis, solve

PendingSet = FrozenSet["Pending"]


@dataclass(frozen=True)
class Pending:
    """One unresolved obligation: ``key`` acquired at ``origin``."""

    key: str
    origin: int  # node index of the acquiring statement
    line: int


class TypestateAnalysis(FlowAnalysis[PendingSet]):
    """Forward may-analysis: which obligations may still be open here."""

    direction = "forward"

    def boundary(self, cfg: CFG, node: Node) -> PendingSet:
        return frozenset()

    def initial(self) -> PendingSet:
        return frozenset()

    def join(self, a: PendingSet, b: PendingSet) -> PendingSet:
        return a | b

    def transfer(self, node: Node, fact: PendingSet) -> PendingSet:
        killed = self.kills(node, fact)
        fact = frozenset(p for p in fact if p.key not in killed)
        return fact | frozenset(self.gens(node))

    def transfer_edge(self, edge: Edge, fact: PendingSet) -> PendingSet:
        refuted = self.refuted_keys(edge)
        if not refuted:
            return fact
        return frozenset(p for p in fact if p.key not in refuted)

    # -- subclass hooks --------------------------------------------------
    def gens(self, node: Node) -> Iterable[Pending]:
        """Obligations this node opens."""
        return ()

    def kills(self, node: Node, fact: PendingSet) -> Set[str]:
        """Keys this node resolves."""
        return set()

    def refuted_keys(self, edge: Edge) -> Set[str]:
        """Keys proven vacuous on this edge (default: branch refinement)."""
        if edge.cond is None:
            return set()
        return branch_refuted_names(edge.cond, edge.kind)


SiteSet = FrozenSet[int]


class _Unguarded(FlowAnalysis[SiteSet]):
    """Backward may-analysis: sites reachable from here with no evidence
    node or edge between."""

    direction = BACKWARD

    def __init__(
        self,
        sites: SiteSet,
        node_evidence: Callable[[Node], bool],
        edge_evidence: Callable[[Edge], bool],
    ) -> None:
        self.sites = sites
        self.node_evidence = node_evidence
        self.edge_evidence = edge_evidence

    def boundary(self, cfg: CFG, node: Node) -> SiteSet:
        return frozenset()

    def initial(self) -> SiteSet:
        return frozenset()

    def join(self, a: SiteSet, b: SiteSet) -> SiteSet:
        return a | b

    def transfer(self, node: Node, fact: SiteSet) -> SiteSet:
        if self.node_evidence(node):
            # every path through this node is dominated by evidence
            return frozenset()
        if node.index in self.sites:
            return fact | frozenset((node.index,))
        return fact

    def transfer_edge(self, edge: Edge, fact: SiteSet) -> SiteSet:
        return frozenset() if self.edge_evidence(edge) else fact


def unguarded_sites(
    cfg: CFG,
    is_site: Callable[[Node], bool],
    node_evidence: Callable[[Node], bool],
    edge_evidence: Callable[[Edge], bool] = lambda edge: False,
) -> List[Node]:
    """Site nodes some path from function entry reaches without crossing
    an evidence node or an evidence edge, in node order.

    Evidence wins over site-ness on the same node; a function with no
    site is answered without running the solver.
    """
    sites = frozenset(n.index for n in cfg.stmt_nodes() if is_site(n))
    if not sites:
        return []
    solution = solve(cfg, _Unguarded(sites, node_evidence, edge_evidence))
    return [cfg.nodes[i] for i in sorted(solution.before[cfg.entry.index])]


# ---------------------------------------------------------------------------
# AST vocabulary
# ---------------------------------------------------------------------------


def unwrap_effect(expr: Optional[ast.expr]) -> Optional[ast.expr]:
    """Strip ``await`` / ``yield`` wrappers off an expression."""
    while True:
        if isinstance(expr, ast.Await):
            expr = expr.value
        elif isinstance(expr, (ast.Yield, ast.YieldFrom)):
            expr = expr.value
        else:
            return expr


def tail_name(expr: Optional[ast.AST]) -> str:
    """Trailing identifier of a name-like expression: ``self.store`` ->
    ``store``, ``seq`` -> ``seq``; '' for anything else."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def call_name(call: ast.Call) -> str:
    """The called name: ``foo`` for ``foo(..)``, ``put`` for ``x.put(..)``."""
    return tail_name(call.func)


def receiver_tail(call: ast.Call) -> str:
    """Trailing identifier of the receiver: ``self.dst_shard.put`` -> ``dst_shard``."""
    func = call.func
    return tail_name(func.value) if isinstance(func, ast.Attribute) else ""


def receiver_matches(tail: str, receivers: Sequence[str]) -> bool:
    """True when ``tail`` is a configured receiver name or a suffix of
    one (``dst_shard`` matches the ``shard`` entry)."""
    return any(
        tail == entry or tail.endswith("_" + entry) for entry in receivers
    )


def calls_in(parts: Sequence[ast.AST]) -> List[ast.Call]:
    return [
        sub
        for part in parts
        for sub in walk_in_scope(part)
        if isinstance(sub, ast.Call)
    ]


def calls_named(parts: Sequence[ast.AST], names: Sequence[str]) -> List[ast.Call]:
    return [c for c in calls_in(parts) if call_name(c) in names]


def node_calls(names: Sequence[str]) -> Callable[[Node], bool]:
    """Node predicate: the node evaluates a call to one of ``names``."""
    return lambda node: bool(calls_named(node.parts, names))


def suspended_calls(parts: Sequence[ast.AST], names: Sequence[str]) -> List[ast.Call]:
    """Calls to ``names`` under an ``await``/``yield``: the coroutine
    resumes only once they complete (``yield dev.flush()``, not a bare
    ``dev.flush()`` whose Event nobody waits on)."""
    return [
        call
        for part in parts
        for sub in walk_in_scope(part)
        if isinstance(sub, (ast.Await, ast.Yield, ast.YieldFrom))
        and sub.value is not None
        for call in calls_named([sub.value], names)
    ]


def loads_in(parts: Sequence[ast.AST]) -> Set[str]:
    """Every plain name read anywhere in ``parts``."""
    return {
        sub.id
        for part in parts
        for sub in walk_in_scope(part)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _is_none(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is None


def none_side(edge: Edge, about: Callable[[ast.expr], bool]) -> bool:
    """True when ``edge`` is the ``None`` side of a test on something
    ``about`` accepts: the true edge of ``<expr> is None`` or the false
    edge of ``<expr> is not None``, anywhere in the branch condition."""
    wanted = {"true": ast.Is, "false": ast.IsNot}.get(edge.kind)
    if edge.cond is None or wanted is None:
        return False
    return any(
        isinstance(sub, ast.Compare)
        and len(sub.ops) == 1
        and isinstance(sub.ops[0], wanted)
        and _is_none(sub.comparators[0])
        and about(sub.left)
        for sub in walk_in_scope(edge.cond)
    )


def split_guard(test: ast.expr) -> Tuple[Set[str], List[ast.expr]]:
    """Split a branch test into guard-only names and consuming subtrees.

    Guard positions — a bare name, ``x is None`` / ``x is not None``,
    and ``and``/``or``/``not`` combinations of those — merely *inspect*
    a handle; anything else (a call argument, an attribute access) is a
    real use.  Returns ``(guard_names, other_subtrees)``.
    """
    guard: Set[str] = set()
    other: List[ast.expr] = []

    def visit(expr: ast.expr) -> None:
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                visit(value)
        elif isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            visit(expr.operand)
        elif isinstance(expr, ast.Name):
            guard.add(expr.id)
        elif (
            isinstance(expr, ast.Compare)
            and len(expr.ops) == 1
            and isinstance(expr.ops[0], (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
        ):
            left, right = expr.left, expr.comparators[0]
            if _is_none(right) and isinstance(left, ast.Name):
                guard.add(left.id)
            elif _is_none(left) and isinstance(right, ast.Name):
                guard.add(right.id)
            else:
                other.append(expr)
        else:
            other.append(expr)

    visit(test)
    return guard, other


def branch_refuted_names(cond: ast.expr, edge_kind: str) -> Set[str]:
    """Names proven ``None``/falsy when control takes this edge.

    ``if h is None: <true edge>`` and ``if h: ... else: <false edge>``
    both prove ``h`` holds nothing worth settling on that side.  Only
    top-level conjuncts/disjuncts are considered, and a guard that also
    *uses* the name non-trivially refutes nothing.
    """
    refuted: Set[str] = set()

    def visit(expr: ast.expr, branch: str) -> None:
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            visit(expr.operand, "false" if branch == "true" else "true")
        elif isinstance(expr, ast.Name):
            if branch == "false":
                refuted.add(expr.id)
        elif (
            isinstance(expr, ast.Compare)
            and len(expr.ops) == 1
            and isinstance(expr.ops[0], (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
        ):
            flip = isinstance(expr.ops[0], (ast.IsNot, ast.NotEq))
            left, right = expr.left, expr.comparators[0]
            name: Optional[str] = None
            if _is_none(right) and isinstance(left, ast.Name):
                name = left.id
            elif _is_none(left) and isinstance(right, ast.Name):
                name = right.id
            if name is not None:
                hit = branch == ("false" if flip else "true")
                if hit:
                    refuted.add(name)
        elif isinstance(expr, ast.BoolOp):
            # `if a is None and b is None:` true edge proves both; the
            # false edge of an `or` likewise refutes every disjunct
            wanted = "true" if isinstance(expr.op, ast.And) else "false"
            if branch == wanted:
                for value in expr.values:
                    visit(value, branch)

    if edge_kind in ("true", "false"):
        visit(cond, edge_kind)
    return refuted


def consuming_loads(node: Node) -> Set[str]:
    """Names this node reads in a way that counts as *using* a handle.

    For branch heads (``if``/``while``/``assert``) the guard-only names
    are excluded: ``if handle is None: return`` inspects the handle but
    does not consume it — the settle obligation survives the test.
    """
    stmt = node.stmt
    if isinstance(stmt, (ast.If, ast.While, ast.Assert)) and node.parts:
        test = node.parts[0]
        assert isinstance(test, ast.expr)
        guard, other = split_guard(test)
        loads = loads_in(list(node.parts[1:])) | loads_in(list(other))
        return loads
    return loads_in(node.parts)


def attr_on_self(expr: ast.expr) -> Optional[str]:
    """``self.<attr>`` -> ``attr`` (one level only)."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def matches_marker(name: str, markers: Sequence[str]) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in markers)


def mutated_self_attr(
    stmt: Optional[ast.AST],
    markers: Sequence[str],
    mutators: Sequence[str],
    bookkeeping: Sequence[str] = (),
) -> Optional[str]:
    """The marker-named ``self.<attr>`` this statement mutates, if any:
    an (aug-)assignment to it, a subscript store into it, or an in-place
    ``mutators`` call on it.  A subscript store into a container whose
    name contains a ``bookkeeping`` word does not count — registering in
    a pending/ledger table *is* the settlement bookkeeping."""

    def state_attr(expr: ast.expr) -> Optional[str]:
        attr = attr_on_self(expr)
        if attr is not None and matches_marker(attr, markers):
            return attr
        return None

    if isinstance(stmt, (ast.Assign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            attr = state_attr(target)
            if attr is not None:
                return attr
            if isinstance(target, ast.Subscript):
                base = state_attr(target.value)
                if base is not None and not any(w in base for w in bookkeeping):
                    return base
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in mutators:
            return state_attr(func.value)
    return None
