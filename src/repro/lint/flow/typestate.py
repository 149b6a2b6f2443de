"""Typestate lattices, their solver, and the AST vocabulary shared by
the flow rules.

A *typestate* fact is a frozenset of :class:`Pending` records — "this
key (a local variable holding a PUT handle) was put into a
must-be-resolved state at that node and has not been resolved yet".
:class:`TypestateAnalysis` is the forward gen/kill skeleton: subclasses
say what *acquires* (gen), what *resolves* (kill), and which branch
edges *refine* (a ``handle is None`` test proves there is nothing to
settle on the true side); :func:`solve` iterates it to a fixpoint over a
CFG (LSVD010's handle check is its one subclass).
:func:`unguarded_sites` is a forward reachability walk: which *sites* can control reach from function entry without first
crossing *evidence* — the one dominance question the ordering rules
(LSVD011/014/016/017) ask, each with its own vocabulary.

The module also collects the small AST predicates every flow rule
needs — trailing receiver names, awaited-call unwrapping, load-name
collection, and guard/consumption splitting for branch tests — so the
rules stay about *invariants*, not AST plumbing.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.flow.cfg import CFG, Edge, Node, walk_in_scope

PendingSet = FrozenSet["Pending"]


@dataclass(frozen=True)
class Pending:
    """One unresolved obligation: ``key`` acquired at ``origin``."""

    key: str
    origin: int  # node index of the acquiring statement
    line: int


class TypestateAnalysis:
    """Forward may-analysis: which obligations may still be open here."""

    def transfer(self, node: Node, fact: PendingSet) -> PendingSet:
        """Fact after executing ``node`` given the fact before it."""
        killed = self.kills(node, fact)
        fact = frozenset(p for p in fact if p.key not in killed)
        return fact | frozenset(self.gens(node))

    def transfer_edge(self, edge: Edge, fact: PendingSet) -> PendingSet:
        """Refine a fact crossing one edge."""
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


def solve(cfg: CFG, analysis: TypestateAnalysis) -> Dict[int, PendingSet]:
    """The fixpoint fact on the entry side of every node, by index: the
    union over incoming edges of the edge-refined facts after each
    predecessor; entry starts empty."""
    before: Dict[int, PendingSet] = {n.index: frozenset() for n in cfg.nodes}
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
        for edge in node.succ:
            merged = before[edge.dst] | analysis.transfer_edge(edge, out)
            if merged != before[edge.dst]:
                before[edge.dst] = merged
                if edge.dst not in queued:
                    queued.add(edge.dst)
                    worklist.append(cfg.nodes[edge.dst])
    return before


def unguarded_sites(
    cfg: CFG,
    is_site: Callable[[Node], bool],
    node_evidence: Callable[[Node], bool],
    edge_evidence: Callable[[Edge], bool] = lambda edge: False,
) -> List[Node]:
    """Site nodes some path from function entry reaches without crossing
    an evidence node or an evidence edge, in node order.

    A depth-first walk from entry that stops at evidence; evidence wins
    over site-ness on the same node, and a function with no site is
    answered without walking.
    """
    sites = {n.index for n in cfg.stmt_nodes() if is_site(n)}
    if not sites:
        return []
    found: Set[int] = set()
    seen = {cfg.entry.index}
    stack = [cfg.entry]
    while stack:
        node = stack.pop()
        if node_evidence(node):
            continue
        if node.index in sites:
            found.add(node.index)
        for edge in node.succ:
            if edge.dst not in seen and not edge_evidence(edge):
                seen.add(edge.dst)
                stack.append(cfg.nodes[edge.dst])
    return [cfg.nodes[i] for i in sorted(found)]


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


def completion_callbacks(tree: ast.AST, names: Sequence[str]) -> Set[str]:
    """Methods whose every ``self.<m>`` in ``tree`` is the argument of
    ``<call>(..).callbacks.append(..)`` or ``.add_callback(..)`` with
    ``<call>`` named in ``names``: such a method starts at the call's
    completion, the callback form of ``yield <call>(..)``."""
    hung: "dict[int, Optional[str]]" = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.args:
            event = sub.func.value
            if sub.func.attr == "append" and tail_name(event) == "callbacks":
                event = event.value  # type: ignore[attr-defined]
            elif sub.func.attr != "add_callback":
                continue
            if isinstance(event, ast.Call) and call_name(event) in names:
                hung[id(sub.args[0])] = attr_on_self(sub.args[0])
    others = {
        attr_on_self(sub) for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and id(sub) not in hung
    }
    return {method for method in hung.values() if method and method not in others}


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
