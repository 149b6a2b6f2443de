"""Per-function control-flow graphs over the Python AST.

Granularity is one node per *statement*; compound statements contribute
a head node holding only the parts they actually evaluate (``if``/
``while`` heads hold the test, ``for`` heads the target and iterator,
``with`` heads the context-manager items), so dataflow transfers never
accidentally walk a branch body through its head.  Three synthetic
nodes frame every function: ``entry``, ``exit`` (normal completion,
including every ``return``), and ``raise-exit`` (uncaught exception).

Edge kinds
----------

``next``
    ordinary fallthrough.
``true`` / ``false``
    the two sides of an ``if``/``while``/``assert`` head; both carry
    the test expression in :attr:`Edge.cond` so analyses can refine
    facts (e.g. kill a handle on the ``handle is None`` branch).
``loop`` / ``loop-exit``
    a ``for`` head entering its body / falling through after
    exhaustion (the body may run zero times).
``except``
    a statement that may raise, jumping to the enclosing handler
    dispatch (or ``raise-exit``).
``handler`` / ``raise``
    dispatch fan-out to one ``except`` clause / escape past every
    clause.
``return`` / ``break`` / ``continue``
    the non-local exits, routed through any enclosing ``finally``.
``case``
    a ``match`` head entering one case body.

``finally`` bodies are duplicated lazily per *continuation* (normal
fallthrough, exception, return, break, continue), so a fact that is
clean on the return path but leaking on the exception path stays
distinguishable — the classic try/finally precision trap.  Nested
function and class bodies are opaque single statements here; each
``def`` gets its own CFG via :func:`iter_function_cfgs`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: synthetic node kinds
ENTRY = "entry"
EXIT = "exit"
RAISE_EXIT = "raise-exit"
#: real node kinds
STMT = "stmt"
HANDLER = "handler"
DISPATCH = "dispatch"

#: AST nodes whose presence makes a statement "able to raise" — the
#: deliberate approximation is call-shaped work plus explicit raises;
#: pure name/constant shuffling is treated as non-raising.
_RAISING = (
    ast.Call,
    ast.Raise,
    ast.Assert,
    ast.Await,
    ast.Yield,
    ast.YieldFrom,
    ast.Subscript,
    ast.Attribute,
    ast.BinOp,
)

_NESTED_SCOPE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def walk_in_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested def/class/lambda."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _NESTED_SCOPE):
            continue
        yield from walk_in_scope(child)


def _any_in_scope(parts: Sequence[ast.AST], kinds: Tuple[type, ...]) -> bool:
    return any(
        isinstance(sub, kinds) for part in parts for sub in walk_in_scope(part)
    )


@dataclass
class Edge:
    """A directed CFG edge; ``cond`` is set on true/false edges."""

    src: int
    dst: int
    kind: str
    cond: Optional[ast.expr] = None


class Node:
    """One CFG node: a statement head, a handler, or a synthetic mark."""

    __slots__ = ("index", "kind", "stmt", "parts", "suspends", "succ", "pred")

    def __init__(
        self,
        index: int,
        kind: str,
        stmt: Optional[ast.AST] = None,
        parts: Sequence[ast.AST] = (),
        suspends: bool = False,
    ) -> None:
        self.index = index
        self.kind = kind
        #: the full statement (or ExceptHandler) this node anchors
        self.stmt = stmt
        #: the AST fragments this node actually evaluates — what
        #: dataflow transfers should walk (never a branch body)
        self.parts: Tuple[ast.AST, ...] = tuple(parts)
        #: True when evaluating this node crosses an await/yield point
        self.suspends = suspends
        self.succ: List[Edge] = []
        self.pred: List[Edge] = []

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = type(self.stmt).__name__ if self.stmt is not None else ""
        return f"<Node {self.index} {self.kind} {label} line={self.line}>"


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self, func: FuncDef) -> None:
        self.func = func
        self.nodes: List[Node] = []
        self.entry = self.new_node(ENTRY)
        self.exit = self.new_node(EXIT)
        self.raise_exit = self.new_node(RAISE_EXIT)
        self._edge_keys: Set[Tuple[int, int, str]] = set()

    # -- construction ----------------------------------------------------
    def new_node(
        self,
        kind: str,
        stmt: Optional[ast.AST] = None,
        parts: Sequence[ast.AST] = (),
        suspends: bool = False,
    ) -> Node:
        node = Node(len(self.nodes), kind, stmt, parts, suspends)
        self.nodes.append(node)
        return node

    def add_edge(
        self, src: Node, dst: Node, kind: str, cond: Optional[ast.expr] = None
    ) -> None:
        key = (src.index, dst.index, kind)
        if key in self._edge_keys:
            return
        self._edge_keys.add(key)
        edge = Edge(src.index, dst.index, kind, cond)
        src.succ.append(edge)
        dst.pred.append(edge)

    # -- queries ---------------------------------------------------------
    def stmt_nodes(self) -> Iterator[Node]:
        """Every non-synthetic node, in creation order."""
        for node in self.nodes:
            if node.kind in (STMT, HANDLER):
                yield node

    def node_for(self, stmt: ast.AST) -> Optional[Node]:
        for node in self.nodes:
            if node.stmt is stmt:
                return node
        return None

    def nodes_at_line(self, line: int) -> List[Node]:
        return [n for n in self.nodes if n.line == line]

    def reachable(
        self, src: Node, dst: Node, avoid: Optional[Set[int]] = None
    ) -> bool:
        """True if ``dst`` is reachable from ``src`` skipping ``avoid``."""
        blocked = avoid or set()
        seen: Set[int] = set()
        stack = [src.index]
        while stack:
            cur = stack.pop()
            if cur == dst.index:
                return True
            if cur in seen or cur in blocked:
                continue
            seen.add(cur)
            stack.extend(e.dst for e in self.nodes[cur].succ)
        return False


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------

#: a lazily-resolved jump target: calling it materialises (at most once
#: per finally copy) the node control actually lands on
_Thunk = Callable[[], Node]


@dataclass
class _Ctx:
    """Where each kind of statement exit currently leads."""

    nxt: _Thunk
    exc: _Thunk
    ret: _Thunk
    brk: Optional[_Thunk] = None
    cont: Optional[_Thunk] = None


def _is_constant_true(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and bool(expr.value)


def broad_catch(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception`` and ``except BaseException``
    (bare or inside a tuple) — a clause no exception escapes past."""
    node = handler.type
    if node is None:
        return True
    names = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(
        isinstance(item, ast.Name) and item.id in ("Exception", "BaseException")
        for item in names
    )


class _Builder:
    def __init__(self, func: FuncDef) -> None:
        self.cfg = CFG(func)

    def build(self) -> CFG:
        cfg = self.cfg
        ctx = _Ctx(
            nxt=lambda: cfg.exit,
            exc=lambda: cfg.raise_exit,
            ret=lambda: cfg.exit,
        )
        first = self._seq(cfg.func.body, ctx)
        cfg.add_edge(cfg.entry, first, "next")
        return cfg

    # -- sequencing ------------------------------------------------------
    def _seq(self, stmts: Sequence[ast.stmt], ctx: _Ctx) -> Node:
        """Entry node of a statement sequence (``ctx.nxt`` if empty)."""
        follow = ctx.nxt
        for stmt in reversed(stmts):
            node = self._stmt(stmt, replace(ctx, nxt=follow))
            follow = (lambda n: lambda: n)(node)
        return follow()

    def _lazy_seq(self, stmts: Sequence[ast.stmt], ctx: _Ctx) -> _Thunk:
        built: List[Node] = []

        def thunk() -> Node:
            if not built:
                built.append(self._seq(stmts, ctx))
            return built[0]

        return thunk

    # -- statement dispatch ----------------------------------------------
    def _stmt(self, stmt: ast.stmt, ctx: _Ctx) -> Node:
        if isinstance(stmt, ast.If):
            return self._if(stmt, ctx)
        if isinstance(stmt, ast.While):
            return self._while(stmt, ctx)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, ctx)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, ctx)
        if hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar):
            return self._try(stmt, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, ctx)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, ctx)
        if isinstance(stmt, ast.Return):
            parts = [stmt.value] if stmt.value is not None else []
            node = self._simple(stmt, parts)
            self.cfg.add_edge(node, ctx.ret(), "return")
            if _any_in_scope(node.parts, _RAISING):
                self.cfg.add_edge(node, ctx.exc(), "except")
            return node
        if isinstance(stmt, ast.Raise):
            parts = [p for p in (stmt.exc, stmt.cause) if p is not None]
            node = self._simple(stmt, parts)
            self.cfg.add_edge(node, ctx.exc(), "raise")
            return node
        if isinstance(stmt, ast.Break):
            node = self._simple(stmt, [])
            self.cfg.add_edge(node, (ctx.brk or ctx.nxt)(), "break")
            return node
        if isinstance(stmt, ast.Continue):
            node = self._simple(stmt, [])
            self.cfg.add_edge(node, (ctx.cont or ctx.nxt)(), "continue")
            return node
        if isinstance(stmt, ast.Assert):
            parts = [stmt.test] + ([stmt.msg] if stmt.msg is not None else [])
            node = self._simple(stmt, parts)
            self.cfg.add_edge(node, ctx.nxt(), "true", cond=stmt.test)
            self.cfg.add_edge(node, ctx.exc(), "raise")
            return node
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts = list(stmt.decorator_list)
            node = self._simple(stmt, parts)
            self.cfg.add_edge(node, ctx.nxt(), "next")
            if _any_in_scope(node.parts, _RAISING):
                self.cfg.add_edge(node, ctx.exc(), "except")
            return node
        if isinstance(stmt, ast.ClassDef):
            parts = list(stmt.decorator_list) + list(stmt.bases)
            node = self._simple(stmt, parts)
            self.cfg.add_edge(node, ctx.nxt(), "next")
            if _any_in_scope(node.parts, _RAISING):
                self.cfg.add_edge(node, ctx.exc(), "except")
            return node
        # plain statement: Assign, Expr, AugAssign, Delete, Pass, ...
        node = self._simple(stmt, [stmt])
        self.cfg.add_edge(node, ctx.nxt(), "next")
        if _any_in_scope(node.parts, _RAISING):
            self.cfg.add_edge(node, ctx.exc(), "except")
        return node

    def _simple(self, stmt: ast.AST, parts: Sequence[ast.AST]) -> Node:
        suspends = _any_in_scope(
            parts, (ast.Await, ast.Yield, ast.YieldFrom)
        )
        return self.cfg.new_node(STMT, stmt, parts, suspends)

    # -- compound statements ---------------------------------------------
    def _if(self, stmt: ast.If, ctx: _Ctx) -> Node:
        head = self._simple(stmt, [stmt.test])
        body = self._seq(stmt.body, ctx)
        orelse = self._seq(stmt.orelse, ctx) if stmt.orelse else ctx.nxt()
        self.cfg.add_edge(head, body, "true", cond=stmt.test)
        self.cfg.add_edge(head, orelse, "false", cond=stmt.test)
        if _any_in_scope(head.parts, _RAISING):
            self.cfg.add_edge(head, ctx.exc(), "except")
        return head

    def _while(self, stmt: ast.While, ctx: _Ctx) -> Node:
        head = self._simple(stmt, [stmt.test])
        head_thunk: _Thunk = lambda: head  # noqa: E731 - loop back-edge
        after = self._seq(stmt.orelse, ctx) if stmt.orelse else ctx.nxt()
        body_ctx = replace(ctx, nxt=head_thunk, brk=ctx.nxt, cont=head_thunk)
        body = self._seq(stmt.body, body_ctx)
        self.cfg.add_edge(head, body, "true", cond=stmt.test)
        if not _is_constant_true(stmt.test):
            self.cfg.add_edge(head, after, "false", cond=stmt.test)
        if _any_in_scope(head.parts, _RAISING):
            self.cfg.add_edge(head, ctx.exc(), "except")
        return head

    def _for(self, stmt: Union[ast.For, ast.AsyncFor], ctx: _Ctx) -> Node:
        head = self._simple(stmt, [stmt.target, stmt.iter])
        if isinstance(stmt, ast.AsyncFor):
            head.suspends = True
        head_thunk: _Thunk = lambda: head  # noqa: E731 - loop back-edge
        after = self._seq(stmt.orelse, ctx) if stmt.orelse else ctx.nxt()
        body_ctx = replace(ctx, nxt=head_thunk, brk=ctx.nxt, cont=head_thunk)
        body = self._seq(stmt.body, body_ctx)
        self.cfg.add_edge(head, body, "loop")
        self.cfg.add_edge(head, after, "loop-exit")
        self.cfg.add_edge(head, ctx.exc(), "except")
        return head

    def _with(self, stmt: Union[ast.With, ast.AsyncWith], ctx: _Ctx) -> Node:
        head = self._simple(stmt, list(stmt.items))
        if isinstance(stmt, ast.AsyncWith):
            head.suspends = True
        body = self._seq(stmt.body, ctx)
        self.cfg.add_edge(head, body, "next")
        self.cfg.add_edge(head, ctx.exc(), "except")
        return head

    def _match(self, stmt: ast.Match, ctx: _Ctx) -> Node:
        head = self._simple(stmt, [stmt.subject])
        for case in stmt.cases:
            body = self._seq(case.body, ctx)
            self.cfg.add_edge(head, body, "case")
        self.cfg.add_edge(head, ctx.nxt(), "next")
        if _any_in_scope(head.parts, _RAISING):
            self.cfg.add_edge(head, ctx.exc(), "except")
        return head

    def _try(self, stmt: ast.Try, ctx: _Ctx) -> Node:
        if stmt.finalbody:
            copies: Dict[int, Node] = {}

            def fin(cont: Optional[_Thunk]) -> _Thunk:
                target_thunk = cont or ctx.nxt

                def thunk() -> Node:
                    target = target_thunk()
                    if target.index not in copies:
                        copies[target.index] = self._seq(
                            stmt.finalbody, replace(ctx, nxt=lambda: target)
                        )
                    return copies[target.index]

                return thunk

        else:

            def fin(cont: Optional[_Thunk]) -> _Thunk:
                return cont or ctx.nxt

        fin_nxt = fin(ctx.nxt)
        fin_exc = fin(ctx.exc)
        fin_ret = fin(ctx.ret)
        fin_brk = fin(ctx.brk) if ctx.brk is not None else None
        fin_cont = fin(ctx.cont) if ctx.cont is not None else None
        handler_ctx = _Ctx(
            nxt=fin_nxt, exc=fin_exc, ret=fin_ret, brk=fin_brk, cont=fin_cont
        )

        if stmt.handlers:
            dispatch = self.cfg.new_node(DISPATCH, stmt)
            for handler in stmt.handlers:
                parts = [handler.type] if handler.type is not None else []
                hnode = self.cfg.new_node(HANDLER, handler, parts)
                hbody = self._seq(handler.body, handler_ctx)
                self.cfg.add_edge(dispatch, hnode, "handler")
                self.cfg.add_edge(hnode, hbody, "next")
            if not any(map(broad_catch, stmt.handlers)):
                self.cfg.add_edge(dispatch, fin_exc(), "raise")
            body_exc: _Thunk = lambda: dispatch  # noqa: E731
        else:
            body_exc = fin_exc

        body_follow = (
            self._lazy_seq(stmt.orelse, handler_ctx) if stmt.orelse else fin_nxt
        )
        body_ctx = _Ctx(
            nxt=body_follow, exc=body_exc, ret=fin_ret, brk=fin_brk, cont=fin_cont
        )
        return self._seq(stmt.body, body_ctx)


def build_cfg(func: FuncDef) -> CFG:
    """Build the CFG of one ``def``; nested defs are opaque statements."""
    return _Builder(func).build()


def iter_functions(
    tree: ast.AST, prefix: str = ""
) -> Iterator[Tuple[str, FuncDef]]:
    """Yield ``(qualname, def-node)`` for every function, nested included."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{child.name}"
            yield qualname, child
            yield from iter_functions(child, prefix=f"{qualname}.")
        elif isinstance(child, ast.ClassDef):
            yield from iter_functions(child, prefix=f"{prefix}{child.name}.")
        else:
            yield from iter_functions(child, prefix=prefix)


def iter_function_cfgs(tree: ast.AST) -> Iterator[Tuple[str, FuncDef, CFG]]:
    """Yield ``(qualname, def-node, CFG)`` for every function in a module."""
    for qualname, func in iter_functions(tree):
        yield qualname, func, build_cfg(func)
