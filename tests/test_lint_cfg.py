"""Direct unit tests for the flow engine: CFG shapes, the solver, and the
shared analyses the rules instantiate.

The tricky shapes the flow rules depend on: try/finally with return
(per-continuation finally duplication), break inside an except clause,
nested async defs (separate CFGs, await-point detection), loop else
clauses, and handler dispatch that does / does not let exceptions
escape.
"""

import ast
import importlib
import pkgutil
import textwrap

import repro.lint.rules as rules_package
from repro.lint import ALL_RULES, Rule
from repro.lint.flow.cfg import (
    build_cfg,
    iter_function_cfgs,
    iter_functions,
)
from repro.lint.flow.dataflow import BACKWARD, FORWARD, FlowAnalysis, solve
from repro.lint.flow.typestate import (
    mutated_self_attr,
    node_calls,
    none_side,
    suspended_calls,
    unguarded_sites,
)


def cfg_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    funcs = dict(iter_functions(tree))
    func = funcs[name] if name is not None else next(iter(funcs.values()))
    return build_cfg(func)


def node_at(cfg, line):
    nodes = [n for n in cfg.stmt_nodes() if n.line == line]
    assert nodes, f"no node at line {line}"
    return nodes[0]


class TestTryFinally:
    SRC = """
        def f(x):
            try:
                return x
            finally:
                cleanup()
    """

    def test_return_path_runs_finally(self):
        cfg = cfg_of(self.SRC)
        ret = node_at(cfg, 4)
        (edge,) = [e for e in ret.succ if e.kind == "return"]
        assert cfg.nodes[edge.dst].line == 6  # cleanup(), not exit
        assert cfg.reachable(ret, cfg.exit)

    def test_finally_copies_are_per_continuation(self):
        src = """
            def f(x):
                try:
                    if x:
                        return 1
                finally:
                    cleanup()
                return 0
        """
        cfg = cfg_of(src)
        # one finally copy continues to `return 0`, a distinct one to
        # exit (for the return-1 path); the never-taken exception copy
        # is not materialised at all
        copies = cfg.nodes_at_line(7)
        assert len(copies) == 2
        fallthrough, returning = None, None
        for copy in copies:
            dsts = {cfg.nodes[e.dst].line or cfg.nodes[e.dst].kind for e in copy.succ}
            if 8 in dsts:
                fallthrough = copy
            if "exit" in dsts:
                returning = copy
        assert fallthrough is not None and returning is not None
        assert fallthrough is not returning

    def test_facts_stay_separated_per_copy(self):
        # the return-path finally copy must not be reachable from the
        # fallthrough path — that is the whole point of duplication
        src = """
            def f(x):
                try:
                    if x:
                        return 1
                finally:
                    cleanup()
                return 0
        """
        cfg = cfg_of(src)
        ret1 = node_at(cfg, 5)
        tail = node_at(cfg, 8)
        (ret_edge,) = [e for e in ret1.succ if e.kind == "return"]
        return_side_finally = cfg.nodes[ret_edge.dst]
        assert not cfg.reachable(return_side_finally, tail)


class TestLoopsAndHandlers:
    def test_break_inside_except_leaves_the_loop(self):
        src = """
            def f(items):
                for it in items:
                    try:
                        use(it)
                    except ValueError:
                        break
                tail()
        """
        cfg = cfg_of(src)
        brk = node_at(cfg, 7)
        (edge,) = [e for e in brk.succ if e.kind == "break"]
        assert cfg.nodes[edge.dst].line == 8  # tail(), past the loop
        # and the handler is reachable from the raising body statement
        assert cfg.reachable(node_at(cfg, 5), brk)

    def test_while_else_runs_on_normal_exhaustion(self):
        src = """
            def f(n):
                while n:
                    n = step(n)
                else:
                    finish()
                after()
        """
        cfg = cfg_of(src)
        head = node_at(cfg, 3)
        kinds = {e.kind: cfg.nodes[e.dst].line for e in head.succ}
        assert kinds["true"] == 4
        assert kinds["false"] == 6  # else clause, then after()
        assert cfg.reachable(node_at(cfg, 6), node_at(cfg, 7))

    def test_narrow_handler_lets_exceptions_escape(self):
        src = """
            def f():
                try:
                    work()
                except ValueError:
                    pass
        """
        cfg = cfg_of(src)
        assert cfg.reachable(node_at(cfg, 4), cfg.raise_exit)

    def test_broad_handler_catches_everything(self):
        src = """
            def f():
                try:
                    work()
                except Exception:
                    pass
        """
        cfg = cfg_of(src)
        assert not cfg.reachable(node_at(cfg, 4), cfg.raise_exit)


class TestAsyncShapes:
    SRC = """
        def outer():
            async def inner(self):
                await self.go()
            return inner
    """

    def test_nested_defs_get_separate_cfgs(self):
        tree = ast.parse(textwrap.dedent(self.SRC))
        names = [q for q, _f, _c in iter_function_cfgs(tree)]
        assert names == ["outer", "outer.inner"]

    def test_nested_body_is_opaque_to_the_parent(self):
        cfg = cfg_of(self.SRC, "outer")
        assert cfg.nodes_at_line(4) == []  # the await lives in inner only
        def_node = node_at(cfg, 3)
        assert not def_node.suspends

    def test_await_points_are_marked(self):
        cfg = cfg_of(self.SRC, "outer.inner")
        assert node_at(cfg, 4).suspends

    def test_async_for_and_with_suspend(self):
        src = """
            async def g(self):
                async with self.lock:
                    async for x in self.items():
                        yield x
        """
        cfg = cfg_of(src)
        assert node_at(cfg, 3).suspends
        assert node_at(cfg, 4).suspends
        assert node_at(cfg, 5).suspends


class _Reaching(FlowAnalysis):
    """Toy forward analysis: lines whose `x = ...` may reach here."""

    direction = FORWARD

    def boundary(self, cfg, node):
        return frozenset()

    def initial(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, node, fact):
        stmt = node.stmt
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "x"
        ):
            return frozenset((node.line,))
        return fact


class _SinkReach(FlowAnalysis):
    """Toy backward analysis: sink() nodes reachable without flush()."""

    direction = BACKWARD

    def _calls(self, node, name):
        return any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == name
            for part in node.parts
            for sub in ast.walk(part)
        )

    def boundary(self, cfg, node):
        return frozenset()

    def initial(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, node, fact):
        if self._calls(node, "flush"):
            return frozenset()
        if self._calls(node, "sink"):
            return fact | frozenset((node.index,))
        return fact


class TestSolver:
    def test_forward_facts_merge_at_joins(self):
        src = """
            def f(c):
                x = 1
                if c:
                    x = 2
                use(x)
        """
        cfg = cfg_of(src)
        solution = solve(cfg, _Reaching())
        assert solution.before[node_at(cfg, 6).index] == frozenset((3, 5))
        assert solution.before[node_at(cfg, 5).index] == frozenset((3,))

    def test_backward_finds_the_unguarded_path(self):
        src = """
            def f(c):
                if c:
                    flush()
                sink()
        """
        cfg = cfg_of(src)
        solution = solve(cfg, _SinkReach())
        sink_index = node_at(cfg, 5).index
        # the else path reaches sink() without a flush
        assert solution.before[cfg.entry.index] == frozenset((sink_index,))

    def test_backward_clean_when_every_path_is_guarded(self):
        src = """
            def f(c):
                if c:
                    flush()
                else:
                    flush()
                sink()
        """
        cfg = cfg_of(src)
        solution = solve(cfg, _SinkReach())
        assert solution.before[cfg.entry.index] == frozenset()


# ---------------------------------------------------------------------------
# the shared analyses in flow/typestate.py, without any rule's vocabulary
# ---------------------------------------------------------------------------


SINK = node_calls(("sink",))
FLUSH = node_calls(("flush",))


def unguarded_lines(source):
    """Lines of the ``sink()`` sites no ``flush()`` dominates."""
    return [node.line for node in unguarded_sites(cfg_of(source), SINK, FLUSH)]


class TestUnguardedSites:
    def test_evidence_on_one_branch_leaves_the_site_unguarded(self):
        src = """
            def f(c):
                if c:
                    flush()
                sink()
        """
        assert unguarded_lines(src) == [5]

    def test_evidence_on_both_branches_is_clean(self):
        src = """
            def f(c):
                if c:
                    flush()
                else:
                    flush()
                sink()
        """
        assert unguarded_lines(src) == []

    def test_evidence_before_a_loop_covers_every_iteration(self):
        src = """
            def f(items):
                flush()
                for it in items:
                    sink()
                sink()
        """
        assert unguarded_lines(src) == []

    def test_site_in_a_while_body_ahead_of_the_evidence(self):
        # the first iteration reaches sink() bare; the flush below it only
        # guards the iterations the back edge starts
        src = """
            def f(c):
                while c:
                    sink()
                    flush()
        """
        assert unguarded_lines(src) == [4]

    def test_continue_around_the_back_edge_still_passes_the_evidence(self):
        src = """
            def f(c):
                while True:
                    flush()
                    if c.skip():
                        continue
                    sink()
        """
        assert unguarded_lines(src) == []

    def test_sites_come_back_in_node_order(self):
        src = """
            def f(c):
                if c:
                    sink()
                else:
                    sink()
                flush()
                sink()
        """
        assert unguarded_lines(src) == [4, 6]

    def test_evidence_supplied_only_by_an_edge(self):
        # no node is evidence; taking a true edge is
        src = """
            def f(c):
                if c:
                    sink()
                sink()
        """
        cfg = cfg_of(src)
        sites = unguarded_sites(
            cfg, SINK, lambda node: False, edge_evidence=lambda edge: edge.kind == "true"
        )
        assert [n.line for n in sites] == [5]  # via the false edge only

    def test_site_reachable_only_through_a_handler(self):
        src = """
            def f():
                try:
                    work()
                    flush()
                except ValueError:
                    sink()
        """
        assert unguarded_lines(src) == [7]  # work() may raise before flush()
        guarded = """
            def f():
                flush()
                try:
                    work()
                except ValueError:
                    sink()
        """
        assert unguarded_lines(guarded) == []

    def test_evidence_wins_on_a_node_that_is_also_a_site(self):
        src = """
            def f():
                sink(flush())
        """
        assert unguarded_lines(src) == []

    def test_no_site_means_no_solver_run(self):
        def boom(node):
            raise AssertionError("evidence predicate consulted")

        src = """
            def f(c):
                if c:
                    flush()
        """
        assert unguarded_sites(cfg_of(src), SINK, boom, boom) == []


def branch_edges(cond):
    """The true/false edges out of ``if <cond>:``."""
    cfg = cfg_of(f"def f(self, x, y):\n    if {cond}:\n        a()\n    else:\n        b()\n")
    return {e.kind: e for e in node_at(cfg, 2).succ if e.cond is not None}


def anything(expr):
    return True


def plain_name(expr):
    return isinstance(expr, ast.Name)


class TestNoneSide:
    def test_is_none_holds_on_the_true_edge(self):
        edges = branch_edges("x is None")
        assert none_side(edges["true"], anything)
        assert not none_side(edges["false"], anything)

    def test_is_not_none_holds_on_the_false_edge(self):
        edges = branch_edges("x is not None")
        assert not none_side(edges["true"], anything)
        assert none_side(edges["false"], anything)

    def test_about_refuses_the_operand(self):
        for cond, side in (("self.qos is None", "true"), ("self.qos is not None", "false")):
            edge = branch_edges(cond)[side]
            assert none_side(edge, anything)
            assert not none_side(edge, plain_name)

    def test_nested_in_a_conjunction(self):
        edges = branch_edges("y and x is None")
        assert none_side(edges["true"], plain_name)
        assert not none_side(edges["false"], plain_name)

    def test_equality_and_bare_truthiness_are_not_none_tests(self):
        for cond in ("x == None", "not x", "x"):
            edges = branch_edges(cond)
            assert not none_side(edges["true"], anything)
            assert not none_side(edges["false"], anything)

    def test_edges_without_a_condition_never_qualify(self):
        cfg = cfg_of("def f(x):\n    a()\n    b()\n")
        (edge,) = [e for e in node_at(cfg, 2).succ if e.kind == "next"]
        assert not none_side(edge, anything)


class TestSuspendedCalls:
    SRC = """
        def worker(self, dev):
            yield dev.flush()
            dev.flush()
            done = yield self.backend.put("obj", 4096)
            yield self.timeout(1)
    """

    def names_at(self, line, names):
        node = node_at(cfg_of(self.SRC), line)
        return [c.func.attr for c in suspended_calls(node.parts, names)]

    def test_a_yielded_flush_counts(self):
        assert self.names_at(3, ("flush",)) == ["flush"]

    def test_a_bare_flush_does_not(self):
        assert self.names_at(4, ("flush",)) == []

    def test_yield_on_the_right_of_an_assignment_counts(self):
        assert self.names_at(5, ("put", "write")) == ["put"]

    def test_other_yielded_calls_are_filtered_by_name(self):
        assert self.names_at(6, ("flush", "put")) == []

    def test_awaited_calls_count_too(self):
        cfg = cfg_of("async def f(self):\n    await self.dev.flush()\n")
        node = node_at(cfg, 2)
        assert len(suspended_calls(node.parts, ("flush",))) == 1


def mutated(stmt, bookkeeping=()):
    (node,) = ast.parse(stmt).body
    return mutated_self_attr(node, ("map", "pending"), ("update", "pop"), bookkeeping)


class TestMutatedSelfAttr:
    def test_assignment_and_augmented_assignment(self):
        assert mutated("self._dirty_map = {}") == "_dirty_map"
        assert mutated("self._dirty_map |= other") == "_dirty_map"
        assert mutated("a = self.extent_MAP = None") == "extent_MAP"

    def test_subscript_store_counts_unless_the_container_is_bookkeeping(self):
        assert mutated("self._dirty_map[k] = v") == "_dirty_map"
        assert mutated("self._pending[k] = v") == "_pending"
        assert mutated("self._pending[k] = v", bookkeeping=("pending",)) is None
        # rebinding the bookkeeping container itself is still a mutation
        assert mutated("self._pending = {}", bookkeeping=("pending",)) == "_pending"

    def test_in_place_mutator_call(self):
        assert mutated("self._dirty_map.update(batch)") == "_dirty_map"
        assert mutated("self._dirty_map.get(k)") is None
        assert mutated("x = self._dirty_map.pop(k)") is None  # not a bare call

    def test_unmarked_or_foreign_attributes_are_ignored(self):
        assert mutated("self.head = 3") is None
        assert mutated("other._dirty_map = {}") is None
        assert mutated("self.a._dirty_map = {}") is None
        assert mutated("dirty_map = {}") is None
        assert mutated_self_attr(None, ("map",), ("update",)) is None


def test_every_rule_class_is_registered_once_in_dense_code_order():
    """A rule module that defines a coded ``Rule`` but is left out of
    ``ALL_RULES`` never runs; a shared base (no ``code`` of its own) is
    not a rule."""
    for info in pkgutil.iter_modules(rules_package.__path__):
        importlib.import_module(f"{rules_package.__name__}.{info.name}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    coded = {
        cls
        for cls in subclasses(Rule)
        if cls.__module__.startswith(rules_package.__name__ + ".")
        and "code" in vars(cls)
    }
    assert coded == set(ALL_RULES)
    assert len(ALL_RULES) == len(set(ALL_RULES))
    assert [cls.code for cls in ALL_RULES] == [
        f"LSVD{n:03d}" for n in range(1, len(ALL_RULES) + 1)
    ]
