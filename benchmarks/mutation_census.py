"""Mutation census: the tier-1 tests that guard nothing (``make mutation-census``).

A test whose src lines are a subset of another's stays only as the first killer of an AST mutant
no kept test kills (DESIGN.md "Tests by evidence").  Run: ``PYTHONPATH=src python <this> [out]``."""

import ast
import copy
import gc
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import types
from collections import defaultdict
from contextlib import contextmanager, suppress
from pathlib import Path

import pytest
from _pytest.runner import runtestprotocol
from hypothesis import HealthCheck, Phase, settings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OPERATORS = ("negate-compare", "drop-call", "off-by-one", "swap-and-or")
NEGATED = {ast.Eq: ast.NotEq, ast.Lt: ast.GtE, ast.Gt: ast.LtE, ast.In: ast.NotIn, ast.Is: ast.IsNot}
NEGATED.update({v: k for k, v in NEGATED.items()})
#: item 10's evidence, and the hand-picked crash tests it subsumes that are due for deletion now
ROWS = ("tests/test_crash_points.py::test_fixed_bug_stays_fixed[",
        "tests/test_crash_points.py::test_mutant_is_caught[")
DUE = ("tests/test_fault_injection.py::test_sharded_out_of_order_settlement_then_total_loss",
       "tests/test_fault_injection.py::test_sharded_crash_anywhere_with_cache_is_prefix_consistent",
       "tests/test_seq_collision_regression.py::test_rolled_back_destaged_records_do_not_collide")
#: never candidates: ROWS, DUE, the other subsumed crash tests (ROADMAP 2a deletes three per
#: change) and the differential tests whose reference model lives in tests/
EXEMPT = ROWS + DUE + tuple("tests/test_" + name for name in (
    "crash_consistency.py::test_lsvd_", "crash_consistency.py::test_crash_with_open",
    "crash_consistency.py::test_cache_loss_with_open", "crash_consistency.py::test_replay_",
    "recovery_edge_cases.py::test_recovery_after_every", "recovery_edge_cases.py::test_stranded_",
    "recovery_edge_cases.py::test_recovery_deletes_only", "volume.py::test_crash_",
    "volume.py::test_cache_loss_", "volume.py::test_double_crash_", "volume.py::test_volume_gc_then",
    "volume.py::test_recovery_with_unsettled", "batch_differential.py::",
    "spans.py::TestAttribution::test_explicit_stack_walk", "read_cache.py::test_differential_",
    "extent_map_model.py::test_model_diff", "read_path.py::test_a_miss_inserts_only",
    "runtime_records.py::test_records_match_", "devices_more.py::test_submit_many_",
    "devices_more.py::test_device_ops_match_the_generator",
    "write_cache_release.py::test_release_by_position_", "extent_map.py::test_map_matches_naive",
    "volume_properties.py::test_volume_agrees_with_", "write_cache_properties.py::test_cache_reads_"))


def apply(node, operator):
    """Mutate ``node`` in place by ``operator``, by attribute assignment only (so a shallow copy
    of ``node`` can be tried); False when the operator does not apply to it."""
    if operator == "negate-compare" and isinstance(node, ast.Compare):
        node.ops = [NEGATED[type(node.ops[0])]()] + node.ops[1:]
    elif operator == "drop-call" and isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        node.value = ast.copy_location(ast.Constant(None), node.value)
    elif operator == "swap-and-or" and isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif operator == "off-by-one" and isinstance(getattr(node, "op", None), (ast.Add, ast.Sub)):
        side = "right" if isinstance(node, ast.BinOp) else "value"  # x + 1, x - 1, x += 1
        old = getattr(node, side, None)
        if not isinstance(old, ast.Constant) or type(old.value) is not int:
            return False
        setattr(node, side, ast.copy_location(ast.Constant(old.value + 1), old))
    else:
        return False
    return True


def sites(tree):
    """``(index, line, operator, unit)`` of every mutation inside a def of ``tree``: ``index``
    numbers ``ast.walk(tree)``, ``unit`` is the outermost def's (qualname, first line)."""
    units = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                units.update((id(n), (prefix + child.name, first))
                             for stmt in child.body for n in ast.walk(stmt))
            else:
                visit(child, prefix + (child.name + "." if isinstance(child, ast.ClassDef) else ""))

    visit(tree, "")
    return [(index, node.lineno, operator, units[id(node)])
            for index, node in enumerate(ast.walk(tree)) if id(node) in units
            for operator in OPERATORS if apply(copy.copy(node), operator)]


def mutate(source, index, operator):
    """The module tree of ``source`` with mutation ``(index, operator)`` applied."""
    tree = ast.parse(source)
    apply(next(n for i, n in enumerate(ast.walk(tree)) if i == index), operator)
    return ast.fix_missing_locations(tree)


def find_code(code, unit):
    """The code object of ``unit`` = (qualname, first line) nested anywhere in ``code``."""
    if (code.co_qualname, code.co_firstlineno) == unit:
        return code
    inner = (find_code(c, unit) for c in code.co_consts if isinstance(c, types.CodeType))
    return next((found for found in inner if found), None)


@contextmanager
def swapped(functions, code):
    """Every one of ``functions`` runs ``code`` inside the block; the originals come back after."""
    saved = [f.__code__ for f in functions]
    try:
        for f in functions:
            f.__code__ = code
        yield
    finally:
        for f, original in zip(functions, saved):
            f.__code__ = original


def candidates(coverage, exempt=()):
    """Node ids whose lines are a subset of a higher-ranked test's (rank: size, then node id)."""
    ranked = sorted(coverage, key=lambda t: (len(coverage[t]), t), reverse=True)
    return {test for i, test in enumerate(ranked) if coverage[test]
            and not test.startswith(tuple(exempt))
            and any(coverage[test] <= coverage[other] for other in ranked[:i])}


class Timeout(BaseException):
    """SIGALRM in a run past its limit: the test fails."""


def _alarm(signum, frame):
    raise Timeout()


def differing(first, second):
    """The ``[path, line]``s only the first and only the second of two runs covered."""
    return {name: sorted([os.path.relpath(path, ROOT), line] for path, line in only)
            for name, only in (("first_only", first - second), ("second_only", second - first))}


class Census:
    """A pytest plugin that replaces the run loop: coverage twice, then the mutants."""

    def __init__(self, base, src=SRC):
        self.base, self.prefix, self.report, self.broken = base, str(src) + os.sep, {}, set()

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if event == "line":
            self.lines.add((code.co_filename, frame.f_lineno))
            self.events += 1
        # src function bodies only (CO_NEWLOCALS): import-time lines run once per process
        return self._trace if code.co_flags & 2 and code.co_filename.startswith(self.prefix) else None

    def passes(self, test, limit=0, trace=None):
        """True when ``test`` passes (within ``limit`` seconds, if given; under ``trace``)."""
        self.lines, self.events = set(), 0
        if trace:  # else a gc inside the test runs earlier tests' suspended generators' `finally`
            gc.collect()
        signal.setitimer(signal.ITIMER_REAL, limit, 1.0 if limit else 0)
        sys.settrace(trace)
        try:
            return all(r.passed for r in runtestprotocol(self.items[test], nextitem=None, log=False))
        except (Timeout, Exception):  # a hook that raised under a mutant fails the test too
            signal.setitimer(signal.ITIMER_REAL, 0)
            with suppress(Exception):
                self.items[test].session._setupstate.teardown_exact(None)
            return False
        finally:
            sys.settrace(None)
            signal.setitimer(signal.ITIMER_REAL, 0)
            for child in self.base.glob("*"):
                shutil.rmtree(child, ignore_errors=True)

    def kills(self, test, mutant):
        """True when ``test`` fails with ``mutant`` installed, then passes without it."""
        limit = 5 + self.cost[test] / 500_000  # 2 us per traced line event: ~16x the mean cost
        with swapped(*mutant):
            if test in self.broken or self.passes(test, limit):
                return False
        if not self.passes(test, limit):
            self.broken.add(test)  # fails unmutated too: never trusted again
        return test not in self.broken

    def installs(self, path, index, operator, unit):
        """(live functions, mutated code), or None when no live function can run the code: the
        import replaced the def, or a dropped ``super()`` call took its ``__class__`` cell."""
        code = find_code(compile(mutate(Path(path).read_text("utf-8"), index, operator), path, "exec"), unit)
        live = self.functions.get((path, *unit), [])
        functions = [f for f in live if code and f.__code__.co_freevars == code.co_freevars]
        return (functions, code) if functions else None

    def judge(self, found, firsts, thens):
        """Yield [path, line, operator or "skipped", first killer in ``firsts``, then in ``thens``]."""
        for path, line, site in found:
            mutant, tests = self.installs(*site), self.by_line[(path, line)]
            first = mutant and next((t for t in tests if t in firsts and self.kills(t, mutant)), None)
            then = first and next((t for t in tests if t in thens and self.kills(t, mutant)), None)
            yield [os.path.relpath(path, ROOT), line, site[2] if mutant else "skipped", first, then]

    def pytest_runtestloop(self, session):
        self.items = {item.nodeid: item for item in session.items}
        runs = [{t: (frozenset(self.lines) if self.passes(t, trace=self._trace) else None, self.events)
                 for t in self.items} for _ in range(2)]
        ok = [t for t in self.items if runs[0][t][0] is not None and runs[1][t][0] is not None]
        cover, self.cost = {t: runs[0][t][0] & runs[1][t][0] for t in ok}, {t: runs[1][t][1] for t in ok}
        unstable = {t: differing(runs[0][t][0], runs[1][t][0]) for t in ok
                    if runs[0][t][0] != runs[1][t][0]}
        chosen = candidates(cover, EXEMPT + tuple(unstable))
        self.by_line = defaultdict(list)  # src line -> the tests covering it, cheapest first
        for t in sorted(ok, key=lambda t: (self.cost[t], t)):
            for line in cover[t]:
                self.by_line[line].append(t)
        self.functions = defaultdict(list)  # (path, qualname, first line) -> live functions
        for f in (f for f in gc.get_objects() if isinstance(f, types.FunctionType)):
            code = f.__code__
            self.functions[(code.co_filename, code.co_qualname, code.co_firstlineno)].append(f)
        target = set().union(*(cover[t] for t in chosen))
        found = [(path, line, (path, index, op, unit)) for path in sorted({p for p, _ in target})
                 for index, line, op, unit in sites(ast.parse(Path(path).read_text("utf-8")))
                 if (path, line) in target]
        results = list(self.judge(found, chosen, set(ok) - chosen))
        deleted = sorted(chosen - {first for *_, first, then in results if first and not then})
        self.report.update(tests=len(self.items), passing=len(ok), unstable=unstable, due={},
                           covered_lines=len(set().union(*cover.values())), candidates=sorted(chosen),
                           mutants=len(found), deleted=deleted, broken=sorted(self.broken), results=results,
                           lost_kills=sum(first in deleted and not then for *_, first, then in results))
        rows = {t for t in ok if t.startswith(ROWS)}
        for test in (t for t in ok if t.startswith(DUE)):  # its first kill that a row shares
            tries = [m for m, row in zip(found, results) if row[3] and test in self.by_line[m[:2]]
                     and rows.intersection(self.by_line[m[:2]])][:10]
            self.report["due"][test] = next((r for r in self.judge(tries, {test}, rows) if r[4]), None)
        return True


def main(out):
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _alarm)
    settings.register_profile("census", derandomize=True, database=None, deadline=None,
                              phases=[Phase.explicit, Phase.reuse, Phase.generate],
                              suppress_health_check=list(HealthCheck))
    settings.load_profile("census")
    # a mutant that allocates without bound fails with MemoryError instead of starving the host
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_FLIGHTREC_DIR"] = tmp  # bundles of failing mutant runs
        census = Census(Path(tmp, "basetemp"))
        pytest.main(["-q", "-p", "no:cacheprovider", f"--basetemp={census.base}", "tests"],
                    plugins=[census])
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(census.report, indent=1))
    summary = {k: v for k, v in census.report.items() if k not in ("candidates", "results")}
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "bench-out/mutation_census.json")
