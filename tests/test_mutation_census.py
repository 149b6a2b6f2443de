"""The mutation census's pure parts (candidates, each operator's mutant, the ``__code__`` swap)
and its report of unstable tests on a toy run."""

import ast
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("census", ROOT / "benchmarks" / "mutation_census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

SOURCE = """\
class A:
    def f(self, a, b):
        if a < b and b:
            g(a)
        return a - 1


def h(x):
    x += 2
    return x
"""


def test_a_subset_of_a_larger_test_is_a_candidate_and_equal_sets_keep_one():
    coverage = {"big": {1, 2, 3}, "sub": {1, 2}, "twin-a": {4}, "twin-b": {4},
                "apart": {5}, "none": set(), "exempt": {1}}
    assert census.candidates(coverage, ("exempt",)) == {"sub", "twin-a"}


def test_each_operator_mutates_its_own_site():
    mutants = {}
    for index, line, operator, unit in census.sites(ast.parse(SOURCE)):
        mutants.setdefault(operator, []).append(
            (line, unit, ast.unparse(census.mutate(SOURCE, index, operator))))
    assert sorted(mutants) == sorted(census.OPERATORS)
    original = ast.unparse(ast.parse(SOURCE))
    expected = {
        "negate-compare": [(3, ("A.f", 2), "if a >= b and b:")],
        "drop-call": [(4, ("A.f", 2), "None")],
        "swap-and-or": [(3, ("A.f", 2), "if a < b or b:")],
        "off-by-one": [(9, ("h", 8), "x += 3"), (5, ("A.f", 2), "return a - 2")],
    }
    for operator, found in mutants.items():
        assert len(found) == len(expected[operator])
        for (line, unit, text), (want_line, want_unit, changed) in zip(found, expected[operator]):
            assert (line, unit) == (want_line, want_unit)
            assert changed in text and text != original


def test_the_swapped_code_runs_inside_the_block_and_the_original_comes_back():
    namespace = {}
    exec(compile(SOURCE, "<census>", "exec"), namespace)
    h = namespace["h"]
    [(index, _line, operator, unit)] = [s for s in census.sites(ast.parse(SOURCE))
                                        if s[3][0] == "h"]
    code = census.find_code(compile(census.mutate(SOURCE, index, operator), "<census>", "exec"), unit)
    with pytest.raises(RuntimeError):
        with census.swapped([h], code):
            assert h(0) == 3
            raise RuntimeError
    assert h(0) == 2


TOY_SRC = """\
CALLS = []


def step():
    CALLS.append(1)
    if len(CALLS) == 1:
        return "first"
    return "again"


def steady():
    return 1
"""

TOY_TESTS = """\
from census_toy import steady, step


def test_step():
    assert step()


def test_steady():
    assert steady() == 1
"""


def test_an_unstable_test_reports_the_lines_its_two_runs_differ_on(tmp_path, monkeypatch):
    """A toy census: ``test_step`` runs other src lines the second time, so the
    report names it with the line each run alone covered; ``test_steady`` is stable."""
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "census_toy.py").write_text(TOY_SRC)
    (tests / "test_toy.py").write_text(TOY_TESTS)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    monkeypatch.syspath_prepend(str(src))
    monkeypatch.delitem(sys.modules, "census_toy", raising=False)  # a fresh CALLS
    toy = census.Census(tmp_path / "basetemp", src)
    pytest.main(["-q", "-p", "no:cacheprovider", f"--basetemp={toy.base}",
                 f"--rootdir={tmp_path}", str(tests)], plugins=[toy])
    path = os.path.relpath(src / "census_toy.py", census.ROOT)
    assert toy.report["passing"] == 2
    assert toy.report["unstable"] == {
        "tests/test_toy.py::test_step": {"first_only": [[path, 7]], "second_only": [[path, 8]]}}
