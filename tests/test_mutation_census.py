"""The mutation census's pure parts: candidates, each operator's mutant, the ``__code__`` swap."""

import ast
import importlib.util
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
