"""tools/mutate.py's site enumeration, on which the counts in MUTANTS.json rest:
one site per swappable operator and per int constant, in source order, one
always-true site per tally call with a condition, one x10 site per float
constant that x10 changes, and a swap that the sweep can undo."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SNIPPET = "x = a + b - c\ny = a < b <= c\nx += 1\n"


def test_sites_in_source_order():
    found = [(line, col, label) for line, col, *_, label in mutate.sites(ast.parse(SNIPPET))]
    assert found == [
        (1, 5, "+ -> -"), (1, 9, "- -> +"),  # each operator where its left operand ends
        (2, 5, "< -> <="), (2, 9, "<= -> <"),
        (3, 1, "+ -> -"),  # the augmented assignment
        (3, 5, "1 -> 2"),
    ]


def test_swap_applies_and_restores_each_site():
    tree = ast.parse(SNIPPET)
    original = ast.unparse(tree)
    mutated = []
    for _, _, node, field, index, value, _ in mutate.sites(tree):
        old = mutate._swap(node, field, index, value)
        mutated.append(ast.unparse(tree))
        mutate._swap(node, field, index, old)
        assert ast.unparse(tree) == original
    assert mutated == [
        "x = a - b - c\ny = a < b <= c\nx += 1",
        "x = a + b + c\ny = a < b <= c\nx += 1",
        "x = a + b - c\ny = a <= b <= c\nx += 1",
        "x = a + b - c\ny = a < b < c\nx += 1",
        "x = a + b - c\ny = a < b <= c\nx -= 1",
        "x = a + b - c\ny = a < b <= c\nx += 2",
    ]


TALLY_SNIPPET = "tally(a == b, 'x')\nif c:\n    tally(not d, 'y', e)\nt.tally(f)\ntally()\n"


def test_always_true_sites_are_the_tally_calls_with_a_condition():
    tree = ast.parse(TALLY_SNIPPET)
    found = [(line, col, label) for line, col, *_, label in mutate.tally_sites(tree)]
    # neither a method named tally nor a call without arguments
    assert found == [(1, 0, "tally -> True"), (3, 4, "tally -> True")]
    original = ast.unparse(tree)
    mutated = []
    for _, _, node, field, index, value, _ in mutate.tally_sites(tree):
        old = mutate._swap(node, field, index, value)
        mutated.append(ast.unparse(tree))
        mutate._swap(node, field, index, old)
        assert ast.unparse(tree) == original
    assert mutated == [
        "tally(True, 'x')\nif c:\n    tally(not d, 'y', e)\nt.tally(f)\ntally()",
        "tally(a == b, 'x')\nif c:\n    tally(True, 'y', e)\nt.tally(f)\ntally()",
    ]


FLOAT_SNIPPET = "tol = 1e-10\nx = 0.0 + 2.5 * n - 1\nz = (1j, 1e999, -0.5, 3)\n"


def test_float_sites_are_the_float_constants_that_x10_changes():
    tree = ast.parse(FLOAT_SNIPPET)
    found = [(line, col, label) for line, col, *_, label in mutate.float_sites(tree)]
    # neither 0.0 nor inf (1e999), which x10 leaves unchanged, nor a complex or int
    assert found == [(1, 6, "1e-10 -> 1e-09"), (2, 10, "2.5 -> 25.0"), (3, 17, "0.5 -> 5.0")]
    original = ast.unparse(tree)
    mutated = []
    for _, _, node, field, index, value, _ in mutate.float_sites(tree):
        old = mutate._swap(node, field, index, value)
        mutated.append(ast.unparse(tree))
        mutate._swap(node, field, index, old)
        assert ast.unparse(tree) == original
    assert mutated == [
        "tol = 1e-09\nx = 0.0 + 2.5 * n - 1\nz = (1j, 1e309, -0.5, 3)",
        "tol = 1e-10\nx = 0.0 + 25.0 * n - 1\nz = (1j, 1e309, -0.5, 3)",
        "tol = 1e-10\nx = 0.0 + 2.5 * n - 1\nz = (1j, 1e309, -5.0, 3)",
    ]
    # the float sites are not among the operator and int sites
    assert [label for *_, label in mutate.sites(tree)] == ["+ -> -", "* -> //", "- -> +",
                                                           "1 -> 2", "3 -> 4"]
