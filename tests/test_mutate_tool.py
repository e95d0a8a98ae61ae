"""tools/mutate.py's site enumeration, on which the counts in MUTANTS.json rest:
one site per swappable operator and per int constant, in source order, one
always-true site per tally call with a condition, and a swap that the sweep
can undo."""

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
