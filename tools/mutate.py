"""First-order mutation sweep of library modules, judged by verify and then by tests.

    python tools/mutate.py numeric scalars operators poly

For each named module of src/schwinger_su3 the sweep makes every mutant that
changes one site: + and - swapped, * and // swapped, < and <=, > and >= swapped,
== and != swapped (also in augmented assignments and chained comparisons), or
an integer constant raised by 1. Each mutant is the module's syntax tree with
that one change, written back as source into a temporary copy of the checkout
and run there in a fresh interpreter, one at a time.

Judge 1 runs a small verify.run_all; a mutant that fails a suite, raises or
runs over the time limit is killed. The mutants of a module that judge 1 does
not import (cli) cannot fail it and skip it. Judge 2 runs the module's own
test file, tests/test_<module>.py, on judge 1's survivors only, its tests
fastest first as timed on the unmutated module, so that -x stops at a fast
failing test. Neither judge is the whole of Tier-1, so a survivor of both may
still fail an acceptance test.

A module that calls tally(cond, ...), as verify does, also gets the
always-true mutants: each such call in turn with cond replaced by True. Judge 1
cannot fail these by construction, so their one judge is tests/test_mutants.py
with tests/test_verify.py, fastest first; a survivor is a check that no mutant
row or test can fail.

A module with float constants, such as the tolerances of verify and numeric,
also gets the float mutants: each float constant in turn times 10, skipping
one that x10 leaves unchanged (0.0). A tolerance raised tenfold passes every
check that the true one passes, so judge 1 cannot fail it; like the
always-true mutants, their one judge is tests/test_mutants.py with
tests/test_numeric.py, fastest first; a survivor is a constant that no mutant
row or test pins.

The result goes to MUTANTS.json at the root of the checkout: per module its
sites and who killed each, the kill counts of each judge and each survivor's
line, source and verdict, and the same under "always_true" and "float_x10"
for those mutants. Entries of modules not swept this time are kept, and a
survivor keeps the verdict and note it had in the file before, matched by
mutation and source text; a new survivor's verdict is "open", and a survivor
whose line is gone leaves the table with it. The other verdicts are written
by hand: "equivalent", "row added" or "check added".
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "MUTANTS.json"
JUDGE_1 = ("verify.run_all(max_pq=2, degree=2, samples=3, numeric_checks=True, "
           "numeric_samples=2)")
JUDGE_1_CODE = ("import sys\nfrom schwinger_su3 import verify\n"
                f"passed = all(s['passed'] for s in {JUDGE_1})\n"
                "print(*sys.modules)\nsys.exit(0 if passed else 1)\n")
# a mutant runs at most this many times as long as the unmutated judge, and at
# least MIN_TIMEOUT seconds, before it counts as killed by a hang
TIMEOUT_FACTOR = 10
MIN_TIMEOUT = 30.0

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
ALWAYS_TRUE_TESTS = ("tests/test_mutants.py", "tests/test_verify.py")
FLOAT_TESTS = ("tests/test_mutants.py", "tests/test_numeric.py")
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}


def sites(tree: ast.Module):
    """(line, col, node, field, index, replacement, label) for each first-order
    mutation of tree, in source order; index is None unless the field is a
    list. An operator's (line, col) is where its left operand ends, so that
    the two operators of a + b + c, or of a < b <= c, have their own sites."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            left = node.left if isinstance(node, ast.BinOp) else node.target
            found.append((left.end_lineno, left.end_col_offset, node, "op", None,
                          SWAPS[type(node.op)](), _label(node.op)))
        elif isinstance(node, ast.Compare):
            lefts = [node.left, *node.comparators]
            found += [(lefts[i].end_lineno, lefts[i].end_col_offset, node, "ops", i,
                       SWAPS[type(op)](), _label(op))
                      for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node.lineno, node.col_offset, node, "value", None, node.value + 1,
                          f"{node.value} -> {node.value + 1}"))
    return sorted(found, key=lambda s: s[:2])


def tally_sites(tree: ast.Module):
    """The always-true mutations of tree, in the form and order of sites: the
    first argument of each tally(...) call becomes True."""
    found = [(node.lineno, node.col_offset, node, "args", 0, ast.Constant(True), "tally -> True")
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "tally" and node.args]
    return sorted(found, key=lambda s: s[:2])


def float_sites(tree: ast.Module):
    """The x10 mutations of tree's float constants, in the form and order of
    sites; a constant that x10 leaves unchanged, such as 0.0, has none."""
    found = [(node.lineno, node.col_offset, node, "value", None, node.value * 10,
              f"{node.value!r} -> {node.value * 10!r}")
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and node.value * 10 != node.value]
    return sorted(found, key=lambda s: s[:2])


def _label(op: ast.AST) -> str:
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def _swap(node: ast.AST, field: str, index, value):
    """Put value into node.field (or node.field[index]); return what was there."""
    if index is None:
        old = getattr(node, field)
        setattr(node, field, value)
    else:
        old = getattr(node, field)[index]
        getattr(node, field)[index] = value
    return old


def run(cmd, cwd: Path, timeout: float) -> tuple[bool, float]:
    """(passed, seconds) of cmd in a fresh interpreter on cwd's copy of src."""
    start = time.perf_counter()
    try:
        rc = _python(cmd, cwd, timeout=timeout, stdout=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return False, timeout
    return rc == 0, time.perf_counter() - start


def _python(cmd, cwd: Path, **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(cwd / "src")}
    # -B: a mutant of the same size and mtime must not reuse a stale .pyc
    return subprocess.run([sys.executable, "-B", *cmd], cwd=cwd, env=env,
                          stderr=subprocess.DEVNULL, text=True, **kwargs)


def fastest_first(files, cwd: Path) -> list:
    """The test ids of files, fastest first as one run on cwd times them
    (setup, call and teardown), ties in file order."""
    ids = [line for line in _python([*PYTEST, "--collect-only", *files], cwd,
                                    stdout=subprocess.PIPE).stdout.splitlines()
           if "::" in line]
    out = _python([*PYTEST, "--durations=0", "--durations-min=0", *files], cwd,
                  stdout=subprocess.PIPE).stdout
    seconds = dict.fromkeys(ids, 0.0)
    for line in out.splitlines():
        match = re.fullmatch(r"([0-9.]+)s (?:setup|call|teardown) +(.+)", line)
        if match and match[2] in seconds:
            seconds[match[2]] += float(match[1])
    return sorted(ids, key=seconds.__getitem__)


def sweep(module: str, copy: Path, verdicts: dict) -> dict:
    path = copy / "src" / "schwinger_su3" / f"{module}.py"
    original = path.read_text()
    tree = ast.parse(original)
    path.write_text(ast.unparse(tree))  # the judges must pass the unmutated round trip
    loaded = _python(["-c", JUDGE_1_CODE], copy, stdout=subprocess.PIPE).stdout.split()
    judges = [("judge 1", ["-c", JUDGE_1_CODE])] if f"schwinger_su3.{module}" in loaded else []
    judges.append(("judge 2", [*PYTEST, "-x", *fastest_first([f"tests/test_{module}.py"], copy)]))
    lines = original.splitlines()
    outcomes, survivors = _judge(module, copy, tree, lines, sites(tree), judges, verdicts)
    kills = [sum(f": judge {j}" in o for o in outcomes) for j in (1, 2)]
    entry = {"lines": len(lines), "mutants": len(outcomes),
             "killed_by_judge_1": kills[0], "killed_by_judge_2": kills[1],
             "survivors": survivors, "sites": outcomes}
    for key, todo, files in (("always_true", tally_sites(tree), ALWAYS_TRUE_TESTS),
                             ("float_x10", float_sites(tree), FLOAT_TESTS)):
        if todo:
            judges = [("tests", [*PYTEST, "-x", *fastest_first(files, copy)])]
            outcomes, survivors = _judge(module, copy, tree, lines, todo, judges, verdicts)
            entry[key] = {"mutants": len(outcomes), "killed": len(outcomes) - len(survivors),
                          "survivors": survivors, "sites": outcomes}
    path.write_text(original)
    return entry


def _judge(module: str, copy: Path, tree: ast.Module, lines, todo, judges, verdicts):
    """(outcomes, survivors): each mutation of todo written into copy's module
    in turn and run by the named judges in order until one kills it; lines are
    the module's source, which a survivor quotes."""
    path = copy / "src" / "schwinger_su3" / f"{module}.py"
    limits = []
    for name, cmd in judges:
        ok, seconds = run(cmd, copy, timeout=3600)
        if not ok:
            raise SystemExit(f"{module}: the unmutated module fails {name}")
        limits.append(max(TIMEOUT_FACTOR * seconds, MIN_TIMEOUT))
    outcomes, survivors = [], []
    for k, (line, col, node, field, index, value, label) in enumerate(todo, 1):
        old = _swap(node, field, index, value)
        path.write_text(ast.unparse(tree))
        _swap(node, field, index, old)
        for (name, cmd), limit in zip(judges, limits):
            ok, seconds = run(cmd, copy, limit)
            if not ok:
                outcome = name + (" (timeout)" if seconds >= limit else "")
                break
        else:
            outcome = "survived"
            source = lines[line - 1].strip()
            verdict, note = verdicts.get((module, label, source), ("open", ""))
            survivors.append({"line": line, "mutation": label, "source": source,
                              "verdict": verdict, **({"note": note} if note else {})})
        outcomes.append(f"{line}:{col} {label}: {outcome}")
        print(f"{module} {k}/{len(todo)} {outcomes[-1]}", file=sys.stderr)
    path.write_text(ast.unparse(tree))
    return outcomes, survivors


def main(argv) -> int:
    modules = argv[1:]
    known = {p.stem for p in (ROOT / "src" / "schwinger_su3").glob("*.py")}
    if not modules or not set(modules) <= known:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print(f"modules: {' '.join(sorted(known))}", file=sys.stderr)
        return 2
    doc = json.loads(OUT.read_text()) if OUT.exists() else {"modules": {}}
    verdicts = {(name, s["mutation"], s["source"]): (s["verdict"], s.get("note", ""))
                for name, entry in doc["modules"].items()
                for s in entry["survivors"] + [t for key in ("always_true", "float_x10")
                                               for t in entry.get(key, {}).get("survivors", [])]}
    doc["judges"] = {"1": f"{JUDGE_1}, on the modules it imports",
                     "2": "tests/test_<module>.py, fastest first, on judge 1's survivors",
                     "always_true": " with ".join(ALWAYS_TRUE_TESTS),
                     "float_x10": " with ".join(FLOAT_TESTS)}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for module in modules:
            doc["modules"][module] = sweep(module, copy, verdicts)
    doc["modules"] = dict(sorted(doc["modules"].items()))
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
