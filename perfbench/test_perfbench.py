"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import certify  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "trace-sweep": lambda: exact.TraceSweep(1, 2, 2),
    "state-corpus": lambda: exact.StateCorpus(1),
    "certify": lambda: certify.Certify(max_pq=0, degree=1, samples=1,
                                       numeric_samples=1, repeats=1),
}


def _units(spec_list):
    return {m["name"]: m["unit"] for m in spec_list}


def _emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workload_names_match_spec():
    for spec in SPEC["workloads"]:
        assert runner.make_workload(spec["name"]).name == spec["name"]


def test_tiny_runs_emit_every_metric_with_its_unit():
    for name, make in TINY.items():
        metrics, summary = runner.run_e2e(make(), seed=3, seconds=0)
        assert summary["correct"], (name, summary)
        assert _emitted(metrics) == _units(SPEC["end_to_end"]), name
        assert all(v > 0 for v, _ in metrics.values()), (name, metrics)
        metrics, summary, _ = runner.run_traced(make(), seed=3, seconds=0)
        assert summary["correct"], (name, summary)
        assert _emitted(metrics) == _units(SPEC["per_layer"]), name


def test_result_line_has_exactly_four_keys(capsys):
    code = run.main(["--workload", "trace-sweep", "--seed", "2", "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(_units(SPEC["end_to_end"]))
    env = json.loads(lines[-2])["summary"]["env"]
    assert {"commit", "python", "numpy", "nproc"} <= set(env)


def test_planned_counts_are_exact():
    w = exact.TraceSweep(1, 1, 1)  # (0,0), (0,1), (1,0): 3 checks; (1,1): 4
    _, summary = runner.run_e2e(w, seed=0, seconds=0)
    assert summary["passes"] == 1
    assert summary["checks_planned"] == summary["checks_attempted"] == 13
    assert summary["items_planned"] == summary["items_done"] == 4


def test_broken_projector_drives_failed_frac_above_zero():
    for make in (TINY["trace-sweep"], TINY["state-corpus"]):
        w = make()
        w.table = dict(exact.TABLE, **{"basis.traceless_project": lambda f: f})
        _, summary = runner.run_e2e(w, seed=4, seconds=0)
        assert summary["failed_frac"] > 0
        assert not summary["correct"]
        # a failing check still counts: the plan holds
        assert summary["checks_attempted"] == summary["checks_planned"]


def test_traced_certify_suites_are_run_alls_suites():
    from schwinger_su3 import verify

    w = TINY["certify"]()
    _, _, tracer = runner.run_traced(w, seed=5, seconds=0)
    names, roots = tracer.names, tracer.roots()
    traced = {name.split(".", 1)[1] for name in names
              if name.startswith("verify.")} - {"build_states", "run_all"}
    suites = verify.run_all(max_pq=0, degree=1, samples=1, numeric_checks=True,
                            numeric_samples=1)
    assert traced == {s["name"] for s in suites} == set(certify.SUITE_NAMES)
    # the library's own functions are back in place after the traced pass
    assert verify.suite_casimir.__module__ == "schwinger_su3.verify"
    # numeric spans of the pass nest in the numeric suite, one name per bidegree
    suite = names.index("verify.numeric_equivariance")
    acts = [i for i, name in enumerate(names)
            if name.startswith("numeric.act_bargmann.") and roots[i] == roots[suite]]
    assert all(names[tracer.parents[i]].startswith(
        ("verify.numeric_equivariance", "numeric.")) for i in acts)
    bidegrees = {names[i].rsplit(".", 1)[1] for i in acts}
    assert bidegrees == {f"p{p}q{q}" for p in range(4) for q in range(4)}


def test_unspanned_time_fails_the_traced_run():
    w = exact.TraceSweep(1, 1, 1)
    run_item = w.run_item

    def slow_item(calls, checks, item):
        time.sleep(1.5)  # work in no library span
        return run_item(calls, checks, item)

    w.run_item = slow_item
    metrics, summary, _ = runner.run_traced(w, seed=7, seconds=0)
    assert metrics["trace_unspanned_frac"][0] > runner.MAX_UNSPANNED_FRAC
    assert not summary["correct"]


def test_same_seed_same_inputs():
    a = exact.TraceSweep(1, 2, 2).make_pass(random.Random(8))
    b = exact.TraceSweep(1, 2, 2).make_pass(random.Random(8))
    assert a == b


def test_tail_is_eleventh_largest():
    values = list(range(100))
    assert runner.tail(values) == (89, 90.0)
    assert runner.tail([3, 1, 2]) == (3, 100.0)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout == ""
