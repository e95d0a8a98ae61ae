"""Run a workload: the untimed set-up, the measured passes, and the metrics.

Closed loop, one client: each item starts when the previous one has been
checked. The end-to-end run never traces. The traced run alternates an
untraced and a traced execution of the same pass, so their ratio is the
tracing overhead, then runs a layer probe (see ``probe``).
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

import exact
from calls import Calls
from clock import Clock
from spans import Checks, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def make_workload(name: str):
    if name == "certify":
        import certify
        return certify.Certify()
    return {"trace-sweep": exact.TraceSweep, "state-corpus": exact.StateCorpus}[name]()


def execute(workload, items, calls, checks, tracer=None, outputs=None,
            clock=None) -> list:
    """Run one pass. Returns each item's time: wall seconds, or scaled by
    ``clock`` when one is given."""
    workload.begin_pass()
    if clock is not None:
        clock.scaled(0.0)
    times = []
    for item in items:
        t0 = perf_counter()
        if tracer is None:
            out = workload.run_item(calls, checks, item)
        else:
            tracer.item += 1
            i = tracer.begin("bench.item")
            out = workload.run_item(calls, checks, item)
            tracer.end(i)
        wall = perf_counter() - t0
        times.append(wall if clock is None else clock.scaled(wall))
        if outputs is not None and out is not None:
            outputs.append(out)
    return times


def warm_up(name: str) -> None:
    """Imports plus first use: operator normal forms and lazily built tables."""
    if name == "certify":
        import schwinger_su3.cli  # noqa: F401  (the CLI's import cost is set-up)
        from schwinger_su3.operators import sp2r_generator, su3_generator
        for alpha in range(1, 9):
            su3_generator(alpha).normal_form()
        for which in ("J0", "K1", "K2", "Kplus", "Kminus"):
            sp2r_generator(which).normal_form()
        return
    w = exact.TraceSweep(1, 1, 1) if name == "trace-sweep" else exact.StateCorpus(0)
    execute(w, w.make_pass(random.Random(0)), Calls(w.table), Checks())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def setup_times(name: str) -> list:
    """(scaled, wall) set-up seconds of SETUP_RUNS fresh interpreters, run one
    after another."""
    out = []
    for _ in range(SETUP_RUNS):
        r = subprocess.run([sys.executable, str(HERE / "setup_child.py"), name],
                           capture_output=True, text=True, cwd=ROOT, env=child_env(),
                           timeout=60, check=True)
        scaled, wall = r.stdout.split()[-2:]
        out.append((float(scaled), float(wall)))
    return out


def tail(values: list) -> tuple:
    """The highest percentile with at least 10 items beyond it: the 11th
    largest value, and which percentile that is. With 10 values or fewer no
    percentile qualifies, and the maximum is returned as the 100th."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Plan:
    """Items and checks a run must make, summed from the passes it started."""

    def __init__(self):
        self.items = 0
        self.checks = 0

    def add(self, workload, items) -> None:
        self.items += len(items)
        self.checks += workload.planned_checks(items)


def _verdict(checks, plan, items_done) -> dict:
    return {
        "checks_planned": plan.checks,
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        "failed_frac": checks.failed / checks.attempted if checks.attempted else 1.0,
        "items_planned": plan.items,
        "items_done": items_done,
        "first_failure": checks.first_failure,
        "threads": threading.active_count(),
        "correct": (checks.failed == 0 and checks.attempted == plan.checks
                    and items_done == plan.items and threading.active_count() == 1),
    }


def run_e2e(w, seed: int, seconds: float) -> tuple:
    """Untraced run of workload ``w``. Returns (end-to-end metrics, summary).

    Times are scaled by the reference computation (see clock.py): in-process
    items by the references around them, subprocesses by references sampled
    inside them. The summary keeps the wall times. Each item slot (its place
    in the pass, the same in every pass) takes the median of its scaled times
    over the run's passes; p50 and tail are over the slots. ``verify_s`` is
    the time of a cold pass: on the in-process workloads the run's first
    pass, which is also the process's first use of the library, so what a
    cache or table costs to fill shows there; on certify every ``verify``
    subprocess is cold, and the metric is their median.
    """
    setup = setup_times(w.name)
    rng = random.Random(seed)
    checks, plan = Checks(), Plan()
    by_slot: dict = {}
    pass_s, pass_wall = [], []
    items_done = 0
    t0 = perf_counter()
    if w.name == "certify":
        import certify
        cli = certify.cli_runner(ROOT, child_env())
        while not pass_s or perf_counter() - t0 < seconds:
            plan.items += 1 + 3 * w.repeats
            plan.checks += w.cli_planned_checks()
            verify_s, short = w.cli_pass(rng, cli, checks)
            pass_s.append(verify_s)
            items_done += 1 + len(short)
            for slot, t in short:
                by_slot.setdefault(slot, []).append(t)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        calls = Calls(w.table)
        clock = Clock()
        while not pass_s or perf_counter() - t0 < seconds:
            items = w.make_pass(rng)
            plan.add(w, items)
            t = perf_counter()
            times = execute(w, items, calls, checks, clock=clock)
            pass_wall.append(perf_counter() - t)
            pass_s.append(sum(times))
            items_done += len(times)
            for item, scaled in zip(items, times):
                by_slot.setdefault(w.slot(item), []).append(scaled)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [statistics.median(ts) for ts in by_slot.values()]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "verify_s": (statistics.median(pass_s) if w.name == "certify" else pass_s[0],
                     "s"),
    }
    summary = _verdict(checks, plan, items_done)
    summary.update({"passes": len(pass_s), "item_slots": len(latencies),
                    "item_tail_pct": tail_pct, "pass_s": pass_s,
                    "pass_wall_s": pass_wall, "setup_scaled_wall_s": setup})
    return metrics, summary


# -- traced run ------------------------------------------------------------------

# (metric, unit, span name, scale, per): the mean duration of the named spans,
# per span or, when `per` names a count, per counted operation. A duration
# includes child spans: a verify.* suite's numeric.* calls, say.
TIMED = [
    ("scalars.mul_rat_ns", "ns", "scalars.mul_rat", 1e9, "scalars.mul_rat.ops"),
    ("scalars.add_rat_ns", "ns", "scalars.add_rat", 1e9, "scalars.add_rat.ops"),
    ("scalars.mul_surd_ns", "ns", "scalars.mul_surd", 1e9, "scalars.mul_surd.ops"),
    ("poly.mul_ms", "ms", "poly.mul", 1e3, None),
    ("poly.bargmann_inner_us", "us", "poly.bargmann_inner", 1e6, None),
    ("operators.apply_real_ms", "ms", "operators.apply_real", 1e3, None),
    ("basis.traceless_project_ms", "ms", "basis.traceless_project", 1e3, None),
    ("basis.zw_cofactor_ms", "ms", "basis.zw_cofactor", 1e3, None),
    ("basis.basis_state_ms", "ms", "basis.basis_state", 1e3, None),
    ("basis.sp2r_casimir_check_ms", "ms", "basis.sp2r_casimir_check", 1e3, None),
    ("basis.kminus_kernel_dimension_ms", "ms", "basis.kminus_kernel_dimension", 1e3,
     None),
    *[(f"numeric.act_bargmann.p{p}q{q}_ms", "ms", f"numeric.act_bargmann.p{p}q{q}",
       1e3, None) for p in range(4) for q in range(4)],
    ("numeric.equivariance_defect_ms", "ms", "numeric.equivariance_defect", 1e3, None),
    ("numeric.haar_random_su3_us", "us", "numeric.haar_random_su3", 1e6, None),
    ("verify.build_states_s", "s", "verify.build_states", 1.0, None),
]
# The traced run fails when more than this share of its wall time is the
# self time of the bench.* spans: time that no library span accounts for
# (the benchmark's own checks, loops and tracing). On a 2-vCPU machine it
# measured 0.027 on trace-sweep, 0.024 on state-corpus and 0.001 on certify;
# the margin leaves room for a library several times faster than now.
MAX_UNSPANNED_FRAC = 0.25

COUNTED = ["poly.inner_pairs", "basis.project_calls", "basis.terms_in",
           "basis.terms_out"]


def _suite_metrics() -> list:
    import certify
    return [(f"verify.{s}_s", "s", f"verify.{s}", 1.0, None)
            for s in certify.SUITE_NAMES]


def probe(name: str, seed: int, tracer, checks, plan, outputs) -> int:
    """Traced calls into every layer, so each per-layer metric is measured on
    every workload. A layer metric is read from the workload's own passes when
    they call that layer, and from this probe only when they do not."""
    root = tracer.begin("bench.probe")
    import certify
    from schwinger_su3.operators import gell_mann

    rng = random.Random(seed + 7919)
    parts = [exact.TraceSweep(1, 2, 2), exact.StateCorpus(1), exact.KernelDimension()]
    if name != "certify":
        parts.append(certify.Certify())
    for w in parts:
        items = w.make_pass(rng)
        plan.add(w, items)
        execute(w, items, Calls(w.table, tracer), checks, tracer, outputs)
    # Qsqrt3 arithmetic on rational coefficients taken from workload outputs,
    # and on the lambda_8 entry 1/sqrt 3
    coeffs = [c for f in outputs for c in f.terms.values() if not c.surd][:512]
    pairs = list(zip(coeffs, coeffs[1:] + coeffs[:1]))
    reps = max(1, 20000 // len(pairs))
    lam8 = gell_mann().lambdas[7][0][0].re
    with tracer.span("scalars.mul_rat"):
        for _ in range(reps):
            for a, b in pairs:
                a * b
    with tracer.span("scalars.add_rat"):
        for _ in range(reps):
            for a, b in pairs:
                a + b
    with tracer.span("scalars.mul_surd"):
        for _ in range(reps):
            for a, b in pairs:
                a * lam8
    for op in ("mul_rat", "add_rat", "mul_surd"):
        tracer.counts[f"scalars.{op}.ops"] += reps * len(pairs)
    # fresh-interpreter import of the CLI against a bare interpreter
    env = child_env()
    for _ in range(3):
        for span, code in (("cli.bare", "pass"),
                           ("cli.import", "import schwinger_su3.cli")):
            with tracer.span(span):
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                               timeout=60, check=True, capture_output=True)
    tracer.end(root)
    return root


def run_traced(w, seed: int, seconds: float) -> tuple:
    """Traced run of workload ``w``. Returns (per-layer metrics, summary, tracer)."""
    warm_up(w.name)
    tracer = Tracer()
    plain = Calls(w.table)
    traced = Calls(w.table, tracer)
    rng = random.Random(seed)
    checks, plan = Checks(), Plan()
    outputs: list = []
    untraced_s = pass_wall = 0.0
    pass_roots: set = set()
    counts0 = None
    n = 0
    t0 = perf_counter()
    while n == 0 or perf_counter() - t0 < seconds:
        items = w.make_pass(rng)
        for is_traced in ((False, True) if n % 2 == 0 else (True, False)):
            plan.add(w, items)
            t = perf_counter()
            if is_traced:
                root = tracer.begin("bench.pass")
                execute(w, items, traced, checks, tracer, outputs if n == 0 else None)
                tracer.end(root)
                pass_wall += perf_counter() - t
                pass_roots.add(root)
                if counts0 is None:
                    counts0 = Counter(tracer.counts)
            else:
                execute(w, items, plain, checks)
                untraced_s += perf_counter() - t
        n += 1
    before = Counter(tracer.counts)
    t = perf_counter()
    probe_root = probe(w.name, seed, tracer, checks, plan, outputs)
    probe_wall = perf_counter() - t
    probe_counts = Counter(tracer.counts)
    probe_counts.subtract(before)

    in_pass = tracer.by_name(pass_roots)
    in_probe = tracer.by_name({probe_root})
    metrics = {}
    for metric, unit, span, scale, per in TIMED + _suite_metrics():
        from_pass = span in in_pass
        durations = (in_pass if from_pass else in_probe)[span][1]
        denom = (counts0 if from_pass else probe_counts)[per] if per else len(durations)
        metrics[metric] = (sum(durations) / denom * scale, unit)
    for count in COUNTED:
        metrics[count] = (counts0[count] or probe_counts[count], "count")
    if "basis.traceless_project" in in_pass:
        share = in_pass["basis.traceless_project"][0] / pass_wall
    else:
        share = in_probe["basis.traceless_project"][0] / probe_wall
    metrics["basis.traceless_project_share"] = (share, "frac")
    imports, bare = in_probe["cli.import"][1], in_probe["cli.bare"][1]
    metrics["cli.import_ms"] = ((statistics.median(imports) - statistics.median(bare))
                                * 1e3, "ms")
    metrics["trace_overhead_frac"] = (pass_wall / untraced_s - 1.0, "frac")
    traced_wall = pass_wall + probe_wall
    selfs = tracer.self_times()
    unspanned = sum(t for name, t in zip(tracer.names, selfs)
                    if name.startswith("bench.")) / traced_wall
    metrics["trace_unspanned_frac"] = (unspanned, "frac")
    summary = _verdict(checks, plan, plan.items)
    summary.update({"passes": n, "spans": len(tracer.names),
                    "traced_wall_s": traced_wall, "untraced_pass_s": untraced_s,
                    "self_time_sum_frac": sum(selfs) / traced_wall})
    summary["correct"] = summary["correct"] and unspanned <= MAX_UNSPANNED_FRAC
    return metrics, summary, tracer


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
