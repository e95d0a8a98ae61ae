"""The certify workload: the user-facing CLI run as sequential subprocesses.

One pass is ``verify --numeric`` followed by ``repeats`` batches of short
invocations (``dim 1 1``, one ``state``, one ``project`` on stdin). The
traced run cannot see inside a subprocess, so it calls ``verify.run_all``
in-process with the same arguments (``Certify.make_pass`` / ``run_item``),
while ``library_spans`` records a span around each suite and numeric call.
"""

from __future__ import annotations

import json
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from schwinger_su3 import numeric, verify
from schwinger_su3.basis import (
    ZW,
    lower_norm_ratio,
    predicted_hw_norm_sq,
    raise_norm_ratio,
    zw_cofactor,
)
from schwinger_su3.poly import bargmann_inner, poly_from_records, poly_to_json

import inputs
from exact import KMINUS

PROJ_TOL = 1e-10
REP_TOL = 1e-9
CLI_TIMEOUT_S = 150.0

# the suites ``verify.run_all(..., numeric_checks=True)`` must return
SUITE_NAMES = (
    "basis_orthonormality", "casimir", "cg_counting", "cn_dual_route",
    "equivalence_isometry", "induced_oracle", "kernel_dimension",
    "kminus_annihilation", "mutual_commutant", "numeric_equivariance",
    "sp2r_relations", "su3_closure", "trace_projector",
)

TABLE = {"verify.run_all": verify.run_all}


def _act_span(f) -> str:
    """``numeric.act_bargmann.p{p}q{q}``, from the bidegree of the input."""
    for m in f:
        return f"numeric.act_bargmann.p{sum(m[:3])}q{sum(m[3:])}"
    return "numeric.act_bargmann.zero"


@contextmanager
def library_spans(tracer):
    """While open, the module attributes that ``verify.run_all`` looks up
    (``verify.build_states``, ``verify.suite_*`` and the three ``numeric``
    functions of the numeric suite) are span-recording wrappers of the
    library's own functions. A no-op when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    targets = [(verify, "build_states", "verify.build_states")]
    targets += [(verify, f"suite_{name}", f"verify.{name}") for name in SUITE_NAMES]
    targets += [(numeric, fn, f"numeric.{fn}")
                for fn in ("haar_random_su3", "equivariance_defect", "act_bargmann")]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]

    def wrap(fn, span):
        def traced(*args, **kwargs):
            name = _act_span(args[1]) if span == "numeric.act_bargmann" else span
            with tracer.span(name):
                return fn(*args, **kwargs)
        return traced

    try:
        for (module, attr, span), (_, _, fn) in zip(targets, saved):
            setattr(module, attr, wrap(fn, span))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


class Certify:
    name = "certify"
    table = TABLE

    def __init__(self, max_pq: int = 1, degree: int = 2, samples: int = 2,
                 numeric_samples: int = 6, repeats: int = 2):
        self.max_pq = max_pq
        self.degree = degree
        self.samples = samples
        self.numeric_samples = numeric_samples
        self.repeats = repeats

    # -- in-process form (traced run and layer probe) --------------------------

    def make_pass(self, rng) -> list:
        return [{"max_pq": self.max_pq, "degree": self.degree, "samples": self.samples,
                 "seed": rng.randrange(1 << 16), "numeric_checks": True,
                 "numeric_samples": self.numeric_samples}]

    def planned_checks(self, items) -> int:
        return len(items) * SUITE_CHECKS

    def begin_pass(self) -> None:
        pass

    def run_item(self, calls, checks, kwargs):
        with library_spans(calls.tracer):
            suites = calls("verify.run_all", **kwargs)
        _check_suites(checks, suites)
        return None

    # -- CLI form (end-to-end run) ----------------------------------------------

    def verify_argv(self, seed: int) -> list:
        return ["verify", "--max-pq", str(self.max_pq), "--degree", str(self.degree),
                "--samples", str(self.samples), "--seed", str(seed), "--numeric",
                "--numeric-samples", str(self.numeric_samples)]

    def cli_planned_checks(self) -> int:
        # verify: exit code, pass and the suites; each batch: dim (2), state (3),
        # project (3)
        return 2 + SUITE_CHECKS + 8 * self.repeats

    def cli_pass(self, rng, cli, checks) -> tuple:
        """One pass through the CLI. ``cli(argv, stdin)`` runs one subprocess and
        returns (its time, CompletedProcess). Returns the verify time and
        (command, time) of each short invocation; the command is its slot."""
        keys = [key for g in inputs.basis_key_groups(2, 1) for key in g]
        seed = rng.randrange(1 << 16)
        verify_s, r = cli(self.verify_argv(seed), None)
        self._check_verify(checks, r)
        short = []
        for _ in range(self.repeats):
            wall, r = cli(["dim", "1", "1"], None)
            short.append(("dim", wall))
            checks(r.returncode == 0, "dim exit code", r.returncode)
            checks(r.stdout.strip() == "8", "dim 1 1", r.stdout)
            key = rng.choice(keys)
            w = key.weight
            wall, r = cli(["state", str(key.rep.p), str(key.rep.q), f"--I={w.I2}/2",
                           f"--M={w.M2}/2", f"--Y={w.Y3}/3", f"--m={key.m2}/2",
                           "--json"], None)
            short.append(("state", wall))
            self._check_state(checks, r, key)
            f = inputs.random_poly(2, 2, rng)
            wall, r = cli(["project"], poly_to_json(f))
            short.append(("project", wall))
            self._check_project(checks, r, f)
        return verify_s, short

    def _check_verify(self, checks, r) -> None:
        checks(r.returncode == 0, "verify exit code", r.returncode)
        doc = _json(r.stdout) or {}
        checks(doc.get("pass") is True, "verify pass")
        _check_suites(checks, doc.get("suites", []))

    def _check_state(self, checks, r, key) -> None:
        checks(r.returncode == 0, "state exit code", r.returncode)
        doc = _json(r.stdout) or {}
        try:
            f = poly_from_records(doc["terms"])
            norm_sq = Fraction(int(doc["norm_sq"]["num"]), int(doc["norm_sq"]["den"]))
            echoed = doc["key"]
        except (KeyError, TypeError, ValueError):
            f, norm_sq, echoed = None, None, {}
        rep, w = key.rep, key.weight
        predicted = (predicted_hw_norm_sq(rep.p, rep.q, w.r, w.s)
                     * raise_norm_ratio(rep, key.m2) * lower_norm_ratio(w.I2, w.M2))
        want = {"p": rep.p, "q": rep.q, "I2": w.I2, "M2": w.M2, "Y3": w.Y3,
                "m2": key.m2}
        checks(echoed == want and norm_sq == predicted, "state closed-form norm", key)
        checks(f is not None and bargmann_inner(f, f) == norm_sq, "state norm", key)

    def _check_project(self, checks, r, f) -> None:
        checks(r.returncode == 0, "project exit code", r.returncode)
        try:
            f0 = poly_from_records(_json(r.stdout))
        except (KeyError, TypeError, ValueError):
            f0 = None
        checks(f0 is not None and not KMINUS.apply_real(f0), "project: K- f0 == 0")
        checks(f0 is not None and f - f0 == ZW * zw_cofactor(f), "project: f - f0 == ZW g")


# suite list, each suite passed, and the two numeric defects
SUITE_CHECKS = 1 + len(SUITE_NAMES) + 2


def _check_suites(checks, suite_list) -> None:
    """The suites are exactly SUITE_NAMES, each passed, and the numeric
    defects are within the acceptance tolerances."""
    suites = {s.get("name"): s for s in suite_list}
    checks(sorted(suites) == list(SUITE_NAMES) and len(suite_list) == len(SUITE_NAMES),
           "suite list", sorted(suites))
    for name in SUITE_NAMES:
        checks(suites.get(name, {}).get("passed") is True, "suite", name)
    num = suites.get("numeric_equivariance", {})
    checks(num.get("max_projection_defect", 1.0) <= PROJ_TOL, "projection defect",
           num.get("max_projection_defect"))
    checks(num.get("max_representation_defect", 1.0) <= REP_TOL,
           "representation defect", num.get("max_representation_defect"))


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def cli_runner(root, env):
    """Run ``python -m schwinger_su3.cli <argv>`` from the checkout root,
    through cli_child.py; returns (scaled seconds, CompletedProcess)."""
    child = str(Path(__file__).resolve().parent / "cli_child.py")

    def run(argv, stdin):
        t0 = perf_counter()
        r = subprocess.run([sys.executable, child, *argv], input=stdin,
                           capture_output=True, text=True, cwd=root, env=env,
                           timeout=CLI_TIMEOUT_S)
        wall = perf_counter() - t0
        timing = _json(r.stderr.splitlines()[-1]) if r.stderr else None
        # a child that died before timing itself is caught by the exit-code check
        return (timing or {}).get("scaled_s", wall), r
    return run
