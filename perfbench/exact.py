"""The two in-process exact workloads, trace-sweep and state-corpus.

A workload turns the run's random stream into passes of items
(``make_pass``), says how many checks a pass must make (``planned_checks``)
and runs one item through its call table (``run_item``). ``slot`` names an
item's place in the pass, the same in every pass of a run, so a run can keep
each slot's median time. Every check is an exact ``==`` identity.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from schwinger_su3 import basis, poly
from schwinger_su3.basis import (
    ZW,
    lower_norm_ratio,
    predicted_hw_norm_sq,
    raise_norm_ratio,
)
from schwinger_su3.catalog import IrrepLabel, dim, k_of
from schwinger_su3.operators import sp2r_generator

import inputs

KMINUS = sp2r_generator("Kminus")
KPLUS = sp2r_generator("Kplus")
EXTRA_M_LEVELS = 2


def _apply_real(op, f):
    return op.apply_real(f)


TABLE = {
    "basis.traceless_project": basis.traceless_project,
    "basis.zw_cofactor": basis.zw_cofactor,
    "basis.basis_state": basis.basis_state,
    "basis.sp2r_casimir_check": basis.sp2r_casimir_check,
    "basis.kminus_kernel_dimension": basis.kminus_kernel_dimension,
    "poly.mul": operator.mul,
    "poly.bargmann_inner": poly.bargmann_inner,
    "operators.apply_real": _apply_real,
}


class TraceSweep:
    """Random dense polynomials, ``per_bidegree`` of them for every bidegree
    (p, q) <= (max_p, max_q) in each pass, in shuffled order."""

    name = "trace-sweep"
    table = TABLE

    def __init__(self, per_bidegree: int = 4, max_p: int = 4, max_q: int = 4):
        self.per_bidegree = per_bidegree
        self.max_p = max_p
        self.max_q = max_q

    def make_pass(self, rng) -> list:
        items = []
        for p in range(self.max_p + 1):
            for q in range(self.max_q + 1):
                for j in range(self.per_bidegree):
                    f = inputs.random_poly(p, q, rng)
                    g = inputs.random_poly(p - 1, q - 1, rng) if p and q else None
                    items.append((p, q, j, f, g))
        rng.shuffle(items)
        return items

    def planned_checks(self, items) -> int:
        return sum(3 + (item[4] is not None) for item in items)

    def slot(self, item):
        return item[:3]

    def begin_pass(self) -> None:
        pass

    def run_item(self, calls, checks, item):
        p, q, _, f, g = item
        f0 = calls("basis.traceless_project", f)
        checks(not calls("operators.apply_real", KMINUS, f0), "K- f0 == 0", p, q)
        checks(calls("basis.traceless_project", f0) == f0, "idempotence", p, q)
        cof = calls("basis.zw_cofactor", f)
        checks(f - f0 == calls("poly.mul", ZW, cof), "f - f0 == ZW g", p, q)
        if g is not None:
            zg = calls("poly.mul", ZW, g)
            checks(not calls("basis.traceless_project", zg), "ZW g' projects to 0", p, q)
        return f0


def _rho(key) -> int:
    return (key.m2 - k_of(key.rep)) // 2


class StateCorpus:
    """Every basis key with p + q <= max_pq and m = k .. k + EXTRA_M_LEVELS.
    The seed shuffles the (irrep, weight) groups once per run; within a group
    m ascends, so the m = k state is built before the raised states peel back
    to it. Every pass runs the corpus in that order."""

    name = "state-corpus"
    table = TABLE

    def __init__(self, max_pq: int = 3):
        self.max_pq = max_pq
        self._order = None
        self._earlier: list = []
        self._base: dict = {}

    def make_pass(self, rng) -> list:
        if self._order is None:
            groups = inputs.basis_key_groups(self.max_pq, EXTRA_M_LEVELS)
            rng.shuffle(groups)
            self._order = [key for group in groups for key in group]
        return list(self._order)

    def planned_checks(self, items) -> int:
        total = 0
        for i, key in enumerate(items):
            rho = _rho(key)
            total += 4 + (2 * rho + 1 if rho else 1) + i
        return total

    def slot(self, key):
        return key

    def begin_pass(self) -> None:
        self._earlier = []
        self._base = {}

    def run_item(self, calls, checks, key):
        rep, w = key.rep, key.weight
        k2 = k_of(rep)
        rho = _rho(key)
        st = calls("basis.basis_state", key)
        f = st.poly
        checks(calls("poly.bargmann_inner", f, f) == st.norm_sq, "norm", key)
        predicted = (
            predicted_hw_norm_sq(rep.p, rep.q, w.r, w.s)
            * raise_norm_ratio(rep, key.m2)
            * lower_norm_ratio(w.I2, w.M2)
        )
        checks(st.norm_sq == predicted, "closed-form norm", key)
        checks(calls("basis.sp2r_casimir_check", st), "Casimir", key)
        # K+^rho K-^rho acts as (m-k)! (m+k-1)! / (2k-1)!
        g = f
        for _ in range(rho):
            g = calls("operators.apply_real", KMINUS, g)
        for _ in range(rho):
            g = calls("operators.apply_real", KPLUS, g)
        eig = Fraction(math.factorial(rho) * math.factorial(rho + k2 - 1),
                       math.factorial(k2 - 1))
        checks(g == f.scale(eig), "K+^rho K-^rho eigenvalue", key)
        if rho == 0:
            checks(not calls("operators.apply_real", KMINUS, f), "K- annihilation", key)
            self._base[(rep, w)] = f
        else:
            g = f
            for _ in range(rho):
                f0 = calls("basis.traceless_project", g)
                checks(not f0, "peel: trace-free part 0", key)
                cof = calls("basis.zw_cofactor", g)
                checks(calls("poly.mul", ZW, cof) == g, "peel: ZW cofactor", key)
                g = cof
            checks(g == self._base[(rep, w)], "peel reaches m = k", key)
        for other in self._earlier:
            checks(not calls("poly.bargmann_inner", f, other), "orthogonality", key)
        self._earlier.append(f)
        return f


class KernelDimension:
    """dim ker K- on bidegree (p, q) equals d(p, q); used by the layer probe."""

    name = "kernel-dimension"
    table = TABLE

    def __init__(self, max_p: int = 3, max_q: int = 3):
        self.max_p = max_p
        self.max_q = max_q

    def make_pass(self, rng) -> list:
        return [(p, q) for p in range(self.max_p + 1) for q in range(self.max_q + 1)]

    def planned_checks(self, items) -> int:
        return len(items)

    def begin_pass(self) -> None:
        pass

    def run_item(self, calls, checks, item):
        p, q = item
        got = calls("basis.kminus_kernel_dimension", p, q)
        checks(got == dim(IrrepLabel(p, q)), "kernel dimension", p, q)
        return None
