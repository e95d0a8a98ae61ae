"""The verify suites' own contract: a suite that checks nothing fails, and a
suite fed one wrong fact fails and names a witness."""

import dataclasses
import math
from fractions import Fraction

import pytest

from schwinger_su3 import basis, catalog, induced, numeric, poly, verify
from schwinger_su3.operators import (
    GellMannTable,
    OperatorExpr,
    commutator_defect,
    gell_mann,
    sp2r_generator,
)
from schwinger_su3.scalars import CScalar, Qsqrt3


@pytest.mark.parametrize("run", [
    pytest.param(lambda: verify.suite_trace_projector(samples=0), id="trace_projector"),
    pytest.param(lambda: verify.suite_equivalence_isometry(samples=0),
                 id="equivalence_isometry"),
    pytest.param(lambda: verify.suite_numeric_equivariance(samples=0),
                 id="numeric_equivariance"),
    pytest.param(lambda: verify.suite_kernel_dimension(max_p=-1), id="kernel_dimension"),
    pytest.param(lambda: verify.suite_cn_dual_route(max_pq=-1), id="cn_dual_route"),
    pytest.param(lambda: verify.suite_cg_counting(-1, -1), id="cg_counting"),
    pytest.param(lambda: verify.suite_basis_orthonormality(max_pq=-1, states=[]),
                 id="basis_orthonormality"),
    pytest.param(lambda: verify.suite_kminus_annihilation(states=[]),
                 id="kminus_annihilation"),
    pytest.param(lambda: verify.suite_casimir(states=[]), id="casimir"),
    pytest.param(lambda: verify.suite_su3_closure(0), id="su3_closure"),
])
def test_suite_that_checks_nothing_fails(run):
    result = run()
    assert result["passed"] is False and result["checks"] == 0


def test_closure_suite_names_a_flipped_structure_constant(monkeypatch):
    original = GellMannTable.f

    def flipped(self, a, b, c):
        f = original(self, a, b, c)
        return -f if (a, b, c) == (1, 2, 3) else f

    monkeypatch.setattr(GellMannTable, "f", flipped)
    result = verify.suite_su3_closure(1)
    # the pair (1, 2) fails once in each of the sectors a, b and total
    assert result["passed"] is False
    assert result["failures"] == 3 and result["first_failure"] == "a 1 2"


def test_sp2r_suite_fails_on_a_wrong_j0_constant(monkeypatch):
    assert verify.suite_sp2r_relations(1)["passed"] is True
    original = verify.sp2r_generator

    def shifted(which):
        # J0 with the constant 1 in place of 3/2
        g = original(which)
        return g - OperatorExpr.identity(Fraction(1, 2)) if which == "J0" else g

    monkeypatch.setattr(verify, "sp2r_generator", shifted)
    result = verify.suite_sp2r_relations(1)
    # [K1, K2] = -i J0 and [K+, K-] = -2 J0 see the constant
    assert result["passed"] is False
    assert result["failures"] == 2 and result["first_failure"] == "K1 K2"
    # the constant shows already at degree 0, unlike any su(3) relation
    kp, km = sp2r_generator("Kplus"), sp2r_generator("Kminus")
    assert commutator_defect(kp, km, shifted("J0").scale(-2), 0)


def test_orthonormality_suite_fails_on_a_wrong_norm_constant(monkeypatch):
    states = verify.build_states(1)
    assert verify.suite_basis_orthonormality(1, states=states)["passed"] is True
    original = basis.hw_norm_constant_sq

    def doubled(p, q, r, s):
        n2 = original(p, q, r, s)
        return 2 * n2 if r + s else n2

    monkeypatch.setattr(basis, "hw_norm_constant_sq", doubled)
    result = verify.suite_basis_orthonormality(1, states=states)
    # every state with r + s > 0 misses its closed-form norm
    assert result["passed"] is False and result["failures"] == 12
    assert result["first_failure"].startswith("closed-form norm")


def test_induced_oracle_fails_on_a_wrong_moment_factorial(monkeypatch):
    def moment(holo, anti):
        # (|a|+1)! in place of (|a|+2)! in the denominator
        if tuple(holo) != tuple(anti):
            return Fraction(0)
        return Fraction(math.prod(map(math.factorial, holo)),
                        math.factorial(sum(holo) + 1))

    # the direct route reads it in induced, the anchors in verify
    monkeypatch.setattr(induced, "sphere_monomial_integral", moment)
    monkeypatch.setattr(verify, "sphere_monomial_integral", moment)
    result = verify.suite_induced_oracle(max_total=2, max_anchor_total=2)
    assert result["passed"] is False and result["failures"] == 42
    assert result["first_failure"] == "volume"


@pytest.fixture
def uncached_gell_mann():
    # the table is built once and cached, so a table built under a patch must
    # not leak in or out
    gell_mann.cache_clear()
    yield
    gell_mann.cache_clear()


@pytest.mark.parametrize("field, square, first_failures", [
    pytest.param(Qsqrt3, 2, {"su3_closure": "a 4 5"}, id="sqrt3-squares-to-2"),
    pytest.param(CScalar, 1, {"su3_closure": "a 1 3", "sp2r_relations": "J0 K1"},
                 id="i-squares-to-1"),
])
def test_suites_fail_on_a_wrong_field_constant(uncached_gell_mann, monkeypatch,
                                                field, square, first_failures):
    monkeypatch.setattr(field, "SQUARE", square)
    for name, first in first_failures.items():
        result = getattr(verify, f"suite_{name}")(1)
        assert result["passed"] is False and result["first_failure"] == first


def test_closure_suite_fails_on_a_negated_lambda(uncached_gell_mann, monkeypatch):
    class NegatedLambda5:
        # lambda_5 negated as the table stores it, before anything reads it
        def __get__(self, table, owner):
            return table.__dict__["lambdas"]

        def __set__(self, table, lambdas):
            table.__dict__["lambdas"] = [
                [[-c for c in row] for row in lam] if j == 4 else lam
                for j, lam in enumerate(lambdas)
            ]

    monkeypatch.setattr(GellMannTable, "lambdas", NegatedLambda5(), raising=False)
    result = verify.suite_su3_closure(1)
    # the f_abc come from the standard table, not from the lambdas, so each of
    # the 11 relations per sector with Q5 on either side fails
    assert result["passed"] is False and result["failures"] == 33
    assert result["first_failure"] == "a 1 5"


def test_cn_suite_fails_on_a_dropped_sign(monkeypatch):
    # the closed form without its (-1)^n; C_0 = 1 still holds
    original = verify.cn_coeffs
    monkeypatch.setattr(verify, "cn_coeffs", lambda *pqrs: [abs(c) for c in original(*pqrs)])
    result = verify.suite_cn_dual_route(2)
    assert result["passed"] is False and result["first_failure"] == "1 1 0 0"


def test_casimir_suite_fails_on_a_flipped_hypercharge(monkeypatch):
    original = catalog.weight_from_rs

    def flipped(rep, r, s, M2=None):
        w = original(rep, r, s, M2=M2)
        return dataclasses.replace(w, Y3=-w.Y3)

    monkeypatch.setattr(catalog, "weight_from_rs", flipped)
    result = verify.suite_casimir(1)
    # every m = k state but the Y = 0 vacuum carries the wrong Q8 eigenvalue
    assert result["passed"] is False and result["failures"] == 6
    assert result["first_failure"].startswith("Q8 ")


def test_kernel_dimension_suite_fails_on_a_rank_one_short(monkeypatch):
    # an elimination that loses one pivot on every matrix of two or more rows;
    # K- is ranked one U(1)^3 charge block at a time, every block up to (2, 1)
    # has at most one row, and the charge-0 block of (2, 2), with targets
    # z_j w_j, is the first with several
    original = basis.rational_rank
    monkeypatch.setattr(basis, "rational_rank", lambda rows: original(rows) - (len(rows) > 1))
    result = verify.suite_kernel_dimension(2, 2)
    assert result["passed"] is False and result["first_failure"] == "2 2"


def _trace_weight_one_larger(n):
    """basis's trace_free_terms with A_n one larger: D g gains
    (z.w)^(n-1) K-^n f, so D f0 loses (z.w)^n K-^n f; only bidegrees with
    min(p, q) >= n see it."""
    def patched(terms, p, q):
        out, den = poly.trace_free_terms(terms, p, q)
        lost = terms
        for step in (poly.kminus_terms, poly.zw_mul_terms):
            for _ in range(n):
                lost = step(lost)
        for m, c in lost.items():
            out[m] = out.get(m, 0) - c
        return {m: c for m, c in out.items() if c}, den
    return patched


def test_kminus_suite_fails_on_a_wrong_trace_weight(monkeypatch):
    monkeypatch.setattr(basis, "trace_free_terms", _trace_weight_one_larger(2))
    result = verify.suite_kminus_annihilation(max_pq=4)
    assert result["passed"] is False
    assert result["checks"] == 546 and result["failures"] == 184
    assert result["first_failure"].startswith("K- image ")


def test_trace_projector_suite_fails_on_a_wrong_trace_weight(monkeypatch):
    monkeypatch.setattr(basis, "trace_free_terms", _trace_weight_one_larger(3))
    result = verify.suite_trace_projector(samples=2, max_p=3, max_q=3, seed=0)
    assert result["passed"] is False
    assert result["checks"] == 114 and result["failures"] == 8
    assert result["first_failure"] == "annihilation 3 3 0"


def test_cg_suite_fails_on_a_dropped_last_term(monkeypatch):
    # the series loses (p - min, q - min) whenever it has more than one term
    original = verify.cg_series
    monkeypatch.setattr(verify, "cg_series",
                        lambda p, q: original(p, q)[:-1] if min(p, q) > 0 else original(p, q))
    result = verify.suite_cg_counting()
    assert result["passed"] is False
    assert result["checks"] == 683 and result["failures"] == 400
    assert result["first_failure"] == "cg series 1 1"


def test_isometry_suite_fails_on_a_wrong_channel_scale(monkeypatch):
    # channels rescaled by sqrt((p+q+1)!) in place of sqrt((p+q+2)!)
    original = verify.equivalence_map

    def wrong_scale(f):
        image = original(f)
        return dataclasses.replace(image, channel_scale_sq={
            (p, q): Fraction(math.factorial(p + q + 1)) for p, q in image.channel_scale_sq})

    monkeypatch.setattr(verify, "equivalence_map", wrong_scale)
    result = verify.suite_equivalence_isometry(samples=2, max_p=3, max_q=3, seed=7)
    assert result["passed"] is False
    assert result["checks"] == 3 and result["failures"] == 2
    assert result["first_failure"] == "pair 0 0"


def test_numeric_suite_fails_on_a_nan_defect(monkeypatch):
    # a NaN fails every per-defect check against the tolerance, and the
    # reported maximum keeps it, although max() alone would drop it
    monkeypatch.setattr(numeric, "equivariance_defect", lambda a, pq: float("nan"))
    result = verify.suite_numeric_equivariance(samples=2)
    assert result["passed"] is False
    assert result["failures"] == 2 and result["first_failure"] == "projection 0"
    assert math.isnan(result["max_projection_defect"])
