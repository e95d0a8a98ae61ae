"""The verify suites' own contract: a suite that checks nothing fails, and a
suite fed one wrong fact fails and names a witness."""

from fractions import Fraction

import pytest

from schwinger_su3 import numeric, verify
from schwinger_su3.operators import (
    GellMannTable,
    OperatorExpr,
    commutator_defect,
    sp2r_generator,
)


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


def test_numeric_suite_fails_on_a_nan_defect(monkeypatch):
    # max() drops a NaN, so only a per-defect check against the tolerance sees it
    monkeypatch.setattr(numeric, "equivariance_defect", lambda a, pq: float("nan"))
    result = verify.suite_numeric_equivariance(samples=2)
    assert result["passed"] is False
    assert result["failures"] == 2 and result["first_failure"] == "projection 0"
