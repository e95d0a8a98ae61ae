"""Acceptance gate: the twelve primary criteria at their stated scales. The
scales a caller varies are written here; those no caller varies are constants
of verify.py (the CG, spectrum, anchor and C_n bounds and the numeric
tolerances), which the labels print, and basis.TOP_LEVEL (the m levels).

Each test prints one pass/fail line (visible with pytest -s or on failure)
and asserts the corresponding verification suite. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import pytest

from schwinger_su3 import verify


def _report(num, label, result):
    status = "PASS" if result["passed"] else "FAIL"
    detail = {k: v for k, v in result.items() if k not in ("name", "passed")}
    print(f"[{status}] criterion {num:2d} ({label}): {detail}")
    assert result["passed"], f"criterion {num} ({label}) failed: {result}"


@pytest.fixture(scope="module")
def states():
    # shared corpus for criteria 3-5: p+q <= 5, every weight, m in {k, k+1, k+2}
    return verify.build_states(max_pq=5)


def test_criterion_01_su3_closure():
    _report(1, "su(3) closure, degree 6", verify.suite_su3_closure(degree=6))


def test_criterion_02_sp2r_relations_and_commutant():
    r1 = verify.suite_sp2r_relations(degree=8)
    r2 = verify.suite_mutual_commutant(degree=8)
    merged = {
        "name": "sp2r_relations+mutual_commutant",
        "passed": r1["passed"] and r2["passed"],
        "failures": r1["failures"] + r2["failures"],
        "degree": 8,
    }
    _report(2, "sp(2,R) relations and mutual commutant, degree 8", merged)


def test_criterion_03_orthonormality(states):
    _report(
        3,
        "basis orthonormality and counting, p+q <= 5",
        verify.suite_basis_orthonormality(max_pq=5, states=states),
    )


def test_criterion_04_kminus_annihilation(states):
    _report(
        4,
        "lowest-weight annihilation and raising structure",
        verify.suite_kminus_annihilation(max_pq=5, states=states),
    )


def test_criterion_05_casimir(states):
    _report(
        5,
        "sp(2,R) Casimir eigenvalues",
        verify.suite_casimir(max_pq=5, states=states),
    )


def test_criterion_06_trace_projector():
    _report(
        6,
        "trace projector on 200 random polynomials per bidegree <= (4,4)",
        verify.suite_trace_projector(samples=200, max_each=4, seed=0),
    )


def test_criterion_07_kernel_dimension():
    _report(
        7,
        "kernel dimension and projector rank d(p,q) for p,q <= 4",
        verify.suite_kernel_dimension(max_each=4),
    )


def test_criterion_08_cg_and_counting():
    _report(
        8,
        f"CG and counting identities, p,q <= {verify.CG_BOUND} and <= {verify.SPECTRUM_BOUND}",
        verify.suite_cg_counting(),
    )


def test_criterion_09_induced_oracle():
    _report(
        9,
        f"induced inner product oracle, p+q <= 4 with anchors to p+q <= {verify.ANCHOR_TOTAL}",
        verify.suite_induced_oracle(max_total=4),
    )


def test_criterion_10_equivalence_isometry():
    _report(
        10,
        "equivalence-map isometry on random trace-free inputs <= (4,4)",
        verify.suite_equivalence_isometry(samples=20, max_each=4, seed=0),
    )


def test_criterion_11_numeric_equivariance():
    _report(
        11,
        f"numeric equivariance, 100 Haar samples, tolerances {verify.PROJECTION_TOL} "
        f"and {verify.REPRESENTATION_TOL}",
        verify.suite_numeric_equivariance(samples=100, seed=0),
    )


def test_criterion_12_cn_dual_route():
    _report(
        12,
        f"expansion coefficients, dual derivation routes, p,q <= {verify.CN_BOUND}",
        verify.suite_cn_dual_route(),
    )
