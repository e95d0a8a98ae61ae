"""The verify suites' own contract: a suite that checks nothing fails. The
suites fed one wrong fact each are the rows of tests/test_mutants.py."""

import pytest

from schwinger_su3 import verify


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
    # every bilinear kills the constants, so degree 0 sees no wrong su(3)
    # relation; the sp(2,R) constant of J0 it would see, but all three algebra
    # suites record no check at degree 0 by policy
    pytest.param(lambda: verify.suite_su3_closure(0), id="su3_closure"),
    pytest.param(lambda: verify.suite_sp2r_relations(0), id="sp2r_relations"),
    pytest.param(lambda: verify.suite_mutual_commutant(0), id="mutual_commutant"),
])
def test_suite_that_checks_nothing_fails(run):
    result = run()
    assert result["passed"] is False and result["checks"] == 0
