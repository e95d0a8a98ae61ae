"""The verify suites' own contract: a suite that checks nothing fails, and
criterion 3 sees a corpus that misses a level. The suites fed one wrong fact
each are the rows of tests/test_mutants.py; cg_counting and cn_dual_route have
fixed bounds, so they cannot be sized to check nothing."""

import pytest

from schwinger_su3 import verify
from schwinger_su3.catalog import k_of


@pytest.mark.parametrize("run", [
    pytest.param(lambda: verify.suite_trace_projector(samples=0, max_each=4),
                 id="trace_projector"),
    pytest.param(lambda: verify.suite_equivalence_isometry(samples=0, max_each=4),
                 id="equivalence_isometry"),
    pytest.param(lambda: verify.suite_numeric_equivariance(samples=0),
                 id="numeric_equivariance"),
    pytest.param(lambda: verify.suite_kernel_dimension(max_each=-1), id="kernel_dimension"),
    pytest.param(lambda: verify.suite_basis_orthonormality(max_pq=-1, states=[]),
                 id="basis_orthonormality"),
    pytest.param(lambda: verify.suite_kminus_annihilation(5, states=[]),
                 id="kminus_annihilation"),
    pytest.param(lambda: verify.suite_casimir(5, states=[]), id="casimir"),
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


def test_completeness_count_fails_a_corpus_of_m_equal_k_states():
    # without the raised states, bidegree (1, 1) holds the 8 states of the
    # octet against 9 monomials; every other check still passes. At max_pq 1
    # only (0, 0), (1, 0) and (0, 1) are counted, which m = k fills alone.
    states = [st for st in verify.build_states(2) if st.key.m2 == k_of(st.key.rep)]
    assert verify.suite_basis_orthonormality(1, states=states)["passed"] is True
    result = verify.suite_basis_orthonormality(2, states=states)
    assert result["passed"] is False
    assert result["first_failure"] == "completeness 1 1"
    assert result["failures"] == 1
