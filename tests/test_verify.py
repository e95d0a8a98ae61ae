"""The verify suites' own contract: a suite that checks nothing fails and one
passing check suffices, criterion 3 sees a corpus that misses a level,
criteria 4 and 5 check the level each wrong state sits at, and the amount each
suite checks and its seeded draws stay fixed. The suites fed one wrong fact
each are the rows of tests/test_mutants.py; cg_counting and cn_dual_route have
fixed bounds, so they cannot be sized to check nothing."""

import random
import time
from fractions import Fraction

import pytest

from schwinger_su3 import verify
from schwinger_su3.basis import NormalizedState
from schwinger_su3.catalog import k_of
from schwinger_su3.poly import Polynomial, monomials_of_bidegree


@pytest.mark.parametrize("run", [
    pytest.param(lambda: verify.suite_trace_projector(samples=0, max_each=4, seed=0),
                 id="trace_projector"),
    pytest.param(lambda: verify.suite_equivalence_isometry(samples=0, max_each=4, seed=0),
                 id="equivalence_isometry"),
    pytest.param(lambda: verify.suite_numeric_equivariance(samples=0, seed=0),
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


def test_check_counts_at_small_sizes():
    # how much each suite checks is part of its contract: a changed bound or
    # range that leaves every verdict passing shows here (the CI `cmp` literal
    # pins the same counts without the numeric suite)
    start = time.perf_counter()
    suites = verify.run_all(max_pq=1, degree=2, samples=2, seed=7,
                            numeric_checks=True, numeric_samples=1)
    elapsed = time.perf_counter() - start
    assert all(s["passed"] for s in suites)
    assert {s["name"]: s["checks"] for s in suites} == {
        "basis_orthonormality": 237, "casimir": 56, "cg_counting": 1167,
        "cn_dual_route": 2025, "equivalence_isometry": 3, "induced_oracle": 864,
        "kernel_dimension": 33, "kminus_annihilation": 21, "mutual_commutant": 24,
        "numeric_equivariance": 39, "sp2r_relations": 6, "su3_closure": 84,
        "trace_projector": 114,
    }
    assert all(0 <= s["seconds"] <= elapsed for s in suites)
    # the algebra suites check every relation from degree 1 on
    assert [verify.suite_su3_closure(1)["checks"], verify.suite_sp2r_relations(1)["checks"],
            verify.suite_mutual_commutant(1)["checks"]] == [84, 6, 24]
    # one state count per (p, q) with p + q <= 4, one completeness count per
    # bidegree with min(p, q) <= TOP_LEVEL: all 15
    assert verify.suite_basis_orthonormality(4, states=[])["checks"] == 30


def test_suite_with_one_passing_check_passes():
    result = verify.suite_equivalence_isometry(samples=1, max_each=0, seed=0)
    assert result["checks"] == 1 and result["passed"] is True


def test_random_draws_are_pinned():
    # the seeded inputs of criteria 6 and 10 stay the same draws from one
    # change to the next, so that their check counts and timings compare
    f = verify.random_bihomogeneous(1, 1, random.Random(7))
    want = {(0, 0, 1, 0, 0, 1): Fraction(1, 3), (0, 0, 1, 0, 1, 0): 3,
            (0, 0, 1, 1, 0, 0): Fraction(-7, 9), (0, 1, 0, 0, 0, 1): -1,
            (0, 1, 0, 0, 1, 0): 9, (0, 1, 0, 1, 0, 0): Fraction(7, 4),
            (1, 0, 0, 0, 0, 1): -4, (1, 0, 0, 0, 1, 0): Fraction(4, 7),
            (1, 0, 0, 1, 0, 0): Fraction(-7, 4)}
    assert f == Polynomial(want)
    # a larger draw, where a wider coefficient range would show
    f = verify.random_bihomogeneous(3, 3, random.Random(7))
    assert len(f.terms) == 95
    assert sum((c.as_fraction() for c in f.terms.values()), Fraction(0)) == Fraction(2519, 180)
    # a draw that comes out zero falls back to the first monomial
    rng = random.Random(0)
    rng.randint = lambda a, b: 0
    assert verify.random_bihomogeneous(1, 0, rng) == Polynomial({(0, 0, 1, 0, 0, 0): 1})


def _random_bihomogeneous_reference(p, q, rng):
    """The reference route: the same draws, a ``Fraction`` per monomial
    through the checking constructor."""
    terms = {}
    for m in monomials_of_bidegree(p, q):
        num = rng.randint(-9, 9)
        if num:
            terms[m] = Fraction(num, rng.randint(1, 9))
    if not terms:
        terms[next(iter(monomials_of_bidegree(p, q)))] = Fraction(1)
    return Polynomial(terms)


# seed 23 draws a zero numerator first, so both routes fall back at (0, 0)
@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_random_draws_match_the_fraction_route(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for p in range(5):
        for q in range(5):
            f = verify.random_bihomogeneous(p, q, ours)
            g = _random_bihomogeneous_reference(p, q, ref)
            assert f == g and f.terms == g.terms, (p, q)
            assert ours.getstate() == ref.getstate(), (p, q)
            if (seed, p, q) == (23, 0, 0):
                assert f == Polynomial.constant(1)


def test_label_and_peeling_checks_reach_their_levels():
    # an m = k state carrying another weight's polynomial fails its J3 check,
    # and a raised state twice too large fails its peeling
    states = verify.build_states(1)
    at_k = [st for st in states if st.key.m2 == k_of(st.key.rep)]
    a, b = [st for st in at_k if (st.key.rep.p, st.key.rep.q) == (1, 0)][:2]
    relabelled = NormalizedState(poly=b.poly, norm_sq=b.norm_sq, key=a.key)
    result = verify.suite_casimir(1, states=[relabelled])
    assert result["first_failure"] == f"J3 {a.key}"
    raised = next(st for st in states if st.key.m2 == k_of(st.key.rep) + 2)
    doubled = NormalizedState(poly=raised.poly.scale(2), norm_sq=raised.norm_sq, key=raised.key)
    result = verify.suite_kminus_annihilation(1, states=at_k + [doubled])
    assert result["failures"] == 1 and result["first_failure"] == f"peeling {raised.key}"
