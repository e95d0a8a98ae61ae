import copy
import json
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schwinger_su3 import basis
from schwinger_su3.basis import (
    ZW,
    basis_state,
    enumerate_basis_keys,
    traceless_project,
    zw_cofactor,
)
from schwinger_su3.induced import equivalence_map, make_sphere_function
from schwinger_su3.operators import OperatorExpr, sp2r_generator
from schwinger_su3.poly import (
    Polynomial,
    bargmann_inner,
    clear_terms,
    h0_membership,
    kminus_terms,
    monomial_norm_sq,
    monomials_of_bidegree,
    poly_from_records,
    poly_to_json,
    poly_to_records,
    rebuild_polynomial,
    run_trace_kernel,
    trace_free_terms,
    trace_series,
    zw_mul_terms,
)
from schwinger_su3.scalars import Qsqrt3, ratio

Z1 = Polynomial.variable(1)
Z2 = Polynomial.variable(2)
Z3 = Polynomial.variable(3)
W1 = Polynomial.variable(4)
W2 = Polynomial.variable(5)
W3 = Polynomial.variable(6)

monomials = st.tuples(*([st.integers(0, 3)] * 6))
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9)
polys = st.dictionaries(monomials, coefficients, max_size=6).map(Polynomial)
surd_polys = st.dictionaries(
    monomials, st.builds(Qsqrt3, coefficients, coefficients), max_size=6
).map(Polynomial)


def _unit(j):
    return tuple(int(i == j - 1) for i in range(6))


def mode_mul(f, j):
    """Creation operator on mode j = 1..6: multiply by that variable."""
    return OperatorExpr({(_unit(j), (0,) * 6): 1}).apply_real(f)


def mode_diff(f, j):
    """Annihilation operator on mode j = 1..6: differentiate in that variable."""
    return OperatorExpr({((0,) * 6, _unit(j)): 1}).apply_real(f)


def test_additive_inverse():
    assert Z1 + (-Z1) == Polynomial.zero()
    assert not (Z1 - Z1)


def test_monomial_product():
    f = Z1 * W1
    g = Z2 * W2
    assert (f * g).coefficient((1, 1, 0, 1, 1, 0)) == 1
    assert len((f * g).terms) == 1


def test_scale_with_surd_coefficient():
    c = Qsqrt3(0, Fraction(1, 3))  # 1/sqrt(3)
    f = Z1.scale(c)
    assert f.coefficient((1, 0, 0, 0, 0, 0)) == c


def test_mode_mul_examples():
    one = Polynomial.constant(1)
    assert mode_mul(one, 1) == Z1
    assert mode_mul(Z1, 4) == Z1 * W1
    z3sq = Polynomial.monomial((0, 0, 2, 0, 0, 0))
    assert mode_mul(z3sq, 3) == Polynomial.monomial((0, 0, 3, 0, 0, 0))


def test_mode_diff_examples():
    z1sq = Polynomial.monomial((2, 0, 0, 0, 0, 0))
    assert mode_diff(z1sq, 1) == Z1.scale(2)
    assert mode_diff(W1, 1) == Polynomial.zero()


@given(polys)
def test_canonical_commutation(f):
    for j in (1, 4, 6):
        lhs = mode_diff(mode_mul(f, j), j) - mode_mul(mode_diff(f, j), j)
        assert lhs == f
    # mixed modes commute
    assert mode_diff(mode_mul(f, 1), 2) == mode_mul(mode_diff(f, 2), 1)


def test_gamma_integral_oracle():
    """The exponent-factorial rule is the radial Gaussian moment integral."""
    t = np.linspace(0.0, 60.0, 600001)
    for n in range(5):
        integral = np.trapezoid(t**n * np.exp(-t), t)
        fact = monomial_norm_sq((n, 0, 0, 0, 0, 0))
        assert abs(integral - fact) < 1e-6


def test_inner_product_values():
    z1sq = Polynomial.monomial((2, 0, 0, 0, 0, 0))
    assert bargmann_inner(z1sq, z1sq) == 2
    assert not bargmann_inner(Z1, W1)
    m = Polynomial.monomial((1, 1, 0, 1, 0, 0))
    assert bargmann_inner(m, m) == 1


@given(polys)
def test_inner_product_positive_definite(f):
    ip = bargmann_inner(f, f)
    if f:
        assert float(ip.rat) + float(ip.surd) * 3.0 ** 0.5 > 0
    else:
        assert not ip


@given(polys, polys)
def test_creation_annihilation_adjointness(f, g):
    for j in (1, 3, 5):
        assert bargmann_inner(mode_mul(f, j), g) == bargmann_inner(f, mode_diff(g, j))


def test_distinct_bidegrees_orthogonal():
    zw = Z1 * W1 + Z2 * W2 + Z3 * W3
    parts = (Z1 + Z1 * Z2 * W3).bidegree_split()
    assert set(parts) == {(1, 0), (2, 1)}
    assert not bargmann_inner(parts[(1, 0)], parts[(2, 1)])
    assert not bargmann_inner(Z1, zw)


def test_bidegree_split_examples():
    f = Z1 + Z1 * Z2 * W3
    parts = f.bidegree_split()
    assert parts[(1, 0)] == Z1
    assert parts[(2, 1)] == Z1 * Z2 * W3
    assert not Polynomial.zero().bidegree_split()
    zw = Z1 * W1 + Z2 * W2 + Polynomial.monomial((0, 0, 1, 0, 0, 1))
    assert set(zw.bidegree_split()) == {(1, 1)}
    assert zw.bidegree() == (1, 1)


@given(polys)
def test_bidegree_split_recomposes(f):
    total = Polynomial.zero()
    for part in f.bidegree_split().values():
        d = part.bidegree()
        assert d is not None
        total = total + part
    assert total == f


def test_enumeration_counts():
    assert len(list(monomials_of_bidegree(2, 1))) == 6 * 3
    # six-variable monomials of degree <= 2: 1 + 6 + 21
    assert sum(len(list(monomials_of_bidegree(p, q)))
               for p in range(3) for q in range(3 - p)) == 28


@given(polys)
def test_json_round_trip(f):
    assert poly_from_records(json.loads(poly_to_json(f))) == f
    recs = poly_to_records(f)
    assert recs == sorted(recs, key=lambda r: r["exps"])
    assert poly_from_records(recs) == f


def test_duplicate_record_rejected():
    rec = {"exps": [1, 0, 0, 0, 0, 0], "num": "1", "den": "1",
           "surd_num": "0", "surd_den": "1"}
    with pytest.raises(ValueError):
        poly_from_records([rec, rec])
    # a zero first copy is a duplicate too
    with pytest.raises(ValueError):
        poly_from_records([{**rec, "num": "0"}, rec])


def test_records_may_omit_the_sqrt3_part():
    # surd_num defaults to 0 and surd_den to 1
    z1 = [1, 0, 0, 0, 0, 0]
    assert poly_from_records([{"exps": z1, "num": "2", "den": "3"}]) == Z1.scale(Fraction(2, 3))
    assert poly_from_records([{"exps": z1, "num": "0", "den": "1", "surd_num": "5"}]) \
        == Z1.scale(Qsqrt3(0, 5))


def test_repr_lists_the_terms_in_monomial_order():
    assert repr(Polynomial.zero()) == "Polynomial(0)"
    f = Z1 + W1.scale(Qsqrt3(Fraction(1, 2), 1))
    assert repr(f) == ("Polynomial(Qsqrt3(1/2, 1)*(0, 0, 0, 1, 0, 0)"
                       " + Qsqrt3(1)*(1, 0, 0, 0, 0, 0))")


def _mul_reference(f, g):
    """The product term pair by term pair in Qsqrt3 arithmetic."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            c = c1 * c2
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return Polynomial(out)


def _canonical(f):
    """Nonzero coefficients whose parts are ints exactly where integral."""
    return all(
        c and all(type(x) is int or x.denominator != 1 for x in (c.rat, c.surd))
        for c in f.terms.values()
    )


@given(st.one_of(polys, surd_polys), st.one_of(polys, surd_polys))
def test_product_matches_the_pairwise_route(f, g):
    got = f * g
    assert got == _mul_reference(f, g)
    assert _canonical(got)


def test_product_examples():
    r3 = Qsqrt3(0, 1)
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    cases = [
        # coprime denominators on both sides
        (Z1.scale(Fraction(2, 7)) + W2.scale(Fraction(5, 11)),
         Z3.scale(Fraction(3, 13)) + W1.scale(Qsqrt3(Fraction(1, 5), Fraction(4, 9)))),
        # sqrt 3 parts on both sides: (1 + sqrt 3)(1 - sqrt 3) = -2 loses its
        # surd part, and sqrt 3 * sqrt 3 = 3 gains a rational one
        (Z1.scale(Qsqrt3(1, 1)) + Z2.scale(r3), Z1.scale(Qsqrt3(1, -1)) + Z2.scale(r3)),
        # terms that cancel: (z1 + w1)(z1 - w1) has no z1 w1 term
        (Z1 + W1, Z1 - W1),
        (Z1.scale(Qsqrt3(third, seventh)) + W1, Z1.scale(Qsqrt3(third, -seventh)) - W1),
    ]
    for f, g in cases:
        assert f * g == _mul_reference(f, g) == g * f
        assert _canonical(f * g)
    assert ((Z1 + W1) * (Z1 - W1)).coefficient((1, 0, 0, 1, 0, 0)) == 0
    lead = (Z1.scale(Qsqrt3(1, 1)) * Z1.scale(Qsqrt3(1, -1))).coefficient((2, 0, 0, 0, 0, 0))
    assert lead == -2 and type(lead.rat) is int and lead.surd == 0


@given(st.one_of(polys, surd_polys))
def test_product_with_zero_and_constant_factors(f):
    zero = Polynomial.zero()
    assert f * zero == zero * f == zero
    c = Qsqrt3(Fraction(2, 3), Fraction(-1, 5))
    assert Polynomial.constant(c) * f == f * Polynomial.constant(c) == f.scale(c)
    assert Polynomial.constant(1) * f == f


def test_product_with_an_unknown_operand_is_a_type_error():
    # `*` takes two polynomials; `scale` is the one product with a scalar
    p = Polynomial.variable(1)
    for bad in (0.5, 3, Fraction(1, 2), Qsqrt3(0, 1)):
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p


def test_sum_with_an_unknown_operand_is_a_type_error():
    p = Polynomial.variable(1)
    for bad in (1, 0.5, Qsqrt3(1)):
        with pytest.raises(TypeError):
            p + bad
        with pytest.raises(TypeError):
            p - bad
        with pytest.raises(TypeError):
            bad - p


def test_constructors_reject_bad_monomials_and_mode_indices():
    with pytest.raises(ValueError):
        Polynomial({(1, 2): 1})
    with pytest.raises(ValueError):
        Polynomial.monomial((1, 0, 0, -1, 0, 0))
    for j in (0, 7):
        with pytest.raises(ValueError):
            Polynomial.variable(j)


def test_polynomials_are_immutable_and_unequal_to_scalars():
    with pytest.raises(AttributeError):
        Z1.terms = {}
    assert (Z1 == 3) is False


def test_exact_values_survive_pickle_and_copy():
    key = list(enumerate_basis_keys(2))[-1]
    rebuilt = rebuild_polynomial({(1, 0, 0, 0, 1, 0): 3, (0, 0, 1, 0, 0, 0): -4},
                                 {(0, 0, 1, 0, 0, 0): 1}, 6)
    values = [
        Z1,
        rebuilt,
        Polynomial.zero(),
        basis_state(key),
        make_sphere_function(rebuilt + ZW),
        equivalence_map(Z1 * Polynomial.variable(5) + Polynomial.variable(3).scale(Qsqrt3(0, 1))),
        sp2r_generator("Kminus"),
        sp2r_generator("K2"),  # imaginary coefficients
        # an algebra result, which stores only its channels, and the cached
        # sp(2,R) Casimir
        sp2r_generator("Kplus").commutator(sp2r_generator("Kminus")),
        basis._casimir(),
        Qsqrt3(Fraction(1, 2), 1),
    ]
    for x in values:
        copies = [pickle.loads(pickle.dumps(x, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in (*copies, copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x, x


def test_product_reads_the_field_constant_at_call_time(monkeypatch):
    f = Z1.scale(Qsqrt3(1, 1))
    monkeypatch.setattr(Qsqrt3, "SQUARE", 2)
    assert (f * f).coefficient((2, 0, 0, 0, 0, 0)) == Qsqrt3(3, 2)
    assert f * f == _mul_reference(f, f)


def _kminus_slicing(terms):
    """K- on a term dict, each target built by slicing the monomial."""
    out = {}
    for m, c in terms.items():
        for j in range(3):
            a, b = m[j], m[j + 3]
            if a and b:
                t = m[:j] + (a - 1,) + m[j + 1:j + 3] + (b - 1,) + m[j + 4:]
                out[t] = out.get(t, 0) + a * b * c
    return {m: c for m, c in out.items() if c}


def _zw_mul_slicing(terms):
    """(z.w) f on a term dict, each target built by slicing the monomial."""
    out = {}
    for m, c in terms.items():
        for j in range(3):
            t = m[:j] + (m[j] + 1,) + m[j + 1:j + 3] + (m[j + 3] + 1,) + m[j + 4:]
            out[t] = out.get(t, 0) + c
    return {m: c for m, c in out.items() if c}


def test_trace_kernel_steps_match_the_slicing_route():
    for p in range(5):
        for q in range(5):
            monos = list(monomials_of_bidegree(p, q))
            whole_int = {m: (-1) ** k * (k + 1) for k, m in enumerate(monos)}
            whole_complex = {m: complex(k - 2.5, 0.5 * k) for k, m in enumerate(monos)}
            inputs = [whole_int, whole_complex]
            for m in monos:
                inputs += [{m: 3}, {m: 0.5 - 1.5j}]
            for terms in inputs:
                assert kminus_terms(terms) == _kminus_slicing(terms)
                assert zw_mul_terms(terms) == _zw_mul_slicing(terms)


def test_trace_kernel_runs_the_rational_and_sqrt3_halves_apart():
    rng = random.Random(3)
    root3 = Qsqrt3(0, 1)
    for p, q in ((1, 1), (2, 1), (2, 2), (3, 2)):
        terms = {m: Qsqrt3(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for m in monomials_of_bidegree(p, q)}
        f = Polynomial(terms)
        rat = Polynomial({m: c.rat for m, c in terms.items()})
        surd = Polynomial({m: c.surd for m, c in terms.items()})
        assert f == rat + surd.scale(root3)
        for kernel in (trace_free_terms, trace_series):
            halves = run_trace_kernel(rat, kernel) + run_trace_kernel(surd, kernel).scale(root3)
            assert run_trace_kernel(f, kernel) == halves, (p, q, kernel)
    assert run_trace_kernel(Polynomial.zero(), trace_series) == Polynomial.zero()
    with pytest.raises(ValueError):
        run_trace_kernel(Z1 + W1, trace_free_terms)


def test_trace_series_without_a_trace_never_forms_a_factorial_of_the_degree():
    # N = min(p, q) = 0 leaves nothing to remove, over D = d!/(d-N)! N! = 1,
    # so no factorial of d = 10^6 + 1 is formed
    m = (10**6, 0, 0, 0, 0, 0)
    assert trace_series({m: 1}, 10**6, 0) == ({}, 1)
    assert trace_free_terms({m: 5}, 10**6, 0) == ({m: 5}, 1)
    # at (2, 2), d = 5 and N = 2: D = 5 * 4 * 2!
    assert trace_series({(1, 1, 0, 1, 1, 0): 1}, 2, 2)[1] == 40


def _add_reference(f, g):
    """The sum term by term in Qsqrt3 arithmetic."""
    out = dict(f.terms)
    for m, c in g.terms.items():
        s = out.get(m)
        s = c if s is None else s + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return Polynomial(out)


def _rebuilt(f):
    """f as the integer-channel operations return it, with its stored form."""
    return rebuild_polynomial(*clear_terms(f.terms))


def _routes(f):
    """f from the constructor (no stored form) and rebuilt (stored form)."""
    return Polynomial(dict(f.terms)), _rebuilt(f)


def _assert_reduced(f):
    """f's stored form is reduced and is the cleared form of its terms."""
    rat, surd, den = f._cleared
    assert den > 0 and math.gcd(den, *rat.values(), *surd.values()) == 1
    assert 0 not in rat.values() and 0 not in surd.values()
    assert all(type(c) is int for c in (*rat.values(), *surd.values()))
    assert f._cleared == clear_terms(f.terms)


any_polys = st.one_of(polys, surd_polys)


def test_basis_states_store_their_reduced_channels():
    # a state at M = I is the primitive trace-free part, rebuilt from its
    # integers, raised by z.w on channels; J- lowers through the terms
    for key in enumerate_basis_keys(3):
        poly = basis_state(key).poly
        assert poly._cleared is not None or key.weight.M2 < key.weight.I2
        poly.channels()
        _assert_reduced(poly)


@given(any_polys, any_polys)
def test_sum_and_difference_match_the_termwise_route(f, g):
    for a in _routes(f):
        for b in _routes(g):
            total, diff = a + b, a - b
            assert total.terms == _add_reference(f, g).terms
            assert diff.terms == _add_reference(f, -g).terms
            for h in (total, diff):
                assert _canonical(h)
                _assert_reduced(h)
    assert not (f - f) and (f - f)._cleared == ({}, {}, 1)


@given(any_polys, any_polys)
def test_rebuilt_polynomials_store_the_reduced_cleared_form(f, g):
    _assert_reduced(_rebuilt(f))
    _assert_reduced(f * g)
    _assert_reduced(_rebuilt(f) * Polynomial.constant(Fraction(6, 5)))
    # the constructor and _of store no channels until `channels()` is called
    assert Polynomial(dict(f.terms))._cleared is None
    assert (-f)._cleared is None and f.scale(3)._cleared is None


@given(any_polys, any_polys)
def test_equality_is_the_same_on_either_route(f, g):
    for a in _routes(f):
        for b in _routes(f):
            assert a == b and b == a
        for b in _routes(g):
            assert (a == b) == (b == a) == (f.terms == g.terms)
    # a rebuilt polynomial equals the constructor's copy of its own terms
    assert _rebuilt(f) == Polynomial(dict(f.terms)) == _rebuilt(f)
    # the same value rebuilt from a denominator that was not reduced
    rat, surd, den = clear_terms(f.terms)
    doubled = rebuild_polynomial({m: 2 * c for m, c in rat.items()},
                                 {m: 2 * c for m, c in surd.items()}, 2 * den)
    assert doubled == f and f == doubled and doubled == _rebuilt(f)


def test_equality_examples_with_sqrt3_parts():
    r3 = Qsqrt3(0, 1)
    f = Z1.scale(Qsqrt3(Fraction(1, 2), Fraction(1, 3))) + W2.scale(r3)
    g = Z1.scale(Qsqrt3(Fraction(1, 2), Fraction(-1, 3))) + W2.scale(r3)
    for a in _routes(f):
        for b in _routes(g):
            assert a != b and b != a
        for b in _routes(f):
            assert a == b and b == a
    # same rational parts, sqrt 3 parts on different monomials
    assert _rebuilt(Z1 + W1.scale(r3)) != _rebuilt(Z1.scale(r3) + W1)
    # same reduced numerators over different denominators
    assert _rebuilt(f) != _rebuilt(f.scale(Fraction(1, 2)))


bidegree_polys = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda pq: st.dictionaries(
        st.sampled_from(monomials_of_bidegree(*pq)),
        st.builds(Qsqrt3, coefficients, coefficients),
        min_size=1, max_size=8,
    ).map(Polynomial).filter(bool)
)


@given(bidegree_polys)
def test_reading_a_rebuilt_polynomial_leaves_it_unchanged(f):
    f0 = traceless_project(f)
    terms, cleared = dict(f0.terms), copy.deepcopy(f0._cleared)
    assert cleared is not None
    traceless_project(f0)
    zw_cofactor(f0)
    f - f0, f0 - f, f0 + f0, f0 - f0
    f0 * ZW, ZW * f0, f0 * f0
    assert f0.terms == terms and f0._cleared == cleared
    _assert_reduced(f0)


def _eager_terms(rat, surd, den):
    """The reference route: the term dict of (rat[m] + surd[m] sqrt 3) / den,
    built eagerly from the reduced channels, each part an ``int`` where it is
    integral and a ``Fraction`` otherwise."""
    g = math.gcd(den, *rat.values(), *surd.values())
    rat = {m: c // g for m, c in rat.items() if c}
    surd = {m: c // g for m, c in surd.items() if c}
    den //= g
    terms = {m: Qsqrt3._of(ratio(c, den), ratio(surd.get(m, 0), den)) for m, c in rat.items()}
    terms.update((m, Qsqrt3._of(0, ratio(c, den))) for m, c in surd.items() if m not in rat)
    return terms


def _terms_built(f):
    """Whether f holds its term dict, read through the slot itself, which
    ``Polynomial.__getattr__`` never reaches, so the read builds nothing."""
    try:
        Polynomial.__dict__["terms"].__get__(f)
    except AttributeError:
        return False
    return True


# monomials of two bidegrees, so that some channel dicts are bihomogeneous
_channel_monomials = st.sampled_from(monomials_of_bidegree(1, 1) + monomials_of_bidegree(2, 0)[:3])
_int_channel = st.dictionaries(_channel_monomials, st.integers(-12, 12), max_size=5)
# (rat, surd, den), all scaled by a common factor that the rebuild divides out
channel_triples = st.tuples(_int_channel, _int_channel, st.integers(1, 12), st.integers(1, 6)).map(
    lambda t: ({m: t[3] * c for m, c in t[0].items()},
               {m: t[3] * c for m, c in t[1].items()}, t[3] * t[2])
)


@given(channel_triples, channel_triples)
def test_lazy_terms_match_the_eager_rebuild(a, b):
    f, g = rebuild_polynomial(*a), rebuild_polynomial(*b)
    assert type(f) is Polynomial and type(g) is Polynomial
    ref_f, ref_g = _eager_terms(*a), _eager_terms(*b)
    before = (bool(f), f.bidegree(), copy.deepcopy(f.channels()), f == g, g == f)
    assert not _terms_built(f) and not _terms_built(g)
    assert before == (bool(ref_f), Polynomial(ref_f).bidegree(), clear_terms(ref_f),
                      ref_f == ref_g, ref_f == ref_g)
    assert f.terms == ref_f and _canonical(f) and _terms_built(f) and not _terms_built(g)
    assert f.terms is f.terms
    assert (bool(f), f.bidegree(), f.channels(), f == g, g == f) == before
    assert f == Polynomial(ref_f) and Polynomial(ref_f) == f
    with pytest.raises(AttributeError):
        g.terms = {}
    with pytest.raises(AttributeError):
        g.coefficients


def test_channels_are_cleared_once_and_stored():
    f = Z1.scale(Fraction(1, 2)) + W2.scale(Qsqrt3(0, Fraction(1, 3)))
    f = Polynomial(dict(f.terms))
    assert f._cleared is None
    assert f.channels() is f.channels() == ({(1, 0, 0, 0, 0, 0): 3}, {(0, 0, 0, 0, 1, 0): 2}, 6)


def test_the_trace_sweep_chain_builds_no_qsqrt3(monkeypatch):
    # the checks of the trace-sweep workload, on a constructor-built f whose
    # terms and channels were read beforehand, run on channels only
    rng = random.Random(5)
    f = Polynomial({m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for m in monomials_of_bidegree(2, 2)})
    g = Polynomial({m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for m in monomials_of_bidegree(1, 1)})
    for h in (f, g):
        h.terms, h.bidegree(), h.channels()
    made = []
    of = Qsqrt3._of.__func__
    monkeypatch.setattr(Qsqrt3, "_of", classmethod(lambda cls, a, b: made.append(1) or of(cls, a, b)))
    f0 = traceless_project(f)
    assert f0 and traceless_project(f0) == f0
    assert not traceless_project(ZW * g)
    assert f - f0 == ZW * zw_cofactor(f)
    assert made == []
    # the first read of the terms builds them
    f0.terms
    assert len(made) == len(f0.channels()[0].keys() | f0.channels()[1].keys()) > 0


# each part of a sum is kept or replaced by its trace-free part, so sums of
# several bidegrees come both trace-free and not
mixed_sums = st.lists(st.tuples(bidegree_polys, st.booleans()), min_size=1, max_size=3).map(
    lambda parts: sum((traceless_project(f) if free else f for f, free in parts),
                      Polynomial.zero()))


@given(st.one_of(mixed_sums, any_polys))
def test_h0_membership_matches_the_generic_kminus(f):
    # the reference route: K- as a normal-ordered operator, through apply
    want = not sp2r_generator("Kminus").apply_real(f)
    for g in _routes(f):
        assert h0_membership(g) == want
