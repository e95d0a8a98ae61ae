import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schwinger_su3.operators import OperatorExpr
from schwinger_su3.poly import (
    Polynomial,
    bargmann_inner,
    kminus_terms,
    monomial_norm_sq,
    monomials_of_bidegree,
    poly_from_records,
    poly_to_json,
    poly_to_records,
    zw_mul_terms,
)
from schwinger_su3.scalars import Qsqrt3

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
    p = Polynomial.variable(1)
    with pytest.raises(TypeError):
        p * 0.5
    with pytest.raises(TypeError):
        0.5 * p


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
