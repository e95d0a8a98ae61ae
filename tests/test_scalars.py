from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schwinger_su3.scalars import CScalar, Qsqrt3

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
elements = st.builds(Qsqrt3, rationals, rationals)


def _float(x):
    """The float value of a Qsqrt3, from its parts."""
    return float(x.rat) + float(x.surd) * 3.0 ** 0.5


def _complex(z):
    """The complex value of a CScalar, from its parts."""
    return complex(_float(z.re), _float(z.im))


def test_zero_iff_both_parts_zero():
    assert not Qsqrt3(0, 0)
    assert Qsqrt3(0, Fraction(1, 3))
    assert Qsqrt3(Fraction(-2, 5), 0)


def test_equality_is_exact():
    assert Qsqrt3(Fraction(1, 2)) == Fraction(1, 2)
    assert Qsqrt3(1, 1) != Qsqrt3(1, 0)


@given(elements, elements)
def test_ring_ops_match_floats(a, b):
    assert abs(_float(a + b) - (_float(a) + _float(b))) < 1e-9
    assert abs(_float(a * b) - _float(a) * _float(b)) < 1e-6


def test_inv_sqrt3_squares_to_third():
    inv = Qsqrt3(0, Fraction(1, 3))
    assert inv * inv == Fraction(1, 3)


def test_as_fraction_guards_surd_part():
    with pytest.raises(ValueError):
        Qsqrt3(0, 1).as_fraction()
    assert Qsqrt3(Fraction(3, 7)).as_fraction() == Fraction(3, 7)


def test_cscalar_arithmetic():
    i = CScalar(0, 1)
    assert i * i == CScalar(-1)
    z = CScalar(Qsqrt3(1), Qsqrt3(0, Fraction(1, 3)))
    assert z.conjugate().conjugate() == z


complexes = st.builds(CScalar, elements, elements)


@given(complexes, complexes)
def test_complex_ring_ops_match_complex(z, w):
    assert abs(_complex(z + w) - (_complex(z) + _complex(w))) < 1e-9
    assert abs(_complex(z * w) - _complex(z) * _complex(w)) < 1e-6


@given(complexes)
def test_complex_conjugate(z):
    assert z.conjugate().conjugate() == z


def test_mixed_arithmetic_in_both_orders():
    one, i = Qsqrt3(1), CScalar(0, 1)
    assert one * i == i and i * one == i
    assert one + i == CScalar(1, 1) and i + one == CScalar(1, 1)
    assert one - i == CScalar(1, -1) and i - one == CScalar(-1, 1)
    assert one == CScalar(1) and CScalar(1) == one
    assert one != i and i != one


def test_scalars_are_immutable():
    with pytest.raises(AttributeError):
        Qsqrt3(1, 2).rat = 0


def test_subtraction_is_the_sum_with_the_negated_operand():
    x = Qsqrt3(Fraction(1, 2), 3)
    assert x - 1 == Qsqrt3(Fraction(-1, 2), 3) and 1 - x == Qsqrt3(Fraction(1, 2), -3)
    assert Fraction(1, 3) - x == Qsqrt3(Fraction(-1, 6), -3)
    # an operand that cannot be negated, or is not in the field, is a TypeError
    for bad in ("a", 0.5, None):
        with pytest.raises(TypeError):
            x - bad
        with pytest.raises(TypeError):
            bad - x


def test_equal_values_share_one_hash():
    assert len({1, Fraction(1), Qsqrt3(1), CScalar(1)}) == 1
    assert len({Qsqrt3(0, 1), CScalar(Qsqrt3(0, 1))}) == 1


@given(rationals)
def test_equal_rational_values_hash_alike(x):
    values = [x, Qsqrt3(x), CScalar(x), CScalar(Qsqrt3(x))]
    if x.denominator == 1:
        values.append(x.numerator)
    for v in values:
        assert v == x and hash(v) == hash(x)


def test_integral_parts_are_ints():
    # lifted integral values and int arithmetic
    for x in (Qsqrt3(3), Qsqrt3(True), Qsqrt3(Fraction(6, 3), -2),
              Qsqrt3.coerce(Fraction(-5, 1)), Qsqrt3(2) * Qsqrt3(1, 1) + 4):
        assert type(x.rat) is int and type(x.surd) is int
    z = CScalar(1, Fraction(4, 2))
    assert all(type(t) is int for t in (z.re.rat, z.re.surd, z.im.rat, z.im.surd))
    half = Qsqrt3(Fraction(1, 2))
    assert type(half.rat) is Fraction and type(half.surd) is int


def test_as_fraction_returns_a_fraction():
    for x in (Qsqrt3(4), Qsqrt3(Fraction(2, 3)), Qsqrt3(0)):
        assert type(x.as_fraction()) is Fraction


# int and Fraction parts, so that int-only operands reach every operation
exact_parts = st.one_of(st.integers(-50, 50), rationals)
exact_elements = st.builds(Qsqrt3, exact_parts, exact_parts)
exact_complexes = st.builds(CScalar, exact_elements, exact_elements)


def _parts(x):
    if isinstance(x, CScalar):
        return _parts(x.re) + _parts(x.im)
    return (x.rat, x.surd)


@pytest.mark.parametrize("pair", [
    pytest.param(st.tuples(exact_elements, exact_elements), id="Qsqrt3"),
    pytest.param(st.tuples(exact_complexes, exact_complexes), id="CScalar"),
])
@given(data=st.data())
def test_ring_operations_keep_parts_exact(pair, data):
    a, b = data.draw(pair)
    for x in (a * b, a * 3, 2 * b):
        for part in _parts(x):
            assert type(part) in (int, Fraction), x
