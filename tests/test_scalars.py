import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schwinger_su3.scalars import CScalar, Qsqrt3, _QuadraticExtension

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


# The generic route that +, *, == and - took for every operand before an
# operand of the left operand's own type went straight to the arithmetic: the
# operand coerced through ``_peer``, the parts combined by this same route one
# field down, and an operand that the left one cannot take handed to the right
# one's reflected method, as Python's dispatch does (``__radd__`` is
# ``__add__``, ``__rmul__`` is ``__mul__``).


def _ref_add(x, y):
    if not isinstance(x, _QuadraticExtension):
        return _ref_add(y, x) if isinstance(y, _QuadraticExtension) else x + y
    p = x._peer(y)
    if p is None:
        return _ref_add(y, x)
    return type(x)._of(_ref_add(x.a, p.a), _ref_add(x.b, p.b))


def _ref_neg(x):
    if not isinstance(x, _QuadraticExtension):
        return -x
    return type(x)._of(_ref_neg(x.a), _ref_neg(x.b) if x.b else x._ZERO)


def _ref_sub(x, y):
    # x - y is x + (-y); with x not a field element, y's __rsub__ gives -y + x
    if isinstance(x, _QuadraticExtension):
        return _ref_add(x, _ref_neg(y))
    return _ref_add(_ref_neg(y), x)


def _ref_mul(x, y):
    if not isinstance(x, _QuadraticExtension):
        return _ref_mul(y, x) if isinstance(y, _QuadraticExtension) else x * y
    a, b = x.a, x.b
    if isinstance(y, int) and not b:
        return type(x)._of(_ref_mul(a, y), x._ZERO)
    p = x._peer(y)
    if p is None:
        return _ref_mul(y, x)
    c, d = p.a, p.b
    if not b and not d:
        return type(x)._of(_ref_mul(a, c), x._ZERO)
    return type(x)._of(_ref_add(_ref_mul(a, c), _ref_mul(_ref_mul(x.SQUARE, b), d)),
                       _ref_add(_ref_mul(a, d), _ref_mul(b, c)))


def _ref_eq(x, y):
    if not isinstance(x, _QuadraticExtension):
        return _ref_eq(y, x) if isinstance(y, _QuadraticExtension) else x == y
    p = x._peer(y)
    if p is None:
        return _ref_eq(y, x)
    return _ref_eq(x.a, p.a) and _ref_eq(x.b, p.b)


def _same(got, want):
    """Equal value, type and part types, read from the parts, not with ==."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, _QuadraticExtension):
        assert _parts(got) == _parts(want), (got, want)
        assert [type(t) for t in _parts(got)] == [type(t) for t in _parts(want)], (got, want)
    else:
        assert got == want


# a rational lifts to its field with int or Fraction parts; bool is an int
base_operands = st.one_of(exact_parts, st.booleans())
# values also as arithmetic leaves them: a part may be a Fraction with
# denominator 1, zero among them, which the constructor would make an int
raw_parts = st.one_of(exact_parts, st.integers(-3, 3).map(Fraction))
field_elements = st.one_of(exact_elements, st.builds(Qsqrt3._of, raw_parts, raw_parts))
field_complexes = st.one_of(exact_complexes,
                            st.builds(CScalar._of, field_elements, field_elements))


@pytest.mark.parametrize("pair", [
    pytest.param(st.tuples(field_elements, field_elements), id="Qsqrt3-Qsqrt3"),
    pytest.param(st.tuples(field_elements, base_operands), id="Qsqrt3-rational"),
    pytest.param(st.tuples(field_complexes, field_complexes), id="CScalar-CScalar"),
    pytest.param(st.tuples(field_complexes, base_operands), id="CScalar-rational"),
    pytest.param(st.tuples(field_complexes, field_elements), id="CScalar-Qsqrt3"),
])
@given(data=st.data())
def test_arithmetic_matches_the_generic_route(pair, data):
    x, y = data.draw(pair)
    for op, ref in ((operator.add, _ref_add), (operator.mul, _ref_mul),
                    (operator.sub, _ref_sub)):
        for left, right in ((x, y), (y, x)):
            _same(op(left, right), ref(left, right))
    # equal values too: x against a copy of itself and y against its lift;
    # and x against x + u, equal in a only
    unit = type(x)(0, 1)
    for left, right in ((x, y), (x, copy.copy(x)), (type(x).coerce(y), y),
                        (x, _ref_add(x, unit))):
        assert (left == right) is _ref_eq(left, right)
        assert (right == left) is _ref_eq(right, left)
        assert (left != right) is not _ref_eq(left, right)


@given(exact_parts)
def test_values_built_by_of_are_immutable_hash_and_pickle(r):
    rat = Qsqrt3(r).rat
    values = [Qsqrt3._of(rat, 0), CScalar._of(Qsqrt3._of(rat, 0), Qsqrt3(0)),
              Qsqrt3(r) * Qsqrt3(1), Qsqrt3(r) + Qsqrt3(0), Qsqrt3(r) * 1,
              CScalar(r) * CScalar(1), CScalar(r) + CScalar(0), -(-CScalar(r))]
    for x in values:
        for name in ("a", "b", "rat", "re", "c"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        assert x == r and hash(x) == hash(r)
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            _same(y, x)
            assert hash(y) == hash(x)
