"""Exact scalars: the real quadratic field Q(sqrt 3) and complex pairs over it.

Both fields are quadratic extensions, a + b*u with u*u a fixed integer over a
base field, and share one arithmetic (``_QuadraticExtension``):

* ``Qsqrt3``, value rat + surd*sqrt(3): u*u = 3 over the rationals.  Every
  stored polynomial coefficient in the library is one.  A part lifted from an
  integral value (``int``, ``bool``, ``Fraction(n, 1)``) is an ``int``, and
  ``int`` parts stay ``int`` under +, -, *, so the integer basis states run on
  ``int`` arithmetic; other parts are ``Fraction`` (not renormalized, so
  ``Fraction`` arithmetic may leave an integral one).  The two mix exactly,
  and equal values compare and hash alike.
* ``CScalar``, value re + i*im: u*u = -1 over ``Qsqrt3``.  Complex numbers
  never enter polynomial coefficients; they appear only in operator
  coefficients.

Since sqrt 3 only enters through lambda_8 and i only through lambda_2,
lambda_5, lambda_7 and K2, nearly every value has b = 0: negation and
multiplication (also by an ``int``) then take a fast path that does one
base-field operation instead of four.  Addition has none; it does two either
way, and subtraction adds the negated operand.  An operand that cannot be
coerced into the left operand's field yields ``NotImplemented``, so mixed
``Qsqrt3`` / ``CScalar`` arithmetic works in both orders.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]


def _frac(x) -> RatLike:
    """x as a rational: an ``int`` when integral, else a ``Fraction``."""
    if isinstance(x, int):
        return int(x)  # also turns a bool into 0 or 1
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def ratio(n: int, den: int) -> RatLike:
    """n / den as a rational: an ``int`` when den divides n, else a ``Fraction``."""
    return n // den if n % den == 0 else Fraction(n, den)


class _QuadraticExtension:
    """Element a + b*u with u*u = SQUARE and a, b in a base field.

    A subclass sets ``SQUARE`` (a non-square in the base field), ``_ZERO``
    (the base field's zero, the b of every lifted value) and ``_lift``
    (coerces into the base field, raising ``TypeError``).  The operations are
    +, -, * and conjugation: the construction never divides an exact scalar,
    so there is no inverse."""

    __slots__ = ("a", "b")

    SQUARE: int

    def __init__(self, a, b=None):
        lift = self._lift
        object.__setattr__(self, "a", lift(a))
        object.__setattr__(self, "b", self._ZERO if b is None else lift(b))

    @classmethod
    def _of(cls, a, b):
        """Build from two base-field values without coercing them."""
        x = object.__new__(cls)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.a, self.b)

    @classmethod
    def coerce(cls, x):
        if isinstance(x, cls):
            return x
        return cls._of(cls._lift(x), cls._ZERO)

    def _peer(self, x):
        """x in this field, or None when it cannot be coerced."""
        if isinstance(x, type(self)):
            return x
        try:
            return self.coerce(x)
        except TypeError:
            return None

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        # a b = 0 value hashes as its base-field part, as == compares it, so
        # 1, Fraction(1), Qsqrt3(1) and CScalar(1) share one hash
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __add__(self, other):
        other = self._peer(other)
        if other is None:
            return NotImplemented
        return self._of(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return self._of(-self.a, -self.b if self.b else self._ZERO)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self.a, self.b
        if isinstance(other, int) and not b:
            return self._of(a * other, self._ZERO)
        other = self._peer(other)
        if other is None:
            return NotImplemented
        c, d = other.a, other.b
        if not b and not d:
            return self._of(a * c, self._ZERO)
        # (a + b u)(c + d u) = (ac + SQUARE bd) + (ad + bc) u
        return self._of(a * c + self.SQUARE * b * d, a * d + b * c)

    __rmul__ = __mul__

    def conjugate(self):
        return self._of(self.a, -self.b if self.b else self._ZERO)

    def __repr__(self) -> str:
        if not self.b:
            return f"{type(self).__name__}({self.a})"
        return f"{type(self).__name__}({self.a}, {self.b})"


class Qsqrt3(_QuadraticExtension):
    """Element rat + surd*sqrt(3) of the field Q(sqrt 3)."""

    __slots__ = ()
    SQUARE = 3
    _ZERO = 0
    _lift = staticmethod(_frac)
    rat, surd = _QuadraticExtension.a, _QuadraticExtension.b

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; requires a vanishing sqrt(3) part."""
        if self.surd != 0:
            raise ValueError(f"{self!r} has an irrational part")
        return Fraction(self.rat)


# 1/sqrt(3) = sqrt(3)/3
INV_SQRT3 = Qsqrt3(0, Fraction(1, 3))


class CScalar(_QuadraticExtension):
    """Complex number re + i*im with parts in Q(sqrt 3)."""

    __slots__ = ()
    SQUARE = -1
    _ZERO = Qsqrt3(0)
    _lift = staticmethod(Qsqrt3.coerce)
    re, im = _QuadraticExtension.a, _QuadraticExtension.b
