"""Exact scalars: the real quadratic field Q(sqrt 3) and complex pairs over it.

Every stored coefficient in the library is a ``Qsqrt3`` (value = rat + surd*sqrt(3))
with both parts arbitrary-precision ``Fraction``s.  Plain rational quantities use
surd = 0, and since sqrt 3 only enters through lambda_8 that is nearly every
coefficient: addition, negation and multiplication (also by an ``int``) take a
fast path when both sqrt(3) parts are zero, doing one ``Fraction`` operation
instead of four.  Complex numbers never enter polynomial coefficients; they
appear only as ``CScalar`` pairs in operator coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]

_F0 = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Qsqrt3:
    """Element rat + surd*sqrt(3) of the field Q(sqrt 3)."""

    __slots__ = ("rat", "surd")

    def __init__(self, rat: RatLike = 0, surd: RatLike = _F0):
        object.__setattr__(self, "rat", _frac(rat))
        object.__setattr__(self, "surd", _frac(surd))

    @staticmethod
    def _of(rat: Fraction, surd: Fraction = _F0) -> "Qsqrt3":
        """Build from two ``Fraction``s without coercing them."""
        x = object.__new__(Qsqrt3)
        object.__setattr__(x, "rat", rat)
        object.__setattr__(x, "surd", surd)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("Qsqrt3 is immutable")

    @staticmethod
    def coerce(x: "Qsqrt3 | RatLike") -> "Qsqrt3":
        if isinstance(x, Qsqrt3):
            return x
        return Qsqrt3(_frac(x))

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.surd)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Qsqrt3(other)
        if not isinstance(other, Qsqrt3):
            return NotImplemented
        return self.rat == other.rat and self.surd == other.surd

    def __hash__(self) -> int:
        return hash((self.rat, self.surd))

    def __add__(self, other) -> "Qsqrt3":
        other = Qsqrt3.coerce(other)
        if not self.surd and not other.surd:
            return Qsqrt3._of(self.rat + other.rat)
        return Qsqrt3._of(self.rat + other.rat, self.surd + other.surd)

    __radd__ = __add__

    def __neg__(self) -> "Qsqrt3":
        return Qsqrt3._of(-self.rat, -self.surd if self.surd else _F0)

    def __sub__(self, other) -> "Qsqrt3":
        return self + (-Qsqrt3.coerce(other))

    def __rsub__(self, other) -> "Qsqrt3":
        return Qsqrt3.coerce(other) + (-self)

    def __mul__(self, other) -> "Qsqrt3":
        if isinstance(other, int) and not self.surd:
            return Qsqrt3._of(self.rat * other)
        other = Qsqrt3.coerce(other)
        if not self.surd and not other.surd:
            return Qsqrt3._of(self.rat * other.rat)
        # (a + b s)(c + d s) = (ac + 3bd) + (ad + bc) s,  s^2 = 3
        return Qsqrt3._of(
            self.rat * other.rat + 3 * self.surd * other.surd,
            self.rat * other.surd + self.surd * other.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Qsqrt3":
        # 1/(a + b s) = (a - b s)/(a^2 - 3 b^2); the norm vanishes only at 0
        # since sqrt(3) is irrational.
        norm = self.rat * self.rat - 3 * self.surd * self.surd
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 3)")
        return Qsqrt3(self.rat / norm, -self.surd / norm)

    def __truediv__(self, other) -> "Qsqrt3":
        return self * Qsqrt3.coerce(other).inverse()

    def __rtruediv__(self, other) -> "Qsqrt3":
        return Qsqrt3.coerce(other) * self.inverse()

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; requires a vanishing sqrt(3) part."""
        if self.surd != 0:
            raise ValueError(f"{self!r} has an irrational part")
        return self.rat

    def __float__(self) -> float:
        return float(self.rat) + float(self.surd) * 3.0 ** 0.5

    def __repr__(self) -> str:
        if self.surd == 0:
            return f"Qsqrt3({self.rat})"
        return f"Qsqrt3({self.rat}, {self.surd})"


# 1/sqrt(3) = sqrt(3)/3
INV_SQRT3 = Qsqrt3(0, Fraction(1, 3))


class CScalar:
    """Complex number re + i*im with parts in Q(sqrt 3)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Qsqrt3.coerce(re))
        object.__setattr__(self, "im", Qsqrt3.coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("CScalar is immutable")

    @staticmethod
    def coerce(x) -> "CScalar":
        if isinstance(x, CScalar):
            return x
        return CScalar(Qsqrt3.coerce(x))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Qsqrt3)):
            other = CScalar(other)
        if not isinstance(other, CScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other) -> "CScalar":
        other = CScalar.coerce(other)
        return CScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "CScalar":
        return CScalar(-self.re, -self.im)

    def __sub__(self, other) -> "CScalar":
        return self + (-CScalar.coerce(other))

    def __mul__(self, other) -> "CScalar":
        other = CScalar.coerce(other)
        return CScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "CScalar":
        return CScalar(self.re, -self.im)

    def inverse(self) -> "CScalar":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of complex zero")
        ninv = n.inverse()
        return CScalar(self.re * ninv, -self.im * ninv)

    def __truediv__(self, other) -> "CScalar":
        return self * CScalar.coerce(other).inverse()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"CScalar({self.re!r}, {self.im!r})"

