"""Combinatorial bookkeeping for SU(3) irreps.

Half-integers are stored doubled (I2 = 2I, M2 = 2M) and hypercharge tripled
(Y3 = 3Y), so every label is a plain integer.
"""

from __future__ import annotations

import operator
import reprlib
from fractions import Fraction
from typing import List

# sets a field of a new record, past Record.__setattr__
_set = object.__setattr__


def _brief(v) -> str:
    """The repr of a bad value for an error line, cut to 60 characters."""
    try:
        return reprlib.repr(v)[:60]
    except ValueError:  # an int with more digits than the interpreter prints
        return f"<int of {v.bit_length()} bits>"


class Record:
    """Immutable value whose fields are the names in a subclass's ``__slots__``
    (two or more), each set once by the subclass's ``__init__`` through
    ``_set``. Records compare and hash by their field tuple, against records
    of the same class only; they do not sort."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"record fields are read-only: {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return type(self)(**dict(zip(self.__slots__, self._fields(self)), **changes))

    def __reduce__(self):
        return type(self), self._fields(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)


class InvalidWeightError(ValueError):
    """Requested (I, Y) or (r, s) does not occur in the given irrep."""


class IrrepLabel(Record):
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError(f"irrep labels must be nonnegative, got ({_brief(p)},{_brief(q)})")
        _set(self, "p", p)
        _set(self, "q", q)


class WeightLabel(Record):
    """Weight inside an irrep: I2 = 2I, M2 = 2M, Y3 = 3Y plus the (r, s) indices."""

    __slots__ = ("I2", "M2", "Y3", "r", "s")

    def __init__(self, I2: int, M2: int, Y3: int, r: int, s: int):
        if abs(M2) > I2 or (M2 - I2) % 2:
            raise InvalidWeightError(f"M2={_brief(M2)} invalid for I2={_brief(I2)}")
        _set(self, "I2", I2)
        _set(self, "M2", M2)
        _set(self, "Y3", Y3)
        _set(self, "r", r)
        _set(self, "s", s)

    @property
    def I(self) -> Fraction:  # noqa: E743 - domain name
        return Fraction(self.I2, 2)

    @property
    def Y(self) -> Fraction:
        return Fraction(self.Y3, 3)

    @property
    def size(self) -> int:
        """Number of M states in the multiplet, 2I + 1."""
        return self.I2 + 1


def dim(rep: IrrepLabel) -> int:
    """d(p,q) = (p+1)(q+1)(p+q+2)/2."""
    p, q = rep.p, rep.q
    return (p + 1) * (q + 1) * (p + q + 2) // 2


def iy_spectrum(rep: IrrepLabel) -> List[WeightLabel]:
    """One I-Y multiplet per (r, s) with 0 <= r <= p, 0 <= s <= q, in (r, s)
    order; each is labelled by its M = I weight."""
    return [weight_from_rs(rep, r, s)
            for r in range(rep.p + 1) for s in range(rep.q + 1)]


def cg_series(p: int, q: int) -> List[IrrepLabel]:
    """(p,0) x (0,q) = sum of (p - rho, q - rho) for rho = 0..min(p, q)."""
    IrrepLabel(p, q)  # a negative label raises here
    return [IrrepLabel(p - rho, q - rho) for rho in range(min(p, q) + 1)]


def k_of(rep: IrrepLabel) -> int:
    """Lowest sp(2,R) weight, doubled: 2k = p + q + 3."""
    return rep.p + rep.q + 3


SUBGROUPS = ("U1xU1", "SU2", "U2", "SO3")


def induced_multiplicity(subgroup: str, rep: IrrepLabel) -> int:
    """Multiplicity of (p,q) in the representation induced from the trivial
    representation of the named subgroup."""
    p, q = rep.p, rep.q
    if subgroup == "U1xU1":
        return min(p + 1, q + 1) if (p - q) % 3 == 0 else 0
    if subgroup == "SU2":
        return 1
    if subgroup == "U2":
        return 1 if p == q else 0
    if subgroup == "SO3":
        return 1 if p % 2 == 0 and q % 2 == 0 else 0
    raise ValueError(f"unknown subgroup {subgroup!r}; expected one of {SUBGROUPS}")


def weight_from_rs(rep: IrrepLabel, r: int, s: int) -> WeightLabel:
    """Label of the (r, s) multiplet at its highest weight M = I; another M
    is ``.replace(M2=...)`` of it."""
    if not (0 <= r <= rep.p and 0 <= s <= rep.q):
        raise InvalidWeightError(
            f"(r,s)=({_brief(r)},{_brief(s)}) outside [0,{_brief(rep.p)}]x[0,{_brief(rep.q)}]"
        )
    I2 = r + s
    Y3 = 3 * (r - s) + 2 * (rep.q - rep.p)
    return WeightLabel(I2=I2, M2=I2, Y3=Y3, r=r, s=s)


def weight_from_iy(rep: IrrepLabel, I2: int, Y3: int) -> WeightLabel:
    """The (I, Y) multiplet's label at M = I, from r = I + Y/2 + (p-q)/3 and
    s = I - Y/2 + (q-p)/3, exact in sixths."""
    p, q = rep.p, rep.q
    r6 = 3 * I2 + Y3 + 2 * (p - q)
    s6 = 3 * I2 - Y3 + 2 * (q - p)
    if r6 % 6 or s6 % 6:
        raise InvalidWeightError(
            f"(I2,Y3)=({_brief(I2)},{_brief(Y3)}) not integral for ({_brief(p)},{_brief(q)})")
    return weight_from_rs(rep, r6 // 6, s6 // 6)

