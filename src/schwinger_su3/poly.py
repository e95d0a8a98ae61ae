"""Sparse exact polynomials in the six oscillator variables.

A monomial is a tuple of six nonnegative exponents ordered
(a1, a2, a3, b1, b2, b3).  In Bargmann form the same slots read
(z1, z2, z3, w1, w2, w3) and for sphere functions (xi1, xi2, xi3,
xi*1, xi*2, xi*3).  Coefficients live in Q(sqrt 3); basis states and
sphere functions only ever use the rational subfield.

A ``Polynomial`` holds one value in up to two forms, each built at most
once and only when read: the ``Qsqrt3`` term dict ``terms``, and the reduced
integer channels (R, S, L) of ``channels``, on which products, sums,
differences and trace removal run.  A result of those operations, and any
polynomial the library builds from its own integers, comes from
``rebuild_polynomial`` and stores only its channels; the first read of
``terms`` builds and stores its term dict, and ``bool``, ``bidegree`` and
``==`` against another polynomial that stores channels never build it.

The trace series behind trace removal (K- = sum_j d/dz_j d/dw_j, the z.w
multiplier, and the cofactor series in Horner form) is a kernel on plain
term dicts: it only adds coefficients and multiplies them by integers, so
the exact projector runs it on integer-cleared coefficients and the float
shadow in ``numeric`` on complex ones.  Trace removal and the trace-free test
live here, on that kernel (``traceless_project``, ``zw_cofactor``,
``h0_membership``), so ``project`` and ``map`` load no basis or operator code.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Tuple, TypeVar

from .catalog import _brief
from .scalars import Qsqrt3, RatLike, ratio

Monomial = Tuple[int, int, int, int, int, int]

NVARS = 6

_QZERO = Qsqrt3(0)

# a term dict of the trace kernel; its coefficients need only + and * by int
Coeff = TypeVar("Coeff")
Terms = Dict[Monomial, Coeff]


def charge(m: Monomial) -> Tuple[int, int, int]:
    """U(1)^3 charge a - b of the monomial z^a w^b (or xi^a conj(xi)^b)."""
    return (m[0] - m[3], m[1] - m[4], m[2] - m[5])


def monomial_norm_sq(m: Monomial) -> int:
    """Squared Bargmann norm of a monomial: the product of exponent factorials."""
    return math.prod(map(math.factorial, m))


class Polynomial:
    """Canonical sparse polynomial: a map monomial -> nonzero Qsqrt3.  One
    from the constructor or ``_of`` stores its term dict, and its reduced
    integer channels once ``channels`` is first called; one from
    ``rebuild_polynomial`` stores its channels and leaves the ``terms`` slot
    unset until the first read of ``terms`` builds and stores the term dict."""

    __slots__ = ("terms", "_cleared")

    def __init__(self, terms: Dict[Monomial, Qsqrt3] | None = None):
        clean: Dict[Monomial, Qsqrt3] = {}
        if terms:
            for m, c in terms.items():
                c = Qsqrt3.coerce(c)
                if not c:
                    continue
                if len(m) != NVARS or any(e < 0 for e in m):
                    raise ValueError(f"bad monomial {m!r}")
                clean[tuple(m)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_cleared", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return rebuild_polynomial, self.channels()

    def __getattr__(self, name):
        # only an unset slot gets here: ``terms`` of a rebuilt polynomial, built
        # once, each part an ``int`` where it is integral, else a ``Fraction``
        if name != "terms":
            raise AttributeError(name)
        rat, surd, den = self._cleared
        of = Qsqrt3._of
        terms = {m: of(ratio(c, den), ratio(surd.get(m, 0), den)) for m, c in rat.items()}
        terms.update((m, of(0, ratio(c, den))) for m, c in surd.items() if m not in rat)
        object.__setattr__(self, "terms", terms)
        return terms

    @staticmethod
    def _of(terms: Dict[Monomial, Qsqrt3]) -> "Polynomial":
        """Wrap an already canonical term dict without checking it."""
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_cleared", None)
        return p

    def channels(self) -> Tuple[Terms, Terms, int]:
        """``clear_terms(self.terms)``, computed on the first call and stored;
        callers share the dicts and must not mutate them."""
        if self._cleared is None:
            object.__setattr__(self, "_cleared", clear_terms(self.terms))
        return self._cleared

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({(0,) * NVARS: Qsqrt3.coerce(c)})

    @staticmethod
    def variable(j: int) -> "Polynomial":
        """The j-th variable, j in 1..6."""
        if not 1 <= j <= NVARS:
            raise ValueError(f"mode index {j} out of range 1..6")
        exps = [0] * NVARS
        exps[j - 1] = 1
        return Polynomial({tuple(exps): Qsqrt3(1)})

    @staticmethod
    def monomial(m: Monomial, c=1) -> "Polynomial":
        return Polynomial({tuple(m): Qsqrt3.coerce(c)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        if self._cleared is None:
            return bool(self.terms)
        rat, surd, _ = self._cleared
        return bool(rat or surd)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self._cleared and other._cleared:
            return self._cleared == other._cleared
        return self.terms == other.terms

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other on integer channels over the lcm of the two
        denominators."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        ra, sa, da = self.channels()
        rb, sb, db = other.channels()
        den = math.lcm(da, db)
        ka, kb = den // da, sign * (den // db)
        rat, surd = _scaled_sum(ra, ka, rb, kb), _scaled_sum(sa, ka, sb, kb)
        return rebuild_polynomial(rat, surd, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Polynomial":
        c = Qsqrt3.coerce(c)
        if not c:
            return Polynomial.zero()
        return Polynomial._of({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        """The product of two polynomials; ``scale`` multiplies by a scalar."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        ra, sa, da = self.channels()
        rb, sb, db = other.channels()
        # (Ra + Sa u)(Rb + Sb u) = (Ra Rb + SQUARE Sa Sb) + (Ra Sb + Sa Rb) u,
        # on integers over da db; an empty Sa or Sb adds nothing
        rat = _convolve({}, ra, rb)
        surd: Terms = {}
        if sb:
            _convolve(rat, {m: Qsqrt3.SQUARE * c for m, c in sa.items()}, sb)
            _convolve(surd, ra, sb)
        _convolve(surd, sa, rb)
        return rebuild_polynomial(rat, surd, da * db)

    # -- bidegree grading ----------------------------------------------------

    def bidegree(self) -> Tuple[int, int] | None:
        """(z-degree, w-degree) if bihomogeneous, else None.  Zero -> None."""
        rat, surd, _ = self.channels()
        deg = None
        for m in (*rat, *surd):
            d = (m[0] + m[1] + m[2], m[3] + m[4] + m[5])
            if deg is None:
                deg = d
            elif d != deg:
                return None
        return deg

    def bidegree_split(self) -> Dict[Tuple[int, int], "Polynomial"]:
        """Partition into bihomogeneous components keyed by (p, q)."""
        parts: Dict[Tuple[int, int], Dict[Monomial, Qsqrt3]] = {}
        for m, c in self.terms.items():
            d = (m[0] + m[1] + m[2], m[3] + m[4] + m[5])
            parts.setdefault(d, {})[m] = c
        return {d: Polynomial._of(terms) for d, terms in parts.items()}

    def coefficient(self, m: Monomial) -> Qsqrt3:
        return self.terms.get(tuple(m), _QZERO)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m in sorted(self.terms):
            bits.append(f"{self.terms[m]!r}*{m}")
        return "Polynomial(" + " + ".join(bits) + ")"


# -- integer channels --------------------------------------------------------------


def clear_terms(terms: Dict[Monomial, Qsqrt3]) -> Tuple[Terms, Terms, int]:
    """(R, S, L): the rational and the sqrt(3) parts of the coefficients as
    integer term dicts over one common denominator L, so that each coefficient
    is (R[m] + S[m] sqrt 3) / L; a zero part has no entry."""
    den = math.lcm(*(x.denominator for c in terms.values() for x in (c.rat, c.surd)
                     if type(x) is not int))
    rat = {m: x.numerator * (den // x.denominator) for m, c in terms.items() if (x := c.rat)}
    surd = {m: x.numerator * (den // x.denominator) for m, c in terms.items() if (x := c.surd)}
    return rat, surd, den


def rebuild_polynomial(rat: Terms, surd: Terms, den: int) -> Polynomial:
    """Inverse of ``clear_terms``: the polynomial with coefficients
    (rat[m] + surd[m] sqrt 3) / den; zero coefficients go. It stores the
    channels, divided by their gcd with den, and builds its term dict only
    when ``terms`` is read.  The library builds every polynomial of its own
    integer data here; the constructor checks outside input."""
    g = math.gcd(den, *rat.values(), *surd.values())
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "_cleared", ({m: c // g for m, c in rat.items() if c},
                                       {m: c // g for m, c in surd.items() if c}, den // g))
    return p


def _scaled_sum(a: Terms, ka: int, b: Terms, kb: int) -> Terms:
    """ka a + kb b on integer term dicts, zeros kept."""
    out = {m: ka * c for m, c in a.items()}
    get = out.get
    for m, c in b.items():
        out[m] = get(m, 0) + kb * c
    return out


def _convolve(out: Terms, a: Terms, b: Terms) -> Terms:
    """Add the product of the integer term dicts a and b into out."""
    get = out.get
    for (a1, a2, a3, a4, a5, a6), x in a.items():
        for (b1, b2, b3, b4, b5, b6), y in b.items():
            m = (a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6)
            out[m] = get(m, 0) + x * y
    return out


def bargmann_inner(f: Polynomial, g: Polynomial) -> Qsqrt3:
    """Exact Gaussian inner product <f, g>.

    Monomials are orthogonal with squared norm equal to the product of
    exponent factorials; coefficients are real, so conjugation is trivial.
    """
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    total = _QZERO
    for m, ca in a.items():
        cb = b.get(m)
        if cb is not None:
            total = total + ca * cb * monomial_norm_sq(m)
    return total


# -- trace series kernel --------------------------------------------------------


def _nonzero(terms: Terms) -> Terms:
    return {m: c for m, c in terms.items() if c}


def kminus_terms(terms: Terms) -> Terms:
    """K- = sum_j d/dz_j d/dw_j on a term dict."""
    out: Terms = {}
    get = out.get
    for (a1, a2, a3, b1, b2, b3), c in terms.items():
        if a1 and b1:
            t = (a1 - 1, a2, a3, b1 - 1, b2, b3)
            out[t] = get(t, 0) + a1 * b1 * c
        if a2 and b2:
            t = (a1, a2 - 1, a3, b1, b2 - 1, b3)
            out[t] = get(t, 0) + a2 * b2 * c
        if a3 and b3:
            t = (a1, a2, a3 - 1, b1, b2, b3 - 1)
            out[t] = get(t, 0) + a3 * b3 * c
    return _nonzero(out)


def h0_membership(f: Polynomial) -> bool:
    """True iff K- annihilates f exactly, read on its integer channels."""
    rat, surd, _ = f.channels()
    return not (kminus_terms(rat) or kminus_terms(surd))


def zw_mul_terms(terms: Terms) -> Terms:
    """(z.w) f = sum_j z_j w_j f on a term dict."""
    out: Terms = {}
    get = out.get
    for (a1, a2, a3, b1, b2, b3), c in terms.items():
        t = (a1 + 1, a2, a3, b1 + 1, b2, b3)
        out[t] = get(t, 0) + c
        t = (a1, a2 + 1, a3, b1, b2 + 1, b3)
        out[t] = get(t, 0) + c
        t = (a1, a2, a3 + 1, b1, b2, b3 + 1)
        out[t] = get(t, 0) + c
    return _nonzero(out)


def trace_series(terms: Terms, p: int, q: int) -> Tuple[Terms, int]:
    """(D g, D) for g = sum_{n=1..N} alpha_n (z.w)^(n-1) K-^n f on bidegree (p, q).

    alpha_n = (-1)^(n-1) (d-n)!/(n! d!) with d = p+q+1, N = min(p, q); then
    f - (z.w) g is the component of f annihilated by K-.  D = d!/(d-N)! N! makes
    each A_n = D alpha_n = (-1)^(n-1) (N!/n!) (d-n)!/(d-N)! an integer, and the
    sum runs in Horner form D g = A_1 K- f + (z.w)(A_2 K-^2 f + (z.w)(...)).
    """
    d, n_max = p + q + 1, min(p, q)
    powers = []  # K-^n f for n = 1, 2, ... while nonzero
    km = terms
    for _ in range(n_max):
        km = kminus_terms(km)
        if not km:
            break
        powers.append(km)
    g: Terms = {}
    for n in range(len(powers), 0, -1):
        weight = (-1) ** (n - 1) * math.perm(n_max, n_max - n) * math.perm(d - n, n_max - n)
        g = zw_mul_terms(g)
        for m, c in powers[n - 1].items():
            g[m] = g.get(m, 0) + weight * c
    return _nonzero(g), math.perm(d, n_max) * math.factorial(n_max)


def trace_free_terms(terms: Terms, p: int, q: int) -> Tuple[Terms, int]:
    """(D f0, D) for the trace-free part f0 = f - (z.w) g, as in trace_series."""
    g, den = trace_series(terms, p, q)
    out = {m: den * c for m, c in terms.items()}
    for m, c in zw_mul_terms(g).items():
        out[m] = out.get(m, 0) - c
    return _nonzero(out), den


def run_trace_kernel(f: Polynomial, kernel) -> Polynomial:
    """Run a trace kernel, (integer terms, p, q) -> (D h, D) with D fixed by
    (p, q), on the rational and the sqrt(3) part of f's coefficients, cleared
    to integers over one common denominator L; h / (D L) is that part of the
    result."""
    if not f:
        return f
    pq = f.bidegree()
    if pq is None:
        raise ValueError("polynomial is not bihomogeneous")
    p, q = pq
    rat, surd, den = f.channels()
    rat, scale = kernel(rat, p, q)
    surd = kernel(surd, p, q)[0] if surd else {}
    return rebuild_polynomial(rat, surd, den * scale)


def traceless_project(f: Polynomial) -> Polynomial:
    """Leading traceless part f0 of a bihomogeneous polynomial.

    f0 = f - sum_n (-1)^(n-1) (p+q+1-n)!/(n! (p+q+1)!) (z.w)^n K-^n f,
    the unique component annihilated by K-.
    """
    return run_trace_kernel(f, trace_free_terms)


def zw_cofactor(f: Polynomial) -> Polynomial:
    """g with f - traceless_project(f) = (z.w) g, read off the projector series."""
    return run_trace_kernel(f, trace_series)


@lru_cache(maxsize=None)
def monomials_of_bidegree(p: int, q: int) -> Tuple[Monomial, ...]:
    """All monomials with z-degree p and w-degree q, in lexicographic order
    (z-major), built once per bidegree and shared."""
    z, w = ([(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)] for n in (p, q))
    return tuple(a + b for a in z for b in w)


@lru_cache(maxsize=None)
def monomial_index(p: int, q: int) -> Mapping[Monomial, int]:
    """The position of each monomial in monomials_of_bidegree(p, q), as a
    read-only view, since every caller shares it."""
    return MappingProxyType({m: k for k, m in enumerate(monomials_of_bidegree(p, q))})


# -- serialization -----------------------------------------------------------


def wire_rational(x: RatLike, prefix: str) -> Dict[str, str]:
    """A rational as the wire's ``<prefix>num``/``<prefix>den`` strings."""
    return {prefix + "num": str(x.numerator), prefix + "den": str(x.denominator)}


def poly_to_records(f: Polynomial) -> list:
    """Wire form: list of term records, lexicographic by exponents."""
    return [{"exps": list(m), **wire_rational(c.rat, ""), **wire_rational(c.surd, "surd_")}
            for m, c in sorted(f.terms.items())]


class PolyFormatError(ValueError):
    """Malformed wire-form polynomial."""


def _wire_int(r: dict, key: str, default=None) -> int:
    """An integer field of a term record, given as an int or as an ASCII
    decimal string ``-?[0-9]+`` (no blanks, underscores or other digits)."""
    v = r.get(key, default)
    if v is None:
        raise PolyFormatError(f"term record lacks {key!r}")
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v):
        try:
            return int(v)
        except ValueError:  # more digits than the interpreter converts
            pass
    elif isinstance(v, int) and not isinstance(v, bool):
        return v
    raise PolyFormatError(f"{key} must be an integer, got {_brief(v)}")


def _wire_fraction(r: dict, prefix: str, optional: bool) -> Fraction:
    """Read back ``wire_rational``; if optional, num defaults to 0, den to 1."""
    n = _wire_int(r, prefix + "num", 0 if optional else None)
    d = _wire_int(r, prefix + "den", 1 if optional else None)
    if d == 0:
        raise PolyFormatError(f"{prefix}den is zero")
    return Fraction(n, d)


def poly_from_records(recs: list) -> Polynomial:
    """Inverse of ``poly_to_records``; raises ``PolyFormatError`` on bad input."""
    if not isinstance(recs, list):
        raise PolyFormatError("polynomial must be a list of term records")
    terms: Dict[Monomial, Qsqrt3] = {}
    for r in recs:
        if not isinstance(r, dict):
            raise PolyFormatError(f"term record must be an object, got {_brief(r)}")
        exps = r.get("exps")
        if not (
            isinstance(exps, list)
            and len(exps) == NVARS
            and all(type(e) is int and e >= 0 for e in exps)
        ):
            raise PolyFormatError(f"exps must be a list of 6 non-negative ints, got {_brief(exps)}")
        m = tuple(exps)
        c = Qsqrt3(_wire_fraction(r, "", False), _wire_fraction(r, "surd_", True))
        if m in terms:
            raise PolyFormatError(f"duplicate monomial {_brief(m)} in serialized polynomial")
        terms[m] = c  # zero coefficients go in Polynomial, after the duplicate check
    return Polynomial(terms)


def poly_to_json(f: Polynomial) -> str:
    return json.dumps(poly_to_records(f), separators=(",", ":"))
