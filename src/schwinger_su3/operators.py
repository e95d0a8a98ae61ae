"""Oscillator bilinears: su(3), sp(2,R) and SU(2)-ladder generators.

Operators are formal complex linear combinations of normal-ordered terms
z^alpha d^beta (every multiplication left of every derivative), stored as the
map (alpha, beta) -> coefficient.  That map is canonical, so operator equality
is map equality; products are brought back to normal order as they are formed,
by moving derivatives through multiplications with the multi-mode Leibniz
rule, so no other ordering is ever held.

The map has up to two forms, each built once and only when read: the
``CScalar`` term dict ``terms``, and the reduced integer ``channels``, four
``int``s per key over one positive denominator, on which +, -, ``scale``,
products, commutators and ``==`` run.  A generator from the constructor stores
its terms and clears them on first algebra use; an algebra result stores only
its channels until ``terms`` is read (``normal_form``, ``apply``, pickling).

Applied to a real polynomial an operator yields a (real, imaginary) pair of
polynomials; polynomial storage never leaves Q(sqrt 3).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .poly import Monomial, Polynomial, _nonzero
from .scalars import CScalar, Qsqrt3, INV_SQRT3, ratio

# a normal-ordered term z^alpha d^beta with six-exponent tuples alpha, beta
NormalKey = Tuple[Tuple[int, ...], Tuple[int, ...]]
# (L, key -> (c0, c1, c2, c3)): the coefficient of each key is
# ((c0 + c1 sqrt 3) + i (c2 + c3 sqrt 3)) / L
Channels = Tuple[int, Dict[NormalKey, Tuple[int, int, int, int]]]

_ZEROS = (0, 0, 0, 0, 0, 0)


class OperatorExpr:
    """Normal-ordered map z^alpha d^beta -> nonzero CScalar coefficient, in the
    two forms of the module docstring; an algebra result leaves the ``terms``
    slot unset until its first read.  ``terms`` is internal and never mutated;
    callers read the map through ``normal_form()``, which returns a copy."""

    __slots__ = ("terms", "_cleared")

    def __init__(self, terms: Dict[NormalKey, CScalar] | None = None):
        clean: Dict[NormalKey, CScalar] = {}
        if terms:
            for key, c in terms.items():
                c = CScalar.coerce(c)
                if c:
                    clean[key] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_cleared", None)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    def __reduce__(self):
        return OperatorExpr, (self.terms,)

    def __getattr__(self, name):
        # only an unset slot gets here: ``terms`` of an algebra result, built once
        if name != "terms":
            raise AttributeError(name)
        terms = _scalars(*self._cleared)
        object.__setattr__(self, "terms", terms)
        return terms

    def channels(self) -> Channels:
        """(L, key -> L * (re.rat, re.surd, im.rat, im.surd)), L the lcm of every
        part's denominator, so reduced; cleared once, shared, never mutated."""
        if self._cleared is None:
            parts = {key: (c.re.rat, c.re.surd, c.im.rat, c.im.surd)
                     for key, c in self.terms.items()}
            den = math.lcm(*(x.denominator for xs in parts.values() for x in xs))
            object.__setattr__(self, "_cleared", (den, {
                key: tuple(x.numerator * (den // x.denominator) for x in xs)
                for key, xs in parts.items()}))
        return self._cleared

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "OperatorExpr":
        return OperatorExpr()

    @staticmethod
    def identity(coeff=1) -> "OperatorExpr":
        return OperatorExpr({(_ZEROS, _ZEROS): coeff})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return _reduced(*_channel_sum(self.channels(), other.channels(), 1))

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return _reduced(*_channel_sum(self.channels(), other.channels(), -1))

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr() - self

    def scale(self, coeff) -> "OperatorExpr":
        """coeff times self: the product with coeff times the identity."""
        return self.compose(OperatorExpr.identity(coeff))

    def compose(self, other: "OperatorExpr") -> "OperatorExpr":
        """self applied after other (operator product self . other), normal ordered:
        (z^a d^b)(z^g d^e) = sum over k <= min(b, g) of w_k z^(a+g-k) d^(b-k+e),
        with the weights w_k of ``_contractions``."""
        (den_a, a), (den_b, b) = self.channels(), _operand(other).channels()
        return _reduced(den_a * den_b, _product_into({}, a, b, 1))

    def commutator(self, other: "OperatorExpr") -> "OperatorExpr":
        (den_a, a), (den_b, b) = self.channels(), _operand(other).channels()
        return _reduced(den_a * den_b, _product_into(_product_into({}, a, b, 1), b, a, -1))

    def normal_form(self) -> Dict[NormalKey, CScalar]:
        """Canonical form, all multiplications left of all derivatives: a copy of
        the term map."""
        return dict(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.channels() == other.channels()

    # -- application -----------------------------------------------------------

    def apply(self, f: Polynomial) -> Tuple[Polynomial, Polynomial]:
        """Apply to a real polynomial; returns (real part, imaginary part). d^beta
        weighs z^m by prod_j perm(m_j, beta_j), 0 where beta_j > m_j."""
        re: Dict[Monomial, Qsqrt3] = {}
        im: Dict[Monomial, Qsqrt3] = {}
        for (alpha, beta), coeff in self.terms.items():
            for m, c in f.terms.items():
                fall = math.prod(map(math.perm, m, beta))
                if not fall:
                    continue
                target = tuple(e - b + a for e, b, a in zip(m, beta, alpha))
                if coeff.re:
                    v = coeff.re * (c * fall)
                    re[target] = re[target] + v if target in re else v
                if coeff.im:
                    v = coeff.im * (c * fall)
                    im[target] = im[target] + v if target in im else v
        return Polynomial._of(_nonzero(re)), Polynomial._of(_nonzero(im))

    def apply_real(self, f: Polynomial) -> Polynomial:
        """Apply an operator known to be real; errors if an imaginary part appears."""
        re, im = self.apply(f)
        if im:
            raise ValueError("operator produced an imaginary component")
        return re

    def __repr__(self) -> str:
        terms = self.terms if self._cleared is None else self._cleared[1]
        return f"OperatorExpr({len(terms)} terms)"


def _operand(x) -> OperatorExpr:
    """x, the other operand of a product; any other type is a TypeError."""
    if not isinstance(x, OperatorExpr):
        raise TypeError(f"expected an OperatorExpr operand, got {type(x).__name__}")
    return x


@lru_cache(maxsize=None)
def _unit(*modes: int) -> Tuple[int, ...]:
    """The exponent tuple with a 1 at each 0-based mode of modes."""
    return tuple(int(j in modes) for j in range(6))


@lru_cache(maxsize=None)
def _contractions(
    b: Tuple[int, ...], g: Tuple[int, ...]
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...]:
    """(g - k, b - k, w) for each k <= min(b, g), with the weight
    w = prod_j C(b_j, k_j) g_j!/(g_j - k_j)!: the number of ways d^b, moved
    right through z^g, spends k_j derivatives on each z_j^(g_j)."""
    per_mode = [
        [(k, math.comb(x, k) * math.perm(y, k)) for k in range(min(x, y) + 1)]
        for x, y in zip(b, g)
    ]
    return tuple((tuple(y - k for y, (k, _) in zip(g, choice)),
                  tuple(x - k for x, (k, _) in zip(b, choice)),
                  math.prod(w for _, w in choice))
                 for choice in itertools.product(*per_mode))


def _product_into(out: Dict, a: Dict, b: Dict, sign: int) -> Dict:
    """Add sign * (a . b) to the channel map out, by ``compose``'s rule, as
    lists of four sums.  The channels (c0, c1, c2, c3) stand for (c0 + c1 u) + i (c2 + c3 u),
    multiplied with u*u = ``Qsqrt3.SQUARE`` and i*i = ``CScalar.SQUARE``, read
    on each call."""
    s, t = Qsqrt3.SQUARE, CScalar.SQUARE
    get = out.get
    for ((a1, a2, a3, a4, a5, a6), be), (p, q, r, v) in a.items():
        p, q, r, v = sign * p, sign * q, sign * r, sign * v
        for (ga, (e1, e2, e3, e4, e5, e6)), (w, x, y, z) in b.items():
            c0 = p * w + s * q * x + t * (r * y + s * v * z)
            c1 = p * x + q * w + t * (r * z + v * y)
            c2 = p * y + s * q * z + r * w + s * v * x
            c3 = p * z + q * y + r * x + v * w
            for (g1, g2, g3, g4, g5, g6), (b1, b2, b3, b4, b5, b6), n in _contractions(be, ga):
                key = ((a1 + g1, a2 + g2, a3 + g3, a4 + g4, a5 + g5, a6 + g6),
                       (b1 + e1, b2 + e2, b3 + e3, b4 + e4, b5 + e5, b6 + e6))
                acc = get(key)
                if acc is None:
                    out[key] = [n * c0, n * c1, n * c2, n * c3]
                else:
                    acc[0] += n * c0
                    acc[1] += n * c1
                    acc[2] += n * c2
                    acc[3] += n * c3
    return out


def _channel_sum(x: Channels, y: Channels, sign: int) -> Tuple[int, Dict]:
    """x + sign * y on channel maps, over the lcm of their denominators; zero
    sums kept."""
    (den_x, a), (den_y, b) = x, y
    den = math.lcm(den_x, den_y)
    ka, kb = den // den_x, sign * (den // den_y)
    out = {key: (ka * p, ka * q, ka * r, ka * v) for key, (p, q, r, v) in a.items()}
    get = out.get
    for key, (p, q, r, v) in b.items():
        w, x, y, z = get(key, (0, 0, 0, 0))
        out[key] = (w + kb * p, x + kb * q, y + kb * r, z + kb * v)
    return den, out


def _reduced(den: int, out: Dict) -> OperatorExpr:
    """The operator of the channel map out over den, storing its channels
    reduced: zero keys dropped, and the channels and den divided by their gcd."""
    out = {key: c for key, c in out.items() if c[0] or c[1] or c[2] or c[3]}
    g = math.gcd(den, *(x for c in out.values() for x in c))
    op = OperatorExpr.__new__(OperatorExpr)
    object.__setattr__(op, "_cleared", (den // g, {
        key: (w // g, x // g, y // g, z // g) for key, (w, x, y, z) in out.items()}))
    return op


def _scalars(den: int, out: Dict) -> Dict[NormalKey, CScalar]:
    """The channel map over den as exact coefficients, without its zero terms."""
    return {key: CScalar._of(Qsqrt3._of(ratio(w, den), ratio(x, den)),
                             Qsqrt3._of(ratio(y, den), ratio(z, den)))
            for key, (w, x, y, z) in out.items() if w or x or y or z}


# -- Gell-Mann data ------------------------------------------------------------


# the standard table of structure constants (Gell-Mann 1962): the nine
# independent f_abc, a < b < c, grouped by value
_F_STANDARD = (
    (Qsqrt3(1), ((1, 2, 3),)),
    (Qsqrt3(Fraction(1, 2)), ((1, 4, 7), (2, 4, 6), (2, 5, 7), (3, 4, 5))),
    (Qsqrt3(Fraction(-1, 2)), ((1, 5, 6), (3, 6, 7))),
    (Qsqrt3(0, Fraction(1, 2)), ((4, 5, 8), (6, 7, 8))),  # sqrt(3)/2
)


class GellMannTable:
    """The standard lambda matrices over Q(sqrt 3) and, stated apart from them,
    the totally antisymmetric f_abc; criterion 1 checks the one against the other."""

    def __init__(self):
        z = CScalar(0)
        o = CScalar(1)
        i = CScalar(0, 1)
        t = CScalar(INV_SQRT3)  # 1/sqrt(3)
        self.lambdas: List[List[List[CScalar]]] = [
            [[z, o, z], [o, z, z], [z, z, z]],
            [[z, -i, z], [i, z, z], [z, z, z]],
            [[o, z, z], [z, -o, z], [z, z, z]],
            [[z, z, o], [z, z, z], [o, z, z]],
            [[z, z, -i], [z, z, z], [i, z, z]],
            [[z, z, z], [z, z, o], [z, o, z]],
            [[z, z, z], [z, z, -i], [z, i, z]],
            [[t, z, z], [z, t, z], [z, z, t * CScalar(-2)]],
        ]
        self.f_consts: Dict[Tuple[int, int, int], Qsqrt3] = {}
        for f, triples in _F_STANDARD:
            for a, b, c in triples:
                for perm, sign in (
                    ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                    ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
                ):
                    self.f_consts[perm] = f * sign

    def f(self, a: int, b: int, c: int) -> Qsqrt3:
        return self.f_consts.get((a, b, c), Qsqrt3(0))


@lru_cache(maxsize=None)
def gell_mann() -> GellMannTable:
    """The Gell-Mann table, built on first use and shared."""
    return GellMannTable()


# -- generators ------------------------------------------------------------------


def su3_generator(alpha: int, sector: str = "total") -> OperatorExpr:
    """Q_alpha as an oscillator bilinear.

    sector "a": (1/2) sum_jk lambda_jk z_j d_k on modes 1..3;
    sector "b": -(1/2) sum_jk conj(lambda)_jk w_j d_k on modes 4..6;
    sector "total": their sum.
    """
    if alpha not in range(1, 9):
        raise ValueError(f"generator index {alpha} out of range 1..8")
    if sector not in ("a", "b", "total"):
        raise ValueError(f"unknown sector {sector!r}")
    lam = gell_mann().lambdas[alpha - 1]
    half = CScalar(Fraction(1, 2))
    terms = {}
    for j, k in itertools.product(range(3), repeat=2):
        c = half * lam[j][k]
        if sector != "b":
            terms[_unit(j), _unit(k)] = c
        if sector != "a":
            terms[_unit(j + 3), _unit(k + 3)] = -c.conjugate()
    return OperatorExpr(terms)


def number_op(sector: str) -> OperatorExpr:
    """Total number operator of the z modes ("a") or w modes ("b")."""
    if sector not in ("a", "b"):
        raise ValueError(f"unknown sector {sector!r}")
    shift = 3 if sector == "b" else 0
    return OperatorExpr({(_unit(j + shift), _unit(j + shift)): 1 for j in range(3)})


def sp2r_generator(which: str) -> OperatorExpr:
    """One of J0, K1, K2, Kplus, Kminus on the six-mode Bargmann space."""
    if which == "J0":
        # J0 = (N_a + N_b + 3)/2
        n = number_op("a") + number_op("b") + OperatorExpr.identity(3)
        return n.scale(Fraction(1, 2))
    if which == "Kplus":  # z.w = sum_j z_j w_j
        return OperatorExpr({(_unit(j, j + 3), _ZEROS): 1 for j in range(3)})
    if which == "Kminus":  # sum_j d/dz_j d/dw_j
        return OperatorExpr({(_ZEROS, _unit(j, j + 3)): 1 for j in range(3)})
    if which == "K1":
        kp = sp2r_generator("Kplus")
        km = sp2r_generator("Kminus")
        return (kp + km).scale(Fraction(1, 2))
    if which == "K2":
        # (K+ - K-)/(2i) = (i/2)(K- - K+)
        kp = sp2r_generator("Kplus")
        km = sp2r_generator("Kminus")
        return (km - kp).scale(CScalar(0, Fraction(1, 2)))
    raise ValueError(f"unknown sp(2,R) generator {which!r}")


def su2_ladder(which: str) -> OperatorExpr:
    """SU(2) ladder operators in the isospin subalgebra.

    Jminus = a2^dag a1 - b1^dag b2, Jplus its adjoint,
    J3 = (N1a - N2a - N1b + N2b)/2.
    """
    if which == "Jminus":
        return OperatorExpr({(_unit(1), _unit(0)): 1, (_unit(3), _unit(4)): -1})
    if which == "Jplus":
        return OperatorExpr({(_unit(0), _unit(1)): 1, (_unit(4), _unit(3)): -1})
    if which == "J3":
        return OperatorExpr({(_unit(j), _unit(j)): Fraction(sign, 2)
                             for j, sign in ((0, 1), (1, -1), (3, -1), (4, 1))})
    raise ValueError(f"unknown SU(2) ladder operator {which!r}")


def commutator_defect(
    X: OperatorExpr,
    Y: OperatorExpr,
    Z_expected: OperatorExpr,
    basis_degree: int,
) -> List[Tuple[NormalKey, CScalar]]:
    """The (key, coefficient) terms z^alpha d^beta of the normal-ordered
    [X, Y] - Z_expected with |beta| <= basis_degree.

    An empty list certifies the relation on all polynomials of degree <=
    basis_degree, and only then: let the listed term with the fewest
    derivatives act on z^beta. A term with beta' != beta and |beta'| >= |beta|
    kills z^beta and one with beta' = beta yields another monomial, so the
    result keeps a nonzero multiple of z^alpha.
    """
    if basis_degree < 0:
        raise ValueError("basis_degree must be nonnegative")
    den, out = _channel_sum(X.commutator(Y).channels(), Z_expected.channels(), -1)
    return list(_scalars(den, {key: c for key, c in out.items()
                               if sum(key[1]) <= basis_degree}).items())
