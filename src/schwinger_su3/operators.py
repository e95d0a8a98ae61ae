"""Oscillator bilinears: su(3), sp(2,R) and SU(2)-ladder generators.

Operators are formal complex linear combinations of normal-ordered terms
z^alpha d^beta (every multiplication left of every derivative), stored as the
map (alpha, beta) -> coefficient.  That map is canonical, so operator equality
is map equality; products are brought back to normal order as they are formed,
by moving derivatives through multiplications with the multi-mode Leibniz
rule, so no other representation is ever held.

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

_ZEROS = (0, 0, 0, 0, 0, 0)


class OperatorExpr:
    """Normal-ordered map z^alpha d^beta -> nonzero CScalar coefficient.

    ``terms`` is internal and never mutated; callers read the map through
    ``normal_form()``, which returns a copy."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[NormalKey, CScalar] | None = None):
        clean: Dict[NormalKey, CScalar] = {}
        if terms:
            for key, c in terms.items():
                c = CScalar.coerce(c)
                if c:
                    clean[key] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    def __reduce__(self):
        return OperatorExpr, (self.terms,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "OperatorExpr":
        return OperatorExpr()

    @staticmethod
    def identity(coeff=1) -> "OperatorExpr":
        return OperatorExpr({(_ZEROS, _ZEROS): coeff})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return OperatorExpr(out)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def scale(self, coeff) -> "OperatorExpr":
        coeff = CScalar.coerce(coeff)
        return OperatorExpr({key: coeff * c for key, c in self.terms.items()})

    def compose(self, other: "OperatorExpr") -> "OperatorExpr":
        """self applied after other (operator product self . other), normal ordered:
        (z^a d^b)(z^g d^e) = sum over k <= min(b, g) of w_k z^(a+g-k) d^(b-k+e),
        with the weights w_k of ``_contractions``."""
        (den_a, a), (den_b, b) = _channels(self), _channels(other)
        return OperatorExpr(_scalars(den_a * den_b, _product_into({}, a, b, 1)))

    def commutator(self, other: "OperatorExpr") -> "OperatorExpr":
        (den_a, a), (den_b, b) = _channels(self), _channels(other)
        out = _product_into(_product_into({}, a, b, 1), b, a, -1)
        return OperatorExpr(_scalars(den_a * den_b, out))

    def normal_form(self) -> Dict[NormalKey, CScalar]:
        """Canonical form, all multiplications left of all derivatives: a copy of
        the term map."""
        return dict(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.terms == other.terms

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
        return f"OperatorExpr({len(self.terms)} terms)"


def _unit(*modes: int) -> Tuple[int, ...]:
    """The exponent tuple with a 1 at each 0-based mode of modes."""
    return tuple(int(j in modes) for j in range(6))


@lru_cache(maxsize=None)
def _contractions(
    b: Tuple[int, ...], g: Tuple[int, ...]
) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Each k <= min(b, g) with its weight prod_j C(b_j, k_j) g_j!/(g_j - k_j)!:
    the number of ways d^b, moved right through z^g, spends k_j derivatives
    on each z_j^(g_j)."""
    per_mode = [
        [(k, math.comb(x, k) * math.perm(y, k)) for k in range(min(x, y) + 1)]
        for x, y in zip(b, g)
    ]
    return tuple((tuple(k for k, _ in choice), math.prod(w for _, w in choice))
                 for choice in itertools.product(*per_mode))


def _channels(op: OperatorExpr) -> Tuple[int, Dict[NormalKey, Tuple[int, ...]]]:
    """(L, key -> L * (re.rat, re.surd, im.rat, im.surd)): the coefficients as
    four integer channels over L, the lcm of every part's denominator."""
    parts = {key: (c.re.rat, c.re.surd, c.im.rat, c.im.surd) for key, c in op.terms.items()}
    den = math.lcm(*(x.denominator for xs in parts.values() for x in xs))
    return den, {key: tuple(x.numerator * (den // x.denominator) for x in xs)
                 for key, xs in parts.items()}


def _product_into(out: Dict, a: Dict, b: Dict, sign: int) -> Dict:
    """Add sign * (a . b) to the channel map out, by ``compose``'s rule.  The
    channels (c0, c1, c2, c3) stand for (c0 + c1 u) + i (c2 + c3 u), multiplied
    with u*u = ``Qsqrt3.SQUARE`` and i*i = ``CScalar.SQUARE``, read on each call."""
    s, t = Qsqrt3.SQUARE, CScalar.SQUARE
    for (al, be), (p, q, r, v) in a.items():
        p, q, r, v = sign * p, sign * q, sign * r, sign * v
        for (ga, ep), (w, x, y, z) in b.items():
            c = (p * w + s * q * x + t * (r * y + s * v * z),
                 p * x + q * w + t * (r * z + v * y),
                 p * y + s * q * z + r * w + s * v * x,
                 p * z + q * y + r * x + v * w)
            for k, n in _contractions(be, ga):
                key = (tuple(e + f - h for e, f, h in zip(al, ga, k)),
                       tuple(e - h + f for e, h, f in zip(be, k, ep)))
                acc = out.setdefault(key, [0, 0, 0, 0])
                for j in range(4):
                    acc[j] += n * c[j]
    return out


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
    defect = X.commutator(Y) - Z_expected
    return [(key, c) for key, c in defect.terms.items() if sum(key[1]) <= basis_degree]
