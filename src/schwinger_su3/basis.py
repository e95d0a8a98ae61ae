"""Construction of the normalized SU(3) x Sp(2,R) basis states.

A state is built on one path: the trace-free part of its leading monomial
z1^r z3^(p-r) w2^s w3^(q-s), made primitive over the integers, raised by
K+ = z.w and lowered by J-.  It is stored with integer coefficients together
with its exact squared Bargmann norm; the mathematically normalized state is
poly / sqrt(norm_sq).  The paper's closed form (the C_n of ``cn_coeffs`` and
the normalization constants) builds no state: it only predicts the norms, so
tests can confront it with the Gaussian-integral inner product of the
projector-built states.

Trace removal itself (``traceless_project``, ``zw_cofactor``) lives in
``poly``, next to the trace kernel it runs; this module imports both, so
``basis.traceless_project`` names the same function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Tuple

from .catalog import IrrepLabel, Record, WeightLabel, _brief, _set, iy_spectrum, k_of
from .poly import (
    Monomial,
    Polynomial,
    bargmann_inner,
    charge,
    kminus_terms,
    monomials_of_bidegree,
    poly_to_records,
    rebuild_polynomial,
    trace_free_terms,
    traceless_project,
    wire_rational,
    zw_cofactor,
)
from .scalars import RatLike


@lru_cache(maxsize=None)
def _generator(name: str):
    """K-, K+, J0 or J- (by ``operators`` name), built on first use, so that
    ``basis_state`` at M = I, which applies no J-, never loads ``operators``."""
    from .operators import sp2r_generator, su2_ladder

    return su2_ladder(name) if name == "Jminus" else sp2r_generator(name)


# the highest Sp(2,R) level of a key, m = k + TOP_LEVEL
TOP_LEVEL = 2

# z.w = z1 w1 + z2 w2 + z3 w3 (the K+ multiplier)
ZW = (
    Polynomial.monomial((1, 0, 0, 1, 0, 0))
    + Polynomial.monomial((0, 1, 0, 0, 1, 0))
    + Polynomial.monomial((0, 0, 1, 0, 0, 1))
)


class BasisKey(Record):
    __slots__ = ("rep", "weight", "m2")

    def __init__(self, rep: IrrepLabel, weight: WeightLabel, m2: int):
        k2 = k_of(rep)
        if m2 < k2 or (m2 - k2) % 2:
            raise ValueError(f"m2={_brief(m2)} invalid for 2k={_brief(k2)}")
        _set(self, "rep", rep)
        _set(self, "weight", weight)
        _set(self, "m2", m2)


class NormalizedState(Record):
    __slots__ = ("poly", "norm_sq", "key")

    def __init__(self, poly: Polynomial, norm_sq: Fraction, key: BasisKey):
        _set(self, "poly", poly)
        _set(self, "norm_sq", norm_sq)
        _set(self, "key", key)


def cn_coeffs(p: int, q: int, r: int, s: int) -> List[Fraction]:
    """Expansion coefficients C_0..C_nmax of the paper's highest-weight ansatz,
    z1^r w2^s sum_n C_n (z1 w1 + z2 w2)^n z3^(p-r-n) w3^(q-s-n), C_0 = 1.

    This closed form is a prediction, not a constructor: ``basis_state`` takes
    the trace-free part of the n = 0 monomial, and the tests compare the two.
    Criterion 12 checks it against the recursion
    n (r+s+n+1) C_n = -(p-r-n+1) (q-s-n+1) C_{n-1}.
    """
    if not (0 <= r <= p and 0 <= s <= q):
        raise ValueError(f"(r,s)=({r},{s}) outside [0,{p}]x[0,{q}]")
    # C_n = (-1)^n (p-r)! (q-s)! (r+s+1)! / (n! (p-r-n)! (q-s-n)! (r+s+n+1)!),
    # one Fraction of two integer products each
    return [
        Fraction(
            (-1) ** n * math.perm(p - r, n) * math.perm(q - s, n) * math.factorial(r + s + 1),
            math.factorial(n) * math.factorial(r + s + n + 1),
        )
        for n in range(min(p - r, q - s) + 1)
    ]


def hw_norm_constant_sq(p: int, q: int, r: int, s: int) -> Fraction:
    """Squared normalization constant of the highest-weight closed form."""
    return Fraction(
        math.prod(map(math.factorial, (r, s, r + s + 1, p - r, q - s, p + s + 1, q + r + 1))),
        math.factorial(p + q + 1),
    )


def predicted_hw_norm_sq(p: int, q: int, r: int, s: int) -> Fraction:
    """Squared norm the closed-form constants predict for the m = k, M = I state.

    The L C_n, with L the lcm of the denominators of cn_coeffs, are coprime
    integers (C_0 = 1), so the ansatz scaled by L is the primitive polynomial
    that basis_state builds.  That polynomial is clearing * v, where v is the
    paper's summand z1^r w2^s sum_n (-1)^n / ((r+s+n+1)! n! (p-r-n)! (q-s-n)!)
    (z1 w1 + z2 w2)^n z3^(p-r-n) w3^(q-s-n) and clearing = L (r+s+1)! (p-r)! (q-s)!.
    """
    lcm = math.lcm(*(c.denominator for c in cn_coeffs(p, q, r, s)))
    clearing = Fraction(
        lcm * math.factorial(r + s + 1) * math.factorial(p - r) * math.factorial(q - s)
    )
    n2 = hw_norm_constant_sq(p, q, r, s)
    rs_fact = Fraction(math.factorial(r) * math.factorial(s))
    # v = r! s! * (closed-form summand); ||summand|| = 1/N
    return clearing**2 * rs_fact**2 / n2


def raise_norm_ratio(rep: IrrepLabel, m2_target: int) -> Fraction:
    """Predicted norm_sq growth under K+^(m-k), from the discrete-series relations."""
    k2 = k_of(rep)
    rho = (m2_target - k2) // 2
    # (m-k)! (m+k-1)! / (2k-1)! with 2m = m2_target, 2k = k2
    return Fraction(
        math.factorial(rho) * math.factorial(rho + k2 - 1), math.factorial(k2 - 1)
    )


def lower_norm_ratio(I2: int, M2_target: int) -> Fraction:
    """Predicted norm_sq growth under J-^(I-M): (2I)! (I-M)! / (I+M)!.

    The (2I)! grouping is the standard SU(2) lowering normalization; it is the
    reading that yields exact unit norms (checked in the test suite).
    """
    t = (I2 - M2_target) // 2
    return Fraction(
        math.factorial(I2) * math.factorial(t), math.factorial((I2 + M2_target) // 2)
    )


def basis_state(key: BasisKey) -> NormalizedState:
    """|p,q; I M Y; m>: the trace-free part of the leading monomial
    z1^r z3^(p-r) w2^s w3^(q-s), divided by the gcd of its integer coefficients,
    times (z.w)^(m-k), lowered by J-^(I-M).

    The trace projector is orthogonal for the Bargmann product, so the leading
    monomial keeps a positive coefficient (its overlap with its own projection).
    """
    p, q = key.rep.p, key.rep.q
    w = key.weight
    terms, _ = trace_free_terms({(w.r, 0, p - w.r, 0, w.s, q - w.s): 1}, p, q)
    poly = rebuild_polynomial(terms, {}, math.gcd(*terms.values()))
    for _ in range((key.m2 - k_of(key.rep)) // 2):
        poly = poly * ZW
    for _ in range((w.I2 - w.M2) // 2):
        poly = _generator("Jminus").apply_real(poly)
    norm_sq = bargmann_inner(poly, poly).as_fraction()
    return NormalizedState(poly=poly, norm_sq=norm_sq, key=key)


def enumerate_basis_keys(max_pq: int) -> Iterator[BasisKey]:
    """All keys with p + q <= max_pq, every weight, m = k .. k + TOP_LEVEL."""
    for p in range(max_pq + 1):
        for q in range(max_pq + 1 - p):
            rep = IrrepLabel(p, q)
            k2 = k_of(rep)
            for top in iy_spectrum(rep):
                for M2 in range(-top.I2, top.I2 + 1, 2):
                    weight = top.replace(M2=M2)
                    for level in range(TOP_LEVEL + 1):
                        yield BasisKey(rep=rep, weight=weight, m2=k2 + 2 * level)


# -- the sp(2,R) Casimir ------------------------------------------------------------


@lru_cache(maxsize=None)
def _casimir():
    """(K+K- + K-K+)/2 - J0^2, built and normal-ordered on first use."""
    kplus, kminus, j0 = map(_generator, ("Kplus", "Kminus", "J0"))
    return (
        kplus.compose(kminus) + kminus.compose(kplus)
    ).scale(Fraction(1, 2)) - j0.compose(j0)


def sp2r_casimir_check(state: NormalizedState) -> bool:
    """Verify (K+K- + K-K+)/2 - J0^2 acts as k(1-k) on the state, exactly."""
    rep = state.key.rep
    k2 = k_of(rep)
    eig = Fraction(k2 * (2 - k2), 4)  # k(1-k) with 2k = k2
    got = _casimir().apply_real(state.poly)
    return got == state.poly.scale(eig)


# -- exact linear algebra over Q ---------------------------------------------------


def rational_rank(rows: List[List[RatLike]]) -> int:
    """Rank of a matrix with int or Fraction entries, by fraction-free Bareiss
    elimination (Bareiss, Math. Comp. 22, 1968) on rows cleared to integers:
    a step turns each row r below the pivot row into (pv r - f top) / prev,
    a minor of the matrix, so ``//`` is exact."""
    mat = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r))
        mat.append([x.numerator * (den // x.denominator) for x in r])
    rank, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        pv = top[col]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(pv * x - f * y) // prev for x, y in zip(mat[i], top)]
        prev = pv
        rank += 1
    return rank


def charge_block_rank(p: int, q: int, image: Callable[[Monomial], dict]) -> int:
    """Rank of a linear map on bidegree (p, q) that keeps the U(1)^3 charge
    a - b of z^a w^b, such as K- or the trace projector, from the term dict
    image(m) of each monomial m. Its matrix splits into one block per charge,
    so the rank is the sum of the blocks' ranks."""
    blocks: Dict[Tuple[int, int, int], List[Monomial]] = {}
    for m in monomials_of_bidegree(p, q):
        blocks.setdefault(charge(m), []).append(m)
    rank = 0
    for cols in blocks.values():
        images = [image(m) for m in cols]
        targets = {t for im in images for t in im}
        rank += rational_rank([[im.get(t, 0) for im in images] for t in targets])
    return rank


def kminus_kernel_dimension(p: int, q: int) -> int:
    """Dimension of ker K- inside bidegree (p, q), by exact nullity."""
    rank = charge_block_rank(p, q, lambda m: kminus_terms({m: 1}))
    return len(monomials_of_bidegree(p, q)) - rank


# -- serialization ------------------------------------------------------------


def state_to_dict(state: NormalizedState) -> dict:
    w = state.key.weight
    return {
        "key": {
            "p": state.key.rep.p,
            "q": state.key.rep.q,
            "I2": w.I2,
            "M2": w.M2,
            "Y3": w.Y3,
            "m2": state.key.m2,
        },
        "terms": poly_to_records(state.poly),
        "norm_sq": wire_rational(state.norm_sq, ""),
    }

