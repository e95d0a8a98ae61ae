"""Seeded input generators. The benchmark owns these; the library only
receives the polynomials and basis keys they build."""

from __future__ import annotations

import random
from fractions import Fraction

from schwinger_su3.basis import BasisKey
from schwinger_su3.catalog import IrrepLabel, WeightLabel, k_of
from schwinger_su3.poly import Polynomial


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def bidegree_monomials(p: int, q: int) -> list:
    """Monomials of z-degree p and w-degree q, in a fixed order."""
    return [z + w for z in _compositions(p, 3) for w in _compositions(q, 3)]


def random_poly(p: int, q: int, rng: random.Random) -> Polynomial:
    """Dense random rational polynomial of bidegree (p, q): each monomial gets
    numerator -9..9 (0 drops it) over denominator 1..9, as in the acceptance
    sweep of the trace projector. An all-zero draw becomes the first monomial."""
    terms = {}
    monomials = bidegree_monomials(p, q)
    for m in monomials:
        num = rng.randint(-9, 9)
        if num:
            terms[m] = Fraction(num, rng.randint(1, 9))
    if not terms:
        terms[monomials[0]] = Fraction(1)
    return Polynomial(terms)


def basis_key_groups(max_pq: int, extra_m_levels: int) -> list:
    """Every basis key with p + q <= max_pq, grouped by (irrep, weight); each
    group lists m = k .. k + extra_m_levels in ascending order."""
    groups = []
    for p in range(max_pq + 1):
        for q in range(max_pq + 1 - p):
            rep = IrrepLabel(p, q)
            k2 = k_of(rep)
            for r in range(p + 1):
                for s in range(q + 1):
                    I2 = r + s
                    Y3 = 3 * (r - s) + 2 * (q - p)
                    for M2 in range(-I2, I2 + 1, 2):
                        weight = WeightLabel(I2=I2, M2=M2, Y3=Y3, r=r, s=s)
                        groups.append([
                            BasisKey(rep=rep, weight=weight, m2=k2 + 2 * level)
                            for level in range(extra_m_levels + 1)
                        ])
    return groups
