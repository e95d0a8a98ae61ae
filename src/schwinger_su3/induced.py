"""Functions on the unit sphere in C^3 and the equivalence map from trace-free
Bargmann polynomials.

Sphere functions reuse the six-exponent monomials with slots 1-3 read as
xi_1..xi_3 and slots 4-6 as their conjugates.  ``sphere_inner_direct``
integrates term by term with the exact moment formula

    integral of prod_j xi_j^(a_j) conj(xi_j)^(b_j)  =  0 unless a = b,
                                                    else prod_j a_j! / (|a|+2)!

(radial reduction of the Gaussian integral against the delta constraint), the
sphere side's one independent route; ``induced_inner_formula``, the tensor
contraction, is per channel (p, q) ``poly.bargmann_inner`` over (p+q+2)!.
Both sum each channel pair exactly in Q(sqrt 3), and that sum must be rational.

A sphere function holds its bidegree channels, split once when it is made.
The equivalence map scales channel (p, q) by the irrational sqrt((p+q+2)!),
read as the exact squared scale (p+q+2)!; inner products stay rational because
cross-channel traceless contributions vanish and same-channel products square
the scale.  The trace-free test is ``poly.h0_membership``, the trace kernel's K-.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .catalog import Record, _set
from .poly import _QZERO, Polynomial, bargmann_inner, charge, h0_membership, monomial_norm_sq

Channel = Tuple[int, int]


class TraceConditionError(ValueError):
    """Operation requires traceless tensor components."""


class SphereFunction(Record):
    """A polynomial in xi and conj(xi) as its channels (p, q) -> part of bidegree
    (p, q); a scaled one is an image of the equivalence map, scaled per channel."""

    __slots__ = ("parts", "traceless", "scaled")

    def __init__(self, parts: Dict[Channel, Polynomial], traceless: bool, scaled: bool):
        _set(self, "parts", parts)
        _set(self, "traceless", traceless)
        _set(self, "scaled", scaled)

    def scale_sq(self, channel: Channel) -> Fraction:
        return Fraction(math.factorial(sum(channel) + 2) if self.scaled else 1)


def sphere_monomial_integral(holo: Tuple[int, int, int], anti: Tuple[int, int, int]) -> Fraction:
    """Exact sphere moment of xi^holo * conj(xi)^anti with the delta-measure."""
    if tuple(holo) != tuple(anti):
        return Fraction(0)
    return Fraction(monomial_norm_sq(holo), math.factorial(sum(holo) + 2))


def make_sphere_function(poly: Polynomial) -> SphereFunction:
    """Wrap a polynomial in xi/xi* variables, detecting tracelessness exactly."""
    return SphereFunction(parts=poly.bidegree_split(), traceless=h0_membership(poly), scaled=False)


def _sqrt_exact(x: Fraction) -> Fraction:
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n != x.numerator or d * d != x.denominator:
        raise ValueError(f"scale product {x} is not a perfect square")
    return Fraction(n, d)


def sphere_inner_direct(phi: SphereFunction, psi: SphereFunction) -> Fraction:
    """(phi, psi) by termwise exact integration of conj(phi) * psi.

    Conjugation swaps the holomorphic and antiholomorphic exponent triples.
    The moment of a term pair vanishes unless both terms carry the same
    U(1)^3 charge a - b, so each term of phi visits only the terms of psi
    with its own charge.  Each channel pair's sum is exact in Q(sqrt 3) and,
    as in the formula, must be rational.
    """
    psi_buckets = {}
    for cq, gq in psi.parts.items():
        buckets = psi_buckets[cq] = {}
        for m, c in gq.terms.items():
            buckets.setdefault(charge(m), []).append((m[:3], m[3:], c))
    total = Fraction(0)
    for cp, fp in phi.parts.items():
        for cq, buckets in psi_buckets.items():
            base = _QZERO
            for m1, c1 in fp.terms.items():
                a1, b1 = m1[:3], m1[3:]
                for a2, b2, c2 in buckets.get(charge(m1), ()):
                    # conj(phi) term xi^b1 xi*^a1 times psi term xi^a2 xi*^b2
                    holo = tuple(x + y for x, y in zip(b1, a2))
                    anti = tuple(x + y for x, y in zip(a1, b2))
                    base += c1 * c2 * sphere_monomial_integral(holo, anti)
            if base:
                total += base.as_fraction() * _sqrt_exact(phi.scale_sq(cp) * psi.scale_sq(cq))
    return total


def induced_inner_formula(phi: SphereFunction, psi: SphereFunction) -> Fraction:
    """(phi, psi) via the traceless tensor-contraction formula, channel by channel.

    On monomial coefficients the contraction of channel (p, q) with the
    p! q!/(p+q+2)! weight is the channel's Bargmann product over (p+q+2)!.
    """
    if not (phi.traceless and psi.traceless):
        raise TraceConditionError("induced inner product formula assumes traceless input")
    total = Fraction(0)
    for chan in phi.parts.keys() & psi.parts.keys():
        base = bargmann_inner(phi.parts[chan], psi.parts[chan]).as_fraction()
        if base:
            total += base / math.factorial(sum(chan) + 2) * _sqrt_exact(
                phi.scale_sq(chan) * psi.scale_sq(chan))
    return total


def equivalence_map(f: Polynomial) -> SphereFunction:
    """Map a K- annihilated Bargmann polynomial to its sphere-function image.

    Each bidegree (p, q) channel is rescaled by sqrt((p+q+2)!), read as the
    exact squared scale (p+q+2)! (``SphereFunction.scale_sq``).
    """
    if not h0_membership(f):
        raise TraceConditionError(
            "equivalence map requires a trace-free (K- annihilated) input"
        )
    return SphereFunction(parts=f.bidegree_split(), traceless=True, scaled=True)
