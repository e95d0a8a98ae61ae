"""Floating-point SU(3) group action on Bargmann polynomials.

Exact arithmetic cannot reach generic group elements (irrational entries), so
equivariance and invariance of the construction under finite SU(3) rotations
is checked here in double precision: Haar-random sampling, point-transformation
action, the tensor transformation rule, and a float shadow of the traceless
projector.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Tuple

import numpy as np

from .poly import Monomial, Polynomial, monomial_norm_sq, monomials_of_bidegree, trace_free_terms

NumericPolynomial = Dict[Monomial, complex]

UNITARITY_TOL = 1e-12


def haar_random_su3(seed: int) -> np.ndarray:
    """Deterministic Haar-distributed SU(3) matrix.

    Complex Ginibre sample, QR with the R-diagonal phase fix, then the
    determinant divided out through its principal cube root.
    """
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / math.sqrt(2)
    qmat, rmat = np.linalg.qr(z)
    phases = np.diagonal(rmat) / np.abs(np.diagonal(rmat))
    u = qmat * phases  # scales columns; now Haar on U(3)
    det = np.linalg.det(u)
    u = u / det ** (1.0 / 3.0)
    _check_su3(u)
    return u


def _check_su3(a: np.ndarray) -> None:
    if np.max(np.abs(a.conj().T @ a - np.eye(3))) > UNITARITY_TOL:
        raise ValueError("matrix is not unitary to tolerance")
    if abs(np.linalg.det(a) - 1) > UNITARITY_TOL:
        raise ValueError("matrix determinant is not 1 to tolerance")


def from_exact(f: Polynomial) -> NumericPolynomial:
    """Float shadow of an exact polynomial."""
    return {m: complex(float(c), 0.0) for m, c in f.terms.items()}


def n_add(f: NumericPolynomial, g: NumericPolynomial, scale: complex = 1.0) -> NumericPolynomial:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0.0) + scale * c
    return out


def n_max_abs(f: NumericPolynomial) -> float:
    return max((abs(c) for c in f.values()), default=0.0)


def n_inner(f: NumericPolynomial, g: NumericPolynomial) -> complex:
    total = 0.0 + 0.0j
    for m, c in f.items():
        d = g.get(m)
        if d is not None:
            total += np.conj(c) * d * monomial_norm_sq(m)
    return total


def n_traceless_project(f: NumericPolynomial, p: int, q: int) -> NumericPolynomial:
    """Float shadow of the exact trace-removal projector on bidegree (p, q)."""
    f0, den = trace_free_terms(f, p, q)
    return {m: c / den for m, c in f0.items()}


def act_bargmann(a: np.ndarray, f: NumericPolynomial) -> NumericPolynomial:
    """(U(A) f)(z, w) = f(A^-1 z, conj(A^-1) w)."""
    ainv = a.conj().T  # unitary inverse
    return _substitute(ainv, f)


def _substitute(b: np.ndarray, f: NumericPolynomial) -> NumericPolynomial:
    """Substitute z_j -> sum_l b[j,l] z_l and w_j -> sum_l conj(b)[j,l] w_l."""
    bc = b.conj()
    out: NumericPolynomial = {}
    for m, coeff in f.items():
        # expand the product of linear forms, one exponent at a time
        partial: NumericPolynomial = {(0, 0, 0, 0, 0, 0): coeff}
        for j in range(3):
            for _ in range(m[j]):
                partial = _mul_linear(partial, b[j], offset=0)
            for _ in range(m[j + 3]):
                partial = _mul_linear(partial, bc[j], offset=3)
        for t, c in partial.items():
            out[t] = out.get(t, 0.0) + c
    return {m: c for m, c in out.items() if c != 0.0}


def _mul_linear(f: NumericPolynomial, row: np.ndarray, offset: int) -> NumericPolynomial:
    out: NumericPolynomial = {}
    for m, c in f.items():
        for l in range(3):
            cl = row[l]
            if cl == 0:
                continue
            t = list(m)
            t[offset + l] += 1
            t = tuple(t)
            out[t] = out.get(t, 0.0) + c * cl
    return out


def tensor_transform(a: np.ndarray, f: NumericPolynomial) -> NumericPolynomial:
    """Transform bidegree-(p,q) coefficients by the p-fold A, q-fold conj(A) rule.

    Implemented through the dense symmetric tensor (with multinomial weights),
    independently of act_bargmann, so the two can be played against each other.
    """
    p, q = _bidegree(f)
    if p + q == 0:
        return dict(f)
    shape = (3,) * (p + q)
    tensor = np.zeros(shape, dtype=complex)
    for m, c in f.items():
        weight = _tensor_weight(m, p, q)
        for idx in _index_tuples(m):
            tensor[idx] = c / weight
    # contract each upper slot with A and each lower slot with conj(A)
    for slot in range(p):
        tensor = np.tensordot(a, tensor, axes=([1], [slot]))
        tensor = np.moveaxis(tensor, 0, slot)
    for slot in range(p, p + q):
        tensor = np.tensordot(a.conj(), tensor, axes=([1], [slot]))
        tensor = np.moveaxis(tensor, 0, slot)
    out: NumericPolynomial = {}
    for m in monomials_of_bidegree(p, q):
        idx = next(_index_tuples(m))
        c = tensor[idx] * _tensor_weight(m, p, q)
        if c != 0.0:
            out[m] = c
    return out


def _bidegree(f: NumericPolynomial) -> Tuple[int, int]:
    degs = {(m[0] + m[1] + m[2], m[3] + m[4] + m[5]) for m in f}
    if len(degs) != 1:
        raise ValueError("numeric polynomial is not bihomogeneous")
    return degs.pop()


def _tensor_weight(m: Monomial, p: int, q: int) -> float:
    """Monomial coefficient = multinomial(p; a) * multinomial(q; b) * tensor value."""
    wa = math.factorial(p)
    for e in m[:3]:
        wa //= math.factorial(e)
    wb = math.factorial(q)
    for e in m[3:]:
        wb //= math.factorial(e)
    return float(wa * wb)


def _index_tuples(m: Monomial):
    """All index placements of a monomial: first the sorted one, then the rest."""
    upper = []
    for j in range(3):
        upper += [j] * m[j]
    lower = []
    for j in range(3):
        lower += [j] * m[j + 3]
    seen = set()
    for pu in itertools.permutations(upper):
        for pl in itertools.permutations(lower):
            idx = pu + pl
            if idx not in seen:
                seen.add(idx)
                yield idx


def equivariance_defect(a: np.ndarray, bidegree: Tuple[int, int]) -> float:
    """Max coefficient mismatch of project(U(A) f) vs U(A)(project f) over a
    spanning monomial set of the given bidegree."""
    p, q = bidegree
    worst = 0.0
    for m in monomials_of_bidegree(p, q):
        f: NumericPolynomial = {m: 1.0}
        lhs = n_traceless_project(act_bargmann(a, f), p, q)
        rhs = act_bargmann(a, n_traceless_project(f, p, q))
        diff = n_add(lhs, rhs, -1.0)
        worst = max(worst, n_max_abs(diff))
    return worst
