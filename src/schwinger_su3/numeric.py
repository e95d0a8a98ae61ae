"""Floating-point SU(3) group action on Bargmann polynomials.

Exact arithmetic cannot reach generic group elements (irrational entries), so
equivariance and invariance of the construction under finite SU(3) rotations
is checked here in double precision: Haar-random sampling, the point action
per bidegree as two factors, Sym^p(B) on z and Sym^q(conj B) on w
(group_factors, whose Kronecker product is group_matrix), and a float shadow
of the traceless projector.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .poly import Monomial, monomial_index, monomials_of_bidegree, trace_free_terms

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


def n_traceless_project(f: NumericPolynomial, p: int, q: int) -> NumericPolynomial:
    """Float shadow of the exact trace-removal projector on bidegree (p, q)."""
    f0, den = trace_free_terms(f, p, q)
    return {m: c / den for m, c in f0.items()}


def act_bargmann(a: np.ndarray, f: NumericPolynomial) -> NumericPolynomial:
    """(U(A) f)(z, w) = f(A^-1 z, conj(A^-1) w) on each bidegree part of f.

    With the part's coefficients as a matrix F, z-monomials as rows and
    w-monomials as columns, U(A) = S kron T acts as F -> S F T^T for the
    factors (S, T) of group_factors."""
    parts: Dict[Tuple[int, int], NumericPolynomial] = {}
    for m, c in f.items():
        parts.setdefault((m[0] + m[1] + m[2], m[3] + m[4] + m[5]), {})[m] = c
    out: NumericPolynomial = {}
    for (p, q), part in parts.items():
        monos, index = monomials_of_bidegree(p, q), monomial_index(p, q)
        s, t = group_factors(a, p, q)
        coeffs = np.zeros(len(monos), dtype=complex)
        for m, c in part.items():
            coeffs[index[m]] = c
        moved = s @ coeffs.reshape(len(s), len(t)) @ t.T
        for m, c in zip(monos, moved.ravel().tolist()):
            if c != 0.0:
                out[m] = c
    return out


def group_factors(a: np.ndarray, p: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """(Sym^p(B), Sym^q(conj B)) with B = A^-1 = A^dagger: column j of each
    is the image of the j-th z- (or w-) monomial of that degree under
    z -> B z (or w -> conj(B) w)."""
    b = a.conj().T  # unitary inverse
    return _sym_power(b, p), _sym_power(b.conj(), q)


def group_matrix(a: np.ndarray, p: int, q: int) -> np.ndarray:
    """U(A) on bidegree (p, q) in the order of monomials_of_bidegree(p, q):
    the Kronecker product S kron T of the factors (S, T) of group_factors."""
    return np.kron(*group_factors(a, p, q))


def _sym_power(b: np.ndarray, p: int) -> np.ndarray:
    """Sym^p(B) = S (B^(x)p)[reps].T on the degree-p monomials in three variables.

    Row reps[k] of the p-fold Kronecker power expands the product of the
    linear forms of monomial k over all 3^p index tuples t: its entry t is
    prod_slot B[reps[k, slot], t[slot]], one gather of B and a product over
    the slots. S sums each tuple onto its monomial.
    """
    fold, rows, cols = _sym_layout(p)
    return fold @ b[rows, cols].prod(axis=-1).T


@lru_cache(maxsize=None)
def _sym_layout(p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, rows, cols) for degree p. S[k, t] = 1 when index tuple t (base-3
    digits, first slot most significant) has the exponents of monomial k;
    rows[k, 0] is one such tuple (reps[k]; any one will do, since the product
    of linear forms does not depend on the order of its factors) and
    cols[0, t] is tuple t, so that B[rows, cols] has shape (k, t, slot)."""
    row = monomial_index(p, 0)
    tuples = list(itertools.product(range(3), repeat=p))
    fold = np.zeros((len(row), 3 ** p))
    reps = np.zeros((len(row), p), dtype=np.intp)
    for t, idx in enumerate(tuples):
        k = row[(idx.count(0), idx.count(1), idx.count(2), 0, 0, 0)]
        fold[k, t] = 1.0
        reps[k] = idx
    rows = reps[:, None, :]
    cols = np.array(tuples, dtype=np.intp)[None]
    for arr in (fold, rows, cols):
        arr.flags.writeable = False  # shared by every caller
    return fold, rows, cols


def equivariance_defect(a: np.ndarray, bidegree: Tuple[int, int]) -> float:
    """max |P U(A) - U(A) P| on bidegree (p, q), P the float trace-removal
    projector: column j compares project(U(A) e_j) with U(A) project(e_j) for
    monomial e_j of the bidegree."""
    p, q = bidegree
    proj = projector_matrix(p, q)
    u = group_matrix(a, p, q)
    return float(np.max(np.abs(proj @ u - u @ proj)))


@lru_cache(maxsize=None)
def projector_matrix(p: int, q: int) -> np.ndarray:
    """Float matrix of the trace-removal projector on bidegree (p, q)."""
    monos, index = monomials_of_bidegree(p, q), monomial_index(p, q)
    proj = np.zeros((len(monos), len(monos)))
    for j, m in enumerate(monos):
        for t, c in n_traceless_project({m: 1}, p, q).items():
            proj[index[t], j] = c
    proj.flags.writeable = False  # shared by every caller
    return proj
