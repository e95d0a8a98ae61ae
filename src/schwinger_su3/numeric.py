"""Floating-point SU(3) group action on Bargmann polynomials.

Exact arithmetic cannot reach generic group elements (irrational entries), so
equivariance and invariance of the construction under finite SU(3) rotations
is checked here in double precision: Haar-random sampling, the point action
per bidegree as two factors, Sym^p(B) on z and Sym^q(conj B) on w
(group_factors), and a float shadow of the traceless projector.

Everything is plain Python ``complex``: a matrix is a tuple of three row
tuples, a factor the tuple of its columns, and the projector a tuple of
sparse columns. The sizes are 3 x 3 matrices and factors of at most 10 x 10,
where a linear-algebra library would cost more to import than to use.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from operator import add, sub
from itertools import repeat
from typing import Dict, Iterable, List, Tuple

from .poly import Monomial, monomial_index, monomials_of_bidegree, trace_free_terms

NumericPolynomial = Dict[Monomial, complex]
Matrix = Tuple[Tuple[complex, ...], ...]
# column j is the image of the j-th monomial of the degree, in the order of
# monomials_of_bidegree
Factor = Tuple[Tuple[complex, ...], ...]
# column j lists (row, value) for the nonzero entries of P e_j
SparseColumns = Tuple[Tuple[Tuple[int, float], ...], ...]

UNITARITY_TOL = 1e-12


def haar_random_su3(seed: int) -> Matrix:
    """Deterministic Haar-distributed SU(3) matrix.

    Complex Ginibre sample, Gram-Schmidt on its columns (QR with a positive
    R diagonal, so Haar on U(3); Mezzadri, Notices AMS 54, 2007), then the
    determinant divided out through its principal cube root. Each column is
    orthogonalised twice, which keeps it orthogonal to rounding even when
    the sample is nearly singular.
    """
    gauss = random.Random(seed).gauss
    cols: List[List[complex]] = []
    for _ in range(3):
        v = [complex(gauss(0.0, 1.0), gauss(0.0, 1.0)) for _ in range(3)]
        for _ in range(2):
            for u in cols:
                d = sum(x.conjugate() * y for x, y in zip(u, v))
                v = [y - d * x for x, y in zip(u, v)]
        norm = math.hypot(*map(abs, v))
        cols.append([y / norm for y in v])
    root = _det(tuple(zip(*cols))) ** (1.0 / 3.0)
    u = tuple(tuple(x / root for x in row) for row in zip(*cols))
    _check_su3(u)
    return u


def _det(a: Matrix) -> complex:
    """The determinant of a 3 x 3 matrix, by cofactors of its first row."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return (a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20)
            + a02 * (a10 * a21 - a11 * a20))


def _check_su3(a: Matrix) -> None:
    gram = matmul(dagger(a), a)
    if not max_abs(gram[i][j] - (i == j) for i in range(3) for j in range(3)) <= UNITARITY_TOL:
        raise ValueError("matrix is not unitary to tolerance")
    if not abs(_det(a) - 1) <= UNITARITY_TOL:
        raise ValueError("matrix determinant is not 1 to tolerance")


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product A B of two 3 x 3 matrices."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def dagger(a: Matrix) -> Matrix:
    """The conjugate transpose A^dagger, which is A^-1 for unitary A."""
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def n_traceless_project(f: NumericPolynomial, p: int, q: int) -> NumericPolynomial:
    """Float shadow of the exact trace-removal projector on bidegree (p, q)."""
    f0, den = trace_free_terms(f, p, q)
    return {m: c / den for m, c in f0.items()}


def act_bargmann(a: Matrix, f: NumericPolynomial) -> NumericPolynomial:
    """(U(A) f)(z, w) = f(A^-1 z, conj(A^-1) w) on each bidegree part of f.

    With the part's coefficients as a matrix F, z-monomials as rows and
    w-monomials as columns, U(A) = S kron T acts as
    F -> S F T^T = sum_i s_i h_i^T, h_i = sum_j F[i][j] t_j, for the columns
    s_i and t_j of the factors (S, T) of group_factors: first each h_i from
    the monomials of f in row i, then the sum of the outer products. The
    image lists every monomial of each bidegree of f."""
    parts: Dict[Tuple[int, int], List[Tuple[int, int, complex]]] = {}
    for m, c in f.items():
        pq, i, j = _place(m)
        parts.setdefault(pq, []).append((i, j, c))
    out: NumericPolynomial = {}
    for (p, q), entries in parts.items():
        s, t = group_factors(a, p, q)
        h_rows: Dict[int, List[complex]] = {}
        for i, j, c in entries:
            h_rows[i] = _add_scaled(h_rows.get(i), c, t[j])
        moved: List[complex] = []
        for i, h in h_rows.items():
            outer = [x * y for x in s[i] for y in h]
            moved = list(map(add, moved, outer)) if moved else outer
        out.update(zip(monomials_of_bidegree(p, q), moved))
    return out


@lru_cache(maxsize=None)
def _place(m: Monomial) -> Tuple[Tuple[int, int], int, int]:
    """The bidegree (p, q) of m, and the positions of its z- and w-parts
    among the z-monomials of degree p and the w-monomials of degree q."""
    pq = (m[0] + m[1] + m[2], m[3] + m[4] + m[5])
    return (pq, *divmod(monomial_index(*pq)[m], len(monomial_index(0, pq[1]))))


def group_factors(a: Matrix, p: int, q: int) -> Tuple[Factor, Factor]:
    """(Sym^p(B), Sym^q(conj B)) with B = A^-1 = A^dagger, each as the tuple
    of its columns: column j is the image of the j-th z- (or w-) monomial of
    that degree under z -> B z (or w -> conj(B) w)."""
    return _sym_powers(a, p)[0], _sym_powers(a, q)[1]


@lru_cache(maxsize=256)
def _sym_powers(a: Matrix, p: int) -> Tuple[Factor, Factor]:
    """(Sym^p(B), Sym^p(conj B)) for B = A^dagger, the second the entrywise
    conjugate of the first, since Sym^p has integer coefficients.

    Sym^p(B) is built column by column: z^m is z_i times z^(m - e_i), i the
    first variable of m, so its image is the image of z^(m - e_i), a column
    of Sym^(p-1)(B), times the linear form sum_k B[i][k] z_k."""
    if p == 0:
        one = ((1 + 0j,),)
        return one, one
    b = dagger(a)
    lower = _sym_powers(a, p - 1)[0]
    steps, ups = _raise_layout(p)
    cols = []
    for i, j in steps:
        b0, b1, b2 = b[i]
        col = [0j] * len(steps)
        for x, (u0, u1, u2) in zip(lower[j], ups):
            col[u0] += x * b0
            col[u1] += x * b1
            col[u2] += x * b2
        cols.append(tuple(col))
    return tuple(cols), tuple(tuple(x.conjugate() for x in col) for col in cols)


@lru_cache(maxsize=None)
def _raise_layout(p: int) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int, int], ...]]:
    """For degree p >= 1: per z-monomial m of degree p, (i, j) with m = z_i
    times z-monomial j of degree p - 1, i the first variable of m; and per
    z-monomial t of degree p - 1, the positions of z_0 t, z_1 t and z_2 t."""
    lower, lower_index, index = (monomials_of_bidegree(p - 1, 0), monomial_index(p - 1, 0),
                                 monomial_index(p, 0))
    steps = []
    for m in monomials_of_bidegree(p, 0):
        i = next(v for v, e in enumerate(m) if e)
        steps.append((i, lower_index[tuple(e - (v == i) for v, e in enumerate(m))]))
    ups = [tuple(index[tuple(e + (v == k) for v, e in enumerate(t))] for k in range(3))
           for t in lower]
    return tuple(steps), tuple(ups)


def equivariance_defect(a: Matrix, bidegree: Tuple[int, int]) -> float:
    """max |P U(A) - U(A) P| on bidegree (p, q), P the float trace-removal
    projector, NaN if any entry is NaN. Each entry P[r][j] of its sparse
    columns adds P[r][j] times row j of U(A) to row r of P U(A), and P[r][j]
    times column r of U(A) to column j of U(A) P."""
    p, q = bidegree
    s, t = group_factors(a, p, q)
    cols = [[x * y for x in s_col for y in t_col] for s_col in s for t_col in t]
    rows = list(zip(*cols))
    pu_rows: List = [None] * len(cols)
    up_cols: List = [None] * len(cols)
    for j, p_j in enumerate(projector_columns(p, q)):
        for r, c in p_j:
            pu_rows[r] = _add_scaled(pu_rows[r], c, rows[j])
            up_cols[j] = _add_scaled(up_cols[j], c, cols[r])
    return max_abs(d for x, y in zip(pu_rows, zip(*up_cols)) for d in map(sub, x, y))


def _add_scaled(acc, c: float, x):
    """acc + c x for a vector acc, or c x while acc is None."""
    if acc is None:
        return [c * y for y in x]
    return [z + c * y for z, y in zip(acc, x)]


def max_abs(values: Iterable[complex]) -> float:
    """max |v| over values, NaN if any |v| is NaN (``max`` keeps a NaN only
    when it comes first), 0 for none. A sum of magnitudes is NaN exactly
    when one of them is."""
    mags = list(map(abs, values))
    return math.nan if math.isnan(sum(mags)) else max(mags, default=0.0)


def max_diff(f: NumericPolynomial, g: NumericPolynomial) -> float:
    """max |f - g| over the monomials of either polynomial, by max_abs."""
    keys = f.keys() | g.keys()
    return max_abs(map(sub, map(f.get, keys, repeat(0.0)), map(g.get, keys, repeat(0.0))))


@lru_cache(maxsize=None)
def projector_columns(p: int, q: int) -> SparseColumns:
    """The float trace-removal projector on bidegree (p, q) as sparse
    columns, in the order of monomials_of_bidegree(p, q)."""
    index = monomial_index(p, q)
    return tuple(tuple((index[t], c) for t, c in n_traceless_project({m: 1}, p, q).items())
                 for m in monomials_of_bidegree(p, q))


def projector_pin(p: int, q: int) -> Tuple[float, float]:
    """(max |P P - P|, trace P) for the projector on bidegree (p, q), read
    off its sparse columns: column j of P P is sum_t P[t][j] p_t. The first
    is NaN if any entry of P P - P is."""
    cols = projector_columns(p, q)
    defects: List[float] = []
    for col in cols:
        square = {r: -c for r, c in col}
        for t, c in col:
            for r, x in cols[t]:
                square[r] = square.get(r, 0.0) + c * x
        defects.extend(square.values())
    return max_abs(defects), sum(c for j, col in enumerate(cols) for r, c in col if r == j)
