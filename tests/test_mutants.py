"""One library mutant per row; the rows cover criteria 1-12 (DeMillo, Lipton
and Sayward, "Hints on test data selection", 1978). Each row's suite passes
unpatched; patched, it fails with the same number of checks (a mutant changes
verdicts, not the amount checked) and reports the pinned result fields, each
pinned as a value or a predicate.

A Bareiss rank that skips the update on rows whose pivot-column entry is 0
gives the right rank on every K- and trace-projector charge block up to
(4, 4) (the projector's rank at (6, 6) is the first it gets wrong), so its row
fails only criterion 7's rank anchor, a 3 x 3 matrix of determinant -2.
"""

import functools
import math
from fractions import Fraction

import pytest

from schwinger_su3 import basis, catalog, induced, numeric, poly, verify
from schwinger_su3.operators import GellMannTable, OperatorExpr, gell_mann
from schwinger_su3.scalars import CScalar, Qsqrt3


def _prefix(text):
    return lambda s: s.startswith(text)


def _above(bound):
    return lambda d: d > bound


def _flip_f123(mp):
    original = GellMannTable.f

    def flipped(self, a, b, c):
        f = original(self, a, b, c)
        return -f if (a, b, c) == (1, 2, 3) else f

    mp.setattr(GellMannTable, "f", flipped)


def _shift_j0(mp):
    original = verify.sp2r_generator

    def shifted(which):
        # J0 with the constant 1 in place of 3/2
        g = original(which)
        return g - OperatorExpr.identity(Fraction(1, 2)) if which == "J0" else g

    mp.setattr(verify, "sp2r_generator", shifted)


def _double_norm_constant(mp):
    original = basis.hw_norm_constant_sq

    def doubled(p, q, r, s):
        n2 = original(p, q, r, s)
        return 2 * n2 if r + s else n2

    mp.setattr(basis, "hw_norm_constant_sq", doubled)


def _short_moment(holo, anti):
    # (|a|+1)! in place of (|a|+2)! in the denominator
    if tuple(holo) != tuple(anti):
        return Fraction(0)
    return Fraction(math.prod(map(math.factorial, holo)), math.factorial(sum(holo) + 1))


class _NegatedLambda5:
    # lambda_5 negated as the table stores it, before anything reads it
    def __get__(self, table, owner):
        return table.__dict__["lambdas"]

    def __set__(self, table, lambdas):
        table.__dict__["lambdas"] = [
            [[-c for c in row] for row in lam] if j == 4 else lam
            for j, lam in enumerate(lambdas)
        ]


def _unhalved_casimir(mp):
    # K+K- + K-K+ - J0^2, the sp(2,R) Casimir without its 1/2
    @functools.cache
    def unhalved():
        kplus, kminus, j0 = map(basis._generator, ("Kplus", "Kminus", "J0"))
        return kplus.compose(kminus) + kminus.compose(kplus) - j0.compose(j0)

    mp.setattr(basis, "_casimir", unhalved)


def _raise_ratio_shifted(mp):
    # (m-k)! (m+k)! / (2k)!: each K+ K- level's factor m+k-1 read one too
    # large; right at m = k only
    def shifted(rep, m2_target):
        k2 = catalog.k_of(rep)
        rho = (m2_target - k2) // 2
        return Fraction(math.factorial(rho) * math.factorial(rho + k2), math.factorial(k2))

    mp.setattr(verify, "raise_norm_ratio", shifted)


def _drop_cn_sign(mp):
    # the closed form without its (-1)^n; C_0 = 1 still holds
    original = verify.cn_coeffs
    mp.setattr(verify, "cn_coeffs", lambda *pqrs: [abs(c) for c in original(*pqrs)])


def _first_lowered_key(change):
    """Patch verify's key enumeration: the first key with M < I, which is at
    m = k, becomes change(key), so the corpus keeps its size."""
    def patch(mp):
        original = verify.enumerate_basis_keys

        def patched(max_pq):
            keys = list(original(max_pq))
            j = next(i for i, key in enumerate(keys) if key.weight.M2 < key.weight.I2)
            keys[j] = change(keys[j])
            return keys

        mp.setattr(verify, "enumerate_basis_keys", patched)
    return patch


def _drop_top_multiplet(mp):
    # the (r, s) = (p, q) multiplet missing from every spectrum
    original = verify.iy_spectrum
    mp.setattr(verify, "iy_spectrum", lambda rep: original(rep)[:-1])


def _asymmetric_dim(mp):
    # (p+1)^2 in place of (p+1)(q+1): right where p = q only
    mp.setattr(verify, "dim", lambda rep: (rep.p + 1) ** 2 * (rep.p + rep.q + 2) // 2)


def _moment_patch(moment):
    # the direct route reads the moment in induced, the anchors in verify
    def patch(mp):
        mp.setattr(induced, "sphere_monomial_integral", moment)
        mp.setattr(verify, "sphere_monomial_integral", moment)
    return patch


def _unselected_moment(holo, anti):
    # the diagonal moment prod_j a_j! / (|a|+2)! for every pair, equal or not
    return Fraction(math.prod(map(math.factorial, holo)), math.factorial(sum(holo) + 2))


def _shifted_first_moment(holo, anti):
    # (a1+1)! in place of a1!: a measure that is not SU(3)-invariant
    if tuple(holo) != tuple(anti):
        return Fraction(0)
    return Fraction(math.factorial(holo[0] + 1) * math.prod(map(math.factorial, holo[1:])),
                    math.factorial(sum(holo) + 2))


def _flip_hypercharge(mp):
    original = catalog.weight_from_rs

    def flipped(rep, r, s):
        w = original(rep, r, s)
        return w.replace(Y3=-w.Y3)

    mp.setattr(catalog, "weight_from_rs", flipped)


def _rank_one_short(mp):
    # an elimination that loses one pivot on every matrix of two or more rows;
    # the trace projector's charge-0 block of (1, 1), on z_j w_j, is the first
    # with several
    original = basis.rational_rank
    mp.setattr(basis, "rational_rank", lambda rows: original(rows) - (len(rows) > 1))


def _bareiss_skip_zero_pivot(mp):
    # rows whose pivot-column entry is 0 keep their stale entries, which the
    # next step divides by a pivot that never scaled them
    def skipping(rows):
        mat = [list(r) for r in rows]
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
                if f:
                    mat[i] = [(pv * x - f * y) // prev for x, y in zip(mat[i], top)]
            prev = pv
            rank += 1
        return rank

    mp.setattr(basis, "rational_rank", skipping)


def _min_rank(mp):
    # a rank read off the shape alone: right for every K- block, which has full
    # row rank, but not for the projector's square, rank-deficient blocks. K-
    # blocks with p = 0 or q = 0 have no rows.
    mp.setattr(basis, "rational_rank",
               lambda rows: min(len(rows), len(rows[0])) if rows else 0)


def _trace_weight_one_larger(n):
    """Patch trace_free_terms, as basis_state and poly's projector call it,
    to A_n one larger: D g gains (z.w)^(n-1) K-^n f, so D f0 loses
    (z.w)^n K-^n f; only bidegrees with min(p, q) >= n see it."""
    original = poly.trace_free_terms

    def patched(terms, p, q):
        out, den = original(terms, p, q)
        lost = terms
        for step in (poly.kminus_terms, poly.zw_mul_terms):
            for _ in range(n):
                lost = step(lost)
        for m, c in lost.items():
            out[m] = out.get(m, 0) - c
        return {m: c for m, c in out.items() if c}, den

    def patch(mp):
        mp.setattr(basis, "trace_free_terms", patched)
        mp.setattr(poly, "trace_free_terms", patched)
    return patch


def _drop_last_cg_term(mp):
    # the series loses (p - min, q - min) whenever it has more than one term
    original = verify.cg_series
    mp.setattr(verify, "cg_series",
               lambda p, q: original(p, q)[:-1] if min(p, q) > 0 else original(p, q))


def _u1_mult_one_more(mp):
    # min(p + 2, q + 1) in place of min(p + 1, q + 1) on U1xU1; it differs
    # where q > p, first at (0, 3)
    original = verify.induced_multiplicity

    def patched(subgroup, rep):
        if subgroup == "U1xU1" and (rep.p - rep.q) % 3 == 0:
            return min(rep.p + 2, rep.q + 1)
        return original(subgroup, rep)

    mp.setattr(verify, "induced_multiplicity", patched)


def _wrong_channel_scale(mp):
    # channels rescaled by sqrt((p+q+1)!) in place of sqrt((p+q+2)!)
    def wrong_scale(self, channel):
        return Fraction(math.factorial(sum(channel) + 1) if self.scaled else 1)

    mp.setattr(induced.SphereFunction, "scale_sq", wrong_scale)


def _swap_inverse(mp):
    # A in place of A^-1: a homomorphism turned into an anti-homomorphism
    original = numeric.group_factors
    mp.setattr(numeric, "group_factors", lambda a, p, q: original(numeric.dagger(a), p, q))


def _unconjugate_w(mp):
    # B in place of conj(B) on the w variables: z.w is no longer invariant;
    # conj(A) is the dagger of A's transpose
    original = numeric.group_factors
    mp.setattr(numeric, "group_factors", lambda a, p, q: (
        original(a, p, q)[0], original(numeric.dagger(tuple(zip(*a))), p, q)[1]))


def _zero_factors(mp):
    # every factor zero: U(A) = 0 satisfies U(A) U(B) = U(AB) and commutes
    # with P
    original = numeric.group_factors
    mp.setattr(numeric, "group_factors", lambda a, p, q: tuple(
        tuple(tuple(0j for _ in col) for col in factor) for factor in original(a, p, q)))


def _identity_projector(mp):
    original = numeric.projector_columns
    mp.setattr(numeric, "projector_columns",
               lambda p, q: tuple(((j, 1.0),) for j in range(len(original(p, q)))))


def _double_projector(mp):
    original = numeric.projector_columns
    mp.setattr(numeric, "projector_columns",
               lambda p, q: tuple(tuple((r, 2 * c) for r, c in col) for col in original(p, q)))


def _projector_entry(column, change):
    """Patch the first entry off the diagonal of the projector column that
    column(cols) picks: its value c becomes change(c)."""
    def patch(mp):
        original = numeric.projector_columns

        def patched(p, q):
            cols = [list(col) for col in original(p, q)]
            j = column(cols)
            k = next(k for k, (r, _) in enumerate(cols[j]) if r != j)
            cols[j][k] = (cols[j][k][0], change(cols[j][k][1]))
            return tuple(map(tuple, cols))

        mp.setattr(numeric, "projector_columns", patched)

    return patch


# a NaN in one entry off the diagonal of the last column that has one: trace P
# never reads it, and ``max`` drops a NaN that does not come first
_nan_projector_entry = _projector_entry(
    lambda cols: max(j for j, col in enumerate(cols) if any(r != j for r, _ in col)),
    lambda c: math.nan)
# 3e-10, three times PROJECTION_TOL, on the first column; P P - P and both
# samples' P U(A) - U(A) P then read 1.8e-10 to 2.3e-10
_raise_projector_entry = _projector_entry(lambda cols: 0, lambda c: c + 3e-10)


def _scale_z_factors(mp):
    # every entry of Sym^p(B), the factor that acts on the z variables, scaled
    # by 1 + 3e-9: three times REPRESENTATION_TOL
    original = numeric.group_factors

    def scaled(a, p, q):
        s, t = original(a, p, q)
        return tuple(tuple(x * (1 + 3e-9) for x in col) for col in s), t

    mp.setattr(numeric, "group_factors", scaled)


def _on_states(suite, max_pq):
    """The suite at max_pq on states built inside the call, so that a patch
    reaches their construction too."""
    return lambda: suite(max_pq, states=verify.build_states(max_pq))


_closure = functools.partial(verify.suite_su3_closure, 1)
_sp2r = functools.partial(verify.suite_sp2r_relations, 1)
_numeric = functools.partial(verify.suite_numeric_equivariance, samples=2, seed=0)


ROWS = [  # (id, criterion, patch, suite call, pinned result fields)
    # the pair (1, 2) fails once in each of the sectors a, b and total
    ("f123-flipped", 1, _flip_f123, _closure, {"failures": 3, "first_failure": "a 1 2"}),
    ("sqrt3-squares-to-2", 1, lambda mp: mp.setattr(Qsqrt3, "SQUARE", 2), _closure,
     {"failures": 6, "first_failure": "a 4 5"}),
    ("i-squares-to-1-closure", 1, lambda mp: mp.setattr(CScalar, "SQUARE", 1), _closure,
     {"failures": 24, "first_failure": "a 1 3"}),
    # the f_abc come from the standard table, not from the lambdas, so each of
    # the 11 relations per sector with Q5 on either side fails
    ("lambda5-negated", 1,
     lambda mp: mp.setattr(GellMannTable, "lambdas", _NegatedLambda5(), raising=False),
     _closure, {"failures": 33, "first_failure": "a 1 5"}),
    # [K1, K2] = -i J0 and [K+, K-] = -2 J0 see the constant
    ("j0-constant", 2, _shift_j0, _sp2r, {"failures": 2, "first_failure": "K1 K2"}),
    ("i-squares-to-1-sp2r", 2, lambda mp: mp.setattr(CScalar, "SQUARE", 1), _sp2r,
     {"failures": 1, "first_failure": "J0 K1"}),
    # every state with r + s > 0 misses its closed-form norm
    ("norm-constant", 3, _double_norm_constant, _on_states(verify.suite_basis_orthonormality, 1),
     {"failures": 12, "first_failure": _prefix("closed-form norm")}),
    # the first M < I key lists its M = I neighbour again; every count holds,
    # and only the copy's overlap with its original fails
    ("key-listed-twice", 3,
     _first_lowered_key(lambda key: key.replace(weight=key.weight.replace(M2=key.weight.I2))),
     _on_states(verify.suite_basis_orthonormality, 1),
     {"failures": 1, "first_failure": _prefix("overlap ")}),
    # the first M < I key moves one level past the corpus: (0, 1) has one m = k
    # state short of d(0, 1) = 3, and bidegree (0, 1) one state short
    ("m-value-dropped", 3,
     _first_lowered_key(lambda key: key.replace(m2=key.m2 + 2 * (basis.TOP_LEVEL + 1))),
     _on_states(verify.suite_basis_orthonormality, 1),
     {"failures": 2, "first_failure": _prefix("state count ")}),
    ("trace-weight-a2", 4, _trace_weight_one_larger(2),
     _on_states(verify.suite_kminus_annihilation, 4),
     {"checks": 546, "failures": 184, "first_failure": _prefix("K- image ")}),
    # every m = k state but the Y = 0 vacuum carries the wrong Q8 eigenvalue
    ("y3-flipped", 5, _flip_hypercharge, _on_states(verify.suite_casimir, 1),
     {"failures": 6, "first_failure": _prefix("Q8 ")}),
    # all 21 states miss the Casimir eigenvalue k(1-k)
    ("casimir-unhalved", 5, _unhalved_casimir, _on_states(verify.suite_casimir, 1),
     {"failures": 21, "first_failure": _prefix("casimir ")}),
    # the 14 states with m > k miss the K+^n K-^n eigenvalue
    ("raise-ratio-shifted", 5, _raise_ratio_shifted, _on_states(verify.suite_casimir, 1),
     {"failures": 14, "first_failure": _prefix("K+^n K-^n ")}),
    ("trace-weight-a3", 6, _trace_weight_one_larger(3),
     lambda: verify.suite_trace_projector(samples=2, max_each=3, seed=0),
     {"checks": 114, "failures": 8, "first_failure": "annihilation 3 3 0"}),
    # the projector ranks of (1, 1), (1, 2), (2, 1) and (2, 2), the K- nullity
    # of (2, 2) and the rank anchor
    ("rank-one-short", 7, _rank_one_short, lambda: verify.suite_kernel_dimension(2),
     {"failures": 6, "first_failure": "projector rank 1 1"}),
    # (1, 1), (1, 2), (2, 1) and (2, 2)
    ("min-rank", 7, _min_rank, lambda: verify.suite_kernel_dimension(2),
     {"failures": 4, "first_failure": "projector rank 1 1"}),
    ("bareiss-skip-zero-pivot", 7, _bareiss_skip_zero_pivot,
     lambda: verify.suite_kernel_dimension(2),
     {"failures": 1, "first_failure": "rank anchor"}),
    ("cg-last-term-dropped", 8, _drop_last_cg_term, verify.suite_cg_counting,
     {"checks": 1167, "failures": 400, "first_failure": "cg series 1 1"}),
    ("u1-mult-one-more", 8, _u1_mult_one_more, verify.suite_cg_counting,
     {"failures": 15, "first_failure": "mult U1xU1 0 3"}),
    # all 121 spectra with p, q <= 10 run short, and 13 of the multiplicities
    # read off them
    ("spectrum-short", 8, _drop_top_multiplet, verify.suite_cg_counting,
     {"failures": 134, "first_failure": "spectrum IrrepLabel(p=0, q=0)"}),
    # 388 CG series, and the 110 spectra and conjugate pairs with p != q
    ("dim-asymmetric", 8, _asymmetric_dim, verify.suite_cg_counting,
     {"failures": 608, "first_failure": "cg series 1 1"}),
    ("moment-factorial", 9, _moment_patch(_short_moment),
     lambda: verify.suite_induced_oracle(max_total=2),
     {"failures": 64, "first_failure": "volume"}),
    # only the three unequal-triple anchors see the selection rule: the direct
    # route pairs terms of one charge, whose triples are equal
    ("moment-unselected", 9, _moment_patch(_unselected_moment),
     lambda: verify.suite_induced_oracle(max_total=2),
     {"failures": 3, "first_failure": _prefix("selection rule ")}),
    # 21 channel constants, 4 constraints, 18 oracle pairs and 6
    # cross-bidegree pairs
    ("moment-first-shifted", 9, _moment_patch(_shifted_first_moment),
     lambda: verify.suite_induced_oracle(max_total=2),
     {"failures": 49, "first_failure": "channel constant 1 0"}),
    ("channel-scale", 10, _wrong_channel_scale,
     lambda: verify.suite_equivalence_isometry(samples=2, max_each=3, seed=7),
     {"checks": 3, "failures": 2, "first_failure": "pair 0 0"}),
    # a NaN fails every per-defect check against the tolerance, and the
    # reported maximum keeps it, although max() alone would drop it
    ("nan-defect", 11, lambda mp: mp.setattr(numeric, "equivariance_defect",
                                             lambda a, pq: float("nan")),
     _numeric, {"failures": 2, "first_failure": "projection 0",
                "max_projection_defect": math.isnan}),
    # the trivial and the zero action are homomorphisms that commute with P;
    # only the degree-one pin, 6 checks per sample, tells them from U(A)
    ("action-identity", 11, lambda mp: mp.setattr(numeric, "act_bargmann", lambda a, f: dict(f)),
     _numeric, {"failures": 12, "first_failure": "action 0 (1, 0, 0, 0, 0, 0)"}),
    ("factors-zero", 11, _zero_factors, _numeric,
     {"failures": 12, "first_failure": "action 0 (1, 0, 0, 0, 0, 0)"}),
    # both fail the degree-one pin on each sample (all six variables, or the
    # three w_j); the 30 test monomials of positive degree fail the
    # representation property under an anti-homomorphism, and P fails to
    # commute with an action that leaves z.w variant
    ("inverse-swapped", 11, _swap_inverse, _numeric,
     {"failures": 72, "max_representation_defect": _above(1e-3)}),
    ("w-unconjugated", 11, _unconjugate_w, _numeric,
     {"failures": 8, "first_failure": "projection 0", "max_projection_defect": _above(1e-3)}),
    # I and 2P commute with every U(A) too; only idempotence and trace 27 tell
    # them from P
    ("projector-identity", 11, _identity_projector, _numeric,
     {"failures": 1, "first_failure": "projector"}),
    ("projector-doubled", 11, _double_projector, _numeric,
     {"failures": 1, "first_failure": "projector"}),
    # the NaN reaches P P - P and P U(A) - U(A) P in entries past the first:
    # the pin and each sample's commutation check fail
    ("projector-nan-entry", 11, _nan_projector_entry, _numeric,
     {"failures": 3, "first_failure": "projector", "max_projection_defect": math.isnan}),
    # a defect three times a tolerance fails it, and TOLERANCE_ROWS below lets
    # each through at ten times the tolerance. Scaled z-factors leave the pin
    # and the commutation with P, which a constant factor keeps, and two
    # representation checks whose images have small coefficients
    ("z-factors-scaled", 11, _scale_z_factors, _numeric,
     {"failures": 72, "first_failure": "action 0 (1, 0, 0, 0, 0, 0)"}),
    ("projector-entry-raised", 11, _raise_projector_entry, _numeric,
     {"failures": 3, "first_failure": "projector"}),
    ("cn-unsigned", 12, _drop_cn_sign, verify.suite_cn_dual_route,
     {"failures": 1296, "first_failure": "1 1 0 0"}),
]


@pytest.mark.parametrize("criterion, patch, run, pinned", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_mutant_fails_its_criterion(monkeypatch, criterion, patch, run, pinned):
    sound = run()
    assert sound["passed"] is True
    patch(monkeypatch)
    gell_mann.cache_clear()  # the cached table must not leak into or out of a patch
    try:
        result = run()
    finally:
        gell_mann.cache_clear()
    assert result["passed"] is False, f"criterion {criterion} passes under the mutant"
    assert result["checks"] == sound["checks"]
    for key, want in pinned.items():
        got = result[key]
        assert want(got) if callable(want) else got == want, (key, got)


TOLERANCE_ROWS = [("z-factors-scaled", "REPRESENTATION_TOL"),
                  ("projector-entry-raised", "PROJECTION_TOL")]


@pytest.mark.parametrize("row, tolerance", TOLERANCE_ROWS, ids=[row for row, _ in TOLERANCE_ROWS])
def test_tolerance_row_passes_at_ten_times_its_tolerance(monkeypatch, row, tolerance):
    # the row's defect sits within a factor 10 above its tolerance, so a
    # tolerance loosened tenfold lets the row through
    patch, run = next((r[2], r[3]) for r in ROWS if r[0] == row)
    patch(monkeypatch)
    monkeypatch.setattr(verify, tolerance, 10 * getattr(verify, tolerance))
    assert run()["passed"] is True


def test_rows_cover_the_twelve_criteria():
    assert {row[1] for row in ROWS} == set(range(1, 13))
