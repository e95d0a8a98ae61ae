"""Verification suites: every structural identity of the construction, runnable
from the CLI and from the acceptance tests.

Each suite returns a dict with "name", its sizes, the counts "checks" and
"failures", "first_failure" (a witness) when a check fails, and the verdict:
a suite passes when it made at least one check and none failed.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Dict, List

from . import basis
from .basis import (
    TOP_LEVEL,
    BasisKey,
    NormalizedState,
    ZW,
    basis_state,
    charge_block_rank,
    cn_coeffs,
    enumerate_basis_keys,
    kminus_kernel_dimension,
    lower_norm_ratio,
    predicted_hw_norm_sq,
    raise_norm_ratio,
    sp2r_casimir_check,
    traceless_project,
    zw_cofactor,
)
from .catalog import IrrepLabel, cg_series, dim, induced_multiplicity, iy_spectrum, k_of
from .induced import (
    equivalence_map,
    induced_inner_formula,
    make_sphere_function,
    sphere_inner_direct,
    sphere_monomial_integral,
)
from .operators import (
    OperatorExpr,
    commutator_defect,
    gell_mann,
    sp2r_generator,
    su2_ladder,
    su3_generator,
)
from .poly import (
    Polynomial,
    bargmann_inner,
    h0_membership,
    monomials_of_bidegree,
    rebuild_polynomial,
    trace_free_terms,
)
from .scalars import CScalar, Qsqrt3

_KMINUS = sp2r_generator("Kminus")
_KPLUS = sp2r_generator("Kplus")

# the scales no caller varies: criterion 8's bounds on p and q, criterion 9's
# anchors p + q <= 6, criterion 12's bound on p and q, criterion 11's tolerances
CG_BOUND = 20
SPECTRUM_BOUND = 10
ANCHOR_TOTAL = 6
CN_BOUND = 8
PROJECTION_TOL = 1e-10
REPRESENTATION_TOL = 1e-9


class _Tally:
    """Checks and failures of one suite, with the first failing witness, and
    the suite's wall time from the tally's creation; the witness is formatted
    only when its check fails."""

    checks = failures = 0
    first_failure = ""

    def __init__(self):
        self.start = time.perf_counter()

    def __call__(self, ok, *witness) -> None:
        self.checks += 1
        if not ok and not self.failures:
            self.first_failure = " ".join(map(str, witness))
        self.failures += not ok

    def result(self, name: str, **sizes) -> Dict:
        out = {"name": name, "passed": self.checks > 0 and self.failures == 0,
               "checks": self.checks, "failures": self.failures, **sizes,
               "seconds": round(time.perf_counter() - self.start, 4)}
        if self.failures:
            out["first_failure"] = self.first_failure
        return out


def _relations(tally: _Tally, name: str, degree: int, cases) -> Dict:
    """One check of [X, Y] = Z per (witness, X, Y, Z) case; none at degree 0."""
    if degree >= 1:
        for witness, x, y, z in cases:
            tally(not commutator_defect(x, y, z, degree), *witness)
    return tally.result(name, degree=degree)


def suite_su3_closure(degree: int) -> Dict:
    """[Q_a, Q_b] = i f_abc Q_c in each sector, on all polynomials of degree <= degree.

    Every bilinear kills the constants, so degree 0 would hide any wrong su(3)
    relation; it does not hide the sp(2,R) ones, since J0 carries the constant
    3/2. All three algebra suites still need degree >= 1, the CLI minimum."""
    tally = _Tally()
    gm = gell_mann()
    cases = []
    for sector in ("a", "b", "total"):
        gens = {alpha: su3_generator(alpha, sector) for alpha in range(1, 9)}
        for a in range(1, 9):
            for b in range(a + 1, 9):
                expected = OperatorExpr.zero()
                for c in range(1, 9):
                    f = gm.f(a, b, c)
                    if f:
                        expected = expected + gens[c].scale(CScalar(0, f))
                cases.append(((sector, a, b), gens[a], gens[b], expected))
    return _relations(tally, "su3_closure", degree, cases)


def suite_sp2r_relations(degree: int) -> Dict:
    """The sp(2,R) commutation relations, exactly on degree <= degree."""
    tally = _Tally()
    J0 = sp2r_generator("J0")
    K1 = sp2r_generator("K1")
    K2 = sp2r_generator("K2")
    Kp = sp2r_generator("Kplus")
    Km = sp2r_generator("Kminus")
    i = CScalar(0, 1)
    cases = [
        (("J0", "K1"), J0, K1, K2.scale(i)),
        (("J0", "K2"), J0, K2, K1.scale(-i)),
        (("K1", "K2"), K1, K2, J0.scale(-i)),
        (("J0", "K+"), J0, Kp, Kp),
        (("J0", "K-"), J0, Km, Km.scale(-1)),
        (("K+", "K-"), Kp, Km, J0.scale(-2)),
    ]
    return _relations(tally, "sp2r_relations", degree, cases)


def suite_mutual_commutant(degree: int) -> Dict:
    """[J0 or K1 or K2, Q_alpha] = 0 exactly on degree <= degree."""
    tally = _Tally()
    zero = OperatorExpr.zero()
    sp = {which: sp2r_generator(which) for which in ("J0", "K1", "K2")}
    cases = [((which, alpha), w, su3_generator(alpha, "total"), zero)
             for which, w in sp.items() for alpha in range(1, 9)]
    return _relations(tally, "mutual_commutant", degree, cases)


def _predicted_norm_sq(key: BasisKey) -> Fraction:
    w = key.weight
    return (
        predicted_hw_norm_sq(key.rep.p, key.rep.q, w.r, w.s)
        * raise_norm_ratio(key.rep, key.m2)
        * lower_norm_ratio(w.I2, w.M2)
    )


def build_states(max_pq: int) -> List[NormalizedState]:
    return [basis_state(k) for k in enumerate_basis_keys(max_pq)]


def suite_basis_orthonormality(max_pq: int, states: List[NormalizedState]) -> Dict:
    """Closed-form norms vs the Gaussian inner product, pairwise orthogonality,
    the d(p,q) state count at m = k, and completeness: a state of level
    n = m - k has bidegree (p+n, q+n), and each bidegree (P, Q) holds as many
    states as monomials, C(P+2,2) C(Q+2,2). The corpus stops at level
    TOP_LEVEL, so only bidegrees with min(P, Q) <= TOP_LEVEL are complete."""
    tally = _Tally()
    # basis_state stores the exact inner product as norm_sq; confront it with the
    # closed-form normalization constants
    for st in states:
        tally(st.norm_sq == _predicted_norm_sq(st.key), "closed-form norm", st.key)
    # pairwise orthogonality
    for i in range(len(states)):
        pi = states[i].poly
        for j in range(i + 1, len(states)):
            tally(not bargmann_inner(pi, states[j].poly), "overlap", states[i].key, states[j].key)
    # counting: states at m = k per (p, q) match the dimension formula, and
    # states per bidegree the monomials
    levels = [(st.key.rep, (st.key.m2 - k_of(st.key.rep)) // 2) for st in states]
    at_k = Counter(rep for rep, n in levels if n == 0)
    per_bidegree = Counter((rep.p + n, rep.q + n) for rep, n in levels)
    for p in range(max_pq + 1):
        for q in range(max_pq + 1 - p):
            rep = IrrepLabel(p, q)
            tally(at_k[rep] == dim(rep), "state count", rep)
            if min(p, q) <= TOP_LEVEL:
                tally(per_bidegree[p, q] == math.comb(p + 2, 2) * math.comb(q + 2, 2),
                      "completeness", p, q)
    return tally.result("basis_orthonormality", states=len(states), max_pq=max_pq)


def suite_kminus_annihilation(max_pq: int, states: List[NormalizedState]) -> Dict:
    """m = k states are killed by K-; raised states peel back to them exactly.

    The peeling route is independent of the constructive multiply: the trace
    projector certifies f0 = 0 and the cofactor recovers the z.w quotient.
    """
    tally = _Tally()
    base_polys = {}
    for st in states:
        if st.key.m2 == k_of(st.key.rep):
            base_polys[(st.key.rep, st.key.weight)] = st.poly
            tally(not _KMINUS.apply_real(st.poly), "K- image", st.key)
    for st in states:
        k2 = k_of(st.key.rep)
        rho = (st.key.m2 - k2) // 2
        if rho == 0:
            continue
        f = st.poly
        ok = True
        for _ in range(rho):
            if traceless_project(f):
                ok = False
                break
            f = zw_cofactor(f)
        tally(ok and f == base_polys[(st.key.rep, st.key.weight)], "peeling", st.key)
    return tally.result("kminus_annihilation", max_pq=max_pq)


def suite_casimir(max_pq: int, states: List[NormalizedState]) -> Dict:
    """Casimir eigenvalue k(1-k) on every state, the K+^n K-^n eigenvalue, and
    on each m = k state its labels: J3 = M and Q8 = (sqrt 3/2) Y."""
    tally = _Tally()
    j3, q8 = su2_ladder("J3"), su3_generator(8)
    for st in states:
        tally(sp2r_casimir_check(st), "casimir", st.key)
        rho = (st.key.m2 - k_of(st.key.rep)) // 2
        if rho == 0:
            w = st.key.weight
            tally(j3.apply_real(st.poly) == st.poly.scale(Fraction(w.M2, 2)), "J3", st.key)
            tally(q8.apply_real(st.poly) == st.poly.scale(Qsqrt3(0, Fraction(w.Y3, 6))),
                  "Q8", st.key)
        # K+^rho K-^rho eigenvalue (m-k)! (m+k-1)! / (2k-1)!
        f = st.poly
        for _ in range(rho):
            f = _KMINUS.apply_real(f)
        for _ in range(rho):
            f = _KPLUS.apply_real(f)
        tally(f == st.poly.scale(raise_norm_ratio(st.key.rep, st.key.m2)), "K+^n K-^n", st.key)
    return tally.result("casimir", max_pq=max_pq)


def random_bihomogeneous(p: int, q: int, rng: random.Random) -> Polynomial:
    """Dense-ish random rational polynomial of bidegree (p, q): per monomial a
    numerator in -9..9 and, when it is nonzero, a denominator in 1..9, with
    the first monomial alone when every numerator is zero."""
    monomials = monomials_of_bidegree(p, q)
    draws = {}
    for m in monomials:
        num = rng.randint(-9, 9)
        if num:
            draws[m] = num, rng.randint(1, 9)
    draws = draws or {monomials[0]: (1, 1)}
    den = math.lcm(*(d for _, d in draws.values()))
    return rebuild_polynomial({m: n * (den // d) for m, (n, d) in draws.items()}, {}, den)


def suite_trace_projector(samples: int, max_each: int, seed: int) -> Dict:
    """Annihilation, idempotence, z.w divisibility and kernel of the projector,
    on every bidegree with p, q <= max_each."""
    rng = random.Random(seed)
    tally = _Tally()
    for p in range(max_each + 1):
        for q in range(max_each + 1):
            for n in range(samples):
                f = random_bihomogeneous(p, q, rng)
                f0 = traceless_project(f)
                tally(not _KMINUS.apply_real(f0), "annihilation", p, q, n)
                tally(traceless_project(f0) == f0, "idempotence", p, q, n)
                tally((f - f0) == ZW * zw_cofactor(f), "z.w divisibility", p, q, n)
                if p > 0 and q > 0:
                    g = random_bihomogeneous(p - 1, q - 1, rng)
                    tally(not traceless_project(ZW * g), "kernel", p, q, n)
    return tally.result("trace_projector", samples=samples)


def suite_kernel_dimension(max_each: int) -> Dict:
    """dim ker K- on bidegree (p, q) equals d(p, q), and so does the rank of
    the trace projector, for p, q <= max_each. K- maps onto bidegree
    (p-1, q-1), so its nullity alone follows from the monomial counts; the
    projector's square charge blocks are rank-deficient for p, q >= 1, so
    their ranks can only come from their entries. When a bidegree was checked,
    one anchor checks the rank routine itself on a matrix of determinant -2,
    which a Bareiss step that skips rows with a zero pivot-column entry reads
    as rank 2."""
    tally = _Tally()
    for p in range(max_each + 1):
        for q in range(max_each + 1):
            d = dim(IrrepLabel(p, q))
            tally(kminus_kernel_dimension(p, q) == d, "K- nullity", p, q)
            rank = charge_block_rank(p, q, lambda m: trace_free_terms({m: 1}, p, q)[0])
            tally(rank == d, "projector rank", p, q)
    if tally.checks:  # basis.rational_rank, read as charge_block_rank reads it
        tally(basis.rational_rank([[-3, -1, -1], [0, 2, -3], [-1, -1, 1]]) == 3, "rank anchor")
    return tally.result("kernel_dimension", max_each=max_each)


def suite_cg_counting() -> Dict:
    """Dimension identities for the CG series (p, q <= CG_BOUND) and the I-Y
    spectrum (p, q <= SPECTRUM_BOUND), and on that spectrum the induced
    multiplicities by Frobenius reciprocity: (p, q) occurs in the
    representation induced from the trivial one of H as often as H fixes a
    vector of (p, q). U1xU1 fixes the M = 0, Y = 0 states, SU2 the I = 0
    multiplets and U2 those of them with Y = 0; SO3 fixes a vector exactly when
    p and q are both even (Weyl's parity rule for SU(3)/SO(3))."""
    tally = _Tally()
    for p in range(CG_BOUND + 1):
        for q in range(CG_BOUND + 1):
            lhs = dim(IrrepLabel(p, 0)) * dim(IrrepLabel(0, q))
            rhs = sum(dim(rep) for rep in cg_series(p, q))
            tally(lhs == rhs, "cg series", p, q)
    for p in range(SPECTRUM_BOUND + 1):
        for q in range(SPECTRUM_BOUND + 1):
            rep = IrrepLabel(p, q)
            spectrum = iy_spectrum(rep)
            tally(sum(e.size for e in spectrum) == dim(rep), "spectrum", rep)
            tally(dim(rep) == dim(IrrepLabel(q, p)), "conjugate", rep)
            # each multiplet with integral I holds one M = 0 state
            fixed = {
                "U1xU1": sum(e.Y3 == 0 and e.I2 % 2 == 0 for e in spectrum),
                "SU2": sum(e.I2 == 0 for e in spectrum),
                "U2": sum(e.I2 == 0 and e.Y3 == 0 for e in spectrum),
                "SO3": int(p % 2 == 0 and q % 2 == 0),
            }
            for subgroup, count in fixed.items():
                tally(induced_multiplicity(subgroup, rep) == count, "mult", subgroup, p, q)
    return tally.result("cg_counting")


def _trace_free_sphere_functions(monomials) -> list:
    """Sphere functions of the monomials' trace-free parts (none is zero: z.w
    divides no monomial); all monomials of a bidegree give a spanning set."""
    return [make_sphere_function(traceless_project(Polynomial.monomial(m))) for m in monomials]


def suite_induced_oracle(max_total: int) -> Dict:
    """Tensor-contraction formula vs direct sphere integration on p + q <=
    max_total, plus the measure anchors: total volume 1/2, the 1/(p+q+2)!
    channel constant for p + q <= ANCHOR_TOTAL and the vanishing of moments
    with unequal exponent triples."""
    tally = _Tally()
    # anchor: measure volume
    tally(sphere_monomial_integral((0, 0, 0), (0, 0, 0)) == Fraction(1, 2), "volume")
    # anchor: all-1-upper against all-2-lower configuration
    for p in range(ANCHOR_TOTAL + 1):
        for q in range(ANCHOR_TOTAL + 1 - p):
            got = sphere_monomial_integral((p, q, 0), (p, q, 0))
            want = Fraction(math.factorial(p) * math.factorial(q),
                            math.factorial(p + q + 2))
            tally(got == want, "channel constant", p, q)
    # anchor: the U(1)^3 selection rule that sphere_inner_direct relies on
    for holo, anti in (((1, 0, 0), (0, 1, 0)), ((2, 0, 1), (1, 1, 1)), ((1, 1, 0), (0, 0, 2))):
        tally(sphere_monomial_integral(holo, anti) == 0, "selection rule", holo, anti)
    # constraint consistency: sum_j |xi_j|^2 = 1 under the integral
    for a in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 1)):
        total = Fraction(0)
        for j in range(3):
            aj = tuple(e + (1 if i == j else 0) for i, e in enumerate(a))
            total += sphere_monomial_integral(aj, aj)
        # divide out the diagonal moment of a itself
        tally(total == sphere_monomial_integral(a, a), "constraint", a)
    # oracle equivalence on traceless channels
    for p in range(max_total + 1):
        for q in range(max_total + 1 - p):
            funcs = _trace_free_sphere_functions(monomials_of_bidegree(p, q))
            for i, phi in enumerate(funcs):
                for psi in funcs[i:]:
                    tally(induced_inner_formula(phi, psi) == sphere_inner_direct(phi, psi),
                          "oracle", p, q)
    # cross-bidegree orthogonality of traceless functions
    chans = [(p, q) for p in range(3) for q in range(3)]
    reps = {c: _trace_free_sphere_functions(monomials_of_bidegree(*c)[:3]) for c in chans}
    for c1 in chans:
        for c2 in chans:
            if c1 >= c2:
                continue
            for phi in reps[c1]:
                for psi in reps[c2]:
                    tally(not sphere_inner_direct(phi, psi), "cross-bidegree", c1, c2)
    return tally.result("induced_oracle")


def suite_equivalence_isometry(samples: int, max_each: int, seed: int) -> Dict:
    """Inner products are carried exactly onto the sphere by the channel scaling,
    on trace-free inputs of bidegrees with p, q <= max_each."""
    rng = random.Random(seed)
    tally = _Tally()
    pool: List[Polynomial] = []
    for _ in range(samples):
        p = rng.randint(0, max_each)
        q = rng.randint(0, max_each)
        f = traceless_project(random_bihomogeneous(p, q, rng))
        if rng.random() < 0.5:
            # mix a second channel to exercise the multi-channel path
            p2 = rng.randint(0, max_each)
            q2 = rng.randint(0, max_each)
            f = f + traceless_project(random_bihomogeneous(p2, q2, rng))
        if f and h0_membership(f):
            pool.append(f)
    images = [equivalence_map(f) for f in pool]
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            exact = bargmann_inner(pool[i], pool[j]).as_fraction()
            direct = sphere_inner_direct(images[i], images[j])
            formula = induced_inner_formula(images[i], images[j])
            tally(direct == exact and formula == exact, "pair", i, j)
    return tally.result("equivalence_isometry", samples=len(pool), seed=seed)


def suite_cn_dual_route() -> Dict:
    """The closed-form C_n of ``cn_coeffs`` against the recursion
    n (r+s+n+1) C_n = -(p-r-n+1) (q-s-n+1) C_{n-1}, C_0 = 1: one check per
    (p, q, r, s) with p, q <= CN_BOUND."""
    tally = _Tally()
    for p in range(CN_BOUND + 1):
        for q in range(CN_BOUND + 1):
            for r in range(p + 1):
                for s in range(q + 1):
                    rec = [Fraction(1)]
                    for n in range(1, min(p - r, q - s) + 1):
                        rec.append(rec[-1] * Fraction(-(p - r - n + 1) * (q - s - n + 1),
                                                      n * (r + s + n + 1)))
                    tally(cn_coeffs(p, q, r, s) == rec, p, q, r, s)
    return tally.result("cn_dual_route", max_each=CN_BOUND)


def suite_numeric_equivariance(samples: int, seed: int) -> Dict:
    """The float projector at bidegree (2,2), its commutation with the action
    there, the action on degree one, and the representation property on
    degree <= (3,3), over seeded Haar samples. U(A) acts on each test monomial
    through the factored numeric.act_bargmann, F -> S F T^T."""
    tally = _Tally()
    from . import numeric

    proj, act, rep = [], [], []
    test_monomials = [
        m
        for p in range(4)
        for q in range(4)
        for m in list(monomials_of_bidegree(p, q))[:2]
    ]
    # z_0, z_1, z_2, w_0, w_1, w_2
    variables = [tuple(int(k == j) for k in range(6)) for j in range(6)]
    if samples > 0:
        # (2,2) = (2,2) + (1,1) + (0,0), each irrep once, so P is the only
        # idempotent of trace 27 that commutes with every U(A)
        idempotence, trace = numeric.projector_pin(2, 2)
        tally(idempotence <= PROJECTION_TOL
              and abs(trace - dim(IrrepLabel(2, 2))) <= PROJECTION_TOL, "projector")
    for i in range(samples):
        a = numeric.haar_random_su3(seed + i)
        d = numeric.equivariance_defect(a, (2, 2))
        tally(d <= PROJECTION_TOL, "projection", seed + i)
        proj.append(d)
        # the representation property holds for the trivial and the zero
        # action too; degree one says which action it is: z_j -> sum_k B[j][k] z_k
        # with B = A^dagger, read off the sample itself, and w_j the same by conj(B)
        for j in range(3):
            column = [row[j] for row in a]  # B[j][k] = conj(A[k][j])
            for shift, image in ((0, [c.conjugate() for c in column]), (3, column)):
                x = variables[shift + j]
                d = numeric.max_diff(numeric.act_bargmann(a, {x: 1.0 + 0.0j}),
                                     dict(zip(variables[shift:], image)))
                tally(d <= REPRESENTATION_TOL, "action", seed + i, x)
                act.append(d)
        b = numeric.haar_random_su3(seed + samples + i)
        ab = numeric.matmul(a, b)
        for m in test_monomials:
            f = {m: 1.0 + 0.0j}
            lhs = numeric.act_bargmann(a, numeric.act_bargmann(b, f))
            rhs = numeric.act_bargmann(ab, f)
            d = numeric.max_diff(lhs, rhs)
            tally(d <= REPRESENTATION_TOL, "representation", seed + i, m)
            rep.append(d)
    return tally.result("numeric_equivariance", max_projection_defect=numeric.max_abs(proj),
                        max_action_defect=numeric.max_abs(act),
                        max_representation_defect=numeric.max_abs(rep),
                        samples=samples, seed=seed)


def run_all(*, max_pq: int, degree: int, samples: int, numeric_samples: int,
            numeric_checks: bool, seed: int = 0,
            states: List[NormalizedState] | None = None) -> List[Dict]:
    """All suites at the caller's sizes, sorted by suite name; the state
    suites read ``states``, built here unless the caller built
    ``build_states(max_pq)`` itself."""
    if states is None:
        states = build_states(max_pq)
    suites = [
        suite_su3_closure(degree),
        suite_sp2r_relations(degree),
        suite_mutual_commutant(degree),
        suite_basis_orthonormality(max_pq, states=states),
        suite_kminus_annihilation(max_pq, states=states),
        suite_casimir(max_pq, states=states),
        suite_trace_projector(samples=samples, max_each=3, seed=seed),
        suite_kernel_dimension(max_each=3),
        suite_cg_counting(),
        suite_induced_oracle(max_total=3),
        suite_equivalence_isometry(samples=samples, max_each=3, seed=seed),
        suite_cn_dual_route(),
    ]
    if numeric_checks:
        suites.append(suite_numeric_equivariance(samples=numeric_samples, seed=seed))
    return sorted(suites, key=lambda s: s["name"])
