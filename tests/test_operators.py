import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from schwinger_su3.operators import (
    OperatorExpr,
    commutator_defect,
    gell_mann,
    number_op,
    sp2r_generator,
    su2_ladder,
    su3_generator,
)
from schwinger_su3.poly import (
    Polynomial,
    bargmann_inner,
    monomials_of_bidegree,
)
from schwinger_su3.scalars import CScalar, Qsqrt3

Z1 = Polynomial.variable(1)
Z2 = Polynomial.variable(2)
Z3 = Polynomial.variable(3)
W1 = Polynomial.variable(4)
W2 = Polynomial.variable(5)
ZW = (
    Polynomial.monomial((1, 0, 0, 1, 0, 0))
    + Polynomial.monomial((0, 1, 0, 0, 1, 0))
    + Polynomial.monomial((0, 0, 1, 0, 0, 1))
)


MUL = 0
DIFF = 1
_ZEROS = (0,) * 6


def word(symbols, coeff=1):
    """coeff times the product of (kind, mode) symbols, each a multiplication
    (MUL) or a derivative (DIFF) on a 0-based mode; the leftmost acts last."""
    out = OperatorExpr.identity(coeff)
    for kind, mode in symbols:
        unit = tuple(int(j == mode) for j in range(6))
        out = out.compose(OperatorExpr({(unit, _ZEROS) if kind == MUL else (_ZEROS, unit): 1}))
    return out


def _float(x):
    """The float value of a Qsqrt3, from its parts."""
    return float(x.rat) + float(x.surd) * 3.0 ** 0.5


# anchor values of the antisymmetric structure constants, as tabulated in
# every textbook treatment of the lambda matrices
_F_TABLE = {
    (1, 2, 3): Fraction(1),
    (1, 4, 7): Fraction(1, 2),
    (1, 5, 6): Fraction(-1, 2),
    (2, 4, 6): Fraction(1, 2),
    (2, 5, 7): Fraction(1, 2),
    (3, 4, 5): Fraction(1, 2),
    (3, 6, 7): Fraction(-1, 2),
}


def test_structure_constants_match_textbook_table():
    gm = gell_mann()
    for (a, b, c), want in _F_TABLE.items():
        assert gm.f(a, b, c) == Qsqrt3(want)
    # the two surd entries: f_458 = f_678 = sqrt(3)/2
    assert gm.f(4, 5, 8) == Qsqrt3(0, Fraction(1, 2))
    assert gm.f(6, 7, 8) == Qsqrt3(0, Fraction(1, 2))
    # total antisymmetry
    assert gm.f(2, 1, 3) == Qsqrt3(-1)
    assert gm.f(3, 1, 2) == Qsqrt3(1)
    assert not gm.f(1, 2, 4)
    # reference route, in floats from the lambdas: f_abc = tr([la, lb] lc) / (4i)
    lam = [np.array([[complex(_float(c.re), _float(c.im)) for c in row] for row in m])
           for m in gm.lambdas]
    for a, b, c in itertools.product(range(1, 9), repeat=3):
        la, lb, lc = lam[a - 1], lam[b - 1], lam[c - 1]
        want = np.trace((la @ lb - lb @ la) @ lc) / 4j
        assert abs(want - _float(gm.f(a, b, c))) < 1e-12, (a, b, c)


def test_su3_generator_diagonal_actions():
    q3 = su3_generator(3, "a")
    re, im = q3.apply(Z1)
    assert re == Z1.scale(Fraction(1, 2)) and not im
    q8 = su3_generator(8, "a")
    re, im = q8.apply(Z3)
    # eigenvalue -1/sqrt(3), carried in the surd slot
    assert re == Z3.scale(Qsqrt3(0, Fraction(-1, 3))) and not im


def test_vacuum_is_invariant():
    one = Polynomial.constant(1)
    for alpha in range(1, 9):
        re, im = su3_generator(alpha, "total").apply(one)
        assert not re and not im


def test_sp2r_generator_actions():
    j0 = sp2r_generator("J0")
    assert j0.apply_real(Z1 * W2) == (Z1 * W2).scale(Fraction(5, 2))
    km = sp2r_generator("Kminus")
    assert km.apply_real(ZW) == Polynomial.constant(3)
    kp = sp2r_generator("Kplus")
    assert kp.apply_real(Polynomial.constant(1)) == ZW


def test_su2_ladder_actions():
    jm = su2_ladder("Jminus")
    assert jm.apply_real(Z1) == Z2
    assert jm.apply_real(W2) == -W1
    assert jm.apply_real(Z3) == Polynomial.zero()
    jp = su2_ladder("Jplus")
    assert jp.apply_real(Z2) == Z1
    j3 = su2_ladder("J3")
    assert j3.apply_real(Z1) == Z1.scale(Fraction(1, 2))
    assert j3.apply_real(W1) == W1.scale(Fraction(-1, 2))


def test_number_operators_are_diagonal():
    na, nb = number_op("a"), number_op("b")
    for m in ((2, 0, 1, 0, 1, 0), (0, 0, 0, 2, 0, 1)):
        f = Polynomial.monomial(m)
        p, q = sum(m[:3]), sum(m[3:])
        assert na.apply_real(f) == f.scale(p)
        assert nb.apply_real(f) == f.scale(q)


def test_commutator_defect_examples():
    q1 = su3_generator(1, "total")
    q2 = su3_generator(2, "total")
    q3 = su3_generator(3, "total")
    assert commutator_defect(q1, q2, q3.scale(CScalar(0, 1)), 4) == []
    j0 = sp2r_generator("J0")
    zero = OperatorExpr.zero()
    for alpha in range(1, 9):
        assert commutator_defect(j0, su3_generator(alpha, "total"), zero, 4) == []
    kp = sp2r_generator("Kplus")
    km = sp2r_generator("Kminus")
    assert commutator_defect(kp, km, j0.scale(-2), 4) == []


def test_commutator_defect_detects_wrong_relation():
    q1 = su3_generator(1, "total")
    q2 = su3_generator(2, "total")
    # wrong sign on the expected result must produce nonzero residues
    q3 = su3_generator(3, "total")
    assert commutator_defect(q1, q2, q3.scale(CScalar(0, -1)), 2)
    # every bilinear kills the constants, so degree 0 sees no wrong su(3)
    # relation; a wrong constant in J0 (1 in place of 3/2) it does see
    assert commutator_defect(q1, q2, q3.scale(CScalar(0, -1)), 0) == []
    j0_shifted = sp2r_generator("J0") - OperatorExpr.identity(Fraction(1, 2))
    assert commutator_defect(sp2r_generator("Kplus"), sp2r_generator("Kminus"),
                             j0_shifted.scale(-2), 0)
    with pytest.raises(ValueError):
        commutator_defect(q1, q2, q3, -1)


def _sweep_defect(X, Y, Z, degree):
    """Reference: [X, Y] - Z applied to every monomial of degree <= degree."""
    op = X.commutator(Y) - Z
    return [part for p in range(degree + 1) for q in range(degree + 1 - p)
            for m in monomials_of_bidegree(p, q)
            for part in op.apply(Polynomial.monomial(m)) if part]


def test_commutator_defect_agrees_with_monomial_sweep():
    rng = random.Random(3)
    pool = [su3_generator(alpha, sector) for alpha in (1, 2, 3, 5, 8)
            for sector in ("a", "total")]
    pool += [sp2r_generator(w) for w in ("J0", "K1", "K2", "Kplus", "Kminus")]
    pool += [su2_ladder(w) for w in ("Jplus", "Jminus", "J3")]
    pool += [word([(rng.choice((MUL, DIFF)), rng.randrange(6))
                   for _ in range(rng.randint(1, 3))])
             for _ in range(6)]
    verdicts = []
    for _ in range(400):
        x, y = rng.choice(pool), rng.choice(pool)
        z = x.commutator(y)
        if rng.random() < 0.8:
            # a wrong relation, whose extra term some degrees still cannot see
            symbols = [(rng.choice((MUL, DIFF)), rng.randrange(6))
                       for _ in range(rng.randint(0, 4))]
            n = rng.choice((-2, -1, 1, 2))
            z = z + word(symbols, rng.choice((CScalar(n), CScalar(0, n))))
        degree = rng.randint(0, 3)
        verdict = bool(commutator_defect(x, y, z, degree))
        assert verdict == bool(_sweep_defect(x, y, z, degree))
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def _random_poly(rng, p, q):
    terms = {}
    for m in monomials_of_bidegree(p, q):
        n = rng.randint(-5, 5)
        if n:
            terms[m] = Fraction(n, rng.randint(1, 5))
    return Polynomial(terms)


def test_ladder_adjointness():
    rng = random.Random(11)
    kp = sp2r_generator("Kplus")
    km = sp2r_generator("Kminus")
    jp = su2_ladder("Jplus")
    jm = su2_ladder("Jminus")
    for _ in range(10):
        f = _random_poly(rng, 1, 1)
        g = _random_poly(rng, 2, 2)
        assert bargmann_inner(kp.apply_real(f), g) == bargmann_inner(
            f, km.apply_real(g)
        )
        h = _random_poly(rng, 2, 2)
        assert bargmann_inner(jp.apply_real(g), h) == bargmann_inner(
            g, jm.apply_real(h)
        )


def _cinner(fpair, gpair):
    """<f, g> for complex polynomials as (re, im) pairs; conjugate-linear in f."""
    fr, fi = fpair
    gr, gi = gpair
    re = bargmann_inner(fr, gr) + bargmann_inner(fi, gi)
    im = bargmann_inner(fr, gi) - bargmann_inner(fi, gr)
    return re, im


def test_su3_generators_self_adjoint():
    rng = random.Random(7)
    for alpha in (1, 2, 5, 8):
        q = su3_generator(alpha, "total")
        for _ in range(5):
            f = _random_poly(rng, 1, 1)
            g = _random_poly(rng, 1, 1)
            assert _cinner(q.apply(f), (g, Polynomial.zero())) == _cinner(
                (f, Polynomial.zero()), q.apply(g)
            )


def test_operator_equality_is_semantic():
    # [d_1, z_1] = 1 as operators
    z1 = word(((0, 0),))
    d1 = word(((1, 0),))
    assert d1.commutator(z1) == OperatorExpr.identity()
    assert d1.compose(z1) - z1.compose(d1) - OperatorExpr.identity() == (
        OperatorExpr.zero()
    )
    with pytest.raises(TypeError):
        hash(z1)


def test_operators_are_immutable_unequal_to_scalars_and_show_their_size():
    with pytest.raises(AttributeError):
        OperatorExpr.zero().terms = {}
    assert (OperatorExpr.zero() == 3) is False
    assert repr(sp2r_generator("J0")) == "OperatorExpr(7 terms)"


def test_word_reorders_repeated_modes():
    # d1 d1 z1 z1 = z1^2 d1^2 + 4 z1 d1 + 2, built symbol by symbol and as
    # one product d1^2 . z1^2 that contracts two derivatives at once
    z1, d1 = (MUL, 0), (DIFF, 0)
    want = {
        ((2, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)): CScalar(1),
        ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)): CScalar(4),
        ((0,) * 6, (0,) * 6): CScalar(2),
    }
    assert word((d1, d1, z1, z1)).normal_form() == want
    product = word((d1, d1)).compose(word((z1, z1)))
    assert product.normal_form() == want


def test_normal_form_is_a_copy():
    op = su3_generator(1)
    f = _random_poly(random.Random(7), 2, 1)
    before = op.apply_real(f)
    form = op.normal_form()
    for key in form:
        form[key] = CScalar(5)
    form[((0,) * 6, (0,) * 6)] = CScalar(1)
    assert op.normal_form() != form
    assert op.apply_real(f) == before


def test_compose_matches_successive_application():
    rng = random.Random(2024)
    ops = [
        sp2r_generator("Kplus"),
        sp2r_generator("Kminus"),
        sp2r_generator("J0"),
        su2_ladder("Jplus"),
        su2_ladder("Jminus"),
        su2_ladder("J3"),
    ]
    # words on two modes, so that a mode often carries exponent 2 or more
    # on both sides of a product
    for _ in range(12):
        symbols = [(rng.choice((MUL, DIFF)), rng.choice((0, 3))) for _ in range(4)]
        ops.append(word(symbols, rng.randint(1, 3)))
    for x in ops:
        for y in ops:
            degree = rng.randint(2, 4)
            p = rng.randint(0, degree)
            f = _random_poly(rng, p, degree - p)
            assert x.compose(y).apply_real(f) == x.apply_real(y.apply_real(f))


def _compose_reference(x, y):
    """x . y by the Leibniz rule on the CScalar coefficients themselves: the
    second route against the integer channels of ``compose``."""
    out = {}
    for (a, b), c1 in x.normal_form().items():
        for (g, e), c2 in y.normal_form().items():
            c = c1 * c2
            per_mode = [[(k, math.comb(u, k) * math.perm(v, k)) for k in range(min(u, v) + 1)]
                        for u, v in zip(b, g)]
            for choice in itertools.product(*per_mode):
                k = [kj for kj, _ in choice]
                key = (tuple(u + v - w for u, v, w in zip(a, g, k)),
                       tuple(u - w + v for u, w, v in zip(b, k, e)))
                out[key] = out.get(key, 0) + c * math.prod(w for _, w in choice)
    return {key: c for key, c in out.items() if c}


# all four parts non-zero, over the coprime denominators 3, 7, 11 and 13
_ODD = CScalar(Qsqrt3(Fraction(2, 3), Fraction(-5, 7)), Qsqrt3(Fraction(3, 11), Fraction(7, 13)))


def _kernel_operands():
    ops = [su3_generator(alpha, sector) for sector in ("a", "b", "total")
           for alpha in range(1, 9)]
    ops += [sp2r_generator(w) for w in ("J0", "K1", "K2", "Kplus", "Kminus")]
    words = [word(((DIFF, 0), (MUL, 0), (DIFF, 3), (MUL, 3), (MUL, 0))),
             word(((DIFF, 0), (DIFF, 0), (MUL, 0), (MUL, 0)), Fraction(-3, 5))]
    return ops + [op.scale(_ODD) for op in ops[::4] + words]


def test_compose_matches_the_cscalar_route():
    for sector in ("a", "b", "total"):
        gens = [su3_generator(alpha, sector) for alpha in range(1, 9)]
        for x, y in itertools.product(gens, repeat=2):
            assert x.compose(y).normal_form() == _compose_reference(x, y)
    ops = _kernel_operands()
    for x in ops[-10:]:  # the operators scaled by _ODD
        for y in ops[::3]:
            assert x.compose(y).normal_form() == _compose_reference(x, y)
            assert y.compose(x).normal_form() == _compose_reference(y, x)


def test_commutator_defect_matches_the_cscalar_route():
    gm = gell_mann()
    q = [su3_generator(alpha, "total") for alpha in range(1, 9)]
    j0, k1, k2 = (sp2r_generator(w) for w in ("J0", "K1", "K2"))
    holds = [(q[0], q[1], q[2].scale(CScalar(0, 1))), (k1, k2, j0.scale(CScalar(0, -1))),
             (q[3], q[4], q[2].scale(CScalar(0, gm.f(4, 5, 3)))
              + q[7].scale(CScalar(0, gm.f(4, 5, 8))))]
    ops = _kernel_operands()
    fails = [(x, y, z.scale(_ODD)) for x, y, z in holds]
    holds.append((j0, q[4], OperatorExpr.zero()))
    fails += [(ops[i], ops[-1 - i], ops[i + 5]) for i in range(0, 12, 3)]
    for cases, passing in ((holds, True), (fails, False)):
        for x, y, z in cases:
            assert (commutator_defect(x, y, z, 4) == []) is passing
            want = _compose_reference(x, y)
            # X.Y - Y.X - Z
            for key, c in [*_compose_reference(y, x).items(), *z.normal_form().items()]:
                want[key] = want.get(key, 0) - c
            for degree in (0, 1, 2, 4):
                got = commutator_defect(x, y, z, degree)
                assert all(isinstance(c, CScalar) for _, c in got)
                assert dict(got) == {key: c for key, c in want.items()
                                     if c and sum(key[1]) <= degree}
                assert len(dict(got)) == len(got)


def test_apply_is_the_multiplication_terms_of_compose():
    # op(f) read off op . M_f, M_f the multiplication operator by f: its
    # derivative-free terms, split into real and imaginary parts, by the
    # channel kernel of compose against the Qsqrt3 terms of apply
    rng = random.Random(34)
    polys = [Polynomial({m: Qsqrt3(Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                                   Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
                         for m in monomials_of_bidegree(p, q)})
             for p, q in ((1, 1), (2, 1), (0, 2), (2, 2))]
    # trace-free, so K- cancels term against term
    polys.append((Z1 * W1 - Z2 * W2).scale(Qsqrt3(Fraction(1, 2), Fraction(-2, 3))))
    for op in _kernel_operands():
        for f in polys:
            product = op.compose(OperatorExpr({(m, _ZEROS): c for m, c in f.terms.items()}))
            lowered = {alpha: c for (alpha, beta), c in product.normal_form().items()
                       if beta == _ZEROS}
            re, im = op.apply(f)
            assert re == Polynomial({m: c.re for m, c in lowered.items()})
            assert im == Polynomial({m: c.im for m, c in lowered.items()})
            assert all(re.terms.values()) and all(im.terms.values())
    kminus = sp2r_generator("Kminus").scale(_ODD)
    assert kminus.apply(polys[-1]) == (Polynomial.zero(), Polynomial.zero())


def test_apply_real_rejects_imaginary_output():
    q2 = su3_generator(2, "a")  # lambda_2 has imaginary entries
    with pytest.raises(ValueError):
        q2.apply_real(Z1)


def test_generator_labels_out_of_range_are_rejected():
    for alpha in (0, 9):
        with pytest.raises(ValueError):
            su3_generator(alpha)
    for call in (lambda: su3_generator(1, "c"), lambda: number_op("c"),
                 lambda: sp2r_generator("K3"), lambda: su2_ladder("J1")):
        with pytest.raises(ValueError):
            call()
