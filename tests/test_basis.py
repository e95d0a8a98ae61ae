import math
import random
from fractions import Fraction

import pytest

from schwinger_su3 import basis, numeric
from schwinger_su3.basis import (
    ZW,
    BasisKey,
    basis_state,
    cn_coeffs,
    enumerate_basis_keys,
    hw_norm_constant_sq,
    kminus_kernel_dimension,
    lower_norm_ratio,
    predicted_hw_norm_sq,
    raise_norm_ratio,
    sp2r_casimir_check,
    state_to_dict,
    traceless_project,
    zw_cofactor,
)
from schwinger_su3.catalog import (
    IrrepLabel,
    dim,
    induced_multiplicity,
    iy_spectrum,
    k_of,
    weight_from_iy,
    weight_from_rs,
)
from schwinger_su3.operators import sp2r_generator, su2_ladder, su3_generator
from schwinger_su3.poly import (
    Polynomial,
    bargmann_inner,
    h0_membership,
    monomials_of_bidegree,
    poly_from_records,
)
from schwinger_su3.scalars import Qsqrt3

KMINUS = sp2r_generator("Kminus")
J0 = sp2r_generator("J0")
J3 = su2_ladder("J3")

Z1 = Polynomial.variable(1)
Z2 = Polynomial.variable(2)
W1 = Polynomial.variable(4)
W2 = Polynomial.variable(5)


def _key(p, q, I2, M2, Y3, m2):
    rep = IrrepLabel(p, q)
    return BasisKey(rep=rep, weight=weight_from_iy(rep, I2, Y3).replace(M2=M2), m2=m2)


def test_cn_coeffs_examples():
    assert cn_coeffs(1, 1, 0, 0) == [Fraction(1), Fraction(-1, 2)]
    assert cn_coeffs(3, 2, 3, 2) == [Fraction(1)]
    # the recursion agrees here, 2 C_1 = -2 C_0; criterion 12 compares the two
    # routes for p, q <= 8
    assert cn_coeffs(2, 1, 0, 0) == [Fraction(1), Fraction(-1)]
    with pytest.raises(ValueError):
        cn_coeffs(1, 1, 2, 0)


def test_highest_weight_octet_singlet():
    st = basis_state(_key(1, 1, 0, 0, 0, 5))
    # proportional to z3 w3 - (z1 w1 + z2 w2)/2, cleared to integers
    want = (
        Polynomial.monomial((0, 0, 1, 0, 0, 1), 2)
        - Polynomial.monomial((1, 0, 0, 1, 0, 0))
        - Polynomial.monomial((0, 1, 0, 0, 1, 0))
    )
    assert st.poly == want
    assert st.norm_sq == bargmann_inner(st.poly, st.poly).as_fraction()
    # closed-form squared normalization constant is 2/3 for this weight
    assert hw_norm_constant_sq(1, 1, 0, 0) == Fraction(2, 3)
    assert st.norm_sq == predicted_hw_norm_sq(1, 1, 0, 0)
    assert KMINUS.apply_real(st.poly) == Polynomial.zero()


def test_highest_weight_triplet_and_vacuum():
    st = basis_state(_key(1, 0, 1, 1, 1, 4))  # I = 1/2, Y = 1/3
    assert st.poly == Z1 and st.norm_sq == 1
    st = basis_state(_key(0, 0, 0, 0, 0, 3))
    assert st.poly == Polynomial.constant(1) and st.norm_sq == 1


def test_closed_form_highest_weight_is_the_projected_state():
    # the paper's ansatz z1^r w2^s sum_n L C_n (z1 w1 + z2 w2)^n z3^(p-r-n) w3^(q-s-n),
    # L the lcm of the C_n denominators, coefficient by coefficient
    zw12 = Z1 * W1 + Z2 * W2
    for p in range(6):
        for q in range(6):
            rep = IrrepLabel(p, q)
            for r in range(p + 1):
                for s in range(q + 1):
                    cn = cn_coeffs(p, q, r, s)
                    lcm = math.lcm(*(c.denominator for c in cn))
                    want = Polynomial.zero()
                    zw_pow = Polynomial.constant(1)
                    for n, c in enumerate(cn):
                        m = (r, 0, p - r - n, 0, s, q - s - n)
                        want = want + zw_pow * Polynomial.monomial(m, lcm * c)
                        zw_pow = zw_pow * zw12
                    key = BasisKey(rep=rep, weight=weight_from_rs(rep, r, s), m2=k_of(rep))
                    assert basis_state(key).poly == want, (p, q, r, s)


def test_sp2r_raise_vacuum():
    raised = basis_state(_key(0, 0, 0, 0, 0, 5))  # m = 5/2 from k = 3/2
    assert raised.poly == ZW
    assert raised.norm_sq == 3
    assert raise_norm_ratio(IrrepLabel(0, 0), 5) == 3


def test_sp2r_raise_keeps_unit_norm():
    st = basis_state(_key(1, 1, 0, 0, 0, 5))
    raised = basis_state(_key(1, 1, 0, 0, 0, 7))  # m = k + 1
    assert raised.poly == ZW * st.poly
    assert raised.norm_sq == bargmann_inner(raised.poly, raised.poly).as_fraction()
    assert raised.norm_sq == st.norm_sq * raise_norm_ratio(IrrepLabel(1, 1), 7)


def test_su2_lower_doublets():
    down = basis_state(_key(1, 0, 1, -1, 1, 4))
    assert down.poly == Z2 and down.norm_sq == 1
    anti = basis_state(_key(0, 1, 1, 1, -1, 4))
    assert anti.poly == W2
    lowered = basis_state(_key(0, 1, 1, -1, -1, 4))
    assert lowered.poly == -W1 and lowered.norm_sq == 1
    with pytest.raises(ValueError):
        _key(1, 0, 1, -2, 1, 4)  # M2 = -2 outside +-I2


def test_lower_norm_ratio_grouping():
    # (2I)! (I-M)!/(I+M)! at I = 1, M = -1: 2 * 2 / 1
    assert lower_norm_ratio(2, -2) == 4
    assert lower_norm_ratio(2, 2) == 1


def test_basis_state_examples():
    vac = basis_state(_key(0, 0, 0, 0, 0, 3))
    assert vac.poly == Polynomial.constant(1) and vac.norm_sq == 1
    st = basis_state(_key(1, 0, 1, -1, 1, 4))
    assert st.poly == Z2 and st.norm_sq == 1
    st = basis_state(_key(1, 1, 0, 0, 0, 5))
    assert st.norm_sq == Fraction(6)  # cleared poly 2 z3w3 - z1w1 - z2w2


def test_basis_keys_cover_three_levels_of_each_weight():
    # p + q <= 1: the 1 + 3 + 3 weights of (0,0), (1,0) and (0,1), each at
    # m = k, k + 1 and k + 2
    keys = list(enumerate_basis_keys(1))
    assert len(keys) == 21
    assert {(key.rep.p, key.rep.q) for key in keys} == {(0, 0), (1, 0), (0, 1)}
    for key in keys:
        assert (key.m2 - k_of(key.rep)) // 2 in (0, 1, 2)


def test_basis_key_validation():
    with pytest.raises(ValueError):
        _key(1, 1, 0, 0, 0, 4)  # below 2k = 5
    with pytest.raises(ValueError):
        _key(1, 1, 0, 0, 0, 6)  # parity


def test_weight_operator_eigenvalues():
    for key in list(enumerate_basis_keys(2))[::7]:
        st = basis_state(key)
        w = key.weight
        assert J3.apply_real(st.poly) == st.poly.scale(Fraction(w.M2, 2))
        assert J0.apply_real(st.poly) == st.poly.scale(Fraction(key.m2, 2))


def test_casimir_eigenvalues():
    cases = [
        (_key(0, 0, 0, 0, 0, 3), Fraction(-3, 4)),
        (_key(1, 0, 1, 1, 1, 4), Fraction(-2)),
        (_key(1, 1, 0, 0, 0, 7), Fraction(-15, 4)),
    ]
    kp = sp2r_generator("Kplus")
    km = sp2r_generator("Kminus")
    casimir = (kp.compose(km) + km.compose(kp)).scale(Fraction(1, 2)) - J0.compose(J0)
    for key, eig in cases:
        st = basis_state(key)
        assert sp2r_casimir_check(st)
        k2 = k_of(key.rep)
        assert eig == Fraction(k2 * (2 - k2), 4)
        assert casimir.apply_real(st.poly) == st.poly.scale(eig)


def test_traceless_project_examples():
    assert traceless_project(ZW) == Polynomial.zero()
    f = Z1 * W1
    f0 = traceless_project(f)
    assert f0 == f - ZW.scale(Fraction(1, 3))
    assert KMINUS.apply_real(f0) == Polynomial.zero()
    g = Z1 * W2  # already trace-free
    assert traceless_project(g) == g
    with pytest.raises(ValueError):
        traceless_project(Z1 + Z1 * W1)


def test_trace_projector_structure():
    rng = random.Random(5)
    for _ in range(10):
        terms = {}
        for m in monomials_of_bidegree(2, 2):
            n = rng.randint(-4, 4)
            if n:
                terms[m] = Fraction(n, rng.randint(1, 4))
        f = Polynomial(terms)
        f0 = traceless_project(f)
        assert traceless_project(f0) == f0
        assert f - f0 == ZW * zw_cofactor(f)
        assert not KMINUS.apply_real(f0)


def _reference_series(f):
    """(f0, g) from the closed-form trace series, built independently of the
    kernel from OperatorExpr K- and Polynomial powers of z.w."""
    p, q = f.bidegree()
    d = p + q + 1
    g = Polynomial.zero()
    km = f
    zw_pow = Polynomial.constant(1)
    for n in range(1, min(p, q) + 1):
        km = KMINUS.apply_real(km)
        alpha = Fraction(
            (-1) ** (n - 1) * math.factorial(d - n),
            math.factorial(n) * math.factorial(d),
        )
        g = g + (zw_pow * km).scale(alpha)
        zw_pow = zw_pow * ZW
    return f - ZW * g, g


def _random_input(p, q, rng, surd):
    terms = {}
    for m in monomials_of_bidegree(p, q):
        rat = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        sqrt3 = Fraction(rng.randint(-3, 3), rng.randint(1, 5)) if surd else 0
        terms[m] = Qsqrt3(rat, sqrt3)
    return Polynomial(terms)


def _shadow(f):
    """Float shadow of an exact polynomial, built from each coefficient's parts."""
    return {m: float(c.rat) + float(c.surd) * 3.0 ** 0.5 + 0j for m, c in f.terms.items()}


def test_trace_kernel_matches_reference_series():
    rng = random.Random(11)
    for p in range(5):
        for q in range(5):
            for surd in (False, True):
                f = _random_input(p, q, rng, surd)
                assert any(c.surd for c in f.terms.values()) == surd
                f0, g = _reference_series(f)
                assert traceless_project(f) == f0
                assert zw_cofactor(f) == g
                shadow = numeric.n_traceless_project(_shadow(f), p, q)
                want = _shadow(f0)
                assert all(abs(shadow.get(m, 0.0) - want.get(m, 0.0)) < 1e-12
                           for m in {**shadow, **want})


def _int_parts(f):
    return all(type(c.rat) is int and type(c.surd) is int for c in f.terms.values())


def test_basis_states_and_their_peeled_cofactors_have_int_parts():
    base = {}
    for key in enumerate_basis_keys(3):
        st = basis_state(key)
        assert _int_parts(st.poly), key
        rho = (key.m2 - k_of(key.rep)) // 2
        f = st.poly
        for _ in range(rho):
            g = zw_cofactor(f)
            assert _int_parts(g) and ZW * g == f, key
            f = g
        base.setdefault((key.rep, key.weight), f)
        assert f == base[(key.rep, key.weight)], key


def _fraction_rank(rows):
    """Rank by textbook Gaussian elimination with Fraction division."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] / mat[rank][col]
            mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_rational_rank_matches_fraction_elimination():
    rng = random.Random(17)
    deficient = 0
    for _ in range(400):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        r = rng.randint(0, min(n, m))
        # an n x m product of n x r and r x m factors has rank <= r; sparse
        # factors leave zeros in pivot columns, so rows skip Bareiss steps
        density = rng.choice((0.3, 0.6, 1.0))
        left = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 if rng.random() < density else 0 for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-4, 4) if rng.random() < density else 0
                  for _ in range(m)] for _ in range(r)]
        rows = [[sum((a[k] * right[k][j] for k in range(r)), Fraction(0))
                 for j in range(m)] for a in left]
        if rng.random() < 0.5:  # int entries
            rows = [[int(x * 60) for x in row] for row in rows]
        expected = _fraction_rank(rows)
        deficient += expected < min(n, m)
        assert basis.rational_rank(rows) == expected, rows
    assert deficient > 100
    assert basis.rational_rank([]) == 0


def test_charge_block_rank_reads_a_missing_entry_as_zero():
    # on the charge-0 block of (1, 1), z1 w1 -> z1 w1 + z2 w2, z2 w2 -> z1 w1
    # and z3 w3 -> z3 w3 have rank 3; read as 1, the entries that these
    # images lack would make each row of the block (1, 1, 1)
    e = [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)]
    images = {e[0]: {e[0]: 1, e[1]: 1}, e[1]: {e[0]: 1}}
    assert basis.charge_block_rank(1, 1, lambda m: images.get(m, {m: 1})) == 9


def test_h0_membership():
    assert h0_membership(Z1 * W2 - Z2 * W1)
    assert not h0_membership(ZW)
    assert h0_membership(Polynomial.constant(5))
    # z1 w1 sqrt 3 has no rational part; K- of it is sqrt 3
    surd = Polynomial.monomial((1, 0, 0, 1, 0, 0), Qsqrt3(0, 1))
    assert not h0_membership(surd) and not h0_membership(surd - ZW.scale(Fraction(1, 3)))
    assert h0_membership(traceless_project(surd) + Z1.scale(Qsqrt3(0, 1)))


def test_kernel_dimensions_small():
    assert kminus_kernel_dimension(0, 0) == 1
    assert kminus_kernel_dimension(1, 1) == 8
    assert kminus_kernel_dimension(2, 1) == dim(IrrepLabel(2, 1))


def test_so3_invariants_by_the_common_kernel_of_q2_q5_q7():
    """The direct SO(3) route: Q2, Q5 and Q7, the generators with imaginary
    lambda, span so(3), so their common kernel on the m = k states of (p, q)
    is the SO(3)-invariant subspace of the irrep, whose dimension is the
    multiplicity of (p, q) induced from the trivial rep of SO(3)."""
    gens = [su3_generator(a) for a in (2, 5, 7)]
    for p in range(4):
        for q in range(4):
            rep = IrrepLabel(p, q)
            states = [basis_state(BasisKey(rep=rep, weight=top.replace(M2=M2), m2=k_of(rep)))
                      for top in iy_spectrum(rep) for M2 in range(-top.I2, top.I2 + 1, 2)]
            assert len(states) == dim(rep)
            # one row per state: its three images, keyed by (generator, monomial);
            # the generators are imaginary, so each image is its imaginary part
            rows = []
            for st in states:
                row = {}
                for a, gen in enumerate(gens):
                    re, im = gen.apply(st.poly)
                    assert not re
                    row.update(((a, m), c.as_fraction()) for m, c in im.terms.items())
                rows.append(row)
            targets = sorted({t for row in rows for t in row})
            rank = basis.rational_rank([[row.get(t, 0) for t in targets] for row in rows])
            kernel = len(states) - rank
            assert kernel == (p % 2 == 0 and q % 2 == 0), (p, q)
            assert kernel == induced_multiplicity("SO3", rep), (p, q)


def test_state_serialization_round_trip():
    st = basis_state(_key(2, 1, 2, 0, -2, 8))
    d = state_to_dict(st)
    assert poly_from_records(d["terms"]) == st.poly
    assert Fraction(int(d["norm_sq"]["num"]), int(d["norm_sq"]["den"])) == st.norm_sq
    w = st.key.weight
    assert d["key"] == {"p": 2, "q": 1, "I2": w.I2, "M2": w.M2, "Y3": w.Y3, "m2": 8}


def test_basis_state_measures_one_norm(monkeypatch):
    calls = []

    def counting(f, g):
        calls.append(1)
        return bargmann_inner(f, g)

    monkeypatch.setattr(basis, "bargmann_inner", counting)
    keys = list(enumerate_basis_keys(2))
    for key in keys:
        basis_state(key)
    assert len(calls) == len(keys)
