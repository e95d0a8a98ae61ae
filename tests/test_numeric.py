"""The plain-Python numeric module against numpy, the independent reference
route: the factors, the action, the projector and its commutation, on
matrices converted with np.array."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from schwinger_su3 import numeric
from schwinger_su3.basis import traceless_project
from schwinger_su3.poly import (
    Polynomial,
    kminus_terms,
    monomial_index,
    monomial_norm_sq,
    monomials_of_bidegree,
)

BIDEGREES = [(p, q) for p in range(4) for q in range(4)]
IDENTITY = ((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j))


def _shadow(f):
    """Float shadow of an exact polynomial, built from each coefficient's parts."""
    return {m: float(c.rat) + float(c.surd) * 3.0 ** 0.5 + 0j for m, c in f.terms.items()}


def _max_diff(f, g):
    """max |f - g| over the monomials of either float polynomial; 0 for two empty ones."""
    return max((abs(f.get(m, 0.0) - g.get(m, 0.0)) for m in {**f, **g}), default=0.0)


def _conj(a):
    """The entrywise conjugate of a tuple matrix."""
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def group_matrix(a, p, q):
    """U(A) on bidegree (p, q) in the order of monomials_of_bidegree(p, q):
    the Kronecker product S kron T of numeric.group_factors, as numpy
    matrices (a factor is the tuple of its columns)."""
    return np.kron(*(np.array(f).T for f in numeric.group_factors(a, p, q)))


def np_group_factors(a, p, q):
    """(Sym^p(B), Sym^q(conj B)), B = A^dagger, by numpy from the p-fold
    Kronecker power of B, independently of numeric's column recursion."""
    b = np.array(a).conj().T
    return _np_sym_power(b, p), _np_sym_power(b.conj(), q)


def _np_sym_power(b, p):
    """Sym^p(B) = S (B^(x)p)[reps].T: row reps[k] of the p-fold Kronecker power
    expands the product of the linear forms of monomial k over all 3^p index
    tuples, and S sums each tuple onto its monomial."""
    row = monomial_index(p, 0)
    tuples = list(itertools.product(range(3), repeat=p))
    fold = np.zeros((len(row), 3 ** p))
    reps = np.zeros((len(row), p), dtype=np.intp)
    for t, idx in enumerate(tuples):
        k = row[(idx.count(0), idx.count(1), idx.count(2), 0, 0, 0)]
        fold[k, t] = 1.0
        reps[k] = idx
    return fold @ b[reps[:, None, :], np.array(tuples, dtype=np.intp)[None]].prod(axis=-1).T


def projector_matrix(p, q):
    """The float trace-removal projector on bidegree (p, q) as a dense matrix."""
    monos, index = monomials_of_bidegree(p, q), monomial_index(p, q)
    proj = np.zeros((len(monos), len(monos)))
    for j, m in enumerate(monos):
        for t, c in numeric.n_traceless_project({m: 1}, p, q).items():
            proj[index[t], j] = c
    return proj


def test_numeric_route_agrees_with_numpy():
    rng = random.Random(11)
    for seed in range(3):
        a = numeric.haar_random_su3(seed)
        b = numeric.haar_random_su3(100 + seed)
        assert np.max(np.abs(np.array(numeric.matmul(a, b)) - np.array(a) @ np.array(b))) < 1e-12
        for p, q in BIDEGREES:
            s, t = np_group_factors(a, p, q)
            got_s, got_t = numeric.group_factors(a, p, q)
            assert np.max(np.abs(np.array(got_s).T - s)) < 1e-12
            assert np.max(np.abs(np.array(got_t).T - t)) < 1e-12
            u = np.kron(s, t)
            monos = monomials_of_bidegree(p, q)
            # one monomial, and a part with every monomial
            dense = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in monos}
            for f in ({monos[-1]: 0.5 - 2j}, dense):
                vec = np.array([f.get(m, 0.0) for m in monos])
                want = dict(zip(monos, u @ vec))
                assert _max_diff(numeric.act_bargmann(a, f), want) < 1e-12
            proj = projector_matrix(p, q)
            want = np.max(np.abs(proj @ u - u @ proj))
            assert abs(numeric.equivariance_defect(a, (p, q)) - want) < 1e-12
            idempotence, trace = numeric.projector_pin(p, q)
            assert abs(idempotence - np.max(np.abs(proj @ proj - proj))) < 1e-12
            assert abs(trace - np.trace(proj)) < 1e-12


def test_action_lists_every_monomial_of_each_bidegree():
    a = numeric.haar_random_su3(5)
    # a part whose coefficients are all zero still lists its bidegree
    zero = {m: 0j for m in monomials_of_bidegree(2, 1)[3:5]}
    one = monomials_of_bidegree(1, 3)[0]
    out = numeric.act_bargmann(a, {**zero, one: 1 + 0j})
    assert set(out) == set(monomials_of_bidegree(2, 1)) | set(monomials_of_bidegree(1, 3))
    assert all(out[m] == 0 for m in monomials_of_bidegree(2, 1))
    assert _max_diff(out, numeric.act_bargmann(a, {one: 1 + 0j})) == 0.0


def test_max_abs_keeps_a_nan_wherever_it_comes():
    nan = float("nan")
    assert numeric.max_abs([0.5, -2j, 1.0]) == 2.0
    assert numeric.max_abs([]) == 0.0
    for k in range(3):
        values = [0.5, -2j, 1.0]
        values[k] = complex(nan, 0.0)
        assert math.isnan(numeric.max_abs(values))
    f = {m: 1 + 0j for m in monomials_of_bidegree(1, 1)}
    g = {**f, monomials_of_bidegree(1, 1)[-1]: complex(nan, 0.0)}
    assert numeric.max_diff(f, f) == 0.0
    assert math.isnan(numeric.max_diff(f, g))


def test_haar_sampler_is_deterministic():
    a = numeric.haar_random_su3(42)
    b = numeric.haar_random_su3(42)
    assert a == b
    assert len(a) == 3 and all(len(row) == 3 and all(type(x) is complex for x in row)
                               for row in a)
    assert a != numeric.haar_random_su3(43)


def test_haar_sampler_is_special_unitary():
    for seed in range(20):
        a = np.array(numeric.haar_random_su3(seed))
        assert np.max(np.abs(a.conj().T @ a - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(a) - 1) < 1e-12


def test_su3_check_refuses_a_matrix_off_the_group():
    with pytest.raises(ValueError, match="not unitary"):
        numeric._check_su3(((2 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j)))
    with pytest.raises(ValueError, match="determinant"):
        numeric._check_su3(((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, -1 + 0j)))
    # a NaN defect compares False with the tolerance either way round
    for nan in (math.nan, complex(math.nan, 0), complex(0, math.nan)):
        with pytest.raises(ValueError, match="not unitary"):
            numeric._check_su3(((nan, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j)))
    numeric._check_su3(IDENTITY)


# diag(1 + d, 1, 1/(1 + d)) has determinant 1 and a Gram matrix 3e-12 off
# the identity; diag(e^(i t), 1, 1) is unitary with |det - 1| = 3e-12
_D = 1.5e-12


@pytest.mark.parametrize("a, message", [
    pytest.param(((1 + _D + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 / (1 + _D) + 0j)),
                 "not unitary", id="off-unitary"),
    pytest.param(((cmath.exp(3e-12j), 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j)),
                 "determinant", id="off-determinant"),
])
def test_su3_check_refuses_3e_12_and_passes_at_ten_times_its_tolerance(monkeypatch, a, message):
    with pytest.raises(ValueError, match=message):
        numeric._check_su3(a)
    monkeypatch.setattr(numeric, "UNITARITY_TOL", 10 * numeric.UNITARITY_TOL)
    numeric._check_su3(a)


def test_haar_first_entry_moment():
    # E|a00|^2 = 1/3; the trace moments E[tr A] = 0 and E|tr A|^2 = 1 of Haar
    # SU(3) also see the QR phase fix, which the |a00|^2 moment cannot
    total = 0.0
    trace_sum = 0j
    trace_sq = 0.0
    n = 10_000
    for seed in range(n):
        a = numeric.haar_random_su3(seed)
        trace = a[0][0] + a[1][1] + a[2][2]
        total += abs(a[0][0]) ** 2
        trace_sum += trace
        trace_sq += abs(trace) ** 2
    assert abs(total / n - 1 / 3) < 0.02
    assert abs(trace_sum / n) < 0.05
    assert abs(trace_sq / n - 1) < 0.05


def test_identity_acts_trivially():
    f = {(2, 1, 0, 0, 1, 1): 1.5 + 0.5j}
    out = numeric.act_bargmann(IDENTITY, f)
    assert _max_diff(out, f) < 1e-14


def test_zw_is_invariant():
    zw = {
        (1, 0, 0, 1, 0, 0): 1.0 + 0j,
        (0, 1, 0, 0, 1, 0): 1.0 + 0j,
        (0, 0, 1, 0, 0, 1): 1.0 + 0j,
    }
    for seed in range(10):
        a = numeric.haar_random_su3(seed)
        out = numeric.act_bargmann(a, zw)
        assert _max_diff(out, zw) < 1e-10


def _inner(f, g):
    """The Bargmann inner product of two float polynomials."""
    return sum(c.conjugate() * g.get(m, 0) * monomial_norm_sq(m) for m, c in f.items())


def test_action_preserves_inner_product_and_bidegree():
    f = {(2, 0, 0, 1, 0, 0): 1.0 + 0j, (1, 1, 0, 0, 1, 0): -0.5 + 0.25j}
    g = {(2, 0, 0, 0, 1, 0): 0.75 + 0j, (0, 2, 0, 1, 0, 0): 1.0 - 1.0j}
    for seed in range(10):
        a = numeric.haar_random_su3(seed)
        uf, ug = numeric.act_bargmann(a, f), numeric.act_bargmann(a, g)
        assert abs(_inner(uf, ug) - _inner(f, g)) < 1e-10
        assert all(m[0] + m[1] + m[2] == 2 and m[3] + m[4] + m[5] == 1 for m in uf)


def test_representation_property():
    worst = 0.0
    for seed in range(10):
        a = numeric.haar_random_su3(seed)
        b = numeric.haar_random_su3(1000 + seed)
        for m in ((1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 1, 0), (2, 0, 1, 1, 1, 1)):
            f = {m: 1.0 + 0j}
            lhs = numeric.act_bargmann(a, numeric.act_bargmann(b, f))
            rhs = numeric.act_bargmann(numeric.matmul(a, b), f)
            worst = max(worst, _max_diff(lhs, rhs))
    assert worst < 1e-9


def tensor_transform(a, f):
    """Transform bidegree-(p,q) coefficients by the p-fold A, q-fold conj(A) rule.

    Implemented through the dense symmetric tensor (with multinomial weights),
    independently of group_matrix, so the two can be played against each other.
    """
    a = np.asarray(a)
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
    out = {}
    for m in monomials_of_bidegree(p, q):
        idx = next(_index_tuples(m))
        c = tensor[idx] * _tensor_weight(m, p, q)
        if c != 0.0:
            out[m] = c
    return out


def _bidegree(f):
    degs = {(m[0] + m[1] + m[2], m[3] + m[4] + m[5]) for m in f}
    if len(degs) != 1:
        raise ValueError("numeric polynomial is not bihomogeneous")
    return degs.pop()


def _tensor_weight(m, p, q):
    """Monomial coefficient = multinomial(p; a) * multinomial(q; b) * tensor value."""
    wa = math.factorial(p)
    for e in m[:3]:
        wa //= math.factorial(e)
    wb = math.factorial(q)
    for e in m[3:]:
        wb //= math.factorial(e)
    return float(wa * wb)


def _index_tuples(m):
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


def test_tensor_transform_vector_channel():
    for seed in range(5):
        a = numeric.haar_random_su3(seed)
        f = {(1, 0, 0, 0, 0, 0): 1.0 + 0j}
        out = tensor_transform(a, f)
        coeffs = np.zeros(3, dtype=complex)
        for m, c in out.items():
            coeffs[m.index(1)] = c
        want = np.array(a) @ np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.max(np.abs(coeffs - want)) < 1e-12


def test_tensor_transform_matches_point_action():
    # for unitary A, conj(A) equals transpose of the inverse, which converts
    # the coefficient (tensor) rule into the point-substitution rule
    f = {
        (2, 0, 0, 1, 1, 0): 1.0 + 0j,
        (1, 1, 0, 0, 2, 0): -0.5 + 0.5j,
        (0, 0, 2, 1, 0, 1): 0.25 + 0j,
    }
    for seed in range(10):
        a = numeric.haar_random_su3(seed)
        lhs = tensor_transform(a, f)
        rhs = numeric.act_bargmann(_conj(a), f)
        assert _max_diff(lhs, rhs) < 1e-10


def test_tensor_transform_requires_bihomogeneous():
    with pytest.raises(ValueError):
        tensor_transform(
            IDENTITY,
            {(1, 0, 0, 0, 0, 0): 1.0, (1, 1, 0, 0, 0, 0): 1.0},
        )


def test_traceless_shadow_and_invariance():
    exact = traceless_project(
        Polynomial.monomial((1, 1, 0, 1, 0, 1)) + Polynomial.monomial((2, 0, 0, 0, 1, 1))
    )
    shadow = _shadow(exact)
    assert _max_diff(kminus_terms(shadow), {}) < 1e-12
    for seed in range(10):
        a = numeric.haar_random_su3(seed)
        moved = tensor_transform(a, shadow)
        assert _max_diff(kminus_terms(moved), {}) < 1e-10


def test_numeric_projector_matches_exact():
    f_exact = Polynomial.monomial((1, 0, 1, 0, 1, 1)) + Polynomial.monomial(
        (0, 2, 0, 1, 1, 0)
    )
    got = numeric.n_traceless_project(_shadow(f_exact), 2, 2)
    want = _shadow(traceless_project(f_exact))
    assert _max_diff(got, want) < 1e-12


def test_equivariance_defect():
    assert numeric.equivariance_defect(IDENTITY, (1, 1)) == 0.0
    for seed in range(5):
        a = numeric.haar_random_su3(seed)
        assert numeric.equivariance_defect(a, (1, 1)) < 1e-10
        assert numeric.equivariance_defect(a, (2, 2)) < 1e-10


def test_bargmann_action_keeps_traceless_inputs_traceless():
    # K- commutes with the SU(3) point action, so a moved trace-free shadow
    # stays trace-free
    exact = traceless_project(Polynomial.monomial((1, 1, 0, 0, 1, 1)))
    shadow = _shadow(exact)
    for seed in range(10):
        moved = numeric.act_bargmann(numeric.haar_random_su3(seed), shadow)
        assert _max_diff(kminus_terms(moved), {}) < 1e-9


def test_group_matrix_matches_tensor_transform():
    # the tensor rule with A is the point action with conj(A) (see above)
    for seed in range(2):
        a = numeric.haar_random_su3(seed)
        for p, q in BIDEGREES:
            u = group_matrix(_conj(a), p, q)
            monos = list(monomials_of_bidegree(p, q))
            for j, m in enumerate(monos):
                moved = tensor_transform(a, {m: 1.0 + 0j})
                col = np.array([moved.get(t, 0.0) for t in monos])
                assert np.max(np.abs(col - u[:, j])) < 1e-12


def test_group_matrix_representation_on_all_monomials():
    for seed in range(10):
        a = numeric.haar_random_su3(seed)
        b = numeric.haar_random_su3(1000 + seed)
        for p, q in BIDEGREES:
            lhs = group_matrix(a, p, q) @ group_matrix(b, p, q)
            assert np.max(np.abs(lhs - group_matrix(numeric.matmul(a, b), p, q))) <= 1e-9


def test_group_matrix_is_unitary_for_bargmann_weights():
    for seed in range(5):
        a = numeric.haar_random_su3(seed)
        for p, q in BIDEGREES:
            u = group_matrix(a, p, q)
            w = np.diag([float(monomial_norm_sq(m)) for m in monomials_of_bidegree(p, q)])
            assert np.max(np.abs(u.conj().T @ w @ u - w)) < 1e-10 * np.max(w)


def test_act_bargmann_acts_on_each_bidegree_part():
    parts = [
        {(1, 0, 0, 0, 0, 0): 1.0 + 0j, (0, 0, 1, 0, 0, 0): -2.0 + 0.5j},
        {(1, 1, 0, 0, 1, 0): 0.5 + 0j},
        {(0, 0, 0, 2, 0, 1): 1.0 - 1.0j, (0, 0, 0, 0, 1, 2): 0.25 + 0j},
    ]
    mixed = {m: c for part in parts for m, c in part.items()}
    for seed in range(5):
        a = numeric.haar_random_su3(seed)
        want: dict = {}
        for part in parts:
            for m, c in numeric.act_bargmann(a, part).items():
                want[m] = want.get(m, 0.0) + c
        got = numeric.act_bargmann(a, mixed)
        assert _max_diff(got, want) < 1e-14
    assert numeric.act_bargmann(numeric.haar_random_su3(0), {}) == {}


def test_act_bargmann_matches_the_group_matrix_on_mixed_bidegrees():
    mixed = {
        m: complex(k % 5 - 2, (k % 3) / 4)
        for p, q in ((0, 0), (1, 2), (2, 1), (3, 3))
        for k, m in enumerate(monomials_of_bidegree(p, q))
    }
    for seed in range(5):
        a = numeric.haar_random_su3(seed)
        got = numeric.act_bargmann(a, mixed)
        for p, q in ((0, 0), (1, 2), (2, 1), (3, 3)):
            monos = list(monomials_of_bidegree(p, q))
            vec = np.array([mixed[m] for m in monos])
            want = group_matrix(a, p, q) @ vec
            assert all(abs(got.get(m, 0.0) - c) < 1e-13 for m, c in zip(monos, want))
        assert set(got) <= set(mixed)
