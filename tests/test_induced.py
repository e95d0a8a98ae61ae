import copy
import random
from fractions import Fraction

import pytest

from schwinger_su3.basis import ZW, traceless_project
from schwinger_su3.induced import (
    TraceConditionError,
    _sqrt_exact,
    equivalence_map,
    induced_inner_formula,
    make_sphere_function,
    sphere_inner_direct,
    sphere_monomial_integral,
)
from schwinger_su3.poly import (
    Polynomial,
    bargmann_inner,
    monomials_of_bidegree,
    rebuild_polynomial,
)
from schwinger_su3.scalars import Qsqrt3

XI1 = Polynomial.variable(1)
XI2 = Polynomial.variable(2)
XI1_XI2BAR = Polynomial.monomial((1, 0, 0, 0, 1, 0))


def test_sphere_moments():
    assert sphere_monomial_integral((0, 0, 0), (0, 0, 0)) == Fraction(1, 2)
    assert sphere_monomial_integral((1, 0, 0), (1, 0, 0)) == Fraction(1, 6)
    assert sphere_monomial_integral((1, 0, 0), (0, 1, 0)) == 0
    assert sphere_monomial_integral((1, 1, 0), (1, 1, 0)) == Fraction(1, 24)


def test_sphere_moment_constraint_identity():
    # inserting sum_j |xi_j|^2 = 1 must not change any diagonal moment
    for a in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1)):
        total = Fraction(0)
        for j in range(3):
            aj = tuple(e + (1 if i == j else 0) for i, e in enumerate(a))
            total += sphere_monomial_integral(aj, aj)
        assert total == sphere_monomial_integral(a, a)


def test_sphere_inner_direct_values():
    one = make_sphere_function(Polynomial.constant(1))
    assert sphere_inner_direct(one, one) == Fraction(1, 2)
    xi1 = make_sphere_function(XI1)
    assert sphere_inner_direct(xi1, xi1) == Fraction(1, 6)
    xi2 = make_sphere_function(XI2)
    assert sphere_inner_direct(xi1, xi2) == 0


def test_induced_inner_formula_values():
    one = make_sphere_function(Polynomial.constant(1))
    assert induced_inner_formula(one, one) == Fraction(1, 2)
    xi1 = make_sphere_function(XI1)
    assert induced_inner_formula(xi1, xi1) == Fraction(1, 6)
    mixed = make_sphere_function(XI1_XI2BAR)
    assert mixed.traceless
    assert induced_inner_formula(mixed, mixed) == Fraction(1, 24)
    assert sphere_inner_direct(mixed, mixed) == Fraction(1, 24)


def test_induced_inner_formula_requires_tracelessness():
    trace = make_sphere_function(Polynomial.monomial((1, 0, 0, 1, 0, 0)))
    assert not trace.traceless
    one = make_sphere_function(Polynomial.constant(1))
    with pytest.raises(TraceConditionError):
        induced_inner_formula(trace, one)


def test_equivalence_map_anchors():
    psi = equivalence_map(Polynomial.constant(1))
    assert psi.scale_sq((0, 0)) == 2
    assert sphere_inner_direct(psi, psi) == 1
    psi = equivalence_map(Polynomial.variable(1))
    assert psi.scale_sq((1, 0)) == 6
    assert sphere_inner_direct(psi, psi) == 1
    assert induced_inner_formula(psi, psi) == 1
    zero = equivalence_map(Polynomial.zero())
    assert not zero.parts
    assert sphere_inner_direct(zero, zero) == 0


def test_sphere_functions_hold_their_bidegree_split():
    rng = random.Random(5)
    mixed = _random_traceless(rng, 1, 1) + _random_traceless(rng, 2, 0)
    for f in (mixed, ZW + XI1, Polynomial.zero()):
        sf = make_sphere_function(f)
        assert sf.parts == f.bidegree_split() and not sf.scaled
        assert sf.traceless == (f != ZW + XI1)
    image = equivalence_map(mixed)
    assert image.parts == mixed.bidegree_split() and set(image.parts) == {(1, 1), (2, 0)}


def test_sphere_function_replace_and_copy_round_trip():
    f = make_sphere_function(_random_traceless(random.Random(6), 2, 1) + XI1)
    for g in (f.replace(), copy.copy(f), f.replace(scaled=True).replace(scaled=False)):
        assert g == f and g.parts == f.parts
        assert sphere_inner_direct(g, f) == sphere_inner_direct(f, f)
    scaled = f.replace(scaled=True)
    assert scaled != f and scaled.parts is f.parts and scaled.scale_sq((2, 1)) == 120


def test_equivalence_map_rejects_traceful_input():
    with pytest.raises(ValueError):
        equivalence_map(ZW)


def _random_traceless(rng, p, q):
    terms = {}
    for m in monomials_of_bidegree(p, q):
        n = rng.randint(-6, 6)
        if n:
            terms[m] = Fraction(n, rng.randint(1, 6))
    return traceless_project(Polynomial(terms))


def test_isometry_single_and_mixed_channels():
    rng = random.Random(3)
    pool = [
        _random_traceless(rng, 1, 1),
        _random_traceless(rng, 2, 1),
        _random_traceless(rng, 2, 2),
        _random_traceless(rng, 1, 1) + _random_traceless(rng, 2, 2),
    ]
    images = [equivalence_map(f) for f in pool]
    for i, f in enumerate(pool):
        for j, g in enumerate(pool):
            exact = bargmann_inner(f, g).as_fraction()
            assert sphere_inner_direct(images[i], images[j]) == exact
            assert induced_inner_formula(images[i], images[j]) == exact


def _random_trace_free_mix(rng):
    """A trace-free polynomial on two or three channels with p, q <= 3, each
    channel drawn as integers over one denominator and built by
    rebuild_polynomial, then projected."""
    chans = rng.sample([(p, q) for p in range(4) for q in range(4)], rng.randint(2, 3))
    f = Polynomial.zero()
    for p, q in chans:
        numerators = {m: rng.randint(-6, 6) for m in monomials_of_bidegree(p, q)}
        f = f + traceless_project(rebuild_polynomial(numerators, {}, rng.randint(1, 12)))
    return f


def test_formula_matches_the_sphere_integral_across_channels():
    # the formula is the Bargmann product per channel; the sphere integral is
    # the independent route, on inputs stored as channels and as term dicts
    rng = random.Random(33)
    mixes = [_random_trace_free_mix(rng) for _ in range(4)]
    pool = [g for f in mixes for g in (f, Polynomial(dict(f.terms)))]
    assert all(len(f.bidegree_split()) >= 2 for f in pool)
    plain = [make_sphere_function(f) for f in pool]
    images = [equivalence_map(f) for f in pool]
    assert all(sf.traceless for sf in plain)
    nonzero = 0
    for i, f in enumerate(pool):
        for j, g in enumerate(pool):
            value = induced_inner_formula(plain[i], plain[j])
            assert value == sphere_inner_direct(plain[i], plain[j])
            exact = bargmann_inner(f, g).as_fraction()
            assert induced_inner_formula(images[i], images[j]) == exact
            assert sphere_inner_direct(images[i], images[j]) == exact
            nonzero += value != 0
    assert nonzero > len(pool)


def test_both_routes_sum_a_channel_pair_before_they_read_it_as_rational():
    # trace-free pairs with sqrt 3 parts: each term pair is irrational, and
    # the channel's sum is 0 on the first pair and sqrt(3)/24 on the second
    root3 = Qsqrt3(0, 1)
    z1w2, z2w1 = (1, 0, 0, 0, 1, 0), (0, 1, 0, 1, 0, 0)
    phi = make_sphere_function(Polynomial({z1w2: 1, z2w1: root3}))
    psi = make_sphere_function(Polynomial({z1w2: root3, z2w1: -1}))
    assert phi.traceless and psi.traceless
    assert sphere_inner_direct(phi, psi) == 0 == induced_inner_formula(phi, psi)
    assert sphere_inner_direct(psi, phi) == 0 == induced_inner_formula(psi, phi)
    one = make_sphere_function(Polynomial({z1w2: 1}))
    root = make_sphere_function(Polynomial({z1w2: root3}))
    for route in (sphere_inner_direct, induced_inner_formula):
        with pytest.raises(ValueError, match="irrational part"):
            route(one, root)


def test_cross_bidegree_orthogonality():
    rng = random.Random(9)
    f = make_sphere_function(_random_traceless(rng, 2, 1))
    g = make_sphere_function(_random_traceless(rng, 1, 1))
    assert sphere_inner_direct(f, g) == 0
    assert induced_inner_formula(f, g) == 0


def test_sqrt_exact_takes_square_roots_of_squares_only():
    assert _sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    for x in (Fraction(2), Fraction(1, 2)):
        with pytest.raises(ValueError):
            _sqrt_exact(x)
