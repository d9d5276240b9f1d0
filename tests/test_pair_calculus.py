"""Closure of the pair calculus: sums, products, quotients, compositions."""

import numpy as np
import pytest

from polyan import (
    ZeroDivisorError,
    builtin_algebra,
    cr_residual,
    derivative,
    multiply,
    pair_combine,
    pair_compose,
    pair_product,
    pair_quotient,
)
from polyan.algebra import exp_series_coeffs, poly_eval
from polyan.fields import (
    Box,
    DiffConfig,
    GAPair,
    GammaField,
    VectorField,
    constant_field,
    fd_jacobian,
    identity_field,
    square_pair,
    zero_gamma,
)

GRID = Box([-0.5] * 4, [0.5] * 4).grid(3)


def analytic_identity_pair(S):
    return GAPair(identity_field(S.n), zero_gamma(S.n), S)


def unit_pair(S):
    return GAPair(constant_field(S.unit().coords), zero_gamma(S.n), S)


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

def test_combine_identity_coefficients(h4_e, pair_factory, rng):
    p1 = pair_factory(h4_e, rng)
    p2 = pair_factory(h4_e, rng)
    combo = pair_combine(1.0, p1, 0.0, p2)
    for x in GRID[::9]:
        assert np.array_equal(combo.f(x), p1.f(x))
        assert np.array_equal(combo.gamma(x), p1.gamma(x))


def test_combine_keeps_residual_small(h4_psi, pair_factory, rng):
    p1 = pair_factory(h4_psi, rng)
    p2 = pair_factory(h4_psi, rng)
    combo = pair_combine(1.0, p1, 1.0, p2)
    for x in GRID[::5]:
        assert np.max(np.abs(cr_residual(combo, x))) < 1e-8


def test_cancellation_gives_zero_pair(h4_e, pair_factory, rng):
    p1 = pair_factory(h4_e, rng)
    combo = pair_combine(2.0, p1, -2.0, p1)
    x = GRID[40]
    assert np.array_equal(combo.f(x), np.zeros(4))
    assert np.array_equal(cr_residual(combo, x), np.zeros((4, 4)))


def test_combine_residual_bound(h4_e, pair_factory, rng):
    # residual of a combination never exceeds the weighted input residuals
    p1 = pair_factory(h4_e, rng)
    p2 = pair_factory(h4_e, rng)
    noise1 = rng.uniform(-0.2, 0.2, (4, 4))
    noise2 = rng.uniform(-0.2, 0.2, (4, 4))
    q1 = GAPair(p1.f, GammaField(4, lambda x: p1.gamma(x) + noise1), p1.S)
    q2 = GAPair(p2.f, GammaField(4, lambda x: p2.gamma(x) + noise2), p2.S)
    alpha, beta = 1.3, -0.6
    combo = pair_combine(alpha, q1, beta, q2)
    for x in GRID[::11]:
        r = np.max(np.abs(cr_residual(combo, x)))
        bound = abs(alpha) * np.max(np.abs(cr_residual(q1, x))) + abs(beta) * np.max(
            np.abs(cr_residual(q2, x))
        )
        assert r <= bound + 1e-9


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_square_of_identity_pair(h4_psi):
    sq = pair_product(analytic_identity_pair(h4_psi), analytic_identity_pair(h4_psi))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(sq.f(x), x * x)
    assert np.max(np.abs(derivative(sq, x).coords - 2 * x)) < 1e-8


def test_product_with_unit_pair_is_identity_operation(h4_e, pair_factory, rng):
    p1 = pair_factory(h4_e, rng)
    prod = pair_product(p1, unit_pair(h4_e))
    for x in GRID[::9]:
        assert np.max(np.abs(prod.f(x) - p1.f(x))) < 1e-14
        assert np.max(np.abs(prod.gamma(x) - p1.gamma(x))) < 1e-14


def test_product_of_random_pairs_stays_analytic(h4_psi, pair_factory, rng):
    p1 = pair_factory(h4_psi, rng)
    p2 = pair_factory(h4_psi, rng)
    prod = pair_product(p1, p2)
    for x in GRID[::5]:
        assert np.max(np.abs(cr_residual(prod, x))) < 1e-7


@pytest.mark.parametrize("name", ("h4-e", "h4-psi", "c3"))
def test_product_derivative_rule(name, pair_factory, rng):
    S = builtin_algebra(name)
    p1 = pair_factory(S, rng)
    p2 = pair_factory(S, rng)
    prod = pair_product(p1, p2)
    grid = Box([-0.5] * S.n, [0.5] * S.n).grid(3)
    for x in grid[::7]:
        lhs = derivative(prod, x)
        rhs = multiply(derivative(p1, x), S.element(p2.f(x)), S) + multiply(
            S.element(p1.f(x)), derivative(p2, x), S
        )
        assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-7


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_of_pair_by_itself(h4_e, pair_factory, rng):
    # keep the denominator away from zero divisors by anchoring at the unit
    p1 = pair_combine(1.0, unit_pair(h4_e), 0.2, pair_factory(h4_e, rng))
    x = np.array([0.1, 0.3, -0.2, 0.4])
    value, deriv = pair_quotient(p1, p1, x)
    assert np.max(np.abs(value.coords - h4_e.unit().coords)) < 1e-10
    assert np.max(np.abs(deriv.coords)) < 1e-10


def test_quotient_square_by_identity(h4_psi):
    ident = analytic_identity_pair(h4_psi)
    sq = pair_product(ident, ident)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    value, deriv = pair_quotient(sq, ident, x)
    assert np.allclose(value.coords, x, atol=1e-10)
    assert np.allclose(deriv.coords, np.ones(4), atol=1e-8)


def test_quotient_inverts_product(h4_e, pair_factory, rng):
    den = pair_combine(1.0, unit_pair(h4_e), 0.15, pair_factory(h4_e, rng))
    p2 = pair_factory(h4_e, rng)
    num = pair_product(den, p2)
    x = np.array([0.2, -0.3, 0.1, 0.25])
    value, deriv = pair_quotient(num, den, x)
    assert np.max(np.abs(value.coords - p2.f(x))) < 1e-9
    assert np.max(np.abs(deriv.coords - derivative(p2, x).coords)) < 1e-8


def test_quotient_by_zero_divisor_raises(h4_psi):
    ident = analytic_identity_pair(h4_psi)
    x = np.array([1.0, 0.0, 2.0, 3.0])  # a vanishing component divides zero
    with pytest.raises(ZeroDivisorError):
        pair_quotient(ident, ident, x)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_with_identity_outer(h4_psi, pair_factory, rng):
    inner = pair_factory(h4_psi, rng)
    x = np.array([0.2, 0.1, -0.3, 0.4])
    chain = pair_compose(analytic_identity_pair(h4_psi), inner, x)
    assert np.max(np.abs(chain.coords - derivative(inner, x).coords)) < 1e-12


def test_compose_square_outer_matches_product_route(h4_psi):
    ident = analytic_identity_pair(h4_psi)
    x = np.array([0.5, 1.5, 2.5, 3.5])
    chain = pair_compose(square_pair(h4_psi), ident, x)
    assert np.allclose(chain.coords, 2 * x, atol=1e-8)


def test_compose_exponential_matches_finite_difference(h4_psi, rng):
    coeffs = exp_series_coeffs(h4_psi, 20)

    def exp_func(x):
        return poly_eval(coeffs, h4_psi.element(x), h4_psi).coords

    lifted = np.vectorize(exp_func, signature="(n)->(n)")
    outer = GAPair(VectorField(4, lifted), zero_gamma(4), h4_psi)
    inner = analytic_identity_pair(h4_psi)
    x = rng.uniform(-0.5, 0.5, 4)
    chain = pair_compose(outer, inner, x, DiffConfig())
    # the composite is componentwise, so its derivative is the diagonal rate
    fd = np.diagonal(fd_jacobian(lifted, x))
    assert np.max(np.abs(chain.coords - fd)) < 1e-6
