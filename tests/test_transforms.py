"""Coordinate transforms of pairs and connection-driven derivative chains."""

import numpy as np
import pytest

from polyan import ContractError, builtin_algebra, cr_residual, derivative
from polyan.fields import (
    Box,
    ConnectionField,
    DiffConfig,
    Diffeo,
    chain_conditions,
    covariant_derivative,
    derivative_chain,
    gamma_transform,
    linear_diffeo,
    product_compatibility_residual,
    square_pair,
    transform_pair,
)
from polyan.geodesics import zero_connection

X0 = np.array([0.1, -0.3, 0.2, 0.4])


def sine_diffeo(rng, n=4, amplitude=0.04):
    """Near-identity map x + sum_j a_ij sin(x_j + phase_ij) with exact derivatives."""
    alpha = rng.uniform(-amplitude, amplitude, (n, n))
    phase = rng.uniform(0, 2 * np.pi, (n, n))

    def func(x):
        return x + np.sum(alpha * np.sin(x[None, :] + phase), axis=1)

    def jac(x):
        return np.eye(n) + alpha * np.cos(x[None, :] + phase)

    def hess(x):
        h = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                h[i, j, j] -= alpha[i, j] * np.sin(x[j] + phase[i, j])
        return h

    return Diffeo(n, func, jac, hess)


# ---------------------------------------------------------------------------
# gamma transformation law
# ---------------------------------------------------------------------------

def test_identity_diffeo_changes_nothing(h4_e, pair_factory, rng):
    pair = pair_factory(h4_e, rng)
    ident = linear_diffeo(np.eye(4))
    f_new, g_new, nabla_new = gamma_transform(pair, ident, X0)
    assert np.allclose(f_new, pair.f(X0), atol=1e-14)
    assert np.allclose(g_new, pair.gamma(X0), atol=1e-14)
    assert np.allclose(nabla_new, covariant_derivative(pair, X0), atol=1e-14)


def test_linear_diffeo_has_no_inhomogeneous_term(h4_e, pair_factory, rng):
    pair = pair_factory(h4_e, rng)
    m = np.eye(4) + rng.uniform(-0.2, 0.2, (4, 4))
    diffeo = linear_diffeo(m)
    _, g_new, _ = gamma_transform(pair, diffeo, X0)
    pure_index_transform = m @ pair.gamma(X0) @ np.linalg.inv(m)
    assert np.max(np.abs(g_new - pure_index_transform)) < 1e-12


def test_covariant_derivative_transforms_as_tensor(h4_psi, pair_factory, rng):
    pair = pair_factory(h4_psi, rng)
    diffeo = sine_diffeo(rng)
    _, _, nabla_transported = gamma_transform(pair, diffeo, X0)
    transformed = transform_pair(pair, diffeo)
    nabla_direct = covariant_derivative(transformed, diffeo(X0), DiffConfig())
    assert np.max(np.abs(nabla_direct - nabla_transported)) < 1e-6


def test_many_random_diffeos_transport_tensorially(h4_e, pair_factory, rng):
    pair = pair_factory(h4_e, rng)
    for _ in range(5):
        diffeo = sine_diffeo(rng)
        x = rng.uniform(-0.4, 0.4, 4)
        _, _, nabla_t = gamma_transform(pair, diffeo, x)
        nabla_d = covariant_derivative(transform_pair(pair, diffeo), diffeo(x))
        assert np.max(np.abs(nabla_d - nabla_t)) < 1e-6


def test_singular_jacobian_rejected(h4_e, pair_factory, rng):
    pair = pair_factory(h4_e, rng)
    collapse = Diffeo(
        4,
        func=lambda x: np.zeros(4),
        jacobian=lambda x: np.zeros((4, 4)),
        hessian=lambda x: np.zeros((4, 4, 4)),
    )
    with pytest.raises(ContractError):
        gamma_transform(pair, collapse, X0)


def test_inverse_point_newton_fallback(rng):
    diffeo = sine_diffeo(rng)
    x = rng.uniform(-0.5, 0.5, 4)
    y = diffeo(x)
    assert np.max(np.abs(diffeo.inverse_point(y) - x)) < 1e-12


# ---------------------------------------------------------------------------
# chain conditions and derivative chains
# ---------------------------------------------------------------------------

def test_zero_connection_passes_both_conditions(h4_e):
    res_a, res_b = chain_conditions(zero_connection(4), h4_e, X0)
    assert np.array_equal(res_a, np.zeros((4, 4, 4)))
    assert np.max(np.abs(res_b)) < 1e-9


def test_structure_proportional_connection_is_compatible(h4_e):
    G = ConnectionField(4, lambda x: 0.3 * h4_e.p.astype(float))
    res_a, res_b = chain_conditions(G, h4_e, X0)
    assert np.max(np.abs(res_a)) < 1e-14
    assert np.max(np.abs(res_b)) < 1e-9


def test_perturbed_connection_fails_conditions(h4_e, rng):
    noise = rng.uniform(-0.2, 0.2, (4, 4, 4))
    G = ConnectionField(4, lambda x: 0.3 * h4_e.p.astype(float) + noise)
    res_a, res_b = chain_conditions(G, h4_e, X0)
    assert np.max(np.abs(res_a)) > 1e-3
    assert np.max(np.abs(res_b)) > 1e-3


def test_chain_of_polynomial_field_stays_analytic(h4_e):
    # f = X^2 with zero connection: the iterates are 2X and twice the unit
    pair = square_pair(h4_e)
    first = derivative_chain(pair, zero_connection(4), 1)
    second = derivative_chain(pair, zero_connection(4), 2)
    assert np.max(np.abs(first.f(X0) - 2 * X0)) < 1e-12
    assert np.max(np.abs(second.f(X0) - 2 * h4_e.unit().coords)) < 1e-7
    assert np.max(np.abs(cr_residual(first, X0))) < 1e-12
    assert np.max(np.abs(cr_residual(second, X0))) < 1e-6


def test_chain_iterates_fail_for_bad_connection(h4_e, rng):
    pair = square_pair(h4_e)
    noise = rng.uniform(-0.5, 0.5, (4, 4, 4))
    G = ConnectionField(4, lambda x: noise)
    chained = derivative_chain(pair, G, 1)
    assert np.max(np.abs(cr_residual(chained, X0))) > 1e-3


def test_chain_requires_unit_basis_element(h4_psi, pair_factory, rng):
    pair = pair_factory(h4_psi, rng)
    with pytest.raises(ContractError):
        derivative_chain(pair, zero_connection(4), 1)


def test_derivative_of_prescribed_chain_matches(h4_e, pair_factory, rng):
    # with the zero connection the first chain iterate is the plain
    # unit-direction derivative of the pair's field
    pair = pair_factory(h4_e, rng)
    chained = derivative_chain(pair, zero_connection(4), 1)
    expected = pair.f.jac(X0)[:, h4_e.unit_index]
    assert np.max(np.abs(chained.f(X0) - expected)) < 1e-9


def test_product_compatibility_residual_zero_connection(h4_e):
    res = product_compatibility_residual(np.zeros((4, 4, 4)), h4_e)
    assert np.array_equal(res, np.zeros((4, 4, 4, 4)))


def test_product_compatibility_residual_generic_nonzero(h4_e, rng):
    res = product_compatibility_residual(rng.uniform(-1, 1, (4, 4, 4)), h4_e)
    assert np.max(np.abs(res)) > 0.1


def test_connection_residual_links_pair_to_shared_coefficients():
    # a pair whose gamma-object is induced by a shared connection has zero
    # residual against it, and a nonzero one against anything else
    from polyan.fields import connection_residual
    from polyan.h4 import (
        H4FamilySpec,
        constant_lambda,
        family_pair,
        gamma_matrices,
        quadratic_b,
    )
    from polyan import builtin_algebra

    spec = H4FamilySpec(
        phi0=[1.0, 0.5, 2.0, 1.0],
        mu=[0.3, -0.2, 0.1, 0.4],
        b=tuple(quadratic_b(0.25) for _ in range(4)),
        lam=constant_lambda(1.0),
    )
    pair = family_pair(spec)
    metric = spec.finsler()
    matched = ConnectionField(4, lambda x: gamma_matrices(x, metric, "transposed"))
    mismatched = ConnectionField(4, lambda x: gamma_matrices(x, metric, "as-printed"))
    xi = np.array([0.2, -0.3, 0.1, 0.4])
    assert np.max(np.abs(connection_residual(pair, matched, xi))) < 1e-14
    assert np.max(np.abs(connection_residual(pair, mismatched, xi))) > 1e-3
