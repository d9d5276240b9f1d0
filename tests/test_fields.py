"""Covariant derivatives, Cauchy-Riemann residuals and derivative forms."""

import numpy as np
import pytest

from polyan import (
    ContractError,
    DomainError,
    SingularQError,
    builtin_algebra,
    covariant_derivative,
    cr_residual,
    derivative,
    gamma_from_prescribed,
    h4_basis_change,
    pair_change_basis,
    path_independence_residual,
)
from polyan.fields import (
    Box,
    DiffConfig,
    GAPair,
    GammaField,
    VectorField,
    componentwise_exp_field,
    componentwise_power_field,
    constant_field,
    fd_jacobian,
    fd_partial,
    grid_max,
    linear_field,
    monomial_field,
    random_smooth_field,
    zero_gamma,
)
from polyan.h4 import H4FamilySpec, constant_lambda, family_field, quadratic_b

GRID = Box([-0.5] * 4, [0.5] * 4).grid(3)


def family_test_field():
    spec = H4FamilySpec(
        phi0=[1.0, 0.5, 2.0, 1.0],
        mu=[0.3, -0.2, 0.1, 0.4],
        b=tuple(quadratic_b(0.25) for _ in range(4)),
        lam=constant_lambda(1.0),
    )
    return family_field(spec)


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------

def test_linear_field_zero_gamma_gives_matrix(h4_psi, rng):
    a = rng.uniform(-2, 2, (4, 4))
    pair = GAPair(linear_field(a), zero_gamma(4), h4_psi)
    for x in GRID[::7]:
        assert np.allclose(covariant_derivative(pair, x), a, atol=1e-13)


def test_prescribed_pair_covariant_derivative_factors(h4_e, rng):
    # with the prescribed construction the corrected derivative equals
    # the structure-constant contraction of fprime, exactly
    f = random_smooth_field(4, rng)
    fprime = random_smooth_field(4, rng)
    pair = gamma_from_prescribed(f, fprime, h4_e)
    x = np.array([0.2, -0.1, 0.45, 0.3])
    expected = np.einsum("ikj,j->ik", h4_e.p.astype(float), fprime(x))
    assert np.max(np.abs(covariant_derivative(pair, x) - expected)) < 1e-14


def test_fd_jacobian_matches_analytic_on_family_field(h4_psi):
    field = family_test_field()
    pair_fd = GAPair(field.without_jacobian(), zero_gamma(4), h4_psi)
    pair_an = GAPair(field, zero_gamma(4), h4_psi)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    d_fd = covariant_derivative(pair_fd, x)
    d_an = covariant_derivative(pair_an, x)
    assert np.max(np.abs(d_fd - d_an)) < 1e-8


def test_domain_violation_raises(h4_psi):
    field = VectorField(4, lambda x: x, domain=Box([-1] * 4, [1] * 4))
    pair = GAPair(field, zero_gamma(4), h4_psi)
    with pytest.raises(DomainError):
        covariant_derivative(pair, np.array([2.0, 0, 0, 0]))


# ---------------------------------------------------------------------------
# Cauchy-Riemann residual
# ---------------------------------------------------------------------------

def test_componentwise_exp_is_analytic(h4_psi):
    pair = GAPair(componentwise_exp_field(4).without_jacobian(), zero_gamma(4), h4_psi)
    for x in GRID[::5]:
        assert np.max(np.abs(cr_residual(pair, x))) < 1e-9


def test_prescribed_pairs_have_zero_residual(h4_e, h4_psi, pair_factory, rng):
    for S in (h4_e, h4_psi, builtin_algebra("c3"), builtin_algebra("p3-psi")):
        pair = pair_factory(S, rng)
        grid = Box([-0.5] * S.n, [0.5] * S.n).grid(3)
        for x in grid[:: max(1, len(grid) // 10)]:
            assert np.max(np.abs(cr_residual(pair, x))) < 1e-8


def test_single_monomial_residual_structure(h4_psi):
    # first component equal to the second coordinate: a lone 1 in slot (0, 1)
    pair = GAPair(monomial_field(4, 0, [0, 1, 0, 0]), zero_gamma(4), h4_psi)
    r = cr_residual(pair, np.array([0.3, -0.2, 0.1, 0.6]))
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    assert np.array_equal(r, expected)


def test_unit_direction_rows_vanish_identically(h4_e, pair_factory, rng):
    # the unit-direction conditions are vacuous, leaving n(n-1) real ones
    pair = pair_factory(h4_e, rng)
    for x in GRID[::9]:
        r = cr_residual(pair, x)
        assert np.array_equal(r[:, h4_e.unit_index], np.zeros(4))


def test_residual_diagonal_vanishes_without_unit(h4_psi, pair_factory, rng):
    pair = pair_factory(h4_psi, rng)
    r = cr_residual(pair, np.array([0.25, -0.3, 0.4, 0.1]))
    assert np.array_equal(np.diag(r), np.zeros(4))


def test_residual_grid_report_summaries(h4_psi):
    from polyan.fields import residual_grid_report

    pair = GAPair(componentwise_exp_field(4), zero_gamma(4), h4_psi)
    report = residual_grid_report(pair, GRID[::9])
    assert len(report["points"]) == len(GRID[::9])
    assert 0.0 <= report["grid_mean"] <= report["grid_max"] < 1e-12
    assert all(set(e) == {"point", "max_abs"} for e in report["points"])


def test_residual_needs_unit_or_invertible_q(rng):
    dual = builtin_algebra("dual")
    from polyan import StructureConstants

    unitless = StructureConstants(np.array(dual.p), basis_tag="dual-headless")
    pair = GAPair(componentwise_power_field(2, 2), zero_gamma(2), unitless)
    with pytest.raises(SingularQError):
        cr_residual(pair, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# derivative (both forms)
# ---------------------------------------------------------------------------

def test_derivative_returns_prescribed_fprime(h4_e, rng):
    f = random_smooth_field(4, rng)
    fprime = random_smooth_field(4, rng)
    pair = gamma_from_prescribed(f, fprime, h4_e)
    x = np.array([0.3, 0.2, -0.4, 0.1])
    assert np.max(np.abs(derivative(pair, x).coords - fprime(x))) < 1e-13


def test_componentwise_square_derivative(h4_psi):
    pair = GAPair(componentwise_power_field(4, 2), zero_gamma(4), h4_psi)
    d = derivative(pair, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(d.coords, [2, 4, 6, 8], atol=1e-12)


def test_unit_and_invariant_forms_agree(h4_e, pair_factory, rng):
    pair = pair_factory(h4_e, rng)
    for x in GRID[::11]:
        d_unit = derivative(pair, x, form="unit")
        d_inv = derivative(pair, x, form="invariant")
        assert np.max(np.abs(d_unit.coords - d_inv.coords)) < 1e-10


def test_forms_agree_on_family_pair_in_e_coordinates():
    from polyan.h4 import family_pair

    spec = H4FamilySpec(
        phi0=[1.0, 0.5, 2.0, 1.0],
        mu=[0.3, -0.2, 0.1, 0.4],
        b=tuple(quadratic_b(0.25) for _ in range(4)),
        lam=constant_lambda(1.0),
    )
    pair_e = pair_change_basis(family_pair(spec), h4_basis_change().inverse())
    cfg = DiffConfig()
    s_inv = h4_basis_change().s_inv
    for xi in GRID[::13]:
        x = s_inv @ xi
        d_unit = derivative(pair_e, x, cfg, form="unit")
        d_inv = derivative(pair_e, x, cfg, form="invariant")
        assert np.max(np.abs(d_unit.coords - d_inv.coords)) < 1e-8


def test_invariant_form_rejected_on_singular_q():
    dual = builtin_algebra("dual")
    pair = GAPair(componentwise_power_field(2, 2), zero_gamma(2), dual)
    with pytest.raises(SingularQError):
        derivative(pair, np.array([0.5, 0.5]), form="invariant")


# ---------------------------------------------------------------------------
# prescribed gamma construction
# ---------------------------------------------------------------------------

def test_vanishing_derivative_pair(h4_e, rng):
    # fprime = 0 couples any field with minus its own Jacobian
    f = random_smooth_field(4, rng)
    pair = gamma_from_prescribed(f, constant_field(np.zeros(4)), h4_e)
    x = np.array([0.1, -0.5, 0.2, 0.3])
    assert np.max(np.abs(pair.gamma(x) + f.jac(x))) < 1e-14
    assert np.max(np.abs(derivative(pair, x).coords)) < 1e-14


def test_real_eigenvalue_pair(h4_e, rng):
    lam = 0.7
    f = random_smooth_field(4, rng)
    scaled = VectorField(4, lambda x: lam * f(x), jacobian=lambda x: lam * f.jac(x))
    pair = gamma_from_prescribed(f, scaled, h4_e)
    x = np.array([0.2, 0.1, 0.4, -0.3])
    expected = -f.jac(x) + lam * np.einsum("ikj,j->ik", h4_e.p.astype(float), f(x))
    assert np.max(np.abs(pair.gamma(x) - expected)) < 1e-14
    assert np.max(np.abs(derivative(pair, x).coords - lam * f(x))) < 1e-13


def test_constant_element_eigenvalue_pair(h4_psi, rng):
    # fprime = Lambda * f for a fixed algebra element Lambda
    from polyan import multiply

    lam_el = h4_psi.element([0.5, -0.2, 1.1, 0.3])
    f = random_smooth_field(4, rng)
    scaled = VectorField(
        4,
        lambda x: multiply(lam_el, h4_psi.element(f(x)), h4_psi).coords,
    )
    pair = gamma_from_prescribed(f, scaled, h4_psi)
    x = np.array([0.15, 0.25, -0.1, 0.05])
    assert np.max(np.abs(cr_residual(pair, x))) < 1e-8
    assert np.max(np.abs(derivative(pair, x).coords - lam_el.coords * f(x))) < 1e-8


# ---------------------------------------------------------------------------
# path-independence residual
# ---------------------------------------------------------------------------

def test_analytic_field_has_zero_curl(h4_psi):
    pair = GAPair(componentwise_exp_field(4), zero_gamma(4), h4_psi)
    t = path_independence_residual(pair, np.array([0.3, 0.1, -0.2, 0.4]))
    assert np.max(np.abs(t)) < 1e-13


def test_monomial_field_has_nonzero_curl(h4_psi):
    pair = GAPair(monomial_field(4, 0, [0, 2, 0, 0]), zero_gamma(4), h4_psi)
    t = path_independence_residual(pair, np.array([0.0, 0.5, 0.0, 0.0]))
    assert np.max(np.abs(t)) > 0.5


def test_constant_field_curl_exactly_zero(h4_e):
    pair = GAPair(constant_field([1.0, 2.0, -1.0, 0.5]), zero_gamma(4), h4_e)
    t = path_independence_residual(pair, np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.array_equal(t, np.zeros((4, 4, 4)))


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ("central-2", "central-4"))
def test_fd_partial_is_a_jacobian_column(scheme):
    field = family_test_field()
    cfg = DiffConfig(scheme=scheme)
    x = np.array([0.1, -0.2, 0.3, 0.4])
    jac = fd_jacobian(field.func, x, cfg)
    for k in range(4):
        assert np.array_equal(fd_partial(field.func, x, k, cfg), jac[:, k])


def test_grid_max_propagates_nan():
    assert grid_max([]) == 0.0
    assert grid_max([0.5, 2.0, 1.0]) == 2.0
    assert np.isnan(grid_max([1.0, float("nan"), 3.0]))
    assert np.isnan(grid_max([float("nan"), 1.0]))
    assert np.isnan(grid_max(v for v in (3.0, 1.0, float("nan"))))


def test_diffconfig_validation():
    with pytest.raises(ContractError):
        DiffConfig(scheme="forward")
    with pytest.raises(ContractError):
        DiffConfig(h=-1e-6)
    with pytest.raises(ContractError):
        DiffConfig(quadrature_segments=0)


def test_central4_scheme_is_tighter(h4_psi):
    field = family_test_field().without_jacobian()
    exact = family_test_field().jac(np.array([0.1, 0.2, 0.3, 0.4]))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    err2 = np.max(np.abs(field.jac(x, DiffConfig(scheme="central-2")) - exact))
    err4 = np.max(np.abs(field.jac(x, DiffConfig(scheme="central-4")) - exact))
    assert err4 < err2
    assert err4 < 1e-10


def test_gamma_field_shape(h4_psi):
    g = GammaField(4, lambda x: np.outer(x, x))
    assert g(np.ones(4)).shape == (4, 4)
