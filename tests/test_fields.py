"""Covariant derivatives, Cauchy-Riemann residuals and derivative forms."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyan import (
    BasisChange,
    ContractError,
    DomainError,
    SingularQError,
    ZeroDivisorError,
    builtin_algebra,
    builtin_names,
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
    ConnectionField,
    DiffConfig,
    Diffeo,
    GAPair,
    GammaField,
    VectorField,
    chain_conditions,
    componentwise_exp_field,
    componentwise_power_field,
    constant_field,
    derivative_chain,
    fd_jacobian,
    grid_max,
    identity_field,
    linear_field,
    monomial_field,
    pair_combine,
    pair_product,
    polyline_path,
    random_smooth_field,
    rectangle_loop,
    residual_grid_report,
    square_pair,
    straight_path,
    transform_pair,
    zero_gamma,
)
import polyan.fields as fields
from polyan.algebra import transform_constants
from polyan.geodesics import connection_from_structure, finsler_connection, zero_connection
from polyan.h4 import (
    FinslerConfig,
    H4FamilySpec,
    constant_lambda,
    family_field,
    family_pair,
    gaussian_kappa,
    kappa_from_b,
    quadratic_b,
    reciprocal_quartic_lambda,
)

GRID = Box([-0.5] * 4, [0.5] * 4).grid(3)


def family_test_field():
    b = tuple(quadratic_b(0.25) for _ in range(4))
    spec = H4FamilySpec(
        phi0=[1.0, 0.5, 2.0, 1.0],
        mu=[0.3, -0.2, 0.1, 0.4],
        b=b,
        metric=FinslerConfig(kappa_from_b(b, 1.0), constant_lambda(1.0)),
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


@pytest.mark.parametrize("face, outward", ((0.0, -1.0), (1.0, 1.0)))
def test_box_forgives_rounding_but_not_a_point_outside(face, outward):
    """Box.contains' margin is 1e-9: a point 1e-10 past a face is in, one 1e-6 past it is not."""
    field = VectorField(4, lambda x: x, domain=Box([0.0] * 4, [1.0] * 4))
    x = np.array([0.5, 0.5, face + outward * 1e-10, 0.5])
    assert np.array_equal(field(x), x)
    x[2] = face + outward * 1e-6
    with pytest.raises(DomainError):
        field(x)


def test_box_grid_is_the_meshgrid_grid(rng):
    """Box.grid is bitwise the ij-indexed meshgrid of the axes' linspaces, fastest index last."""
    for n in range(1, 7):
        for p in (1, 2, 3, 5, 9):
            if p ** n > 100_000:
                continue
            lo = rng.uniform(-2.0, 0.0, n)
            box = Box(lo, lo + rng.uniform(0.0, 3.0, n))
            mesh = np.meshgrid(*(np.linspace(box.lo[k], box.hi[k], p) for k in range(n)), indexing="ij")
            assert np.array_equal(box.grid(p), np.stack([m.reshape(-1) for m in mesh], axis=1))


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
    assert np.array_equal(report["points"], GRID[::9]) and report["max_abs"].shape == (len(GRID[::9]),)
    assert 0.0 <= report["grid_mean"] <= report["grid_max"] < 1e-12
    assert report["errors"] == {} and report["failed_points"] == 0 and np.isfinite(report["max_abs"]).all()


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

    b = tuple(quadratic_b(0.25) for _ in range(4))
    spec = H4FamilySpec(
        phi0=[1.0, 0.5, 2.0, 1.0],
        mu=[0.3, -0.2, 0.1, 0.4],
        b=b,
        metric=FinslerConfig(kappa_from_b(b, 1.0), constant_lambda(1.0)),
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


def test_central4_default_step_is_verification_grade(rng):
    """central-4's base step eps^(1/5) gets within 1e-11 of the exact Jacobian of exp(1.3 x),
    about 7e-13; a base step of 1e-2 errs by about 5e-9.  (A quartic field cannot pin the
    step: the 5-point stencil is exact on quartics at any step.)"""
    field = componentwise_exp_field(4, 1.3)
    x = rng.uniform(-1.0, 1.0, (50, 4))
    assert np.max(np.abs(fd_jacobian(field.func, x, DiffConfig(scheme="central-4")) - field.jac(x))) <= 1e-11


def test_gamma_field_shape(h4_psi):
    g = GammaField(4, lambda x: np.outer(x, x))
    assert g(np.ones(4)).shape == (4, 4)


# ---------------------------------------------------------------------------
# the one-call stencil against the per-column loop it replaced
# ---------------------------------------------------------------------------

def fd_partial(func, x, axis, cfg):
    """Central difference along coordinate axis, each probe its own call of func."""
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[..., axis] = hk = cfg.step(x)[..., axis][()]

    def at(y):
        return np.asarray(func(y), dtype=float)

    if cfg.scheme == "central-4":
        diff, denom = -at(x + 2 * e) + 8 * at(x + e) - 8 * at(x - e) + at(x - 2 * e), 12 * hk
    else:
        diff, denom = at(x + e) - at(x - e), 2 * hk
    return diff / (denom.reshape(denom.shape + (1,) * (diff.ndim - denom.ndim)) if denom.ndim else denom)


def reference_fd_jacobian(func, x, cfg):
    x = np.asarray(x, dtype=float)
    return np.stack([fd_partial(func, x, k, cfg) for k in range(x.shape[-1])], axis=-1)


@pytest.mark.parametrize("scheme", ("central-2", "central-4"))
@pytest.mark.parametrize("value_shape", ((2, 3), (3, 3)))
def test_fd_jacobian_of_a_matrix_valued_map_is_its_coefficient_tensor(scheme, value_shape, rng):
    coeffs = rng.uniform(-2.0, 2.0, value_shape + (4,))
    cfg = DiffConfig(scheme=scheme)

    def func(x):
        return np.einsum("abk,...k->...ab", coeffs, x)

    points = rng.uniform(-1.0, 1.0, (6, 4))
    for x in (points[0], points, points.reshape(6, 1, 4)):
        jac = fd_jacobian(func, x, cfg)
        assert jac.shape == x.shape[:-1] + value_shape + (4,)
        assert np.allclose(jac, coeffs, rtol=0.0, atol=1e-8)
        for k in range(4):
            assert np.array_equal(jac[..., k], fd_partial(func, x, k, cfg))


@pytest.mark.parametrize("scheme", ("central-2", "central-4"))
def test_fd_jacobian_equals_the_per_column_loop(scheme, rng):
    from polyan.h4 import gaussian_kappa, kappa_from_b

    cfg = DiffConfig(scheme=scheme)
    funcs = {
        "random field": random_smooth_field(4, rng).func,
        "family": family_test_field().func,
        "gaussian kappa": gaussian_kappa(1.3, 0.7).func,
        "separable kappa": kappa_from_b(tuple(quadratic_b(0.25) for _ in range(4)), 1.0).func,
    }
    points = rng.uniform(-0.6, 0.6, (7, 4))
    for name, func in funcs.items():
        for x in (points[0], points, points.reshape(7, 1, 4)):
            got = fd_jacobian(func, x, cfg)
            assert np.array_equal(got, reference_fd_jacobian(func, x, cfg)), name
            assert got.shape == x.shape + ((4,) if name.endswith("field") or name == "family" else ())


def test_point_only_callables_fail_loudly():
    point_only = VectorField(4, lambda x: np.array([x[1] * x[2], x[0], x[3], x[2]]))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert point_only(x).shape == (4,)
    with pytest.raises(ContractError, match="one row per point"):
        point_only.jac(x)
    with pytest.raises(ContractError, match=r"expected \(5, 4\)"):
        point_only(GRID[:5])
    constant = GammaField(4, lambda x: np.eye(4))
    assert constant(x).shape == (4, 4)
    with pytest.raises(ContractError, match=r"\(3, 4, 4\)"):
        constant(GRID[:3])
    with pytest.raises(ContractError):
        VectorField(4, lambda x: x, jacobian=lambda x: np.eye(4)).jac(GRID[:3])


# ---------------------------------------------------------------------------
# fields on (m, n) points against one point at a time
# ---------------------------------------------------------------------------

def _random_pair(S, rng):
    f = random_smooth_field(S.n, rng, amplitude=0.8)
    return gamma_from_prescribed(f, random_smooth_field(S.n, rng, amplitude=0.8), S)


def _point_only_diffeo(n, rng):
    alpha = rng.uniform(-0.04, 0.04, (n, n))
    phase = rng.uniform(0.0, 2 * np.pi, (n, n))
    rows = np.arange(n)

    def hess(x):
        h = np.zeros((n, n, n))
        h[:, rows, rows] = -alpha * np.sin(x[None, :] + phase)
        return h

    return Diffeo(n, lambda x: x + np.sum(alpha * np.sin(x[None, :] + phase), axis=1),
                  lambda x: np.eye(n) + alpha * np.cos(x[None, :] + phase), hess)


def _row_dot(x, w):
    """x . w per point of x (..., n), as a (..., 1, 1, 1) factor of a connection; unlike
    x @ w, a stack rounds each row as one point does."""
    return np.einsum("...i,i->...", x, w)[..., None, None, None]


def _chain(S, rng, fd):
    if S.unit_index is None:
        return _random_pair(S, rng)
    c0, w = 0.3 * S.p + rng.uniform(-0.1, 0.1, S.p.shape), rng.uniform(-1, 1, S.n)
    pair = _random_pair(S, rng)
    if fd:
        pair = GAPair(pair.f.without_jacobian(), pair.gamma, S)
    return derivative_chain(pair, ConnectionField(S.n, lambda x: c0 * (1.0 + _row_dot(x, w))), 2)


@pytest.mark.parametrize("scheme", ("central-2", "central-4"))
@pytest.mark.parametrize("name", [n for n in builtin_names() if builtin_algebra(n).unit_index is not None])
def test_chains_equal_the_per_column_reference(name, scheme, rng, monkeypatch):
    """chain_conditions and every chain step, bitwise as with one fd_partial call per column
    under the scheme asked for."""
    S, cfg = builtin_algebra(name), DiffConfig(scheme=scheme)
    c0, w = 0.3 * S.p + rng.uniform(-0.1, 0.1, S.p.shape), rng.uniform(-1, 1, S.n)
    Gamma = ConnectionField(S.n, lambda x: c0 * (1.0 + np.sin(_row_dot(x, w))))
    pair = _random_pair(S, rng)
    pairs = (pair, GAPair(pair.f.without_jacobian(), pair.gamma, S))
    x, points = rng.uniform(-0.5, 0.5, S.n), rng.uniform(-0.5, 0.5, (3, S.n))

    def results():
        chains = [derivative_chain(p, Gamma, 2, cfg) for p in pairs]
        return [*chain_conditions(Gamma, S, x, cfg), *(c.f(y) for c in chains for y in (x, points)),
                *(c.gamma(points) for c in chains)]

    got = results()
    monkeypatch.setattr(fields, "fd_jacobian", lambda func, x, *_: reference_fd_jacobian(func, x, cfg))
    for a, b in zip(got, results(), strict=True):
        assert np.array_equal(a, b)


def test_a_field_written_for_one_point_fails_on_a_stack():
    """x * x[0] scales a point by its first coordinate but a stack by its first row; the first
    call on a stack, here the FD probes, compares rows 0 and 1 alone and names the lift."""
    x = np.array([0.3, 0.2, 0.1, 0.4])
    for call in (lambda f: f.jac(x), lambda f: f(np.stack([x, 2 * x]))):
        with pytest.raises(ContractError, match=r'np\.vectorize\(f, signature="\(n\)->\(n\)"\)'):
            call(VectorField(4, lambda x: x * x[0]))
    lifted = VectorField(4, np.vectorize(lambda x: x * x[0], signature="(n)->(n)"))
    exact = x[0] * np.eye(4) + np.outer(x, [1, 0, 0, 0])
    assert np.max(np.abs(lifted.jac(x) - exact)) < 1e-9


def test_a_matrix_written_for_one_point_fails_on_a_stack():
    """y[:, None] * y[None, :] is a point's outer product, but on a stack of two points in two
    dimensions a (2, 2, 2) array of other values, with the right shape: unchecked, cr_residual gives
    maxima 0.23 and 0.34 here where each point alone gives 0.12 and 0.7.  Rows 0 and 1 alone show it."""
    outer, x = (lambda y: y[:, None] * y[None, :]), np.array([[0.3, -0.2], [0.5, 0.7]])
    lift = re.escape('lift a one-point gamma field with np.vectorize(f, signature="(n)->(n,n)")')
    with pytest.raises(ContractError, match=lift):
        cr_residual(GAPair(identity_field(2), GammaField(2, outer), builtin_algebra("complex")), x)
    lift = re.escape('lift a one-point Jacobian with np.vectorize(f, signature="(n)->(n,n)")')
    with pytest.raises(ContractError, match=lift):
        VectorField(2, lambda y: y, jacobian=outer).jac(x)
    lifted = GammaField(2, np.vectorize(outer, signature="(n)->(n,n)"))
    assert np.array_equal(lifted(x), [outer(y) for y in x])


@pytest.mark.parametrize("scheme, points", (("central-2", 9), ("central-4", 25)))
def test_fd_chain_step_probes_only_the_unit_direction(h4_e, rng, scheme, points):
    """An order-2 chain of a field without Jacobian evaluates it on (s + 1)^2 points per chain
    point, s = 2 or 4 probes along the unit direction, not on (s n + 1)^2."""
    f, seen = random_smooth_field(4, rng), []
    counting = VectorField(4, lambda x: seen.append(x.size // 4) or f.func(x))
    chain = derivative_chain(GAPair(counting, zero_gamma(4), h4_e), zero_connection(4), 2, DiffConfig(scheme=scheme))
    x = rng.uniform(-0.5, 0.5, 4)
    chain.f(x)
    # and, once per field, its first stack's rows 0 and 1 alone: 2 points for the field itself and
    # 2 (s + 1) for the first chain step's rows, each a one-point step
    assert sum(seen) == points + 2 + 2 * math.isqrt(points)
    seen.clear()
    chain.f(x)
    assert sum(seen) == points


def test_chain_steps_along_the_unit_wherever_it_sits(rng):
    """The chain differentiates along the unit's basis direction, here the second one."""
    S = transform_constants(builtin_algebra("complex"), BasisChange(np.eye(2)[::-1], "complex", "swapped"))
    assert S.unit_index == 1
    f = random_smooth_field(2, rng)
    x = rng.uniform(-0.5, 0.5, 2)
    for field in (f, f.without_jacobian()):
        first = derivative_chain(GAPair(field, zero_gamma(2), S), zero_connection(2), 1)
        assert np.max(np.abs(first.f(x) - f.jac(x)[:, 1])) < 1e-9


def _with_domain(S, rng):
    from polyan.cli import _make_field

    f = _make_field({"kind": "componentwise-exp", "scale": 0.7,
                     "domain": {"min": [-1] * S.n, "max": [1] * S.n}}, S.n)
    return GAPair(f, zero_gamma(S.n), S)


PAIR_KINDS = {
    "constant": lambda S, rng: GAPair(constant_field(rng.uniform(-1, 1, S.n)), zero_gamma(S.n), S),
    "linear": lambda S, rng: GAPair(linear_field(rng.uniform(-1, 1, (S.n, S.n)), rng.uniform(-1, 1, S.n)),
                                    zero_gamma(S.n), S),
    "identity": lambda S, rng: GAPair(identity_field(S.n), zero_gamma(S.n), S),
    "power": lambda S, rng: GAPair(componentwise_power_field(S.n, int(rng.integers(0, 4))), zero_gamma(S.n), S),
    "exp": lambda S, rng: GAPair(componentwise_exp_field(S.n, rng.uniform(-1.5, 1.5)), zero_gamma(S.n), S),
    "monomial": lambda S, rng: GAPair(monomial_field(S.n, int(rng.integers(0, S.n)), rng.integers(0, 3, S.n)),
                                      zero_gamma(S.n), S),
    "square": lambda S, rng: square_pair(S),
    "prescribed": _random_pair,
    "combine": lambda S, rng: pair_combine(0.7, _random_pair(S, rng), -1.3, _random_pair(S, rng)),
    "product": lambda S, rng: pair_product(_random_pair(S, rng), _random_pair(S, rng)),
    "change basis": lambda S, rng: pair_change_basis(
        PAIR_KINDS[rng.choice(["linear", "prescribed", "product"])](S, rng),
        BasisChange(np.eye(S.n) + rng.uniform(-0.3, 0.3, (S.n, S.n)), S.basis_tag, "other")),
    "chain": lambda S, rng: _chain(S, rng, fd=False),
    "chain of an FD field": lambda S, rng: _chain(S, rng, fd=True),
    "transform": lambda S, rng: transform_pair(_random_pair(S, rng), _point_only_diffeo(S.n, rng)),
    "domain": _with_domain,
}


def assert_rows_equal(batched, points, one_point):
    assert batched.shape[0] == len(points)
    for row, x in zip(batched, points):
        assert np.array_equal(row, one_point(x))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(builtin_names()), kind=st.sampled_from(sorted(PAIR_KINDS)),
       seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4))
def test_fields_on_many_points_equal_one_point_calls(name, kind, seed, m):
    rng = np.random.default_rng(seed)
    S = builtin_algebra(name)
    pair = PAIR_KINDS[kind](S, rng)
    points = rng.uniform(-0.5, 0.5, (m, S.n))
    bare = GAPair(pair.f.without_jacobian(), pair.gamma, pair.S)
    assert_rows_equal(pair.f(points), points, pair.f)
    assert_rows_equal(pair.gamma(points), points, pair.gamma)
    assert_rows_equal(pair.f.jac(points), points, pair.f.jac)
    for cfg in (DiffConfig(), DiffConfig(scheme="central-4")):
        assert_rows_equal(bare.f.jac(points, cfg), points, lambda x: bare.f.jac(x, cfg))
        if pair.S.unit_index is None and pair.S.qtensor.q_inv is None:
            continue  # no derivative form: a dual number in a basis without the unit
        for p in (pair, bare):
            assert_rows_equal(cr_residual(p, points, cfg), points, lambda x: cr_residual(p, x, cfg))


def _pair_calls(pair):
    return [pair.f, pair.f.jac, pair.gamma, pair.f.without_jacobian().jac], pair.n


def _path_calls(path):
    return [path, path.vel], None


def _chain_calls(S, rng, connection):
    assume(S.unit_index is not None)
    return _pair_calls(derivative_chain(_random_pair(S, rng), connection, 2))


def _family_calls(rng, reciprocal):
    b = tuple(quadratic_b(c) for c in rng.uniform(-0.5, 0.5, 4))
    kappa = kappa_from_b(b, 1.2)
    lam = reciprocal_quartic_lambda(kappa, 1.2, 2.0) if reciprocal else constant_lambda(2.0)
    spec = H4FamilySpec(phi0=rng.uniform(0.5, 2.0, 4), mu=rng.uniform(-0.5, 0.5, 4), b=b,
                        metric=FinslerConfig(kappa, lam, 1.2, 2.0))
    return _pair_calls(family_pair(spec))


def _finsler_calls(rng, reciprocal):
    kappa = gaussian_kappa(1.2, rng.uniform(-1.0, 1.0))
    lam = reciprocal_quartic_lambda(kappa, 1.2, 2.0) if reciprocal else constant_lambda(2.0)
    orientation = ("as-printed", "transposed")[rng.integers(2)]
    return [finsler_connection(FinslerConfig(kappa, lam, 1.2, 2.0), orientation)], 4


# every kind of object the library builds from a callable: (algebra, rng) -> (its callables, the
# dimension of their points, or None for a path's parameters)
LIBRARY_KINDS = {
    "prescribed": lambda S, rng: _pair_calls(_random_pair(S, rng)),
    "product": lambda S, rng: _pair_calls(PAIR_KINDS["product"](S, rng)),
    "combine": lambda S, rng: _pair_calls(PAIR_KINDS["combine"](S, rng)),
    "square": lambda S, rng: _pair_calls(square_pair(S)),
    "change basis": lambda S, rng: _pair_calls(PAIR_KINDS["change basis"](S, rng)),
    "chain over the zero connection": lambda S, rng: _chain_calls(S, rng, zero_connection(S.n)),
    "chain over a structure connection": lambda S, rng: _chain_calls(S, rng, connection_from_structure(S, 0.3)),
    "family, constant gauge": lambda S, rng: _family_calls(rng, False),
    "family, reciprocal gauge": lambda S, rng: _family_calls(rng, True),
    "finsler, constant gauge": lambda S, rng: _finsler_calls(rng, False),
    "finsler, reciprocal gauge": lambda S, rng: _finsler_calls(rng, True),
    "straight path": lambda S, rng: _path_calls(straight_path(*rng.uniform(-1, 1, (2, S.n)))),
    "polyline path": lambda S, rng: _path_calls(polyline_path(rng.uniform(-1, 1, (4, S.n)))),
    "rectangle loop": lambda S, rng: _path_calls(rectangle_loop(*rng.uniform(-1, 1, (3, S.n)))),
}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(builtin_names()), kind=st.sampled_from(sorted(LIBRARY_KINDS)),
       seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
def test_library_objects_pass_their_row_check(name, kind, seed, m):
    """Each field, connection and path the library builds gives every row of a stack bitwise its
    point's value alone, so the row check on the first stack of each callable never fires."""
    rng = np.random.default_rng(seed)
    calls, n = LIBRARY_KINDS[kind](builtin_algebra(name), rng)
    stack = rng.uniform(0.0, 1.0, m) if n is None else rng.uniform(-0.5, 0.5, (m, n))
    for call in calls:
        assert_rows_equal(call(stack), stack, call)


def test_transform_pair_inverts_each_point_once(h4_e, rng, monkeypatch):
    """transform_pair's fields apply the map row by row, so they skip the row check, which
    would cost two more Newton inversions per field: one inverse_point call per point."""
    diffeo = _point_only_diffeo(4, rng)
    pair, calls = transform_pair(_random_pair(h4_e, rng), diffeo), []
    monkeypatch.setattr(diffeo, "inverse_point", lambda y, inverse=diffeo.inverse_point: calls.append(y) or inverse(y))
    points = rng.uniform(-0.4, 0.4, (3, 4))
    covariant_derivative(pair, points)  # 8 central-2 probes and one gamma point per point
    assert len(calls) == 27
    calls.clear()
    covariant_derivative(pair, points[0])
    assert len(calls) == 9


# ---------------------------------------------------------------------------
# the grid report in one pass against the per-point loop
# ---------------------------------------------------------------------------

def per_point_grid_report(pair, points, cfg=DiffConfig()):
    """The report built one point at a time."""
    entries = []
    values = []
    for x in points:
        entry = {"point": [float(v) for v in x]}
        try:
            r = float(np.max(np.abs(cr_residual(pair, x, cfg))))
        except (DomainError, SingularQError, ZeroDivisorError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            if np.isfinite(r):
                entry["max_abs"] = r
                values.append(r)
            else:
                entry["error"] = f"non-finite residual {r}"
        entries.append(entry)
    return {
        "points": entries,
        "grid_max": grid_max(values),
        "grid_mean": (sum(values) / len(values)) if values else 0.0,
        "failed_points": len(entries) - len(values),
    }


def _report_cases(h4_psi, rng):
    from polyan import StructureConstants
    from polyan.h4 import family_pair

    dual = builtin_algebra("dual")
    b = tuple(quadratic_b(-4.0) for _ in range(4))
    vanishing = H4FamilySpec(phi0=[1.0] * 4, mu=[0.0] * 4, b=b,
                             metric=FinslerConfig(kappa_from_b(b, 1.0), constant_lambda(1.0)))
    boxed = VectorField(4, componentwise_exp_field(4).func, domain=Box([-0.2] * 4, [1.0] * 4))
    return {
        "clean": (_random_pair(builtin_algebra("h4-e"), rng), GRID),
        "partly outside the domain": (GAPair(boxed, zero_gamma(4), h4_psi), GRID),
        "vanishing family profile": (family_pair(vanishing), GRID),
        "singular q": (GAPair(componentwise_power_field(2, 2), zero_gamma(2),
                              StructureConstants(np.array(dual.p), basis_tag="dual-headless")),
                       Box([-0.5] * 2, [0.5] * 2).grid(3)),
        "non-finite": (GAPair(componentwise_power_field(4, -1), zero_gamma(4), h4_psi), GRID),
    }


def _left_to_right_mean(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values) if values else 0.0


@pytest.mark.parametrize("scheme", ("central-2", "central-4"))
def test_grid_report_equals_the_per_point_loop(h4_psi, rng, scheme):
    """The arrays and messages of the one-pass report are the per-point loop's entries, bitwise."""
    cfg = DiffConfig(scheme=scheme)
    for name, (pair, points) in _report_cases(h4_psi, rng).items():
        with np.errstate(divide="ignore", invalid="ignore"):
            report = residual_grid_report(pair, points, cfg)
            reference = per_point_grid_report(pair, points, cfg)
        entries = reference["points"]
        assert np.array_equal(report["points"], [e["point"] for e in entries]), name
        assert report["errors"] == {i: e["error"] for i, e in enumerate(entries) if "error" in e}, name
        expected = [e.get("max_abs", math.nan) for e in entries]
        assert np.array_equal(report["max_abs"].view(np.int64), np.array(expected).view(np.int64)), name
        values = [e["max_abs"] for e in entries if "max_abs" in e]
        assert report["grid_mean"] == _left_to_right_mean(values), name
        for key in ("grid_max", "failed_points"):
            assert report[key] == reference[key], (name, key)
        assert (report["failed_points"] > 0) == (name != "clean"), name


def test_grid_mean_is_the_left_to_right_sum(monkeypatch):
    """numpy's pairwise sum adds these in eight lanes, where pairs of 2^-53 make 2^-52 and survive; left to right,
    each 2^-53 added to 1 rounds away."""
    values = np.array([1.0] + [2.0 ** -53] * 15)
    assert np.mean(values) != _left_to_right_mean(values.tolist()) == 1.0 / 16
    monkeypatch.setattr(fields, "cr_residual", lambda pair, x, cfg: -values[:, None, None])
    report = residual_grid_report(None, np.zeros((16, 1)))
    assert report["grid_mean"] == 1.0 / 16 and report["grid_max"] == 1.0 and report["errors"] == {}
