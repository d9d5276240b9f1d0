"""The closed-form family of generalized-analytic functions on H4."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyan import builtin_algebra, cr_residual, derivative
from polyan.fields import Box, GAPair, zero_gamma
from polyan.fields import fd_jacobian, grid_max
from polyan.h4 import (
    CONVENTIONS,
    FinslerConfig,
    H4FamilySpec,
    ScalarField,
    _ARRAYS,
    _family_terms,
    analytic_gamma_max,
    compatibility_residual,
    constant_b,
    constant_kappa,
    constant_lambda,
    cross_term_kappa,
    family_field,
    family_pair,
    family_phi,
    family_residual,
    gamma_matrices,
    gaussian_b,
    gaussian_kappa,
    kappa_from_b,
    quadratic_b,
    reciprocal_quartic_lambda,
)

GRID = Box([-0.5] * 4, [0.5] * 4).grid(3)
PHI0 = [1.0, 0.5, 2.0, 1.0]
MU = [0.3, -0.2, 0.1, 0.4]


def trivial_spec(mu=(1.0, 0.0, 0.0, 0.0)):
    b = tuple(constant_b(1.0) for _ in range(4))
    return H4FamilySpec(
        phi0=[1.0, 1.0, 1.0, 1.0],
        mu=list(mu),
        b=b,
        metric=FinslerConfig(kappa_from_b(b, 1.0), constant_lambda(1.0)),
    )


def generic_spec(convention="reciprocal"):
    b = tuple(quadratic_b(0.25) for _ in range(4))
    return H4FamilySpec(
        phi0=PHI0,
        mu=MU,
        b=b,
        metric=FinslerConfig(kappa_from_b(b, 1.0), constant_lambda(1.0)),
        convention=convention,
    )


def reduced_spec():
    b = tuple(quadratic_b(0.25) for _ in range(4))
    kappa = kappa_from_b(b, 1.0)
    return H4FamilySpec(
        phi0=PHI0, mu=MU, b=b, metric=FinslerConfig(kappa, reciprocal_quartic_lambda(kappa, 1.0, 1.0))
    )


# ---------------------------------------------------------------------------
# trivial profiles
# ---------------------------------------------------------------------------

def test_constant_profiles_give_pure_exponentials():
    spec = trivial_spec(mu=MU)
    xi = np.array([0.2, -0.4, 0.1, 0.3])
    assert np.allclose(family_phi(spec, xi), np.exp(np.array(MU) * xi), rtol=1e-14)


def test_constant_profiles_satisfy_all_relations():
    spec = trivial_spec()
    report = family_residual(spec, GRID)
    assert report.residuals["as-printed"] < 1e-12
    assert report.residuals["reciprocal"] < 1e-12
    fd = fd_jacobian(lambda x: family_phi(spec, x), GRID)
    assert np.max(np.abs(fd - family_field(spec).jac(GRID))) < 1e-9


def test_constant_profiles_are_analytic_too():
    # constant kappa makes the connection vanish and the components
    # componentwise exponentials, analytic on their own
    spec = trivial_spec(mu=MU)
    assert analytic_gamma_max(spec, GRID) < 1e-12
    pair = family_pair(spec)
    for xi in GRID[::9]:
        assert np.max(np.abs(pair.gamma(xi))) < 1e-14


# ---------------------------------------------------------------------------
# generic profiles: the placement ambiguity
# ---------------------------------------------------------------------------

def test_exactly_one_convention_satisfies_the_system():
    report = family_residual(generic_spec(), GRID)
    assert report.residuals["reciprocal"] < 1e-7
    assert report.residuals["as-printed"] > 1e-3
    assert report.selected == "reciprocal"


def test_generic_family_pair_is_generalized_analytic():
    pair = family_pair(generic_spec())
    for xi in GRID[::5]:
        assert np.max(np.abs(cr_residual(pair, xi))) < 1e-10


def test_family_pair_derivative_is_constant_multiplier():
    # the pair realizes the constant-element eigenvalue requirement:
    # the derivative equals the componentwise multiplier times the field
    spec = generic_spec()
    pair = family_pair(spec)
    for xi in GRID[::9]:
        d = derivative(pair, xi)
        assert np.max(np.abs(d.coords - spec.mu * pair.f(xi))) < 1e-9


def test_family_field_fd_jacobian_agrees():
    field_an = family_field(generic_spec())
    field_fd = family_field(generic_spec()).without_jacobian()
    xi = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.max(np.abs(field_an.jac(xi) - field_fd.jac(xi))) < 1e-8


def test_gaussian_profiles_select_reciprocal():
    b = tuple(gaussian_b(1.0) for _ in range(4))
    spec = H4FamilySpec(
        phi0=PHI0,
        mu=MU,
        b=b,
        metric=FinslerConfig(kappa_from_b(b, 1.0), constant_lambda(1.0)),
    )
    report = family_residual(spec, GRID)
    assert report.selected == "reciprocal"
    assert report.residuals["reciprocal"] < 1e-7


# ---------------------------------------------------------------------------
# the analytic reduction
# ---------------------------------------------------------------------------

def test_reciprocal_quartic_gauge_kills_the_gamma_object():
    spec = reduced_spec()
    assert analytic_gamma_max(spec, GRID) < 1e-8
    # plain-analyticity residual of the bare field, directly
    bare = GAPair(family_field(spec), zero_gamma(4), builtin_algebra("h4-psi"))
    for xi in GRID[::5]:
        assert np.max(np.abs(cr_residual(bare, xi))) < 1e-8


def test_reduced_family_still_satisfies_the_system():
    report = family_residual(reduced_spec(), GRID)
    assert report.residuals["reciprocal"] < 1e-9


def test_reduced_components_depend_on_own_coordinate_only():
    spec = reduced_spec()
    xi = np.array([0.2, -0.1, 0.4, 0.3])
    jac = family_field(spec).jac(xi)
    off_diag = jac - np.diag(np.diag(jac))
    assert np.max(np.abs(off_diag)) < 1e-14


# ---------------------------------------------------------------------------
# incompatible scale profiles
# ---------------------------------------------------------------------------

def test_cross_term_kappa_fails_both_conventions():
    spec = H4FamilySpec(
        phi0=[1.0, 1.0, 1.0, 1.0],
        mu=[0.0, 0.0, 0.0, 0.0],
        b=tuple(constant_b(1.0) for _ in range(4)),
        metric=FinslerConfig(cross_term_kappa(1.0, 1.0, (0, 1)), constant_lambda(1.0)),
    )
    report = family_residual(spec, GRID)
    assert report.residuals["as-printed"] > 1e-3
    assert report.residuals["reciprocal"] > 1e-3
    worst_compat = max(
        np.max(np.abs(compatibility_residual(spec.metric.kappa, xi))) for xi in GRID[::9]
    )
    assert worst_compat > 0.5


def test_separable_kappa_passes_compatibility():
    spec = generic_spec()
    worst = max(
        np.max(np.abs(compatibility_residual(spec.metric.kappa, xi))) for xi in GRID[::9]
    )
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    from polyan import ContractError

    metric = FinslerConfig(kappa_from_b(tuple(constant_b() for _ in range(4)), 1.0), constant_lambda(1.0))
    with pytest.raises(ContractError):
        H4FamilySpec(phi0=[1, 1, 1], mu=MU, b=tuple(constant_b() for _ in range(4)),
                     metric=metric)
    with pytest.raises(ContractError):
        H4FamilySpec(phi0=PHI0, mu=MU, b=tuple(constant_b() for _ in range(3)),
                     metric=metric)
    with pytest.raises(ContractError):
        H4FamilySpec(phi0=PHI0, mu=MU, b=tuple(constant_b() for _ in range(4)),
                     metric=metric, convention="upside-down")


def test_vanishing_profile_rejected_at_evaluation():
    # a zero of a profile is a property of the point, not of the spec
    from polyan import DomainError

    b = tuple(quadratic_b(-1.0) for _ in range(4))  # zero at |t| = 1
    spec = H4FamilySpec(
        phi0=PHI0, mu=MU,
        b=b,
        metric=FinslerConfig(kappa_from_b(b, 1.0), constant_lambda(1.0)),
    )
    with pytest.raises(DomainError):
        family_phi(spec, np.array([1.0, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# reference formulas: phi, kappa, lam and their gradients evaluated anew for
# the Jacobian and for the connection, as written before the family shared
# one evaluation per point
# ---------------------------------------------------------------------------

def reference_jacobian(spec, xi):
    phi = family_phi(spec, xi)
    common = (4.0 * spec.metric.kappa.gradient(xi) / spec.metric.kappa(xi)
              + spec.metric.lam.gradient(xi) / spec.metric.lam(xi))
    sign = -1.0 if spec.convention == "reciprocal" else 1.0
    dlog = np.array([sign * d / w for w, d in (b(_ARRAYS, t) for b, t in zip(spec.b, xi))])
    out = phi[:, None] * common[None, :]
    out[np.arange(4), np.arange(4)] += phi * (dlog + spec.mu)
    return out


def reference_gamma(spec, xi):
    return np.einsum("ikj,j->ik", gamma_matrices(xi, spec.metric, "transposed"), family_phi(spec, xi))


def reference_residuals(spec, points):
    residuals = {}
    for conv in CONVENTIONS:
        placed = replace(spec, convention=conv)
        values = []
        for xi in points:
            phi = family_phi(placed, xi)
            gamma_mult = -reference_jacobian(placed, xi) + np.diag(placed.mu * phi)
            values.append(float(np.max(np.abs(reference_gamma(placed, xi) - gamma_mult))))
        residuals[conv] = grid_max(values)
    return residuals


def reference_specs():
    b = tuple(quadratic_b(0.25) for _ in range(4))
    kappas = {"from-b": kappa_from_b(b, 1.5), "gaussian": gaussian_kappa(1.5, 0.7),
              "cross-term": cross_term_kappa(1.5, 0.5, (1, 3))}
    for kname, kappa in kappas.items():
        lams = {"constant": constant_lambda(2.0),
                "kappa-reciprocal": reciprocal_quartic_lambda(kappa, 1.5, 2.0)}
        for lname, lam in lams.items():
            yield pytest.param(H4FamilySpec(phi0=PHI0, mu=MU, b=b, metric=FinslerConfig(kappa, lam, 1.5, 2.0)),
                               id=f"{kname}-{lname}")


@pytest.mark.parametrize("spec", list(reference_specs()))
def test_shared_evaluation_matches_reference_bitwise(spec):
    for conv in CONVENTIONS:
        placed = replace(spec, convention=conv)
        field = family_field(placed)
        pair = family_pair(placed)
        for xi in GRID[::7]:
            assert np.array_equal(field.jac(xi), reference_jacobian(placed, xi))
            assert np.array_equal(pair.gamma(xi), reference_gamma(placed, xi))
    assert family_residual(spec, GRID[::3]).residuals == reference_residuals(spec, GRID[::3])
    assert_fd_matches_exact_jacobian(spec, GRID[::3])


def assert_fd_matches_exact_jacobian(spec, points):
    """The finite-difference Jacobian of family_phi agrees with family_field's exact one."""
    for conv in CONVENTIONS:
        placed = replace(spec, convention=conv)
        exact = family_field(placed).jac(points)
        fd = fd_jacobian(lambda x: family_phi(placed, x), points)
        assert np.all(np.abs(fd - exact) <= 1e-8 * np.maximum(1.0, np.abs(exact)))


def test_family_residual_evaluates_the_metric_once_per_point(monkeypatch):
    # the README family as the command line builds it: from-b kappa and the
    # kappa-reciprocal gauge of that same kappa; both conventions share one
    # evaluation of kappa on all 81 points, in one array call, and the gauge
    # takes kappa's value and gradient instead of evaluating kappa again;
    # analytic_gamma_max takes the exact Jacobian from one pass, with no field
    # and so no row check; family_phi takes kappa's values alone, and the gauge
    # takes its value from them
    b = tuple(quadratic_b(0.25) for _ in range(4))
    kappa = kappa_from_b(b, 1.0)
    spec = H4FamilySpec(phi0=PHI0, mu=MU, b=b, metric=FinslerConfig(kappa, reciprocal_quartic_lambda(kappa, 1.0, 1.0)))
    counts = {}
    for name, field in (("kappa", spec.metric.kappa), ("lam", spec.metric.lam)):
        for attr in ("func", "value_and_grad", "formula"):
            def counted(*args, inner=getattr(field, attr), key=f"{name}.{attr}"):
                counts[key] = counts.get(key, 0) + 1
                return inner(*args)
            monkeypatch.setattr(field, attr, counted)
    for check, expected in ((family_residual, {"kappa.formula": 1}), (analytic_gamma_max, {"kappa.formula": 1}),
                            (family_phi, {"kappa.func": 1})):
        counts.clear()
        check(spec, GRID)
        assert counts == expected


@pytest.mark.parametrize("gauge", ["constant", "kappa-reciprocal"])
@pytest.mark.parametrize("kind", ["constant", "gaussian", "cross-term", "from-b"])
def test_family_phi_of_builtin_kinds_is_the_phi_of_the_family_terms(kind, gauge):
    """family_phi, from kappa's values alone, is bitwise the phi that _family_terms builds from
    kappa's value and gradient, for every built-in kind and both gauges."""
    b = (quadratic_b(0.3), gaussian_b(0.6), quadratic_b(-0.2), gaussian_b(-0.4))
    kappa = {"constant": constant_kappa(1.3), "gaussian": gaussian_kappa(1.1, 0.9),
             "cross-term": cross_term_kappa(1.1, 0.7, (1, 3)), "from-b": kappa_from_b(b, 1.1)}[kind]
    lam = constant_lambda(2.5) if gauge == "constant" else reciprocal_quartic_lambda(kappa, 1.1, 2.0)
    spec = H4FamilySpec(phi0=PHI0, mu=MU, b=b, metric=FinslerConfig(kappa, lam, 1.1, 2.0))
    for points in (GRID, GRID[5]):
        assert np.array_equal(family_phi(spec, points), _family_terms(spec, points)[0])


def one_kappa_specs():
    b = (quadratic_b(0.3), gaussian_b(0.6), quadratic_b(-0.2), gaussian_b(-0.4))
    for kind in ("constant", "gaussian", "cross-term", "from-b"):
        for gauge in ("constant", "kappa-reciprocal"):
            kappa = {"constant": constant_kappa(1.3), "gaussian": gaussian_kappa(1.1, 0.9),
                     "cross-term": cross_term_kappa(1.1, 0.7, (1, 3)), "from-b": kappa_from_b(b, 1.1)}[kind]
            lam = constant_lambda(2.5) if gauge == "constant" else reciprocal_quartic_lambda(kappa, 1.1, 2.0)
            yield pytest.param(H4FamilySpec(phi0=PHI0, mu=MU, b=b, metric=FinslerConfig(kappa, lam, 1.1, 2.0)),
                               id=f"{kind}-{gauge}")
    yield pytest.param(reduced_spec(), id="reduced")


@pytest.mark.parametrize("spec", list(one_kappa_specs()))
def test_family_grid_checks_evaluate_the_metric_kappa_once(spec, monkeypatch):
    """The spec's metric holds the one kappa: each grid check calls its formula once on the whole
    grid, and a gauge of it takes kappa's value and gradient instead of evaluating kappa again."""
    calls = []
    monkeypatch.setattr(spec.metric.kappa, "formula",
                        lambda m, x, inner=spec.metric.kappa.formula: calls.append(x) or inner(m, x))
    for check in (_family_terms, family_residual, analytic_gamma_max):
        calls.clear()
        check(spec, GRID)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the array path against the per-point loops it replaced
# ---------------------------------------------------------------------------

def per_point_gamma_max(spec, points):
    bare = GAPair(family_field(spec), zero_gamma(4), builtin_algebra("h4-psi"))
    return grid_max(float(np.max(np.abs(cr_residual(bare, xi)))) for xi in points)


def assert_within_ulps(a, b, ulps):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.all(np.abs(a - b) <= ulps * np.spacing(np.maximum(np.abs(a), np.abs(b))))


_B_KINDS = {"constant": lambda c: constant_b(1.0 + abs(c)), "quadratic": quadratic_b,
            "gaussian": gaussian_b}
coefficient = st.floats(-0.5, 0.5)


@st.composite
def family_specs(draw):
    """A family over every b, kappa and lambda kind and both conventions, on a
    few points of [-0.6, 0.6]^4, where no quadratic b with |c| <= 0.5 vanishes."""
    b = tuple(_B_KINDS[draw(st.sampled_from(sorted(_B_KINDS)))](draw(coefficient)) for _ in range(4))
    kappa0, lambda0 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    kind = draw(st.sampled_from(["constant", "gaussian", "cross-term", "from-b"]))
    c = draw(coefficient)
    axes = draw(st.sampled_from([(0, 1), (1, 3), (2, 0)])) if kind == "cross-term" else None
    kappa = {"constant": lambda: constant_kappa(kappa0 * (1.0 + c)),
             "gaussian": lambda: gaussian_kappa(kappa0, c),
             "cross-term": lambda: cross_term_kappa(kappa0, c, axes),
             "from-b": lambda: kappa_from_b(b, kappa0)}[kind]()
    lam = draw(st.sampled_from([constant_lambda(lambda0 * 1.5),
                                reciprocal_quartic_lambda(kappa, kappa0, lambda0)]))
    vec = st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)
    spec = H4FamilySpec(phi0=np.array(draw(vec)) + 1.0, mu=draw(vec), b=b,
                        metric=FinslerConfig(kappa, lam, kappa0, lambda0),
                        convention=draw(st.sampled_from(CONVENTIONS)))
    points = np.array(draw(st.lists(st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4),
                                    min_size=1, max_size=6)))
    mixed = np.zeros((4, 4))  # the exact mixed second derivatives of 4 ln kappa
    if axes:
        mixed[axes] = mixed[axes[::-1]] = c
    return spec, points, mixed


@settings(max_examples=60, deadline=None)
@given(case=family_specs())
def test_family_residual_array_path_matches_per_point_loop(case):
    spec, points, _ = case
    report = family_residual(spec, points)
    reference = reference_residuals(spec, points)
    for conv in CONVENTIONS:
        assert_within_ulps(report.residuals[conv], reference[conv], 4)
    assert_fd_matches_exact_jacobian(spec, points)


@settings(max_examples=60, deadline=None)
@given(case=family_specs())
def test_compatibility_and_gamma_max_array_paths_match_per_point_loops(case):
    spec, points, mixed = case
    batched = compatibility_residual(spec.metric.kappa, points)
    assert batched.shape == points.shape + (4,)
    assert np.array_equal(batched, np.swapaxes(batched, -1, -2))
    assert np.max(np.abs(batched - mixed)) <= 1e-10
    for xi, got in zip(points, batched):
        assert np.array_equal(got, compatibility_residual(spec.metric.kappa, xi))
    assert_within_ulps(analytic_gamma_max(spec, points), per_point_gamma_max(spec, points), 4)


@settings(max_examples=40, deadline=None)
@given(case=family_specs())
def test_analytic_gamma_max_is_the_bare_pair_residual_bitwise(case):
    """One _family_terms pass gives bitwise the largest CR residual of the pair {phi, 0}."""
    spec, points, _ = case
    bare = GAPair(family_field(spec), zero_gamma(4), builtin_algebra("h4-psi"))
    for xi in (points, points[0]):
        assert np.array_equal(analytic_gamma_max(spec, xi), grid_max(np.abs(cr_residual(bare, xi))), equal_nan=True)


def test_grid_checks_make_a_fixed_number_of_array_calls():
    # the three grid checks evaluate kappa on the whole (m, 4) array at once:
    # as many formula calls for 81 points as for 3, and one for the compatibility probes
    shapes = []
    b = tuple(quadratic_b(0.25) for _ in range(4))
    inner = kappa_from_b(b, 1.0).formula
    kappa = ScalarField(lambda m, x: shapes.append(np.shape(x)) or inner(m, x))
    spec = H4FamilySpec(phi0=PHI0, mu=MU, b=b, metric=FinslerConfig(kappa, reciprocal_quartic_lambda(kappa, 1.0, 1.0)))
    seen = []
    for points in (GRID[:3], GRID):
        shapes.clear()
        family_residual(spec, points)
        analytic_gamma_max(spec, points)
        seen.append(len(shapes))
        shapes.clear()
        compatibility_residual(spec.metric.kappa, points)
        assert shapes == [(4, len(points), 8)]  # one call on every probe of every point
    assert seen == [2, 2]
