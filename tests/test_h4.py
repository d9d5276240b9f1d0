"""Quartic metric, indicatrix, momenta and connection matrices of H4."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyan import ConeError, ContractError
from polyan.algebra import H4_E_TO_PSI_MATRIX, builtin_algebra, h4_basis_change
from polyan.h4 import (
    FinslerConfig,
    ScalarField,
    _ARRAYS,
    _dot,
    compatibility_residual,
    constant_b,
    constant_kappa,
    constant_lambda,
    cross_term_kappa,
    finsler_length,
    gamma_matrices,
    gaussian_b,
    gaussian_kappa,
    indicatrix,
    kappa_from_b,
    momenta,
    quadratic_b,
    reciprocal_quartic_lambda,
)

XI = np.array([0.1, 0.2, -0.1, 0.3])
UNIT_METRIC = FinslerConfig(kappa=constant_kappa(1.0), lam=constant_lambda(1.0))

positive = st.floats(0.1, 4.0, allow_nan=False)


def test_h4_constants_invariants():
    s = H4_E_TO_PSI_MATRIX
    assert np.array_equal(s @ s, 4 * np.eye(4))
    # componentwise table: one exactly where all three indices coincide
    psi = builtin_algebra("h4-psi")
    for k in range(4):
        for i in range(4):
            for j in range(4):
                expected = 1 if i == j == k else 0
                assert psi.p[k, i, j] == expected
    assert builtin_algebra("h4-e").unit_index == 0


# ---------------------------------------------------------------------------
# length element
# ---------------------------------------------------------------------------

def test_unit_displacement_has_unit_length():
    assert finsler_length(np.ones(4), XI, UNIT_METRIC) == pytest.approx(1.0)


def test_length_is_quartic_mean():
    assert finsler_length([16.0, 1.0, 1.0, 1.0], XI, UNIT_METRIC) == pytest.approx(2.0)


def test_negative_displacement_leaves_cone():
    with pytest.raises(ConeError):
        finsler_length([1.0, -1.0, 1.0, 1.0], XI, UNIT_METRIC)


@settings(max_examples=30, deadline=None)
@given(d=st.lists(positive, min_size=4, max_size=4), c=st.floats(0.1, 10.0))
def test_length_is_one_homogeneous(d, c):
    d = np.array(d)
    assert finsler_length(c * d, XI, UNIT_METRIC) == pytest.approx(
        c * finsler_length(d, XI, UNIT_METRIC), rel=1e-12
    )


# ---------------------------------------------------------------------------
# indicatrix and momenta
# ---------------------------------------------------------------------------

def test_momenta_of_unit_displacement():
    p = momenta(np.ones(4), XI, UNIT_METRIC)
    assert np.allclose(p, 0.25)
    assert indicatrix(p, XI, UNIT_METRIC) == pytest.approx(0.0, abs=1e-15)


def test_indicatrix_direct_value():
    metric = FinslerConfig(kappa=constant_kappa(4.0), lam=constant_lambda(1.0))
    assert indicatrix(np.ones(4), XI, metric) == pytest.approx(0.0)


def test_indicatrix_rejects_cone_exit():
    with pytest.raises(ConeError):
        indicatrix([1.0, 0.0, 1.0, 1.0], XI, UNIT_METRIC)
    with pytest.raises(ConeError):
        momenta([1.0, 0.0, 1.0, 1.0], XI, UNIT_METRIC)


@settings(max_examples=30, deadline=None)
@given(d=st.lists(positive, min_size=4, max_size=4), c=st.floats(0.1, 10.0))
def test_momenta_scale_invariant_and_on_shell(d, c):
    d = np.array(d)
    metric = FinslerConfig(kappa=gaussian_kappa(1.0), lam=constant_lambda(1.0))
    p = momenta(d, XI, metric)
    assert np.allclose(momenta(c * d, XI, metric), p, rtol=1e-12)
    scale = (metric.kappa(XI) / 4.0) ** 4
    assert abs(indicatrix(p, XI, metric)) / scale < 1e-12


# ---------------------------------------------------------------------------
# connection matrices
# ---------------------------------------------------------------------------

def test_constant_fields_give_zero_connection():
    metric = FinslerConfig(kappa=constant_kappa(2.0), lam=constant_lambda(0.5))
    assert np.array_equal(gamma_matrices(XI, metric), np.zeros((4, 4, 4)))


def test_gaussian_connection_oracle_entry():
    metric = FinslerConfig(kappa=gaussian_kappa(1.0), lam=constant_lambda(1.0))
    xi = np.array([0.0, 1.0, 0.0, 0.0])
    g_printed = gamma_matrices(xi, metric, orientation="as-printed")
    assert g_printed[0, 0, 1] == pytest.approx(-2.0)
    assert g_printed[0, 0, 0] == 0.0  # constant gauge kills the diagonal slot


def test_orientations_are_transposes():
    metric = FinslerConfig(kappa=gaussian_kappa(1.0), lam=constant_lambda(1.0))
    g1 = gamma_matrices(XI, metric, orientation="as-printed")
    g2 = gamma_matrices(XI, metric, orientation="transposed")
    assert np.array_equal(g2, g1.transpose(0, 2, 1))


def test_unknown_orientation_rejected():
    with pytest.raises(ContractError):
        gamma_matrices(XI, UNIT_METRIC, orientation="sideways")


def test_gauge_enters_only_diagonal_slots():
    kappa = constant_kappa(1.0)
    lam = reciprocal_quartic_lambda(gaussian_kappa(1.0), 1.0, 1.0)
    metric = FinslerConfig(kappa=kappa, lam=lam)
    g = gamma_matrices(XI, metric, orientation="as-printed")
    dln_lam = lam.gradient(XI) / lam(XI)
    for i in range(4):
        assert g[i, i, i] == pytest.approx(-dln_lam[i], rel=1e-12)


# ---------------------------------------------------------------------------
# separable profiles and compatibility
# ---------------------------------------------------------------------------

def test_family_kappa_constant_profiles():
    # the family's separable scale kappa0 * prod |b_i|^(1/4) with b_i = 1
    assert kappa_from_b([constant_b(1.0)] * 4, 2.5)(XI) == pytest.approx(2.5)


def test_family_kappa_quadratic_profiles_match_gaussian():
    # b_i = exp(t^2) gives exp(sum xi_m^2 / 4), the radial Gaussian profile
    kappa = kappa_from_b([gaussian_b(1.0)] * 4, 1.0)
    gauss = gaussian_kappa(1.0)
    for point in (XI, np.array([0.4, -0.2, 0.3, 0.1])):
        assert kappa(point) == pytest.approx(gauss(point), rel=1e-14)


def test_kappa_from_b_gradient_is_analytic():
    kappa = kappa_from_b(tuple(quadratic_b(0.25) for _ in range(4)), 1.0)
    num = np.zeros(4)
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        num[k] = (kappa(XI + e) - kappa(XI - e)) / (2 * h)
    assert np.max(np.abs(kappa.gradient(XI) - num)) < 1e-8


def sine_formula(m, x):
    """kappa = exp(sin(x1 x2) / 4) written as a formula, as the built-in kinds are: the mixed
    derivative of 4 log kappa is cos s - s sin s (s = x1 x2)."""
    s = x[0] * x[1]
    v = m.exp(np.sin(s) / 4.0)
    d = v * np.cos(s) / 4.0
    return v, [d * x[1], d * x[0], m.full(x[2], 0.0), m.full(x[3], 0.0)]


STACK = np.stack([XI, -XI, 2 * XI])


@pytest.mark.parametrize("formula, points, message", [
    (lambda m, x: (np.ones(2), [x[0]] * 4), XI, "a value of shape (2,) and a gradient of shape (4,) on points"),
    (lambda m, x: (x[0], [x[0]] * 3), XI, "a value of shape () and a gradient of shape (3,) on points"),
    (lambda m, x: (x[:2], np.asarray(x)), STACK, "a value of shape (2, 3) and a gradient of shape (3, 4)"),
    (lambda m, x: (x[0], np.asarray(x)[:2]), STACK, "a value of shape (3,) and a gradient of shape (3, 2)"),
], ids=["value-on-a-point", "gradient-on-a-point", "value-on-a-stack", "gradient-on-a-stack"])
def test_a_formula_of_the_wrong_shape_raises_contract_error(formula, points, message):
    """A formula's value has the points' leading shape and its gradient n components, else
    value_and_grad and func raise ContractError."""
    field = ScalarField(formula)
    for call in (field.value_and_grad, field.func):
        with pytest.raises(ContractError, match=re.escape(message)):
            call(points)


@pytest.mark.parametrize("gradient", [lambda x: np.asarray(x) / 2.0, lambda x: [t / 2.0 for t in x]],
                         ids=["array", "list"])
def test_a_gradient_array_has_its_direction_last(gradient):
    """A formula gives its gradient as one array (n, ...) or a list of n components; on four points
    of four coordinates, where the shape alone cannot tell, each row is still the point's gradient."""
    field = ScalarField(lambda m, x: (1.0 + _dot(x, x) / 4.0, gradient(x)))
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 4))
    values, grads = field.value_and_grad(points)
    assert np.array_equal(grads, points / 2.0)
    assert np.array_equal(values, [field(x) for x in points])


def test_value_and_gradient_agrees_with_separate_calls(rng):
    kappa = gaussian_kappa(1.1, 0.9)
    gauge = reciprocal_quartic_lambda(kappa, 1.1, 2.0)
    fields = [constant_kappa(1.3), kappa, cross_term_kappa(1.1, 0.7, (1, 3)),
              kappa_from_b((quadratic_b(0.3), gaussian_b(0.6), quadratic_b(-0.2), gaussian_b(-0.4)), 1.1),
              constant_lambda(2.0), gauge, ScalarField(sine_formula)]
    for x in rng.uniform(-0.6, 0.6, (5, 4)):
        for field in fields:
            value, grad = field.value_and_grad(x)
            assert value == field(x) and np.array_equal(grad, field.gradient(x))
        # the reciprocal gauge's gradient as written with separate kappa calls
        kv = kappa(x)
        assert np.array_equal(gauge.gradient(x), -4.0 * (2.0 * (1.1 / kv) ** 4) * kappa.gradient(x) / kv)
    zero = constant_lambda(2.0).gradient(XI)
    assert not zero.any() and not zero.flags.writeable


def test_compatibility_residual_zero_for_separable():
    assert np.max(np.abs(compatibility_residual(constant_kappa(3.0), XI))) < 1e-12
    assert np.max(np.abs(compatibility_residual(gaussian_kappa(1.0), XI))) < 1e-11
    sep = kappa_from_b(tuple(quadratic_b(0.3) for _ in range(4)), 1.0)
    assert np.max(np.abs(compatibility_residual(sep, XI))) < 1e-11


def test_compatibility_residual_detects_cross_term():
    kappa = cross_term_kappa(1.0, 1.0, (0, 1))
    r = compatibility_residual(kappa, XI)
    assert r[0, 1] == pytest.approx(1.0, abs=1e-10)
    assert r[1, 0] == pytest.approx(1.0, abs=1e-10)
    assert abs(r[2, 3]) < 1e-11


def test_compatibility_step_resolves_a_curved_mixed_derivative():
    """kappa = exp(sin(x1 x2) / 4) has the mixed derivative cos s - s sin s (s = x1 x2) of
    4 log kappa; the check's base step eps^(1/4) gets within 1e-8 of it on [-1, 1]^4, where
    a step of 1e-3 errs by about 2e-7."""
    xi = np.random.default_rng(5).uniform(-1.0, 1.0, (50, 4))
    s = xi[:, 0] * xi[:, 1]
    r = compatibility_residual(ScalarField(sine_formula), xi)
    assert np.max(np.abs(r[:, 0, 1] - (np.cos(s) - s * np.sin(s)))) <= 1e-8


@pytest.mark.parametrize("axes", [(0, 0), (4, 5), (-1, 2), (1, 4)])
def test_cross_term_kappa_rejects_bad_axes(axes):
    with pytest.raises(ContractError):
        cross_term_kappa(1.0, 1.0, axes)


def test_gaussian_kappa_keeps_a_complex_step():
    # d kappa / d x0 = kappa c x0 / 2; a dot product that conjugates its first
    # argument, as np.vecdot does, would give an imaginary part of 0
    kappa = gaussian_kappa(1.0, 0.8)
    value = kappa.func(np.array([0.1 + 1e-20j, 0.2, 0.3, 0.4]))
    real = kappa([0.1, 0.2, 0.3, 0.4])
    assert value.real == real
    assert value.imag == pytest.approx(real * 0.4 * 0.1 * 1e-20, rel=4 * np.finfo(float).eps)


def test_gaussian_profile_consistent_across_bases(rng):
    # the radial profile in psi-coordinates equals the unscaled radial
    # profile in e-coordinates under the involutive change
    kappa_psi = gaussian_kappa(1.0)
    s = h4_basis_change().s
    for _ in range(10):
        x = rng.uniform(-0.7, 0.7, 4)
        xi = s @ x
        expected = np.exp(np.dot(x, x))
        assert kappa_psi(xi) == pytest.approx(expected, rel=1e-12)


def test_finsler_config_reference_scale():
    metric = FinslerConfig(kappa=constant_kappa(1.0), lam=constant_lambda(2.0), kappa0=2.0, lambda0=2.0)
    assert (metric.kappa0, metric.lambda0) == (2.0, 2.0)
    with pytest.raises(ContractError):
        FinslerConfig(kappa=constant_kappa(1.0), lam=constant_lambda(1.0), kappa0=-1.0)


# ---------------------------------------------------------------------------
# profile kinds on (m, 4) points
# ---------------------------------------------------------------------------

def _kinds():
    gauss = gaussian_kappa(1.1, 0.9)
    from_b = kappa_from_b((quadratic_b(0.3), gaussian_b(0.6), constant_b(1.4), gaussian_b(-0.4)), 1.1)
    return {"constant kappa": constant_kappa(1.3), "gaussian kappa": gauss,
            "cross-term kappa": cross_term_kappa(1.1, 0.7, (1, 3)), "from-b kappa": from_b,
            "constant gauge": constant_lambda(2.0),
            "kappa-reciprocal gauge": reciprocal_quartic_lambda(from_b, 1.1, 2.0),
            "sine formula": ScalarField(sine_formula)}


@pytest.mark.parametrize("name", sorted(_kinds()))
def test_kind_on_points_equals_stacked_point_calls(name, rng):
    field = _kinds()[name]
    points = rng.uniform(-0.8, 0.8, (3, 5, 4))
    values, grads = field.value_and_grad(points)
    assert values.shape == (3, 5) and grads.shape == (3, 5, 4)
    assert np.array_equal(field.func(points), values)
    flat = points.reshape(-1, 4)
    assert np.array_equal(values.ravel(), [field(x) for x in flat])
    assert np.array_equal(grads.reshape(-1, 4), [field.gradient(x) for x in flat])
    assert all(type(field(x)) is np.float64 for x in flat[:3])


@pytest.mark.parametrize("b", [constant_b(1.4), quadratic_b(-0.3), gaussian_b(0.6)], ids=("b0", "b1", "b2"))
def test_profile_functions_are_elementwise(b, rng):
    # one value per point, and a derivative that a central difference of the value agrees with
    t, h = rng.uniform(-0.8, 0.8, (4, 6)), 1e-6
    values, derivatives = b(_ARRAYS, t)
    assert np.array_equal(values, [[b(_ARRAYS, s)[0] for s in row] for row in t])
    assert np.array_equal(derivatives, [[b(_ARRAYS, s)[1] for s in row] for row in t])
    assert np.max(np.abs(derivatives - (b(_ARRAYS, t + h)[0] - b(_ARRAYS, t - h)[0]) / (2.0 * h))) < 1e-8


# the gaussian, cross-term and from-b kappa as written with math.exp and
# math.log before the kinds took arrays: a value and the gradient from it
def _math_gaussian(k0, c):
    def value(x):
        return k0 * math.exp(c * float(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]) / 4.0)
    return value, lambda x, v: v * c * x / 2.0


def _math_cross_term(k0, c, a, b):
    def gradient(x, v):
        g = np.zeros_like(x)
        g[a] = v * c * x[b] / 4.0
        g[b] = v * c * x[a] / 4.0
        return g
    return lambda x: k0 * math.exp(c * x[a] * x[b] / 4.0), gradient


def _math_from_b(bs, k0):
    def value(x):
        acc = 0.0
        for i, b in enumerate(bs):
            acc += math.log(abs(float(b(_ARRAYS, x[i])[0])))
        return k0 * math.exp(acc / 4.0)

    def gradient(x, v):
        return v * np.array([float(d / w) for w, d in (b(_ARRAYS, x[i]) for i, b in enumerate(bs))]) / 4.0
    return value, gradient


def test_numpy_kinds_agree_with_math_references(rng):
    # numpy's exp and log may differ from math's in the last bit, so the
    # values agree to 2 ulp; the gradient is the reference's formula applied
    # to the numpy value, bit for bit
    bs = (quadratic_b(0.3), gaussian_b(0.6), constant_b(1.4), gaussian_b(-0.4))
    pairs = [(gaussian_kappa(1.1, 0.9), _math_gaussian(1.1, 0.9)),
             (cross_term_kappa(1.1, 0.7, (1, 3)), _math_cross_term(1.1, 0.7, 1, 3)),
             (kappa_from_b(bs, 1.1), _math_from_b(bs, 1.1))]
    points = rng.uniform(-1.5, 1.5, (400, 4))
    for field, (value, gradient) in pairs:
        values, grads = field.value_and_grad(points)
        expected = np.array([value(x) for x in points])
        assert np.all(np.abs(values - expected) <= 2 * np.spacing(np.maximum(values, expected)))
        assert np.array_equal(grads, [gradient(x, v) for x, v in zip(points, values)])
