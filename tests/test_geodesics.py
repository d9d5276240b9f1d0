"""Geodesic and extremal integration with constraint monitoring."""

import csv
import io
import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from polyan import ConeError, ContractError, DomainError, IntegrationError, builtin_algebra, builtin_names
from polyan.algebra import _MAX_DIMENSION, algebra_from_dict
from polyan.fields import (
    DiffConfig,
    chain_conditions,
    connection_residual,
    gamma_from_prescribed,
    random_smooth_field,
)
from polyan.geodesics import (
    ConnectionField,
    ExtremalState,
    ExtremalTrajectory,
    GeodesicState,
    GeodesicTrajectory,
    IntegratorConfig,
    _MAX_TERMS,
    _extremal,
    _rk4,
    connection_from_structure,
    cross_check_forms,
    extremal_velocity,
    finsler_connection,
    geodesic_rhs,
    integrate_extremal,
    integrate_geodesic,
    write_extremal_csv,
    write_geodesic_csv,
    zero_connection,
)
from polyan.h4 import (
    FinslerConfig,
    ScalarField,
    _compiled,
    _log_gradients,
    _raise_if,
    constant_b,
    constant_kappa,
    constant_lambda,
    cross_term_kappa,
    gamma_matrices,
    gaussian_b,
    gaussian_kappa,
    kappa_from_b,
    momenta,
    quadratic_b,
    reciprocal_quartic_lambda,
)

XI0 = np.array([0.05, 0.1, 0.15, 0.2])
DXI0 = np.array([1.0, 1.2, 0.8, 1.1])


def gaussian_metric(lambda0=16.0):
    return FinslerConfig(kappa=gaussian_kappa(1.0), lam=constant_lambda(lambda0), lambda0=lambda0)


def gaussian_start(metric):
    return ExtremalState(XI0, momenta(DXI0, XI0, metric))


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_zero_connection_rhs_vanishes():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(geodesic_rhs(zero_connection(4), np.zeros(4), v), np.zeros(4))


@pytest.mark.parametrize("n", (1, 4, 64))
def test_zero_connection_rates_are_the_contraction_bitwise(n):
    """The zero connection's own rates are (v, -0.0): -einsum of zeros, whatever the signs of v's zeros."""
    conn, rng = zero_connection(n), np.random.default_rng(n)
    for v in (np.zeros(n), -np.zeros(n), rng.choice([0.0, -0.0, 1.5, -2.5], n), rng.normal(size=n)):
        x = rng.normal(size=n)
        expected = np.concatenate([v, geodesic_rhs(conn, x, v)])
        assert np.signbit(expected[n:]).all()
        assert np.array_equal(np.array(conn.rates(x.tolist() + v.tolist())).view(np.int64), expected.view(np.int64))
    s0, cfg = GeodesicState(rng.normal(size=n), rng.normal(size=n)), IntegratorConfig(steps=20)
    own, contracted = (integrate_geodesic(c, s0, cfg) for c in (conn, ConnectionField(n, conn.func)))
    for key in ("x", "v"):
        assert np.array_equal(getattr(own, key).view(np.int64), getattr(contracted, key).view(np.int64))


def test_gaussian_connection_rhs_oracle():
    # frozen by expanding the connection at xi = (0, 1, 0, 0): the only
    # contributing slot is the mixed first-second one with value 2
    conn = finsler_connection(gaussian_metric(1.0))
    xi = np.array([0.0, 1.0, 0.0, 0.0])
    a_pure = geodesic_rhs(conn, xi, np.array([1.0, 0, 0, 0]))
    a_mixed = geodesic_rhs(conn, xi, np.array([1.0, 1.0, 0, 0]))
    assert np.allclose(a_pure, np.zeros(4), atol=1e-13)
    assert np.allclose(a_mixed, [2.0, 0.0, 0.0, 0.0], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-3.0, 3.0, allow_nan=False))
def test_rhs_is_quadratic_in_velocity(c):
    conn = finsler_connection(gaussian_metric(1.0))
    assert np.allclose(geodesic_rhs(conn, XI0, c * DXI0), c * c * geodesic_rhs(conn, XI0, DXI0), atol=1e-9)


# ---------------------------------------------------------------------------
# geodesic integration
# ---------------------------------------------------------------------------

def test_zero_connection_geodesics_are_straight():
    v0 = np.array([1.0, 2.0, 3.0, 4.0])
    traj = integrate_geodesic(
        zero_connection(4), GeodesicState(np.zeros(4), v0), IntegratorConfig(steps=200, t_end=1.0)
    )
    assert len(traj) == 201
    assert np.max(np.abs(traj.x - np.outer(traj.sigma, v0))) < 1e-12
    assert np.max(np.abs(traj.v - v0[None, :])) < 1e-12


def test_constant_metric_connection_is_zero_and_straight():
    metric = FinslerConfig(kappa=constant_kappa(2.0), lam=constant_lambda(3.0))
    conn = finsler_connection(metric)
    assert np.array_equal(conn(XI0), np.zeros((4, 4, 4)))
    traj = integrate_geodesic(
        conn, GeodesicState(XI0, DXI0), IntegratorConfig(steps=100, t_end=1.0)
    )
    assert np.max(np.abs(traj.x - (XI0[None, :] + np.outer(traj.sigma, DXI0)))) < 1e-12


def test_step_halving_reduces_error_sixteenfold():
    metric = gaussian_metric()
    conn = finsler_connection(metric)
    v0 = extremal_velocity(metric, gaussian_start(metric))
    s0 = GeodesicState(XI0, v0)
    ref = integrate_geodesic(conn, s0, IntegratorConfig(steps=640, t_end=1.0))
    err = []
    for steps in (16, 32):
        traj = integrate_geodesic(conn, s0, IntegratorConfig(steps=steps, t_end=1.0))
        err.append(np.max(np.abs(traj.x[-1] - ref.x[-1])))
    assert 12.0 < err[0] / err[1] < 20.0


def test_rk4_measured_order_in_window():
    metric = gaussian_metric()
    conn = finsler_connection(metric)
    v0 = extremal_velocity(metric, gaussian_start(metric))
    s0 = GeodesicState(XI0, v0)
    ref = integrate_geodesic(conn, s0, IntegratorConfig(steps=1280, t_end=1.0))
    errors = []
    for steps in (16, 32, 64):
        traj = integrate_geodesic(conn, s0, IntegratorConfig(steps=steps, t_end=1.0))
        errors.append(np.max(np.abs(traj.x[-1] - ref.x[-1])))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.7 <= order <= 4.3


def test_forward_backward_returns_to_start():
    metric = gaussian_metric()
    conn = finsler_connection(metric)
    v0 = extremal_velocity(metric, gaussian_start(metric))
    cfg = IntegratorConfig(steps=2000, t_end=1.0)
    fwd = integrate_geodesic(conn, GeodesicState(XI0, v0), cfg)
    back = integrate_geodesic(conn, GeodesicState(fwd.x[-1], -fwd.v[-1]), cfg)
    assert np.max(np.abs(back.x[-1] - XI0)) < 1e-8
    assert np.max(np.abs(back.v[-1] + v0)) < 1e-8


def test_blowup_aborts_with_diagnostic():
    g = np.zeros((4, 4, 4))
    for i in range(4):
        g[i, i, i] = -1.0  # acceleration v_i^2 blows up in finite time
    conn = ConnectionField(4, lambda x: g)
    with pytest.raises(IntegrationError):
        integrate_geodesic(
            conn,
            GeodesicState(np.zeros(4), 5.0 * np.ones(4)),
            IntegratorConfig(steps=50, t_end=1.0),
        )


def test_one_point_connection_on_a_stack_names_its_lift():
    """A connection written for one point that fails inside numpy on a stack raises
    ContractError naming the np.vectorize lift; the connection's own errors pass unchanged."""
    h4_e = builtin_algebra("h4-e")
    x = np.array([0.1, 0.2, 0.3, 0.4])

    def one_point(y):
        return h4_e.p * (1 + y @ np.ones(4))

    with pytest.raises(ContractError, match=r'lift a one-point connection with np\.vectorize\(G, '
                                            r'signature="\(n\)->\(n,n,n\)"\)') as info:
        chain_conditions(ConnectionField(4, one_point), h4_e, x)
    assert isinstance(info.value.__cause__, ValueError)
    lifted = ConnectionField(4, np.vectorize(one_point, signature="(n)->(n,n,n)"))
    assert np.array_equal(lifted(x), one_point(x))
    assert all(np.all(np.isfinite(r)) for r in chain_conditions(lifted, h4_e, x))
    with pytest.raises(ValueError) as info:  # on one point there is nothing to lift
        ConnectionField(4, lambda y: y[:3] + y)(x)
    assert not isinstance(info.value, ContractError)

    def outside(y):
        raise DomainError("outside the connection's domain")

    with pytest.raises(DomainError, match="outside the connection's domain"):
        ConnectionField(4, outside)(np.zeros((3, 4)))


def test_one_point_connection_of_the_right_shape_fails_on_a_stack(h4_e):
    """x[:, None, None] * p scales G[i] by x_i at a point, but a stack's G[r, i, k, j] by x[r, j],
    with the right shape (m, 4, 4, 4); rows 0 and 1 alone show it."""
    def one_point(x):
        return x[:, None, None] * h4_e.p

    with pytest.raises(ContractError, match=r'lift a one-point connection with np\.vectorize\(G, '
                                            r'signature="\(n\)->\(n,n,n\)"\)'):
        ConnectionField(4, one_point)(np.stack([XI0, 2 * XI0]))
    with pytest.raises(ContractError, match="rows 0 and 1 alone"):
        chain_conditions(ConnectionField(4, one_point), h4_e, XI0)


def test_state_validation():
    with pytest.raises(ContractError):
        GeodesicState(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractError):
        GeodesicState(np.array([np.nan, 0, 0, 0]), np.zeros(4))
    with pytest.raises(ContractError):
        IntegratorConfig(steps=0)


@pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan])
def test_a_non_finite_t_end_is_a_contract_error(t_end):
    # before any step: inf or nan would make every step size non-finite
    with pytest.raises(ContractError, match="t_end"):
        IntegratorConfig(steps=2, t_end=t_end)


# ---------------------------------------------------------------------------
# extremal integration
# ---------------------------------------------------------------------------

def test_constant_kappa_momenta_constant_positions_linear():
    metric = FinslerConfig(kappa=constant_kappa(1.0), lam=constant_lambda(1.0))
    e0 = ExtremalState(np.zeros(4), momenta(np.ones(4), np.zeros(4), metric))
    traj = integrate_extremal(metric, e0, IntegratorConfig(steps=100, t_end=1.0))
    assert np.max(np.abs(traj.p - traj.p[0][None, :])) < 1e-14
    v = np.prod(traj.p[0]) / traj.p[0]
    assert np.max(np.abs(traj.xi - np.outer(traj.tau, v))) < 1e-12
    assert traj.max_drift < 1e-14


def test_momenta_start_on_indicatrix(rng):
    metric = gaussian_metric()
    for _ in range(25):
        xi = rng.uniform(-0.5, 0.5, 4)
        dxi = rng.uniform(0.2, 2.0, 4)
        p = momenta(dxi, xi, metric)
        residual = np.prod(p) - (metric.kappa(xi) / 4.0) ** 4
        assert abs(residual) / (metric.kappa(xi) / 4.0) ** 4 < 1e-12


def test_gaussian_drift_stays_small():
    metric = gaussian_metric()
    traj = integrate_extremal(metric, gaussian_start(metric), IntegratorConfig(steps=10000, t_end=1.0))
    assert traj.max_drift < 1e-6


def test_cone_violation_at_start_raises():
    metric = gaussian_metric()
    with pytest.raises(ConeError):
        integrate_extremal(
            metric,
            ExtremalState(XI0, np.array([0.25, -0.25, 0.25, 0.25])),
            IntegratorConfig(steps=10),
        )


def test_constraint_violation_at_start_raises():
    metric = gaussian_metric()
    with pytest.raises(ContractError):
        integrate_extremal(
            metric, ExtremalState(XI0, np.ones(4)), IntegratorConfig(steps=10, drift_tol=1e-6)
        )


def test_cone_exit_mid_run_raises():
    # the exact flow keeps the momentum product positive, so an exit can only
    # come from overshoot; force one with a contracting profile and huge steps
    metric = FinslerConfig(kappa=gaussian_kappa(1.0, c=-1.0), lam=constant_lambda(64.0))
    e0 = ExtremalState(np.ones(4) * 0.5, momenta(np.ones(4), np.ones(4) * 0.5, metric))
    with pytest.raises(ConeError):
        integrate_extremal(metric, e0, IntegratorConfig(steps=8, t_end=40.0))


def test_a_momentum_driven_to_exactly_zero_leaves_the_cone():
    """The cone is open: RK4 with a constant rate -1 takes a momentum of 1 to exactly 0.0 in
    one unit step, and that aborts."""
    with pytest.raises(ConeError, match="step 1"):
        _rk4(lambda y: [0.0, -1.0], np.array([0.5, 1.0]), IntegratorConfig(steps=1, t_end=1.0),
             "extremal", "tau", cone=slice(1, None))


def test_extremal_fencepost():
    metric = gaussian_metric()
    traj = integrate_extremal(metric, gaussian_start(metric), IntegratorConfig(steps=77, t_end=0.5))
    assert len(traj) == 78


# ---------------------------------------------------------------------------
# cross-check of the two formulations
# ---------------------------------------------------------------------------

def test_constant_metric_forms_agree_exactly():
    metric = FinslerConfig(kappa=constant_kappa(1.0), lam=constant_lambda(1.0))
    e0 = ExtremalState(np.zeros(4), momenta(np.ones(4), np.zeros(4), metric))
    res = cross_check_forms(metric, e0, IntegratorConfig(steps=200, t_end=1.0))
    assert res.discrepancy < 1e-12


def test_gaussian_forms_agree_at_fine_resolution():
    metric = gaussian_metric()
    res = cross_check_forms(metric, gaussian_start(metric), IntegratorConfig(steps=10000, t_end=1.0))
    assert res.discrepancy < 1e-5


def test_cross_check_discrepancy_shrinks_at_rk4_order():
    metric = gaussian_metric()
    e0 = gaussian_start(metric)
    discs = []
    for steps in (16, 32, 64):
        res = cross_check_forms(metric, e0, IntegratorConfig(steps=steps, t_end=1.0))
        discs.append(res.discrepancy)
    orders = [math.log2(discs[i] / discs[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.5 <= order <= 4.5


# ---------------------------------------------------------------------------
# closed-form right-hand sides against the plain references
# ---------------------------------------------------------------------------

KAPPAS = {
    "constant": lambda: constant_kappa(1.3),
    "gaussian": lambda: gaussian_kappa(1.1, 0.9),
    "cross-term": lambda: cross_term_kappa(1.1, 0.7, (1, 3)),
    "from-b": lambda: kappa_from_b((quadratic_b(0.3), gaussian_b(0.6), quadratic_b(-0.2), gaussian_b(-0.4)), 1.1),
}
LAMBDAS = {
    "constant": lambda kappa: constant_lambda(12.0),
    "reciprocal": lambda kappa: reciprocal_quartic_lambda(kappa, 1.1, 2.0),
}


def make_metric(kappa_kind, lambda_kind):
    kappa = KAPPAS[kappa_kind]()
    return FinslerConfig(kappa=kappa, lam=LAMBDAS[lambda_kind](kappa), kappa0=1.1, lambda0=2.0)


def reference_extremal(metric, e0, cfg):
    """The momentum flow as written before the closed form: np.prod, separate
    kappa() and gradient() calls, np.concatenate, and the plain RK4 loop."""
    def rhs(y):
        xi, p = y[:4], y[4:]
        lv = metric.lam(xi)
        kv = metric.kappa(xi)
        dxi = np.prod(p) / p * lv
        dp = (kv / 4.0) ** 4 * (4.0 * metric.kappa.gradient(xi) / kv) * lv
        return np.concatenate([dxi, dp])

    h = cfg.t_end / cfg.steps
    ys = np.empty((cfg.steps + 1, 8))
    ys[0] = np.concatenate([e0.xi, e0.p])
    for m in range(cfg.steps):
        y = ys[m]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        ys[m + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    scale = np.array([(metric.kappa(y[:4]) / 4.0) ** 4 for y in ys])
    drift = (np.array([float(np.prod(y[4:])) for y in ys]) - scale) / scale
    return ys, drift


@pytest.mark.parametrize("lambda_kind", sorted(LAMBDAS))
@pytest.mark.parametrize("kappa_kind", ["gaussian", "cross-term", "from-b"])
def test_extremal_matches_reference_bitwise(kappa_kind, lambda_kind):
    metric = make_metric(kappa_kind, lambda_kind)
    e0 = ExtremalState(XI0, momenta(DXI0, XI0, metric))
    cfg = IntegratorConfig(steps=300, t_end=0.7)
    traj = integrate_extremal(metric, e0, cfg)
    ys, drift = reference_extremal(metric, e0, cfg)
    assert np.array_equal(traj.xi, ys[:, :4])
    assert np.array_equal(traj.p, ys[:, 4:])
    assert np.array_equal(traj.drift, drift)


def compiled_rhs(metric, form):
    """The one function an RK4 stage of the form calls, compiled once per metric."""
    return _compiled(_extremal, metric, y=8) if form == "extremal" else finsler_connection(metric).rates


@pytest.mark.parametrize("lambda_kind", sorted(LAMBDAS))
@pytest.mark.parametrize("form", ["extremal", "geodesic"])
def test_each_rk4_stage_evaluates_kappa_once(form, lambda_kind, monkeypatch):
    # kappa's formula runs once, when the form is compiled for the metric, and the compiled
    # stage calls exp once: a gauge of kappa takes kappa's value and gradient instead of
    # evaluating kappa again
    metric = make_metric("gaussian", lambda_kind)
    e0 = ExtremalState(XI0, momenta(DXI0, XI0, metric))
    v0 = extremal_velocity(metric, e0)
    calls = []
    formula = metric.kappa.formula
    monkeypatch.setattr(metric.kappa, "formula", lambda m, x: calls.append(x) or formula(m, x))
    cfg = IntegratorConfig(steps=25, t_end=0.1)
    for _ in range(2):
        if form == "extremal":
            integrate_extremal(metric, e0, cfg)
        else:
            integrate_geodesic(finsler_connection(metric), GeodesicState(XI0, v0), cfg)
    assert len(calls) == 1
    assert len(re.findall(r"\bexp\(", compiled_rhs(metric, form).__doc__)) == 1


GAUSSIAN_GEODESIC_LISTING = """\
def rhs(y):
    y0, y1, y2, y3, y4, y5, y6, y7, = y
    t9 = float(exp(0.225 * ((((y0 * y0) + (y1 * y1)) + (y2 * y2)) + (y3 * y3))))
    if t9 == inf: raise OverflowError('math range error')
    t12 = 1.1 * t9
    t13 = t12 * 0.45
    t14 = t13 * y0
    t15 = t13 * y1
    t16 = t13 * y2
    t17 = t13 * y3
    if t12 <= 0: raise DomainError('kappa and the gauge must stay positive')
    t22 = ((4.0 * t14) / t12) + 0.0
    t25 = ((4.0 * t15) / t12) + 0.0
    t28 = ((4.0 * t16) / t12) + 0.0
    t31 = ((4.0 * t17) / t12) + 0.0
    t32 = t22 * y4
    t33 = t25 * y5
    t34 = t32 + t33
    t35 = t28 * y6
    t36 = t34 + t35
    t37 = t31 * y7
    t38 = t36 + t37
    return [y4, y5, y6, y7, y4 * (t38 - t32), y5 * (t38 - t33), y6 * (t38 - t35), y7 * (t38 - t37)]
"""


def test_compiled_geodesic_listing():
    # one stage of the geodesic for gaussian kappa and a constant gauge: kappa's value and
    # gradient, the positivity test, the log-gradients and the acceleration, in the order the
    # formulas run them on floats, every constant a repr literal; literal operations folded,
    # t * 0.45 computed once, and each temporary used once written into its use
    assert finsler_connection(make_metric("gaussian", "constant")).rates.__doc__ == GAUSSIAN_GEODESIC_LISTING


def test_listings_hold_no_config_string():
    # callables are bound by name, so no kind name or repr of a config object reaches the source
    from polyan.cli import _make_metric

    profiles = [{"kind": kind, "c": 0.5} for kind in ("constant", "quadratic", "gaussian", "quadratic")]
    kappas = [{"kind": "constant", "value": 1.3}, {"kind": "gaussian", "c": 0.9},
              {"kind": "cross-term", "c": 0.7, "axes": [2, 4]}, {"kind": "from-b"}]
    for kappa in kappas:
        for lam in ({"kind": "constant", "value": 12.0}, {"kind": "kappa-reciprocal"}):
            config = {"b": profiles, "kappa": kappa, "lam": lam, "kappa0": 1.1, "lambda0": 2.0}
            strings = {spec["kind"] for spec in [*profiles, kappa, lam]}
            metric = _make_metric(config)
            for form in ("extremal", "geodesic"):
                listing = compiled_rhs(metric, form).__doc__
                assert listing.startswith("def rhs(")
                assert not [s for s in strings if s in listing], (kappa, lam, form)


@pytest.mark.parametrize("form", ["extremal", "geodesic"])
def test_kappa_exp_overflow_mid_run_is_the_overflow_error(form):
    # kappa's exp overflows at a stage: it raises there, outside the extremal's numpy-float fallback
    metric = FinslerConfig(kappa=gaussian_kappa(1.0, 1.0), lam=constant_lambda(16.0))
    w0 = momenta(DXI0, XI0, metric)
    w0 = w0 if form == "extremal" else extremal_velocity(metric, ExtremalState(XI0, w0))
    cfg = IntegratorConfig(steps=200, t_end=50.0)
    with pytest.raises(OverflowError, match="math range error"):
        with np.errstate(over="ignore", invalid="ignore"):
            float_trajectory(metric, form, XI0, w0, cfg)
    assert_same_outcome(metric, form, XI0, w0, cfg)


@pytest.mark.parametrize("kappa_kind", sorted(KAPPAS))
def test_drift_column_is_the_per_row_relative_indicatrix(kappa_kind):
    # the column comes from one kappa call on all samples; per row it is the
    # plain-float formula: the momenta's product left to right, as math.prod
    # forms it, and (kappa/4) ** 4
    metric = make_metric(kappa_kind, "reciprocal")
    e0 = ExtremalState(XI0, momenta(DXI0, XI0, metric))
    traj = integrate_extremal(metric, e0, IntegratorConfig(steps=200, t_end=0.7))
    for xi, p, drift in zip(traj.xi, traj.p, traj.drift):
        scale = (float(metric.kappa(xi)) / 4.0) ** 4
        assert drift == (math.prod(p.tolist()) - scale) / scale


def _random_states(rng, count):
    for _ in range(count):
        yield rng.uniform(-0.6, 0.6, 4), rng.uniform(-2.0, 2.0, 4)


@pytest.mark.parametrize("orientation", ["as-printed", "transposed"])
@pytest.mark.parametrize("lambda_kind", sorted(LAMBDAS))
@pytest.mark.parametrize("kappa_kind", sorted(KAPPAS))
def test_closed_form_acceleration_matches_contraction(kappa_kind, lambda_kind, orientation, rng):
    metric = make_metric(kappa_kind, lambda_kind)
    conn = finsler_connection(metric, orientation)
    eps = float(np.finfo(float).eps)
    for x, v in _random_states(rng, 20):
        _, _, dln_lam, dln_sigma = _log_gradients(metric, x)
        bound = 8.0 * eps * (np.max(np.abs(dln_sigma)) + np.max(np.abs(dln_lam))) * np.max(np.abs(v)) ** 2
        assert np.max(np.abs(conn.rates([*x, *v])[4:] - geodesic_rhs(conn, x, v))) <= bound


@pytest.mark.parametrize("kappa_kind, lambda_kind, orientation", [
    ("constant", "constant", "as-printed"),
    ("gaussian", "reciprocal", "transposed"),
    ("cross-term", "reciprocal", "as-printed"),
    ("from-b", "constant", "transposed"),
])
def test_closed_form_geodesics_match_contraction(kappa_kind, lambda_kind, orientation):
    metric = make_metric(kappa_kind, lambda_kind)
    conn = finsler_connection(metric, orientation)
    contraction_only = ConnectionField(4, conn.func)
    s0 = GeodesicState(XI0, np.array([0.6, -0.3, 0.8, 0.2]))
    cfg = IntegratorConfig(steps=2000, t_end=0.8)
    fast = integrate_geodesic(conn, s0, cfg)
    ref = integrate_geodesic(contraction_only, s0, cfg)
    assert np.max(np.abs(fast.x - ref.x)) <= 1e-13
    assert np.max(np.abs(fast.v - ref.v)) <= 1e-13


def test_finsler_connection_checks_orientation_when_built():
    with pytest.raises(ContractError, match="orientation"):
        finsler_connection(gaussian_metric(), "sideways")


# ---------------------------------------------------------------------------
# the float path against a numpy reference loop: bitwise, aborts included
# ---------------------------------------------------------------------------

def reference_rk4(rhs, y0, cfg, what, clock, cone=False):
    """RK4 as the array form computed it, with its aborts and their messages."""
    h = cfg.t_end / cfg.steps
    ys = np.empty((cfg.steps + 1, y0.shape[0]))
    ys[0] = y = y0
    for m in range(cfg.steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        ys[m + 1] = y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise IntegrationError(f"{what} state became non-finite at step {m + 1} ({clock}={(m + 1) * h:g})")
        if cone and (y[4:] <= 0).any():
            raise ConeError(f"momenta left the positive cone at step {m + 1} ({clock}={(m + 1) * h:g})")
    return ys


def numpy_trajectory(metric, form, xi0, w0, cfg):
    """Both forms on one-point array calls of kappa and lam: the extremal's momentum
    flow with its drift column row by row, and the geodesic's v (s . v - (s - l) v)
    with s . v the left-to-right sum of products."""
    def extremal(y):
        xi, p = y[:4], y[4:]
        kv, dk = metric.kappa(xi), metric.kappa.gradient(xi)
        return np.concatenate([np.prod(p) / p * metric.lam(xi), (kv / 4.0) ** 4 * (4.0 * dk / kv) * metric.lam(xi)])

    def geodesic(y):
        x, v = y[:4], y[4:]
        kv, dk, lv, dl = metric.kappa(x), metric.kappa.gradient(x), metric.lam(x), metric.lam.gradient(x)
        if kv <= 0 or lv <= 0:
            raise DomainError("kappa and the gauge must stay positive")
        dln_lam = dl / lv
        dln_sigma = 4.0 * dk / kv + dln_lam
        sv = dln_sigma[0] * v[0] + dln_sigma[1] * v[1] + dln_sigma[2] * v[2] + dln_sigma[3] * v[3]
        return np.concatenate([v, v * (sv - (dln_sigma - dln_lam) * v)])

    if form == "geodesic":
        return reference_rk4(geodesic, np.concatenate([xi0, w0]), cfg, "geodesic", "sigma")
    ys = reference_rk4(extremal, np.concatenate([xi0, w0]), cfg, "extremal", "tau", cone=True)
    scales = [math.pow(float(metric.kappa(y[:4])) / 4.0, 4) for y in ys]
    if min(scales) <= 0:
        raise DomainError("the indicatrix scale (kappa/4)^4 must stay positive")
    return np.column_stack([ys, [(math.prod(y[4:].tolist()) - s) / s for y, s in zip(ys, scales)]])


def float_trajectory(metric, form, xi0, w0, cfg):
    if form == "extremal":
        traj = integrate_extremal(metric, ExtremalState(xi0, w0), cfg)
        return np.column_stack([traj.xi, traj.p, traj.drift])
    traj = integrate_geodesic(finsler_connection(metric), GeodesicState(xi0, w0), cfg)
    return np.hstack([traj.x, traj.v])


def outcome(run, *args):
    """The samples, or the type and message of the error the run raised; numpy's
    warnings about the non-finite values before an abort are not the point here."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run(*args)
    except (ConeError, DomainError, IntegrationError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(metric, form, xi0, w0, cfg):
    got, expected = outcome(float_trajectory, metric, form, xi0, w0, cfg), outcome(numpy_trajectory, metric, form,
                                                                                 xi0, w0, cfg)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


coefficient = st.floats(-1.0, 1.0)
_B_KINDS = {"constant": lambda c: constant_b(1.0 + abs(c)), "quadratic": lambda c: quadratic_b(c / 2.0),
            "gaussian": gaussian_b}


@st.composite
def metrics(draw):
    """A metric over every kappa kind's parameters and both gauges."""
    kappa0, lambda0 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 16.0))
    kind = draw(st.sampled_from(["constant", "gaussian", "cross-term", "from-b"]))
    if kind == "constant":
        kappa = constant_kappa(draw(st.floats(0.25, 4.0)))
    elif kind == "gaussian":
        kappa = gaussian_kappa(kappa0, draw(coefficient))
    elif kind == "cross-term":
        kappa = cross_term_kappa(kappa0, draw(coefficient), draw(st.sampled_from([(0, 1), (1, 3), (3, 2)])))
    else:
        kappa = kappa_from_b([_B_KINDS[draw(st.sampled_from(sorted(_B_KINDS)))](draw(coefficient))
                              for _ in range(4)], kappa0)
    lam = constant_lambda(lambda0) if draw(st.booleans()) else reciprocal_quartic_lambda(kappa, kappa0, lambda0)
    return FinslerConfig(kappa=kappa, lam=lam, kappa0=kappa0, lambda0=lambda0)


vectors = st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4).map(np.array)


@settings(max_examples=80, deadline=None)
@given(metric=metrics(), form=st.sampled_from(["extremal", "geodesic"]), xi0=vectors, w0=vectors,
       steps=st.integers(1, 40), t_end=st.sampled_from([0.3, 1.0, 4.0]))
def test_float_path_matches_numpy_reference_bitwise(metric, form, xi0, w0, steps, t_end):
    # the extremal starts on the indicatrix from a displacement inside the cone
    w0 = momenta(w0 + 1.0, xi0, metric) if form == "extremal" else 2.0 * w0
    assert_same_outcome(metric, form, xi0, w0, IntegratorConfig(steps=steps, t_end=t_end))


@pytest.mark.parametrize("form", ["extremal", "geodesic"])
@pytest.mark.parametrize("lambda_kind", sorted(LAMBDAS))
def test_a_formula_of_your_own_compiles_like_the_builtin_kinds(lambda_kind, form):
    # kappa = exp(sin(x1 x2) / 4), written as the built-in kinds are, runs in each RK4 stage as
    # straight-line code, with np.sin and np.cos bound by name, and gives the numpy reference
    def formula(m, x):
        s = x[0] * x[1]
        v = m.exp(np.sin(s) / 4.0)
        d = v * np.cos(s) / 4.0
        return v, [d * x[1], d * x[0], m.full(x[2], 0.0), m.full(x[3], 0.0)]

    kappa = ScalarField(formula)
    metric = FinslerConfig(kappa=kappa, lam=LAMBDAS[lambda_kind](kappa), kappa0=1.1, lambda0=2.0)
    w0 = momenta(DXI0, XI0, metric) if form == "extremal" else np.array([0.6, -0.3, 0.8, 0.2])
    assert_same_outcome(metric, form, XI0, w0, IntegratorConfig(steps=200, t_end=0.7))
    assert len(re.findall(r"\bsin\(", compiled_rhs(metric, form).__doc__)) == 1


@pytest.mark.parametrize("form", ["extremal", "geodesic"])
@pytest.mark.parametrize("b_kind", sorted(_B_KINDS))
def test_a_from_b_listing_calls_no_profile(b_kind, form):
    # each built-in b is a formula, so its arithmetic is inline in the RK4 stage: the listing
    # calls only ufuncs, float, _quartic, the fallback and errors, and returns Python floats
    kappa = kappa_from_b([_B_KINDS[b_kind](c) for c in (0.3, -0.2, 0.5, 0.1)], 1.1)
    for lam in (constant_lambda(3.0), reciprocal_quartic_lambda(kappa, 1.1, 2.0)):
        rhs = compiled_rhs(FinslerConfig(kappa=kappa, lam=lam, kappa0=1.1, lambda0=2.0), form)
        called = set(re.findall(r"(\w+)\(", rhs.__doc__)) - {"rhs"}
        assert called <= {"abs", "exp", "log", "float", "_quartic", "_rates_on_numpy_floats", "DomainError",
                          "OverflowError"}
        assert all(type(r) is float for r in rhs(XI0.tolist() + DXI0.tolist()))


@pytest.mark.parametrize("form", ["extremal", "geodesic"])
def test_profile_vanishing_mid_run_is_the_numpy_domain_error(form):
    # b_1 drops to 0 once xi_1 passes 0.052: both paths stop at the same stage
    def step(m, t):
        return (t < 0.052) * 1.0, m.full(t, 0.0)

    kappa = kappa_from_b([step, constant_b(1.0), constant_b(1.0), constant_b(1.0)], 1.0)
    metric = FinslerConfig(kappa=kappa, lam=constant_lambda(1.0))
    w0 = momenta(DXI0, XI0, metric) if form == "extremal" else DXI0
    cfg = IntegratorConfig(steps=100, t_end=1.0)
    with pytest.raises(DomainError, match="component function vanishes on the evaluation point"):
        float_trajectory(metric, form, XI0, w0, cfg)
    assert_same_outcome(metric, form, XI0, w0, cfg)


@pytest.mark.parametrize("lambda_kind", sorted(LAMBDAS))
def test_kappa_underflow_in_the_geodesic_is_the_domain_error(lambda_kind):
    # kappa = exp(-10 |x|^2) is 0.0 at x = (5, 5, 5, 5): the positivity test stops the first
    # stage under either gauge, before a Python float divides by it
    kappa = gaussian_kappa(1.0, -40.0)
    metric = FinslerConfig(kappa=kappa, lam=LAMBDAS[lambda_kind](kappa), kappa0=1.1, lambda0=2.0)
    xi0, cfg = np.full(4, 5.0), IntegratorConfig(steps=3, t_end=1.0)
    with pytest.raises(DomainError, match="kappa and the gauge must stay positive"):
        float_trajectory(metric, "geodesic", xi0, DXI0, cfg)
    assert_same_outcome(metric, "geodesic", xi0, DXI0, cfg)


def test_kappa_underflow_mid_run_is_the_numpy_integration_error():
    # the second stage's kappa underflows to 0: numpy divides by it to nan, where
    # Python floats would raise ZeroDivisionError
    metric = FinslerConfig(kappa=gaussian_kappa(1.0, -40.0), lam=constant_lambda(640.0))
    p0 = momenta(np.ones(4), np.zeros(4), metric)
    cfg = IntegratorConfig(steps=1, t_end=1.0)
    with pytest.raises(IntegrationError, match=r"extremal state became non-finite at step 1 \(tau=1\)"):
        with np.errstate(divide="ignore", invalid="ignore"):
            float_trajectory(metric, "extremal", np.zeros(4), p0, cfg)
    assert_same_outcome(metric, "extremal", np.zeros(4), p0, cfg)


def test_quartic_overflow_mid_run_is_the_numpy_integration_error():
    # a stage's (kappa/4)^4 overflows: numpy's power gives inf, and the state then
    # turns non-finite, where Python's ** would raise OverflowError
    metric = FinslerConfig(kappa=gaussian_kappa(1.03125, 2.75), lam=constant_lambda(10.0), kappa0=1.03125)
    xi0 = np.array([0.0, 0.25, 0.375, 0.4375])
    p0 = momenta(np.ones(4), xi0, metric)
    cfg = IntegratorConfig(steps=1, t_end=1.0)
    with pytest.raises(IntegrationError, match=r"extremal state became non-finite at step 1 \(tau=1\)"):
        with np.errstate(over="ignore", invalid="ignore"):
            float_trajectory(metric, "extremal", xi0, p0, cfg)
    assert_same_outcome(metric, "extremal", xi0, p0, cfg)


def test_cone_exit_mid_run_is_the_numpy_cone_error():
    metric = FinslerConfig(kappa=gaussian_kappa(1.0, c=-1.0), lam=constant_lambda(64.0))
    xi0 = np.ones(4) * 0.5
    cfg = IntegratorConfig(steps=8, t_end=40.0)
    p0 = momenta(np.ones(4), xi0, metric)
    with pytest.raises(ConeError, match=r"momenta left the positive cone at step 1 \(tau=5\)"):
        float_trajectory(metric, "extremal", xi0, p0, cfg)
    assert_same_outcome(metric, "extremal", xi0, p0, cfg)


def _step_b(edge):
    """A profile that is 1 below edge and vanishes from edge on."""
    return lambda m, t: ((t < edge) * 1.0, m.full(t, 0.0))


@st.composite
def aborting_runs(draw, abort):
    """A metric, a form, a start in the positive orthant and steps, drawn to abort one way: a kappa that falls off
    (c < 0) drives the extremal's momenta out of the cone (a large kappa0 and a constant lambda0 of 16 to 64 make
    it fast; under the reciprocal gauge kappa underflows first), one that grows (c > 0) overflows its exp, a from-b
    profile vanishes a little past the start, or a constant kappa's straight line reaches inf within a t_end of 1e308
    (the extremal's, with a long first displacement).  Every kappa kind that can abort so is drawn, under both
    gauges and in both forms where it can."""
    falls = abort == "cone"
    kappa0, c = draw(st.floats(1.5 if falls else 0.5, 2.0)), draw(st.floats(0.5, 4.0)) * (-1.0 if falls else 1.0)
    lambda0, xi0 = draw(st.floats(16.0 if falls else 0.5, 64.0)), np.abs(draw(vectors)) + (0.3 if falls else 0.05)
    kinds = {"vanish": ["from-b"], "inf": ["constant"]}.get(abort, ["gaussian", "cross-term", "from-b"])
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        kappa = constant_kappa(draw(st.floats(0.25, 4.0)))
    elif kind == "gaussian":
        kappa = gaussian_kappa(kappa0, c)
    elif kind == "cross-term":
        kappa = cross_term_kappa(kappa0, c, draw(st.sampled_from([(0, 1), (1, 3), (3, 2)])))
    elif abort == "vanish":
        others = [_B_KINDS[draw(st.sampled_from(sorted(_B_KINDS)))](0.1) for _ in range(3)]
        kappa = kappa_from_b([_step_b(xi0[0] + draw(st.floats(0.01, 0.5))), *others], kappa0)
    else:
        kappa = kappa_from_b([gaussian_b(c / 4.0)] * 4, kappa0)
    if falls or draw(st.booleans()):
        lam = constant_lambda(lambda0)
    else:
        lam = reciprocal_quartic_lambda(kappa, kappa0, lambda0)
    metric = FinslerConfig(kappa=kappa, lam=lam, kappa0=kappa0, lambda0=lambda0)
    form, w0 = "extremal" if falls else draw(st.sampled_from(["extremal", "geodesic"])), draw(vectors) + 1.0
    w0 = momenta(w0 * [1e6 if kind == "constant" else 1.0, 1, 1, 1], xi0, metric) if form == "extremal" else 8.0 * w0
    steps = draw(st.integers(1, 4))
    t_end = 1e308 if abort == "inf" else steps * draw(st.sampled_from([5.0] if falls else [5.0, 20.0]))
    return metric, form, xi0, w0, IntegratorConfig(steps, t_end)


@pytest.mark.parametrize("abort", ["cone", "overflow", "vanish", "inf"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_an_aborting_start_is_the_reference_error(abort, data):
    # the error's type and message, with its step, are the reference's; the errors that occur
    # show with pytest --hypothesis-show-statistics
    run = data.draw(aborting_runs(abort))
    expected = outcome(numpy_trajectory, *run)
    assume(isinstance(expected, tuple))
    event(f"{run[1]}: {expected[0].__name__} {expected[1].split(' at step')[0]}")
    assert outcome(float_trajectory, *run) == expected


# ---------------------------------------------------------------------------
# misc structure
# ---------------------------------------------------------------------------

def test_connection_from_structure(h4_e):
    conn = connection_from_structure(h4_e, scale=0.5)
    assert np.array_equal(conn(XI0), 0.5 * h4_e.p)


@pytest.mark.parametrize("name", builtin_names())
def test_structure_acceleration_is_the_contraction(name, rng):
    """connection_from_structure's closed-form acceleration is bitwise geodesic_rhs of its own
    G, and so are its trajectories."""
    S = builtin_algebra(name)
    conn = connection_from_structure(S, scale=0.7)
    contraction_only = ConnectionField(S.n, conn.func)
    for _ in range(20):
        x, v = rng.uniform(-1.0, 1.0, S.n), rng.uniform(-2.0, 2.0, S.n)
        assert np.array_equal(conn.rates(x.tolist() + v.tolist())[S.n:], geodesic_rhs(contraction_only, x, v))
    s0, cfg = GeodesicState(rng.uniform(-0.5, 0.5, S.n), rng.uniform(0.5, 1.0, S.n)), IntegratorConfig(steps=200)
    fast, ref = integrate_geodesic(conn, s0, cfg), integrate_geodesic(contraction_only, s0, cfg)
    assert np.array_equal(fast.x, ref.x) and np.array_equal(fast.v, ref.v)


def _table(n, cells, values):
    """An algebra document's table of n dimensions, the values at its cells (k, i, j), 1-based."""
    return algebra_from_dict({"n": n, "entries": [{"k": k, "i": i, "j": j, "value": c}
                                                  for (k, i, j), c in zip(cells, values)]})


@st.composite
def tables(draw):
    """A built-in algebra, or a document table of at most _MAX_TERMS entries: sparse (n up to the largest
    document's 64, its entries in up to 4 rows k of n^2 cells each, zero values included) or dense (every
    entry of an n up to 4, not symmetric in i and j)."""
    kind = draw(st.sampled_from(["builtin", "sparse", "dense"]))
    if kind == "builtin":
        return builtin_algebra(draw(st.sampled_from(builtin_names())))
    n = draw(st.integers(1, _MAX_DIMENSION if kind == "sparse" else 4))
    if kind == "sparse":
        rows, axis = draw(st.lists(st.integers(1, n), min_size=1, max_size=4)), st.integers(1, n)
        cells = draw(st.lists(st.tuples(st.sampled_from(rows), axis, axis), max_size=_MAX_TERMS, unique=True))
    else:
        cells = list(itertools.product(range(1, n + 1), repeat=3))
    return _table(n, cells, draw(st.lists(st.floats(-4.0, 4.0), min_size=len(cells), max_size=len(cells))))


# n = 64, two rows of 32 terms among 4,096 cells (k, j), 4 to a k: a sum per k, or another order, rounds apart
WIDE = _table(64, [(k, 1 + (5 * (t // 4) + k) % 64, 1 + (13 * t) % 64) for k in (1, 64) for t in range(32)],
              [(-1.0) ** t * (1 + t / 8) for t in range(64)])


def assert_same_floats(got, expected):
    """Bitwise, with the sign of zero; a NaN only as a NaN."""
    got, expected = np.array(got, dtype=float), np.array(expected, dtype=float)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))


def einsum_rates(g, y):
    """The structure connection's rates as an einsum: y[n:] and -einsum("ikj,k,j->i", g, v, v)."""
    n = g.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return y[n:] + (-np.einsum("ikj,k,j->i", g, v := np.array(y[n:]), v)).tolist()


@st.composite
def tables_and_velocities(draw):
    """A table and a velocity for it, whose components are often 0.0 or -0.0 and reach 1e200."""
    S = draw(tables())
    return S, draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e200, 1e200), min_size=S.n, max_size=S.n))


@settings(max_examples=300, deadline=None)
@given(table=tables_and_velocities(), scale=st.sampled_from([0.0, -0.0, 1e-300, 1.0, -0.7]) | st.floats(-3.0, 3.0))
@example(table=(builtin_algebra("complex"), [-0.0, 1.0]), scale=1.0)  # a row of -0.0 terms sums to 0.0
@example(table=(_table(2, [(1, 1, 2), (1, 2, 1)], [1.0, 1.0]), [-0.0, 2.0]), scale=1.0)
@example(table=(WIDE, [(-1.0) ** k * (1 + k % 7 / 3) for k in range(64)]), scale=0.3)
def test_structure_rates_are_the_einsum_bitwise(table, scale):
    """The compiled rates of any table up to the bound are (v, -einsum(g, v, v)) bit for bit: each row one sum
    from 0.0 over its non-zero (k, j) in C order, each term (c * v_k) * v_j; at every sign of zero and up to
    overflow."""
    S, v = table
    y, g = [0.5] * S.n + v, scale * S.p
    assert_same_floats(connection_from_structure(S, scale).rates(y), einsum_rates(g, y))


def test_a_table_above_the_bound_steps_the_einsum_as_before():
    # a dense n = 5 table has 125 terms: its rates are not compiled, and step bit for bit the einsum
    n, rng = 5, np.random.default_rng(5)
    cells = list(itertools.product(range(1, n + 1), repeat=3))
    S = _table(n, cells, rng.uniform(-1.0, 1.0, len(cells)).tolist())
    assert np.count_nonzero(S.p) > _MAX_TERMS
    conn, g = connection_from_structure(S, 0.3), 0.3 * S.p
    assert conn.rates is not None and not hasattr(conn.rates, "listing")
    s0, cfg = GeodesicState(rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)), IntegratorConfig(steps=50)
    got = integrate_geodesic(conn, s0, cfg)
    expected = integrate_geodesic(ConnectionField(n, conn.func, lambda y: einsum_rates(g, y)), s0, cfg)
    assert np.array_equal(np.hstack([got.x, got.v]), np.hstack([expected.x, expected.v]))
    sparse = _table(n, cells[:_MAX_TERMS], [1.0] * _MAX_TERMS)
    assert hasattr(connection_from_structure(sparse, 0.3).rates, "listing")


def test_the_zero_connections_listing_returns_v_and_negative_zeros():
    # no terms: v, then -0.0 for each row's empty sum from 0.0
    assert zero_connection(2).rates.__doc__ == ("def rhs(y):\n    y0, y1, y2, y3, = y\n"
                                                "    return [y2, y3, (-0.0), (-0.0)]\n")


def _one_float(c, m, y):
    return [c * y[0] * y[0]]


@pytest.mark.parametrize("y0", [1.0, -2.0], ids=["decays", "blows-up"])
def test_a_one_float_state_steps_the_reference(y0):
    # y' = -0.5 y^2, compiled and called, against RK4 on arrays; from -2.0 it blows up at t = 1
    compiled = _compiled(_one_float, -0.5, y=1)
    assert "y0, = y" in compiled.__doc__
    cfg = IntegratorConfig(steps=40, t_end=2.0)
    expected = outcome(reference_rk4, lambda y: -0.5 * y * y, np.array([y0]), cfg, "one-float", "t")
    for rhs in (compiled, lambda y: [-0.5 * y[0] * y[0]]):
        got = outcome(lambda: _rk4(rhs, np.array([y0]), cfg, "one-float", "t")[1])
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


def _user_connection(seed):
    """A position-dependent connection written for stacks; the row dot product is an einsum,
    since x @ w rounds a stack (BLAS gemv) differently from one point (ddot)."""
    r = np.random.default_rng(seed)
    c0, w = r.uniform(-0.3, 0.3, (4, 4, 4)), r.uniform(-1.0, 1.0, 4)
    return ConnectionField(4, lambda x: c0 * np.sin(np.einsum("...i,i->...", x, w))[..., None, None, None])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["zero", "structure", "finsler", "user"]), metric=metrics(),
       orientation=st.sampled_from(["as-printed", "transposed"]), seed=st.integers(0, 2**32 - 1),
       m=st.integers(1, 4))
def test_connections_on_many_points_equal_one_point_calls(kind, metric, orientation, seed, m):
    rng = np.random.default_rng(seed)
    S = builtin_algebra("h4-e")
    conn = {"zero": lambda: zero_connection(4), "structure": lambda: connection_from_structure(S, 0.6),
            "finsler": lambda: finsler_connection(metric, orientation), "user": lambda: _user_connection(seed)}[kind]()
    pair = gamma_from_prescribed(random_smooth_field(4, rng), random_smooth_field(4, rng), S)
    points, velocities = rng.uniform(-0.5, 0.5, (m, 4)), rng.uniform(-1.0, 1.0, (m, 4))

    def rows_equal(batched, one_point):
        assert batched.shape[0] == m
        for i in range(m):
            assert np.array_equal(batched[i], one_point(points[i], velocities[i]))

    rows_equal(conn(points), lambda x, v: conn(x))
    rows_equal(geodesic_rhs(conn, points, velocities), lambda x, v: geodesic_rhs(conn, x, v))
    rows_equal(connection_residual(pair, conn, points), lambda x, v: connection_residual(pair, conn, x))
    for scheme in ("central-2", "central-4"):
        cfg = DiffConfig(scheme=scheme)
        for k, batched in enumerate(chain_conditions(conn, S, points, cfg)):
            rows_equal(batched, lambda x, v: chain_conditions(conn, S, x, cfg)[k])
    for o in ("as-printed", "transposed"):
        rows_equal(gamma_matrices(points, metric, o), lambda x, v: gamma_matrices(x, metric, o))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["zero", "structure", "finsler", "user"]), metric=metrics(),
       orientation=st.sampled_from(["as-printed", "transposed"]), S=tables(), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 40), speed=st.sampled_from([1.0, 30.0, 1e150]))
def test_every_connection_steps_its_reference_rates_bitwise(kind, metric, orientation, S, seed, steps, speed):
    """A connection's trajectory, through its own rates or the contraction's, is bitwise RK4 on arrays
    of the acceleration as written out: v (s . v - (s - l) v) for a Finsler connection, and
    geodesic_rhs of G for the structure, zero and user connections; aborts included: a structure
    connection's start at speed 30 mostly blows up mid-run, and at speed 1e150 in its first step."""
    rng = np.random.default_rng(seed)
    conn = {"zero": lambda: zero_connection(S.n), "structure": lambda: connection_from_structure(S, 0.6),
            "finsler": lambda: finsler_connection(metric, orientation), "user": lambda: _user_connection(seed)}[kind]()
    n, cfg = conn.n, IntegratorConfig(steps=steps, t_end=1.0)
    x0, v0 = rng.uniform(-0.5, 0.5, n), rng.uniform(-1.0, 1.0, n) * (speed if kind == "structure" else 1.0)

    def run():
        traj = integrate_geodesic(conn, GeodesicState(x0, v0), cfg)
        return np.hstack([traj.x, traj.v])

    if kind == "finsler":
        expected = outcome(numpy_trajectory, metric, "geodesic", x0, v0, cfg)
    else:
        contraction = ConnectionField(n, conn.func)
        expected = outcome(reference_rk4, lambda y: np.concatenate([y[n:], geodesic_rhs(contraction, y[:n], y[n:])]),
                           np.concatenate([x0, v0]), cfg, "geodesic", "sigma")
    got = outcome(run)
    event(f"{kind}: {expected[1].split(' at step')[0] if isinstance(expected, tuple) else 'samples'}")
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


def _rates_connection(n, rates):
    return ConnectionField(n, lambda x: np.zeros(x.shape[:-1] + (n, n, n)), rates)


def test_the_largest_generated_loop_steps_the_reference_bitwise():
    # n = 64, the largest algebra document: 128 locals per state, rates a_i = -0.1 v_i v_i
    n, rng = 64, np.random.default_rng(64)
    conn = _rates_connection(n, lambda y: y[n:] + [-0.1 * (w * w) for w in y[n:]])
    x0, v0, cfg = rng.uniform(-0.5, 0.5, n), rng.uniform(-1.0, 1.0, n), IntegratorConfig(steps=30, t_end=1.0)
    traj = integrate_geodesic(conn, GeodesicState(x0, v0), cfg)
    expected = reference_rk4(lambda y: np.concatenate([y[n:], -0.1 * (y[n:] * y[n:])]), np.concatenate([x0, v0]),
                             cfg, "geodesic", "sigma")
    assert np.array_equal(np.hstack([traj.x, traj.v]), expected)


def test_an_abort_in_the_last_slot_at_step_1_is_the_reference_error():
    # only the last slot overflows, in the combination's 2.0 * k2: the finiteness test
    # covers every slot, and the step it reports is the first
    conn = _rates_connection(2, lambda y: [0.0, 0.0, 0.0, 1e308])
    y0, cfg = np.array([0.1, 0.2, 0.3, 0.4]), IntegratorConfig(steps=5, t_end=5.0)

    def run():
        traj = integrate_geodesic(conn, GeodesicState(y0[:2], y0[2:]), cfg)
        return np.hstack([traj.x, traj.v])

    expected = outcome(reference_rk4, lambda y: np.array(conn.rates(y.tolist())), y0, cfg, "geodesic", "sigma")
    assert expected == (IntegrationError, "geodesic state became non-finite at step 1 (sigma=1)")
    assert outcome(run) == expected


@pytest.mark.parametrize("extra", [1, -1], ids=["2n+1", "2n-1"])
def test_rates_of_the_wrong_length_raise(extra):
    # rates must return exactly 2n values: one more or one fewer is an error, not a truncated state
    conn = _rates_connection(2, lambda y: (y[2:] + [0.0, 0.0, 0.0])[:4 + extra])
    with pytest.raises(ValueError, match="values to unpack"):
        integrate_geodesic(conn, GeodesicState([0.1, 0.2], [0.3, 0.4]), IntegratorConfig(steps=3))


def test_a_numpy_scalar_constant_compiles_as_its_float_literal():
    # a profile whose constant is np.float64 gives the float constant's listing, no
    # numpy ufunc call, and the same trajectory bit for bit
    def metric(c):
        b = lambda m, t: (1.0 + c * t * t, 2.0 * c * t)  # noqa: E731
        return FinslerConfig(kappa=kappa_from_b([b, gaussian_b(0.6), constant_b(1.5), b], 1.1),
                             lam=constant_lambda(3.0), kappa0=1.1)

    plain, numpy_scalar = metric(0.3), metric(np.float64(0.3))
    for form in ("extremal", "geodesic"):
        listing = compiled_rhs(numpy_scalar, form).__doc__
        assert listing == compiled_rhs(plain, form).__doc__ and "multiply(" not in listing
        w0 = momenta(DXI0, XI0, plain) if form == "extremal" else 0.1 * DXI0
        cfg = IntegratorConfig(steps=50)
        assert np.array_equal(float_trajectory(numpy_scalar, form, XI0, w0, cfg),
                              float_trajectory(plain, form, XI0, w0, cfg))


@pytest.mark.parametrize("point_only", [lambda g: (lambda x: g), lambda g: (lambda x: g * np.sin(x[0]))],
                         ids=["constant", "first-coordinate"])
def test_point_only_connections_fail_on_a_stack(point_only, h4_e):
    """A connection written for one point gives one (n, n, n) array on a stack too, which
    raises ContractError, in a call and in the chain code's probes."""
    conn = ConnectionField(4, point_only(0.3 * h4_e.p))
    assert conn(XI0).shape == (4, 4, 4)
    with pytest.raises(ContractError, match=r"connection returned shape \(4, 4, 4\), expected \(2, 4, 4, 4\)"):
        conn(np.stack([XI0, XI0]))
    with pytest.raises(ContractError, match="connection"):
        chain_conditions(conn, h4_e, XI0)


def test_csv_export_row_counts():
    traj = integrate_geodesic(
        zero_connection(4),
        GeodesicState(np.zeros(4), np.ones(4)),
        IntegratorConfig(steps=100, t_end=1.0),
    )
    buf = io.StringIO()
    write_geodesic_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "tau,xi1,xi2,xi3,xi4,v1,v2,v3,v4"
    assert len(lines) == 102  # header plus steps + 1 samples

    metric = gaussian_metric()
    etraj = integrate_extremal(metric, gaussian_start(metric), IntegratorConfig(steps=50, t_end=0.5))
    buf = io.StringIO()
    write_extremal_csv(etraj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "tau,xi1,xi2,xi3,xi4,p1,p2,p3,p4,constraint_residual"
    assert len(lines) == 52


def _reference_csv(traj) -> str:
    """The per-row writers the CSV export replaced: csv.writer, every value at .17g."""
    def fmt(x):
        return format(float(x), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(traj, GeodesicTrajectory):
        n = traj.x.shape[1]
        writer.writerow(["tau"] + [f"xi{k + 1}" for k in range(n)] + [f"v{k + 1}" for k in range(n)])
        for m in range(len(traj)):
            writer.writerow([fmt(traj.sigma[m])] + [fmt(v) for v in traj.x[m]] + [fmt(v) for v in traj.v[m]])
    else:
        writer.writerow(["tau"] + [f"xi{k + 1}" for k in range(4)] + [f"p{k + 1}" for k in range(4)]
                        + ["constraint_residual"])
        for m in range(len(traj)):
            writer.writerow([fmt(traj.tau[m])] + [fmt(v) for v in traj.xi[m]] + [fmt(v) for v in traj.p[m]]
                            + [fmt(traj.drift[m])])
    return buf.getvalue()


def test_csv_writers_match_per_row_reference():
    awkward = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, 2.0])
    rows = np.stack([np.roll(awkward, k) for k in range(5)])
    cases = [
        (write_geodesic_csv, GeodesicTrajectory(sigma=awkward, x=rows[:, :4], v=rows[:, 1:])),
        (write_extremal_csv, ExtremalTrajectory(tau=awkward, xi=rows[:, :4], p=rows[:, 1:], drift=-awkward)),
    ]
    for writer, traj in cases:
        buf = io.StringIO()
        writer(traj, buf)
        assert buf.getvalue() == _reference_csv(traj)
        assert "-0," in buf.getvalue() and "4.9406564584124654e-324" in buf.getvalue()


# ---------------------------------------------------------------------------
# the listing's simplifications keep every operation's outcome
# ---------------------------------------------------------------------------

_FLOATS = type("Floats", (), {"full": staticmethod(lambda t, value: value)})


def _rules(_, m, y):
    x, z = y
    dead = x / z  # noqa: F841 -- a dead division still raises at a zero divisor
    inverse = 1.0 / (z - 0.25)
    late = 100.0 ** x + inverse  # the division before the power, though the power is written first
    three = m.full(x, 3.0)
    return [x + 0.0, 0.0 + x, x * 1.0, 1.0 * x, x - 0.0, x / 1.0, three * 0.1 - three, x * z + x * z,
            (x < z) | (three < 0.0), 10.0 ** x + z / x, late]


@pytest.mark.parametrize("state", [[-0.0, 1.0], [math.nan, 2.0], [math.inf, 1.0], [1.0, 0.0], [400.0, 0.5],
                                   [400.0, 0.25], [0.0, 3.0], [-math.inf, -0.0]], ids=str)
def test_the_listing_rules_keep_each_outcome(state):
    # -0.0 + 0.0 is 0.0, so x + 0.0 stays; a dead x / 0.0 raises; 10.0 ** 400.0 overflows before
    # z / x is computed, and after 1.0 / (z - 0.25); the compiled listing gives the formula's
    # floats bit for bit, or its error
    rhs = _compiled(_rules, None, y=2)
    assert "x * 1.0" not in rhs.__doc__ and " + 0.0" in rhs.__doc__ and "0.0 + " in rhs.__doc__

    def run(f):
        try:
            return [(v, math.copysign(1.0, v)) for v in map(float, f())]
        except ArithmeticError as exc:
            return type(exc), str(exc)

    got, expected = run(lambda: rhs(state)), run(lambda: _rules(None, _FLOATS, state))
    assert str(got) == str(expected)


def _negated_kappa(m, x):
    """kappa = exp(-(x1^2 + x2 x3) / 4), written with unary minus and plus."""
    v = m.exp(-(x[0] * x[0] + x[1] * x[2]) / 4.0)
    return +v, [-(x[0] * v) / 2.0, -(x[2] * v) / 4.0, -x[1] * v / 4.0, -m.full(x[3], 0.0)]


def _value_and_gradient(formula, m, x):
    v, g = formula(m, x)
    return [v, *g]


@pytest.mark.parametrize("point", [[0.0, 0.3, -0.2, 0.1], [-0.0, -0.0, 0.0, 0.5], [1.5, 0.0, -0.0, -0.0]], ids=str)
def test_unary_minus_and_plus_trace_to_the_array_result(point):
    # -t gives -0.0 at t = 0.0, where 0.0 - t gives 0.0; -literal folds, and +t of a float is t
    rhs = _compiled(_value_and_gradient, _negated_kappa, y=4)
    assert "(-0.0)]" in rhs.__doc__ and "+" not in rhs.__doc__.replace(" + ", "")
    v, g = ScalarField(_negated_kappa).value_and_grad(np.array(point))
    assert np.array(rhs(point)).tobytes() == np.concatenate([[v], g]).tobytes()


@pytest.mark.parametrize("form", ["extremal", "geodesic"])
@pytest.mark.parametrize("lambda_kind", sorted(LAMBDAS))
def test_a_formula_with_unary_minus_steps_the_reference(lambda_kind, form):
    kappa = ScalarField(_negated_kappa)
    metric = FinslerConfig(kappa=kappa, lam=LAMBDAS[lambda_kind](kappa), kappa0=1.1, lambda0=2.0)
    for xi0 in (np.array([-0.0, 0.1, 0.0, 0.2]), np.array([0.0, -0.0, -0.0, 0.0])):
        w0 = momenta(DXI0, xi0, metric) if form == "extremal" else np.array([0.6, -0.3, -0.0, 0.2])
        assert_same_outcome(metric, form, xi0, w0, IntegratorConfig(steps=100, t_end=0.7))


def test_unary_plus_of_a_comparison_is_an_int_line():
    # +b of a bool b is the int 1 or 0, so that line stays; +True folds to the literal 1
    rhs = _compiled(lambda _, m, y: [+(y[0] < y[1]), +m.full(y[0], True), -(y[0] < y[1])], None, y=2)
    assert rhs([0.0, 1.0]) == [1, 1, -1] and [type(r) for r in rhs([0.0, 1.0])] == [int, int, int]


# ---------------------------------------------------------------------------
# random straight-line programs: the compiled listing against Python floats
# ---------------------------------------------------------------------------

_LITERALS = [1.0, 0.0, -0.0, -1.0, 0.5, 3.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-300]
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "**": operator.pow,
           "<": operator.lt, "<=": operator.le, "==": operator.eq, "|": operator.or_}
_UNARY = {"neg": operator.neg, "pos": operator.pos, "abs": abs}
_IDENTITIES = {"+": 0.0, "-": 0.0, "*": 1.0, "/": 1.0, "**": 1.0, "|": False}  # exact, or in + and ** nearly
_RAISES = [(DomainError, "kappa and the gauge must stay positive"), (OverflowError, "math range error")]


class _Reflected(TypeError):
    """A comparison with a literal on the left raised TypeError: Python reflects that comparison
    (0.5 < t runs as t > 0.5) before a trace sees it, so the message names the other operator."""


@st.composite
def programs(draw):
    """(n, lines, outputs): a straight-line program of up to 10 lines on n = 2 or 3 state floats, returning
    about half of its values (outputs, their indices), so that the others are used once, more or never.  A line is
    ("binary", s, a, b), ("unary", s, a) or ("raise", a, error, message) over operands ("value", i), the i-th
    value so far (the state's, then each line's), ("raw", x), a literal, or ("full", x), a literal passed through
    m.full, which a trace holds as a literal; about half of the literals are the operation's identity.  | and raise
    take comparisons or bools, the other operations any value, and ** no two ints (an int power tower would not
    end)."""
    n = draw(st.integers(2, 3))
    kinds = ["float"] * n  # each value's kind: float, int, or bool (a comparison's)

    def operand(allowed, raw=True, identity=1.0):
        present = sorted(allowed & set(kinds))
        literals = [False, True] if allowed == {"bool"} else _LITERALS
        source = draw(st.sampled_from((["value"] if present else []) + ["full"] + ["raw"] * raw))
        if source == "value":  # a value of each kind as often, the recent ones most often
            wanted = draw(st.sampled_from(present))
            choices = [i for i, k in enumerate(kinds) if k == wanted]
            return ("value", draw(st.sampled_from(choices[-2:] if draw(st.booleans()) else choices)))
        return (source, draw(st.just(identity) | st.sampled_from(literals)))

    def kind(o):
        return kinds[o[1]] if o[0] == "value" else "bool" if type(o[1]) is bool else "float"

    lines = []
    for _ in range(draw(st.integers(1, 10))):
        s = draw(st.sampled_from([*_BINARY, *_UNARY, "raise"]))
        if s in ("|", "raise") and "bool" not in kinds:
            s = "<"
        if s == "raise":
            lines.append(("raise", operand({"bool"}, raw=False), *draw(st.sampled_from(_RAISES))))
            continue
        if s in _UNARY:
            a = operand({"float", "int", "bool"}, raw=False)
            lines.append(("unary", s, a))
            kinds.append("float" if kind(a) == "float" else "int")
            continue
        allowed = {"bool"} if s == "|" else {"float", "int", "bool"}
        a = operand(allowed, identity=_IDENTITIES.get(s, 1.0))
        b = operand(allowed, raw=a[0] != "raw", identity=_IDENTITIES.get(s, 1.0))
        ints = kind(a) != "float" and kind(b) != "float"
        s = "*" if s == "**" and ints else s
        lines.append(("binary", s, a, b))
        kinds.append("bool" if s in ("<", "<=", "==", "|") else "int" if ints and s in "+-*" else "float")
    outputs = tuple(i for i in range(len(kinds)) if draw(st.booleans())) or (len(kinds) - 1,)
    return n, tuple(lines), outputs


def _run_program(program, m, y):
    """The program's outputs at the state y, floats or a trace's values."""
    _, lines, outputs = program
    values = list(y)

    def get(o):
        return values[o[1]] if o[0] == "value" else o[1] if o[0] == "raw" else m.full(y[0], o[1])

    for line in lines:
        if line[0] == "raise":
            _raise_if(get(line[1]), line[2], line[3])
        elif line[0] == "unary":
            values.append(_UNARY[line[1]](get(line[2])))
        else:
            _, s, a, b = line
            try:
                values.append(_BINARY[s](get(a), get(b)))
            except TypeError as exc:
                if a[0] == "raw" and s in ("<", "<="):
                    raise _Reflected(*exc.args) from None
                raise
    return [values[i] for i in outputs]


def _same_bits(x):
    """x by its type and bits, a NaN (a complex's part too) as any NaN: CPython's specialised float
    add and its generic add propagate different NaN operands."""
    if isinstance(x, complex):
        return complex, _same_bits(x.real)[1], _same_bits(x.imag)[1]
    return type(x), "nan" if x != x else x.hex() if isinstance(x, float) else x


def _program_outcome(run):
    try:
        return [_same_bits(x) for x in run()]
    except Exception as exc:  # noqa: BLE001 -- every error the program can raise, compared by type and message
        return type(exc), None if isinstance(exc, _Reflected) else str(exc)


@settings(max_examples=300, deadline=None)
@given(program=programs(), states=st.lists(st.lists(st.sampled_from(_LITERALS) | st.floats(-4.0, 4.0),
                                                    min_size=3, max_size=3), min_size=4, max_size=4))
def test_a_random_program_compiles_to_its_float_outcome(program, states):
    # values bitwise with the sign of zero and the same type, or the same error type and message
    rhs = _compiled.__wrapped__(_run_program, program, program[0])
    for state in states:
        state = state[:program[0]]
        expected = _program_outcome(lambda: _run_program(program, _FLOATS, state))
        got = _program_outcome(lambda: rhs(state))
        if expected[1:] == (None,):
            assert got[0] is TypeError, program
        else:
            assert got == expected, program
