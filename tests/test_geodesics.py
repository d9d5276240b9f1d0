"""Geodesic and extremal integration with constraint monitoring."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyan import ConeError, ContractError, IntegrationError
from polyan.geodesics import (
    ConnectionField,
    ExtremalState,
    GeodesicState,
    IntegratorConfig,
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
    constant_kappa,
    constant_lambda,
    gaussian_kappa,
    momenta,
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


def test_state_validation():
    with pytest.raises(ContractError):
        GeodesicState(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractError):
        GeodesicState(np.array([np.nan, 0, 0, 0]), np.zeros(4))
    with pytest.raises(ContractError):
        IntegratorConfig(steps=0)


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
# misc structure
# ---------------------------------------------------------------------------

def test_connection_from_structure(h4_e):
    conn = connection_from_structure(h4_e, scale=0.5)
    assert np.array_equal(conn(XI0), 0.5 * h4_e.p)


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
