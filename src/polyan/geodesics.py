"""Fixed-step integration of geodesic and extremal equations.

Two routes to the same curves: the second-order form x'' = -G(x)(v, v) for a
position-dependent connection, and the first-order momentum flow of the
quartic metric's indicatrix.  Integration is plain RK4 with no adaptivity;
the indicatrix value is a first integral of the exact flow, so its numerical
drift is logged as a correctness signal and never projected away.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConeError, ContractError, IntegrationError
from .fields import ConnectionField
from .h4 import FinslerConfig, ScalarField, gamma_matrices

__all__ = [
    "ConnectionField",
    "CrossCheckResult",
    "ExtremalState",
    "ExtremalTrajectory",
    "GeodesicState",
    "GeodesicTrajectory",
    "IntegratorConfig",
    "connection_from_structure",
    "cross_check_forms",
    "extremal_velocity",
    "finsler_connection",
    "geodesic_rhs",
    "integrate_extremal",
    "integrate_geodesic",
    "write_extremal_csv",
    "write_geodesic_csv",
    "zero_connection",
]


def zero_connection(n: int) -> ConnectionField:
    return ConnectionField(n, lambda x: np.zeros((n, n, n)))


def connection_from_structure(S, scale: float = 1.0) -> ConnectionField:
    """Constant connection proportional to the structure constants."""
    g = scale * S.p
    return ConnectionField(S.n, lambda x: g)


def finsler_connection(metric: FinslerConfig, orientation: str = "transposed") -> ConnectionField:
    return ConnectionField(4, lambda x: gamma_matrices(x, metric, orientation))


@dataclass(frozen=True)
class GeodesicState:
    x: np.ndarray
    v: np.ndarray
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape or self.x.ndim != 1:
            raise ContractError("position and velocity must be equal-length vectors")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ContractError("state components must be finite")


@dataclass(frozen=True)
class ExtremalState:
    xi: np.ndarray
    p: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.xi.shape != (4,) or self.p.shape != (4,):
            raise ContractError("extremal states are four-dimensional")
        if not (np.all(np.isfinite(self.xi)) and np.all(np.isfinite(self.p))):
            raise ContractError("state components must be finite")


@dataclass(frozen=True)
class IntegratorConfig:
    steps: int = 1000
    t_end: float = 1.0
    method: str = "rk4"
    drift_tol: float = 1e-6

    def __post_init__(self):
        if self.steps < 1:
            raise ContractError("need at least one step")
        if self.method != "rk4":
            raise ContractError(f"unknown integration method {self.method!r}")


def geodesic_rhs(Gamma: ConnectionField, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Acceleration a_i = -G[i, k, j] v_k v_j at position x and velocity v."""
    return -np.einsum("ikj,k,j->i", Gamma(x), v, v)


def _rk4(rhs, t0: float, y0: np.ndarray, cfg: IntegratorConfig, what: str, clock: str, cone=None):
    """Fixed-step RK4 of y' = rhs(y): sample times and states, one row per
    step plus the start.

    Aborts when a state becomes non-finite, or when the components selected
    by cone leave the positive cone.
    """
    h = cfg.t_end / cfg.steps
    ys = np.empty((cfg.steps + 1, y0.shape[0]))
    ys[0] = y0
    for m in range(cfg.steps):
        y = ys[m]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        ys[m + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(ys[m + 1])):
            raise IntegrationError(
                f"{what} state became non-finite at step {m + 1} ({clock}={(m + 1) * h:g})"
            )
        if cone is not None and np.any(ys[m + 1, cone] <= 0):
            raise ConeError(f"momenta left the positive cone at step {m + 1} ({clock}={(m + 1) * h:g})")
    return t0 + h * np.arange(cfg.steps + 1), ys


@dataclass(frozen=True)
class GeodesicTrajectory:
    sigma: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __len__(self):
        return self.sigma.shape[0]

    def columns(self) -> dict:
        """The samples by name, in report order."""
        return {"tau": self.sigma, "xi": self.x, "v": self.v}


def integrate_geodesic(Gamma: ConnectionField, s0: GeodesicState, cfg: IntegratorConfig) -> GeodesicTrajectory:
    """Fixed-step RK4 trajectory with steps + 1 samples, deterministic."""
    n = s0.x.shape[0]
    if Gamma.n != n:
        raise ContractError("connection dimension disagrees with the state")

    def rhs(y):
        x, v = y[:n], y[n:]
        return np.concatenate([v, geodesic_rhs(Gamma, x, v)])

    sigma, ys = _rk4(rhs, s0.sigma, np.concatenate([s0.x, s0.v]), cfg, "geodesic", "sigma")
    return GeodesicTrajectory(sigma=sigma, x=ys[:, :n].copy(), v=ys[:, n:].copy())


@dataclass(frozen=True)
class ExtremalTrajectory:
    tau: np.ndarray
    xi: np.ndarray
    p: np.ndarray
    drift: np.ndarray  # relative indicatrix residual per sample

    def __len__(self):
        return self.tau.shape[0]

    @property
    def max_drift(self) -> float:
        return float(np.max(np.abs(self.drift)))

    def columns(self) -> dict:
        """The samples by name, in report order."""
        return {"tau": self.tau, "xi": self.xi, "p": self.p, "constraint_residual": self.drift}


def _relative_indicatrix(xi, p, metric: FinslerConfig) -> float:
    scale = (metric.kappa(xi) / 4.0) ** 4
    return (float(np.prod(p)) - scale) / scale


def integrate_extremal(
    metric: FinslerConfig,
    e0: ExtremalState,
    cfg: IntegratorConfig,
    lambda_gauge: ScalarField | None = None,
) -> ExtremalTrajectory:
    """Momentum-form extremal flow with the indicatrix constraint monitored.

    The velocities are the partial products of the momenta times the gauge,
    the momentum rates follow the gradient of (kappa/4)^4; the flow conserves
    the indicatrix exactly, so the logged relative drift measures integration
    error.  Leaving the momentum cone aborts.
    """
    lam = lambda_gauge if lambda_gauge is not None else metric.lam
    if np.any(e0.p <= 0):
        raise ConeError("initial momenta are outside the positive cone")
    drift0 = _relative_indicatrix(e0.xi, e0.p, metric)
    if abs(drift0) > cfg.drift_tol:
        raise ContractError(
            f"initial state violates the indicatrix constraint (relative residual {drift0:.3e})"
        )
    def rhs(y):
        xi, p = y[:4], y[4:]
        lv = lam(xi)
        kv = metric.kappa(xi)
        dxi = np.prod(p) / p * lv
        dp = (kv / 4.0) ** 4 * (4.0 * metric.kappa.gradient(xi) / kv) * lv
        return np.concatenate([dxi, dp])

    tau, ys = _rk4(rhs, e0.tau, np.concatenate([e0.xi, e0.p]), cfg, "extremal", "tau",
                   cone=slice(4, None))
    drift = np.array([drift0] + [_relative_indicatrix(y[:4], y[4:], metric) for y in ys[1:]])
    return ExtremalTrajectory(tau=tau, xi=ys[:, :4].copy(), p=ys[:, 4:].copy(), drift=drift)


def extremal_velocity(metric: FinslerConfig, e0: ExtremalState, lambda_gauge: ScalarField | None = None) -> np.ndarray:
    """Coordinate velocity implied by an extremal state under a gauge."""
    lam = lambda_gauge if lambda_gauge is not None else metric.lam
    if np.any(e0.p <= 0):
        raise ConeError("momenta are outside the positive cone")
    return np.prod(e0.p) / e0.p * lam(e0.xi)


@dataclass(frozen=True)
class CrossCheckResult:
    discrepancy: float
    extremal: ExtremalTrajectory
    geodesic: GeodesicTrajectory


def cross_check_forms(
    metric: FinslerConfig,
    e0: ExtremalState,
    cfg: IntegratorConfig,
    lambda_gauge: ScalarField | None = None,
) -> CrossCheckResult:
    """Integrate the same extremal by the momentum flow and by the second-order
    connection form, under one shared gauge, and report the largest pointwise
    position discrepancy."""
    lam = lambda_gauge if lambda_gauge is not None else metric.lam
    traj_h = integrate_extremal(metric, e0, cfg, lambda_gauge=lam)
    v0 = extremal_velocity(metric, e0, lambda_gauge=lam)
    gauge_metric = FinslerConfig(
        kappa=metric.kappa, lam=lam, kappa0=metric.kappa0, lambda0=metric.lambda0
    )
    gamma = finsler_connection(gauge_metric)
    traj_g = integrate_geodesic(gamma, GeodesicState(e0.xi, v0, e0.tau), cfg)
    disc = float(np.max(np.abs(traj_h.xi - traj_g.x)))
    return CrossCheckResult(discrepancy=disc, extremal=traj_h, geodesic=traj_g)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_geodesic_csv(traj: GeodesicTrajectory, stream) -> None:
    """Rows tau, xi1..xin, v1..vn; one row per sample."""
    n = traj.x.shape[1]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["tau"] + [f"xi{k + 1}" for k in range(n)] + [f"v{k + 1}" for k in range(n)]
    )
    for m in range(len(traj)):
        writer.writerow(
            [_fmt(traj.sigma[m])] + [_fmt(v) for v in traj.x[m]] + [_fmt(v) for v in traj.v[m]]
        )


def write_extremal_csv(traj: ExtremalTrajectory, stream) -> None:
    """Rows tau, xi1..xi4, p1..p4, constraint_residual; one row per sample."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["tau"]
        + [f"xi{k + 1}" for k in range(4)]
        + [f"p{k + 1}" for k in range(4)]
        + ["constraint_residual"]
    )
    for m in range(len(traj)):
        writer.writerow(
            [_fmt(traj.tau[m])]
            + [_fmt(v) for v in traj.xi[m]]
            + [_fmt(v) for v in traj.p[m]]
            + [_fmt(traj.drift[m])]
        )
