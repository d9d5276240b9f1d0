"""Fixed-step integration of geodesic and extremal equations.

Two routes to the same curves: the second-order form x'' = -G(x)(v, v) for a
position-dependent connection, and the first-order momentum flow of the
quartic metric's indicatrix.  Integration is plain RK4 with no adaptivity;
the indicatrix value is a first integral of the exact flow, so its numerical
drift is logged as a correctness signal and never projected away.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConeError, ContractError, DomainError, IntegrationError
from .fields import ConnectionField
from .h4 import (ORIENTATIONS, FinslerConfig, _compiled, _dot, _kappa_and_lam, _log_gradients, _quartic, _raise_if,
                 gamma_matrices)

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


_MAX_TERMS = 64  # the most non-zero entries of a constant G whose rates compile; see connection_from_structure


def _structure(terms: tuple, m, y) -> list:
    """The rates (v, a) at y = (x, v) of a G of non-zero entries terms (i, k, j, c): a_i = -(0.0 + c v_k v_j + ...)."""
    v, acc = y[len(y) // 2:], [0.0] * (len(y) // 2)
    for i, k, j, c in terms:
        acc[i] = acc[i] + c * v[k] * v[j]
    return v + [-a for a in acc]


def zero_connection(n: int) -> ConnectionField:
    """G = 0; its rates are (v, -0.0), as geodesic_rhs gives them at any finite v."""
    return ConnectionField(n, lambda x: np.zeros(x.shape[:-1] + (n, n, n)), _compiled(_structure, (), y=2 * n))


def connection_from_structure(S, scale: float = 1.0) -> ConnectionField:
    """G = scale * p.  Its rates compile from G's non-zero entries in C order, einsum's own; a zero entry adds nothing
    at a finite v.  Above _MAX_TERMS entries they stay that einsum: against it a step at 64 took 9 us for 22 and the
    build 6-10 ms, repaid in 500-800 steps; at 256, 29 us for 38 and 21-24 ms, in 2,000-2,700 (2-core x86-64)."""
    g, n = scale * S.p, S.n
    terms = tuple(zip(*np.argwhere(g).T.tolist(), g[g != 0].tolist()))
    return ConnectionField(n, lambda x: np.broadcast_to(g, x.shape[:-1] + g.shape),
                           _compiled(_structure, terms, y=2 * n) if len(terms) <= _MAX_TERMS else
                           lambda y: y[n:] + (-np.einsum("ikj,k,j->i", g, v := np.array(y[n:]), v)).tolist())


def _geodesic(metric: FinslerConfig, m, y) -> list:
    """The rates (v, a) at a state y = (x, v) in the forms m, with the acceleration
    a_i = v_i (s . v - (s_i - l_i) v_i), s = grad ln sigma (sigma = kappa^4 lam) and l = grad ln lam."""
    x, v = y[:4], y[4:]
    _, _, dln_lam, dln_sigma = _log_gradients(metric, x, m)
    sv = _dot(dln_sigma, v)
    return v + [w * (sv - (s - l) * w) for w, s, l in zip(v, dln_sigma, dln_lam)]


def finsler_connection(metric: FinslerConfig, orientation: str = "transposed") -> ConnectionField:
    """G = gamma_matrices(x, metric, orientation) at points (..., 4), with the geodesic's rates compiled
    from the metric's formulas into one function of floats: one kappa and one lam evaluation, no
    (4, 4, 4) array.  Both orientations have these rates, so the orientation is checked when built."""
    if orientation not in ORIENTATIONS:
        raise ContractError(f"orientation must be one of {ORIENTATIONS}")
    return ConnectionField(4, lambda x: gamma_matrices(x, metric, orientation), _compiled(_geodesic, metric, y=8))


@dataclass(frozen=True)
class GeodesicState:
    x: np.ndarray
    v: np.ndarray

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
    drift_tol: float = 1e-6

    def __post_init__(self):
        if self.steps < 1 or not math.isfinite(self.t_end):
            raise ContractError(f"need at least one step and a finite t_end, got {self.steps} and {self.t_end}")


def geodesic_rhs(Gamma: ConnectionField, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Accelerations a_i = -G[i, k, j] v_k v_j at positions x and velocities v (..., n)."""
    return -np.einsum("...ikj,...k,...j->...i", Gamma(x), v, v)


_NAMES = re.compile(r"\b([yt])(\d+)\b")  # a listing's state and temporaries


@functools.lru_cache(maxsize=32)
def _rk4_loop(compiled, size: int, cone: tuple):
    """RK4's loop over a state of size floats, generated as straight-line code with the state in locals y0, y1, ...
    and each slot's updates written out, so it rounds as numpy's elementwise operations would.  Stage s > 1 first
    sets its input u{s}_0 = y0 + half * k{s-1}_0, ...; then each stage is the listing of the compiled rates (see
    h4._compiled), its temporaries renamed t{s}_..., whose return sets k{s}_0, ...  Rates without a listing
    (compiled None) are called: k{s}_0, ..., = rhs([...]).  Each new state goes to extend; it returns the step of
    the first non-finite state or one with a slot in cone not positive."""
    ys, body = [f"y{i}" for i in range(size)], []
    listing = compiled.listing if compiled else [f"return rhs([{', '.join(ys)}])"]
    for s, step in ((1, ""), (2, "half"), (3, "half"), (4, "h")):
        body += [f"u{s}_{i} = y{i} + {step} * k{s - 1}_{i}" for i in range(size) if step]
        prefix, ks = {"y": f"u{s}_" if step else "y", "t": f"t{s}_"}, ", ".join(f"k{s}_{i}" for i in range(size))
        body += [_NAMES.sub(lambda g: prefix[g[1]] + g[2], line).replace("return ", f"{ks}, = ") for line in listing]
    body += [*(f"{y} = {y} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i, y in enumerate(ys)),
             f"extend(({', '.join(ys)},))",
             f"if not ({' and '.join(f'isfinite({y})' for y in ys)}){''.join(f' or y{i} <= 0' for i in cone)}:",
             "    return m + 1"]
    source = (f"def loop(rhs, y, steps, h, half, sixth, extend):\n    {', '.join(ys)}, = y\n"
              "    for m in range(steps):\n" + "".join(f"        {s}\n" for s in body))
    exec(source, names := {**(compiled.__globals__ if compiled else {}), "isfinite": math.isfinite})
    names["loop"].__doc__ = source
    return names["loop"]


def _rk4(rhs, y0: np.ndarray, cfg: IntegratorConfig, what: str, clock: str, cone=None):
    """Fixed-step RK4 of y' = rhs(y), a list of floats to exactly as many rates, from time 0: sample times and
    states, one row per step plus the start.  Aborts at a state that is non-finite or not positive in cone."""
    h, y = cfg.t_end / cfg.steps, y0.tolist()
    samples = array("d", y)
    loop = _rk4_loop(rhs if hasattr(rhs, "listing") else None, len(y), tuple(range(len(y))[cone]) if cone else ())
    step = loop(rhs, y, cfg.steps, h, 0.5 * h, h / 6.0, samples.extend)
    if step:
        at = f"at step {step} ({clock}={step * h:g})"
        if all(map(math.isfinite, samples[-len(y):])):
            raise ConeError(f"momenta left the positive cone {at}")
        raise IntegrationError(f"{what} state became non-finite {at}")
    return h * np.arange(cfg.steps + 1), np.frombuffer(samples).reshape(cfg.steps + 1, -1)


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
    """Fixed-step RK4 trajectory with steps + 1 samples, deterministic, of Gamma's rates or (v, geodesic_rhs)."""
    n = s0.x.shape[0]
    if Gamma.n != n:
        raise ContractError("connection dimension disagrees with the state")
    rates = Gamma.rates or (lambda y: y[n:] + geodesic_rhs(Gamma, np.array(y[:n]), np.array(y[n:])).tolist())
    sigma, ys = _rk4(rates, np.concatenate([s0.x, s0.v]), cfg, "geodesic", "sigma")
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


def _relative_indicatrix(xi, p, metric: FinslerConfig):
    """(prod p - s) / s with s = (kappa/4)^4, at points xi and momenta p (..., 4);
    the product runs left to right, as math.prod does."""
    scale = _quartic(metric.kappa.func(xi) / 4.0)
    _raise_if(scale <= 0, DomainError, "the indicatrix scale (kappa/4)^4 must stay positive")
    return (p[..., 0] * p[..., 1] * p[..., 2] * p[..., 3] - scale) / scale


def _check_start(metric: FinslerConfig, e0: ExtremalState, drift_tol: float) -> None:
    """A start state must lie in the momentum cone (else ConeError) and on the
    indicatrix within drift_tol (else ContractError)."""
    if np.any(e0.p <= 0):
        raise ConeError("initial momenta are outside the positive cone")
    drift0 = _relative_indicatrix(e0.xi, e0.p, metric)
    if abs(drift0) > drift_tol:
        raise ContractError(
            f"initial state violates the indicatrix constraint (relative residual {drift0:.3e})"
        )


def _rates(p, kv, dkappa, lv) -> list:
    """The extremal's position and momentum rates from its momenta and kappa's and lam's values."""
    prod, scale = p[0] * p[1] * p[2] * p[3], (kv / 4.0) ** 4
    return [prod / q * lv for q in p] + [scale * (4.0 * d / kv) * lv for d in dkappa]


def _rates_on_numpy_floats(p, kv, dkappa, lv) -> list:
    """The rates where Python floats raise: an overflowing power or a zero divisor gives inf or nan."""
    return _rates([np.float64(q) for q in p], np.float64(kv), dkappa, lv)


def _extremal(metric: FinslerConfig, m, y) -> list:
    """The rates at a state y = (xi, p) in the traced form m; kappa's evaluation is outside
    the fallback's scope, so an exp overflow there raises."""
    xi, p = y[:4], y[4:]
    kv, dkappa, lv, _ = _kappa_and_lam(metric, m, xi)
    m.handle(ArithmeticError, _rates_on_numpy_floats, p, kv, dkappa, lv)
    return _rates(p, kv, dkappa, lv)


def integrate_extremal(metric: FinslerConfig, e0: ExtremalState, cfg: IntegratorConfig) -> ExtremalTrajectory:
    """Momentum-form extremal flow with the indicatrix constraint monitored.

    The velocities are the partial products of the momenta times the gauge,
    the momentum rates follow the gradient of (kappa/4)^4; the flow conserves
    the indicatrix exactly, so the logged relative drift measures integration
    error.  Leaving the momentum cone aborts.
    """
    _check_start(metric, e0, cfg.drift_tol)
    tau, ys = _rk4(_compiled(_extremal, metric, y=8), np.concatenate([e0.xi, e0.p]), cfg, "extremal", "tau",
                   cone=slice(4, None))
    drift = _relative_indicatrix(ys[:, :4], ys[:, 4:], metric)
    return ExtremalTrajectory(tau=tau, xi=ys[:, :4].copy(), p=ys[:, 4:].copy(), drift=drift)


def extremal_velocity(metric: FinslerConfig, e0: ExtremalState) -> np.ndarray:
    """Coordinate velocity implied by an extremal state under the metric's gauge."""
    if np.any(e0.p <= 0):
        raise ConeError("momenta are outside the positive cone")
    return np.prod(e0.p) / e0.p * metric.lam(e0.xi)


@dataclass(frozen=True)
class CrossCheckResult:
    discrepancy: float
    extremal: ExtremalTrajectory
    geodesic: GeodesicTrajectory


def cross_check_forms(metric: FinslerConfig, e0: ExtremalState, cfg: IntegratorConfig) -> CrossCheckResult:
    """Integrate the same extremal by the momentum flow and by the second-order
    connection form of the metric, and report the largest pointwise position
    discrepancy."""
    traj_h = integrate_extremal(metric, e0, cfg)
    v0 = extremal_velocity(metric, e0)
    traj_g = integrate_geodesic(finsler_connection(metric), GeodesicState(e0.xi, v0), cfg)
    disc = float(np.max(np.abs(traj_h.xi - traj_g.x)))
    return CrossCheckResult(discrepancy=disc, extremal=traj_h, geodesic=traj_g)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_CSV_BLOCK = 4096  # rows formatted per % on the row template


def _write_csv(columns: dict, stream) -> None:
    """Header from the column names, vector columns numbered from 1, then one
    row per sample with every float at 17 significant digits, as np.savetxt
    writes them, a block of rows at a time."""
    header = []
    for name, values in columns.items():
        header += [name] if values.ndim == 1 else [f"{name}{k + 1}" for k in range(values.shape[1])]
    stream.write(",".join(header) + "\n")
    rows = np.column_stack(list(columns.values()))
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _CSV_BLOCK):
        block = rows[start:start + _CSV_BLOCK]
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_geodesic_csv(traj: GeodesicTrajectory, stream) -> None:
    """Rows tau, xi1..xin, v1..vn; one row per sample."""
    _write_csv(traj.columns(), stream)


def write_extremal_csv(traj: ExtremalTrajectory, stream) -> None:
    """Rows tau, xi1..xi4, p1..p4, constraint_residual; one row per sample."""
    _write_csv(traj.columns(), stream)
