"""The four-dimensional system H4: bases, the quartic Finsler metric and its
indicatrix, explicit connection coefficients, and the closed-form family of
generalized-analytic functions attached to that metric.

H4 is generated by 1, j, k, jk with j^2 = k^2 = (jk)^2 = 1; the involutive
Hadamard-type matrix ``H4_E_TO_PSI_MATRIX`` diagonalizes it to the psi-basis
where multiplication is componentwise.  On the positive cone the metric
ds = (kappa^4 d1 d2 d3 d4)^(1/4) defines extremals whose connection
coefficients are built from log-derivatives of kappa and of a positive gauge
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import builtin_algebra
from .errors import ConeError, ContractError
from .fields import (
    DEFAULT_DIFF,
    DiffConfig,
    GAPair,
    GammaField,
    VectorField,
    cr_residual,
    fd_jacobian,
    grid_max,
    zero_gamma,
)

_EPS = float(np.finfo(float).eps)

CONVENTIONS = ("as-printed", "reciprocal")
ORIENTATIONS = ("as-printed", "transposed")


class ScalarField:
    """Positive scalar function of a point, with analytic or FD gradient."""

    def __init__(self, func: Callable, grad: Callable | None = None, name: str = "scalar"):
        self.func = func
        self._grad = grad
        self.name = name

    def __call__(self, x) -> float:
        return float(self.func(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(x), dtype=float)
        return fd_jacobian(self.func, x)


@dataclass(frozen=True)
class ScalarFunc1D:
    """Scalar function of one real argument with its derivative."""

    func: Callable
    deriv: Callable
    name: str = "b"

    def __call__(self, t: float) -> float:
        return float(self.func(float(t)))

    def d(self, t: float) -> float:
        return float(self.deriv(float(t)))


def constant_b(c: float = 1.0) -> ScalarFunc1D:
    c = float(c)
    return ScalarFunc1D(lambda t: c, lambda t: 0.0, name=f"constant({c:g})")


def quadratic_b(c: float) -> ScalarFunc1D:
    c = float(c)
    return ScalarFunc1D(lambda t: 1.0 + c * t * t, lambda t: 2.0 * c * t, name=f"quadratic({c:g})")


def gaussian_b(c: float = 1.0) -> ScalarFunc1D:
    c = float(c)
    return ScalarFunc1D(
        lambda t: math.exp(c * t * t),
        lambda t: 2.0 * c * t * math.exp(c * t * t),
        name=f"gaussian({c:g})",
    )


def constant_kappa(value: float = 1.0) -> ScalarField:
    v = float(value)
    if v <= 0:
        raise ContractError("kappa must be positive")
    return ScalarField(lambda x: v, lambda x: np.zeros_like(x), name=f"constant({v:g})")


def gaussian_kappa(kappa0: float = 1.0, c: float = 1.0) -> ScalarField:
    """kappa0 * exp(c * sum(x_m^2) / 4), the radially quadratic log profile."""
    k0 = float(kappa0)
    c = float(c)

    def func(x):
        return k0 * math.exp(c * float(np.dot(x, x)) / 4.0)

    def grad(x):
        return func(x) * c * x / 2.0

    return ScalarField(func, grad, name=f"gaussian({k0:g},{c:g})")


def kappa_from_b(b_funcs, kappa0: float = 1.0) -> ScalarField:
    """Separable profile kappa0 * prod |b_i(x_i)|^(1/4)."""
    bs = tuple(b_funcs)
    if len(bs) != 4:
        raise ContractError("need exactly four component functions")
    k0 = float(kappa0)

    def func(x):
        acc = 0.0
        for i in range(4):
            v = bs[i](x[i])
            if v == 0.0:
                raise ContractError("component function vanishes on the evaluation point")
            acc += math.log(abs(v))
        return k0 * math.exp(acc / 4.0)

    def grad(x):
        val = func(x)
        return val * np.array([bs[i].d(x[i]) / bs[i](x[i]) for i in range(4)]) / 4.0

    return ScalarField(func, grad, name="separable")


def cross_term_kappa(kappa0: float = 1.0, c: float = 1.0, axes=(0, 1)) -> ScalarField:
    """kappa0 * exp(c * x_a x_b / 4); its mixed log second derivative is c."""
    k0 = float(kappa0)
    c = float(c)
    a, b = int(axes[0]), int(axes[1])

    def func(x):
        return k0 * math.exp(c * x[a] * x[b] / 4.0)

    def grad(x):
        g = np.zeros_like(x)
        v = func(x)
        g[a] = v * c * x[b] / 4.0
        g[b] = v * c * x[a] / 4.0
        return g

    return ScalarField(func, grad, name=f"cross-term({c:g})")


def constant_lambda(value: float = 1.0) -> ScalarField:
    v = float(value)
    if v <= 0:
        raise ContractError("gauge must be positive")
    return ScalarField(lambda x: v, lambda x: np.zeros_like(x), name=f"constant({v:g})")


def reciprocal_quartic_lambda(kappa: ScalarField, kappa0: float, lambda0: float) -> ScalarField:
    """The gauge lambda0 * (kappa0 / kappa)^4 that makes the family analytic."""
    k0, l0 = float(kappa0), float(lambda0)

    def func(x):
        return l0 * (k0 / kappa(x)) ** 4

    def grad(x):
        return -4.0 * func(x) * kappa.gradient(x) / kappa(x)

    return ScalarField(func, grad, name="kappa-reciprocal")


@dataclass(frozen=True)
class FinslerConfig:
    """Quartic metric data: the scale kappa, the gauge lam, reference constants.

    sigma0 defaults to (kappa0/4)^4 * lambda0 so that all logarithms vanish
    at the reference configuration.
    """

    kappa: ScalarField
    lam: ScalarField
    kappa0: float = 1.0
    lambda0: float = 1.0
    sigma0: float | None = None

    def __post_init__(self):
        if self.kappa0 <= 0 or self.lambda0 <= 0:
            raise ContractError("reference constants must be positive")
        if self.sigma0 is None:
            object.__setattr__(self, "sigma0", (self.kappa0 / 4.0) ** 4 * self.lambda0)


def finsler_length(dxi, xi, cfg: FinslerConfig) -> float:
    """Length element (kappa^4 * d1 d2 d3 d4)^(1/4) on the positive cone."""
    dxi = np.asarray(dxi, dtype=float)
    if np.any(dxi < 0):
        raise ConeError(f"displacement {dxi.tolist()} leaves the positive cone")
    kap = cfg.kappa(np.asarray(xi, dtype=float))
    if kap <= 0:
        raise ContractError("kappa must be positive")
    return kap * float(np.prod(dxi)) ** 0.25


def momenta(dxi, xi, cfg: FinslerConfig) -> np.ndarray:
    """Momenta conjugate to a displacement; they always lie on the indicatrix."""
    dxi = np.asarray(dxi, dtype=float)
    if np.any(dxi <= 0):
        raise ConeError("momenta need a displacement strictly inside the cone")
    ds = finsler_length(dxi, xi, cfg)
    return ds / (4.0 * dxi)

def indicatrix(p, xi, cfg: FinslerConfig) -> float:
    """Tangential indicatrix value prod(p) - (kappa/4)^4; zero on extremal momenta."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ConeError(f"momenta {p.tolist()} leave the positive cone")
    kap = cfg.kappa(np.asarray(xi, dtype=float))
    return float(np.prod(p)) - (kap / 4.0) ** 4


def gamma_matrices(xi, cfg: FinslerConfig, orientation: str = "transposed") -> np.ndarray:
    """Connection coefficients of the quartic metric, G[i, k, j].

    For each component i the i-th row (k = i) holds minus the log-sigma
    gradient, except the diagonal slot which holds minus the log-gauge
    derivative; the transposed orientation moves the row to the j = i column.
    Both orientations give the same geodesics since the velocity contraction
    is symmetric.
    """
    if orientation not in ORIENTATIONS:
        raise ContractError(f"orientation must be one of {ORIENTATIONS}")
    xi = np.asarray(xi, dtype=float)
    lam = cfg.lam(xi)
    kap = cfg.kappa(xi)
    if kap <= 0 or lam <= 0:
        raise ContractError("kappa and the gauge must stay positive")
    dln_lam = cfg.lam.gradient(xi) / lam
    dln_sigma = 4.0 * cfg.kappa.gradient(xi) / kap + dln_lam
    g = np.zeros((4, 4, 4))
    for i in range(4):
        g[i, i, :] = -dln_sigma
        g[i, i, i] = -dln_lam[i]
    if orientation == "transposed":
        g = g.transpose(0, 2, 1)
    return g


# ---------------------------------------------------------------------------
# the closed-form family
# ---------------------------------------------------------------------------

def compatibility_residual(kappa_field: ScalarField, xi, h: float | None = None) -> np.ndarray:
    """Mixed second derivatives of 4*log(kappa), by central cross differences.

    The off-diagonal entries must vanish for the separable closed-form family
    to exist; the diagonal is reported as zero.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    steps = DiffConfig(h=_EPS ** 0.25 if h is None else float(h)).step(xi)

    def logk4(x):
        return 4.0 * math.log(kappa_field(x))

    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = steps[i]
            ej[j] = steps[j]
            val = (
                logk4(xi + ei + ej)
                - logk4(xi + ei - ej)
                - logk4(xi - ei + ej)
                + logk4(xi - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
            out[i, j] = out[j, i] = val
    return out


@dataclass(frozen=True)
class H4FamilySpec:
    """Parameters of the closed-form family of generalized-analytic functions.

    phi0 are the component amplitudes, mu the psi-components of the constant
    multiplier element, b the four single-variable profiles (nonvanishing on
    the domain), lam the positive gauge field.  convention selects where the
    profile enters the component formula, 'reciprocal' being the placement
    that satisfies the defining system for generic profiles.  kappa, when
    given, overrides the separable profile built from b.
    """

    phi0: np.ndarray
    mu: np.ndarray
    b: tuple
    lam: ScalarField
    kappa0: float = 1.0
    lambda0: float = 1.0
    convention: str = "reciprocal"
    kappa: ScalarField | None = None

    def __post_init__(self):
        phi0 = np.asarray(self.phi0, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if phi0.shape != (4,) or mu.shape != (4,):
            raise ContractError("phi0 and mu must be 4-vectors")
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.b) != 4:
            raise ContractError("need exactly four profile functions")
        if self.convention not in CONVENTIONS:
            raise ContractError(f"convention must be one of {CONVENTIONS}")
        if self.kappa0 <= 0 or self.lambda0 <= 0:
            raise ContractError("reference constants must be positive")

    def kappa_field(self) -> ScalarField:
        return self.kappa if self.kappa is not None else kappa_from_b(self.b, self.kappa0)

    def finsler(self) -> FinslerConfig:
        return FinslerConfig(
            kappa=self.kappa_field(), lam=self.lam, kappa0=self.kappa0, lambda0=self.lambda0
        )


def _profile_factors(spec: H4FamilySpec, xi: np.ndarray, convention: str):
    """Values and log-derivatives of the placed profiles B_i(xi_i)."""
    vals = np.empty(4)
    dlog = np.empty(4)
    for i in range(4):
        bv = spec.b[i](xi[i])
        if bv == 0.0:
            raise ContractError("profile function vanishes on the evaluation point")
        bd = spec.b[i].d(xi[i])
        if convention == "reciprocal":
            vals[i] = 1.0 / bv
            dlog[i] = -bd / bv
        else:
            vals[i] = bv
            dlog[i] = bd / bv
    return vals, dlog


def family_phi(spec: H4FamilySpec, xi, convention: str | None = None) -> np.ndarray:
    """Component values phi_i = phi0_i (kappa/kappa0)^4 (lam/lambda0) B_i exp(mu_i xi_i)."""
    conv = convention or spec.convention
    if conv not in CONVENTIONS:
        raise ContractError(f"convention must be one of {CONVENTIONS}")
    xi = np.asarray(xi, dtype=float)
    kap = spec.kappa_field()
    k4 = (kap(xi) / spec.kappa0) ** 4
    lr = spec.lam(xi) / spec.lambda0
    bvals, _ = _profile_factors(spec, xi, conv)
    return spec.phi0 * k4 * lr * bvals * np.exp(spec.mu * xi)


def family_field(spec: H4FamilySpec, convention: str | None = None, analytic_jacobian: bool = True) -> VectorField:
    """The family as a vector field over psi-coordinates, with exact Jacobian."""
    conv = convention or spec.convention
    kap = spec.kappa_field()

    def func(xi):
        return family_phi(spec, xi, conv)

    jac = None
    if analytic_jacobian:
        def jac(xi):
            phi = family_phi(spec, xi, conv)
            kv = kap(xi)
            lv = spec.lam(xi)
            common = 4.0 * kap.gradient(xi) / kv + spec.lam.gradient(xi) / lv
            _, dlog = _profile_factors(spec, xi, conv)
            out = phi[:, None] * common[None, :]
            out[np.arange(4), np.arange(4)] += phi * (dlog + spec.mu)
            return out

    return VectorField(4, func, jacobian=jac)


def family_pair(spec: H4FamilySpec, convention: str | None = None) -> GAPair:
    """The family paired with gamma = G . phi, G the transposed connection matrices."""
    conv = convention or spec.convention
    metric = spec.finsler()
    field = family_field(spec, conv)

    def gamma_func(xi):
        g = gamma_matrices(xi, metric, orientation="transposed")
        return np.einsum("ikj,j->ik", g, family_phi(spec, xi, conv))

    return GAPair(field, GammaField(4, gamma_func), builtin_algebra("h4-psi"))


@dataclass(frozen=True)
class FamilyReport:
    """Grid verification of the family's defining relations, per convention."""

    residuals: dict
    selected: str
    n_points: int


def _family_relation_residual(spec: H4FamilySpec, field: VectorField, metric: FinslerConfig,
                              xi: np.ndarray, conv: str, cfg: DiffConfig) -> float:
    """Max-abs mismatch of gamma from the constant-multiplier construction
    against gamma from the shared transposed connection, at one point."""
    phi = family_phi(spec, xi, conv)
    jac = field.jac(xi, cfg)
    gamma_mult = -jac + np.diag(spec.mu * phi)
    g = gamma_matrices(xi, metric, orientation="transposed")
    gamma_conn = np.einsum("ikj,j->ik", g, phi)
    return float(np.max(np.abs(gamma_conn - gamma_mult)))


def family_residual(spec: H4FamilySpec, points, cfg: DiffConfig = DEFAULT_DIFF,
                    use_fd: bool = False) -> FamilyReport:
    """Evaluate all sixteen defining relations on a grid, for both conventions.

    The residual compares the gamma-object demanded by the constant-multiplier
    requirement with the one induced by the shared connection; the convention
    with the smaller grid maximum is reported as selected.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    metric = spec.finsler()
    residuals = {}
    for conv in CONVENTIONS:
        field = family_field(spec, conv, analytic_jacobian=not use_fd)
        residuals[conv] = grid_max(
            _family_relation_residual(spec, field, metric, xi, conv, cfg) for xi in points
        )
    selected = min(CONVENTIONS, key=lambda c: (residuals[c], CONVENTIONS.index(c)))
    return FamilyReport(residuals=residuals, selected=selected, n_points=points.shape[0])


def analytic_gamma_max(spec: H4FamilySpec, points, cfg: DiffConfig = DEFAULT_DIFF,
                       convention: str | None = None) -> float:
    """Largest gamma-object entry the bare field would need to be analytic.

    Reconstructed as minus the plain-analyticity residual of the pair
    {phi, 0}; it vanishes exactly when the family reduces to an analytic
    function, as happens under the reciprocal-quartic gauge.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bare = GAPair(family_field(spec, convention), zero_gamma(4), builtin_algebra("h4-psi"))
    return grid_max(float(np.max(np.abs(cr_residual(bare, xi, cfg)))) for xi in points)
