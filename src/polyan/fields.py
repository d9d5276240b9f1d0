"""Generalized-analytic pairs: covariant derivatives, Cauchy-Riemann residuals,
the pair calculus, coordinate transforms, derivative chains and line integrals.

A pair couples a vector field f with a gamma-object field correcting its
partial derivatives into a covariant derivative.  The pair is
generalized-analytic at a point when the corrected derivative matrix factors
through the algebra product, which the residual operations here measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    PolyNumber,
    StructureConstants,
    invert,
    multiply,
    transform_constants,
)
from .errors import ContractError, DomainError, PolyanError, SingularQError, ZeroDivisorError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DiffConfig:
    """Numerical differentiation and quadrature settings.

    h is the base finite-difference step, scaled per coordinate by
    max(1, |x_k|); None picks eps^(1/3) for the 2nd-order scheme and
    eps^(1/5) for the 4th-order one.
    """

    h: float | None = None
    scheme: str = "central-2"
    quadrature_segments: int = 512

    def __post_init__(self):
        if self.scheme not in ("central-2", "central-4"):
            raise ContractError(f"unknown FD scheme {self.scheme!r}")
        if self.h is not None and self.h <= 0:
            raise ContractError("FD step must be positive")
        if self.quadrature_segments < 1:
            raise ContractError("quadrature_segments must be at least 1")

    def step(self, x: np.ndarray) -> np.ndarray:
        if self.h is not None:
            base = self.h
        elif self.scheme == "central-4":
            base = _EPS ** 0.2
        else:
            base = _EPS ** (1.0 / 3.0)
        h = base * np.maximum(1.0, np.abs(x))
        # keep x + h exactly representable
        return (x + h) - x


DEFAULT_DIFF = DiffConfig()


class Box:
    """Axis-aligned box domain."""

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ContractError("box bounds must be equal-length vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ContractError("box bounds must be finite")
        if np.any(hi < lo):
            raise ContractError("box upper bound below lower bound")
        self.lo = lo
        self.hi = hi
        self.n = lo.shape[0]

    def contains(self, x) -> bool:
        """Whether x lies in the box, up to a margin of 1e-9."""
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - 1e-9) and np.all(x <= self.hi + 1e-9))

    def grid(self, points_per_axis: int) -> np.ndarray:
        """All grid points as an (m, n) array, fastest index last; ContractError where hi - lo overflows."""
        with np.errstate(over="ignore"):
            if not np.isfinite(self.hi - self.lo).all():
                raise ContractError("box width hi - lo overflows")
        p = points_per_axis  # one index array per axis: np.meshgrid takes at most 32 arrays
        index = np.unravel_index(np.arange(p ** self.n), (p,) * self.n)
        return np.stack([np.linspace(self.lo[k], self.hi[k], p)[i] for k, i in enumerate(index)], axis=1)

    def intersect(self, other: "Box | None") -> "Box | None":
        if other is None:
            return self
        return Box(np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))


# probe offsets along one axis, in steps h_k; fd_jacobian weighs the values at them
_OFFSETS = {"central-2": (1.0, -1.0), "central-4": (2.0, 1.0, -1.0, -2.0)}


def fd_jacobian(func, x: np.ndarray, cfg: DiffConfig = DEFAULT_DIFF) -> np.ndarray:
    """Finite-difference derivatives J[..., *i, k] = d func_i / d x_k at points x (..., n) of a
    func with values of any shape, from one call of func on every probe (..., s, n)."""
    x = np.asarray(x, dtype=float)
    n, h, offsets = x.shape[-1], cfg.step(x), np.array(_OFFSETS[cfg.scheme])
    # row c * n + k of the probe stack is x + offsets[c] h_k e_k, exactly x off the axis k
    probes = (x[..., None, None, :] + offsets[:, None, None] * _diag(h)[..., None, :, :]).reshape(
        x.shape[:-1] + (offsets.size * n, n))
    vals = np.asarray(func(probes), dtype=float)
    if vals.shape[:x.ndim] != probes.shape[:-1]:
        raise ContractError(f"function returned shape {vals.shape}, expected one row per point {probes.shape[:-1]}")
    vals = vals.reshape(x.shape[:-1] + (offsets.size, n) + vals.shape[x.ndim:])
    tail = (slice(None),) * (vals.ndim - x.ndim)  # axis k, then the value's own axes
    v = [vals[(Ellipsis, c) + tail] for c in range(offsets.size)]
    if cfg.scheme == "central-4":
        diff, denom = -v[0] + 8 * v[1] - 8 * v[2] + v[3], 12 * h
    else:
        diff, denom = v[0] - v[1], 2 * h
    d = diff / denom.reshape(denom.shape + (1,) * (diff.ndim - denom.ndim))
    if d.ndim == x.ndim:  # the gradient of a scalar func
        return d
    # axis k last, after the value's own axes
    return np.ascontiguousarray(d.transpose(*range(x.ndim - 1), *range(x.ndim, d.ndim), x.ndim - 1))


def _stack_call(owner, what: str, func, x: np.ndarray, lead: tuple, value: tuple, alone=None):
    """func(x), a callable of owner, at a stack lead of points (..., n) or of path parameters (...), as a
    float array lead + value.  On two or more points it gives one row per point, bitwise the point's value
    alone: numpy's errors, another shape and, on func's first such call, rows 0 and 1 unequal to func of
    each alone (or to alone) raise ContractError naming the np.vectorize lift; polyan's errors pass."""
    many = len(lead) > 0 and math.prod(lead) > 1
    try:
        out = np.asarray(func(x), dtype=float)
        if out.shape != lead + value:  # on a stack, a ValueError to be named with the lift below
            raise (ValueError if many else ContractError)(f"{what} returned shape {out.shape}, expected {lead + value}")
        if many and id(func) not in getattr(owner, "_rows_checked", ()):
            rows = x.reshape((-1,) + x.shape[len(lead):])
            alone = [func(rows[r, ...]) for r in (0, 1)] if alone is None else alone
            if not all(np.array_equal(out.reshape((-1,) + value)[r], a, equal_nan=True) for r, a in enumerate(alone)):
                raise ValueError("rows 0 and 1 alone give other values than in the stack")
            vars(owner).setdefault("_rows_checked", set()).add(id(func))
        return out
    except (ValueError, TypeError, IndexError) as exc:
        if isinstance(exc, PolyanError) or not many:
            raise
        signature = f'({"n" * (x.ndim > len(lead))})->({",".join("n" * len(value))})'
        raise ContractError(f"a {what} gives one row per point, but on {x.shape}: {str(exc).strip()}; lift a one-point "
                            f'{what} with np.vectorize({"G" if what == "connection" else "f"}, signature="{signature}")'
                            ) from exc


def _rowwise(func, x: np.ndarray) -> np.ndarray:
    """A one-point callable applied to each point of x (..., n)."""
    rows = np.array([func(r) for r in x.reshape(-1, x.shape[-1])])
    return rows.reshape(x.shape[:-1] + rows.shape[1:])


class VectorField:
    """A map from points (..., n) to n-vectors (..., n), one row per point, with optional
    analytic Jacobian (..., n, n) and domain; a result of another shape raises ContractError."""

    def __init__(self, n: int, func: Callable, jacobian: Callable | None = None, domain: Box | None = None):
        self.n = int(n)
        self.func = func
        self.jacobian = jacobian
        self.domain = domain

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """func at points x (..., n), without the domain check."""
        return _stack_call(self, "vector field", self.func, x, x.shape[:-1], (self.n,))

    def check_point(self, x: np.ndarray):
        if self.domain is not None and not self.domain.contains(x):
            first = next(r for r in x.reshape(-1, self.n) if not self.domain.contains(r))
            raise DomainError(f"point {first.tolist()} outside field domain")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.check_point(x)
        return self._rows(x)

    def jac(self, x, cfg: DiffConfig = DEFAULT_DIFF) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.check_point(x)
        if self.jacobian is None:
            return fd_jacobian(self._rows, x, cfg)
        return _stack_call(self, "Jacobian", self.jacobian, x, x.shape[:-1], (self.n, self.n))

    def without_jacobian(self) -> "VectorField":
        """Copy that forgets the analytic Jacobian (forces finite differences)."""
        return VectorField(self.n, self.func, jacobian=None, domain=self.domain)


class GammaField:
    """Field of gamma-objects: points (..., n) -> (..., n, n) arrays, [..., i, k] = component i, direction k."""

    def __init__(self, n: int, func: Callable):
        self.n = int(n)
        self.func = func

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _stack_call(self, "gamma field", self.func, x, x.shape[:-1], (self.n, self.n))


def zero_gamma(n: int) -> GammaField:
    return GammaField(n, lambda x: np.zeros(x.shape[:-1] + (n, n)))


class GAPair:
    """A vector field together with its gamma-object field over a fixed algebra."""

    def __init__(self, f: VectorField, gamma: GammaField, S: StructureConstants):
        if f.n != S.n or gamma.n != S.n:
            raise ContractError("pair components disagree with the algebra dimension")
        self.f = f
        self.gamma = gamma
        self.S = S

    @property
    def n(self) -> int:
        return self.S.n


def _same_algebra(p1: GAPair, p2: GAPair):
    if p1.S.basis_tag != p2.S.basis_tag or p1.S.n != p2.S.n:
        raise ContractError(
            f"pairs live over different algebras: {p1.S.basis_tag!r} vs {p2.S.basis_tag!r}"
        )


def covariant_derivative(pair: GAPair, x, cfg: DiffConfig = DEFAULT_DIFF) -> np.ndarray:
    """Corrected derivative matrices D[..., i, k] = df_i/dx_k + gamma[i, k] at points x (..., n)."""
    return pair.f.jac(x, cfg) + pair.gamma(x)


def _derivative_coords(S: StructureConstants, D: np.ndarray, form: str = "auto") -> np.ndarray:
    """Coordinates of f' read off covariant derivative matrices D (..., n, n)."""
    if form == "auto":
        form = "unit" if S.unit_index is not None else "invariant"
    if form == "unit":
        if S.unit_index is None:
            raise ContractError("unit-direction derivative needs an algebra with a unit basis element")
        return D[..., :, S.unit_index].copy()
    if form == "invariant":
        qt = S.qtensor
        if qt.q_inv is None:
            raise SingularQError(
                f"q-tensor of algebra {S.basis_tag!r} is singular; residual needs a unit element"
            )
        return np.einsum("is,rsm,...mr->...i", qt.q_inv, S.p, D)
    raise ContractError(f"unknown derivative form {form!r}")


def derivative(pair: GAPair, x, cfg: DiffConfig = DEFAULT_DIFF, form: str = "auto") -> PolyNumber:
    """The derivative element of a generalized-analytic pair at a point.

    form "unit" reads the unit-direction column of the covariant derivative;
    form "invariant" contracts with the inverse q-tensor and works in any
    basis with nonsingular q; "auto" picks whichever is available.
    """
    D = covariant_derivative(pair, x, cfg)
    return PolyNumber(_derivative_coords(pair.S, D, form), pair.S.basis_tag)


def cr_residual(pair: GAPair, x, cfg: DiffConfig = DEFAULT_DIFF) -> np.ndarray:
    """Generalized Cauchy-Riemann residual matrices R[..., i, k] at points x (..., n).

    R = D - p . f', with f' eliminated through the unit direction when the
    algebra has one and through the invariant q-form otherwise.  The pair is
    generalized-analytic at x iff R vanishes; callers compare max|R| with
    their own tolerance.  With gamma = 0 this is exactly the analyticity
    residual of the plain theory.
    """
    return _cr_from(pair.S, covariant_derivative(pair, x, cfg))


def _cr_from(S: StructureConstants, D: np.ndarray) -> np.ndarray:
    """The Cauchy-Riemann residual D - p . f' of covariant derivative matrices D (..., n, n)."""
    return D - np.einsum("ikj,...j->...ik", S.p, _derivative_coords(S, D))


def grid_max(values) -> float:
    """Largest of the values (an iterable or an array); NaN if any is NaN, 0.0 if there are none."""
    values = values if isinstance(values, np.ndarray) else np.asarray(list(values))
    return float(np.max(values)) if values.size else 0.0


def residual_grid_report(pair: GAPair, points: np.ndarray, cfg: DiffConfig = DEFAULT_DIFF) -> dict:
    """Max-abs Cauchy-Riemann residual per point, plus grid max and mean.

    Returns the points (m, n), "max_abs" (m,) and "errors", the message of each failed row by its index.
    A point where the residual cannot be evaluated (outside the domain, no usable derivative form, a zero
    divisor) or is not finite fails: its max_abs is NaN and it counts in "failed_points"; the grid max and
    mean (a left-to-right sum) summarize the remaining points.  All points are evaluated in one call, or
    one at a time if some point cannot be.
    """
    points = np.asarray(points, dtype=float)
    try:
        max_abs, errors = np.max(np.abs(cr_residual(pair, points, cfg)), axis=(-2, -1)), {}
    except (DomainError, SingularQError, ZeroDivisorError):
        max_abs, errors = np.full(points.shape[0], np.nan), {}
        for i, x in enumerate(points):
            try:
                max_abs[i] = np.max(np.abs(cr_residual(pair, x, cfg)))
            except (DomainError, SingularQError, ZeroDivisorError) as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
    failed = ~np.isfinite(max_abs)
    errors = {i: errors.get(i, f"non-finite residual {max_abs[i]}") for i in np.flatnonzero(failed).tolist()}
    max_abs[failed] = np.nan
    values = max_abs[~failed]
    return {"points": points, "max_abs": max_abs, "errors": errors, "grid_max": grid_max(values),
            "grid_mean": float(np.add.accumulate(values)[-1] / values.size) if values.size else 0.0,
            "failed_points": len(errors)}


def gamma_from_prescribed(
    f: VectorField, fprime: VectorField, S: StructureConstants, cfg: DiffConfig = DEFAULT_DIFF
) -> GAPair:
    """Pair with gamma = -df/dx + p . f', which satisfies the residual identically.

    Any two smooth vector fields define a generalized-analytic pair this way;
    the prescribed fprime becomes the pair's derivative.
    """
    if f.n != S.n or fprime.n != S.n:
        raise ContractError("field dimensions disagree with the algebra")
    def gamma_func(x):
        return -f.jac(x, cfg) + np.einsum("ikj,...j->...ik", S.p, fprime(x))

    return GAPair(f, GammaField(S.n, gamma_func), S)


def pair_combine(alpha: float, p1: GAPair, beta: float, p2: GAPair) -> GAPair:
    """Linear combination with real coefficients; analyticity is preserved."""
    _same_algebra(p1, p2)
    a, b = float(alpha), float(beta)
    n = p1.n

    def func(x):
        return a * p1.f(x) + b * p2.f(x)

    jac = None
    if p1.f.jacobian is not None and p2.f.jacobian is not None:
        def jac(x):
            return a * p1.f.jac(x) + b * p2.f.jac(x)

    domain = p1.f.domain.intersect(p2.f.domain) if p1.f.domain is not None else p2.f.domain
    f = VectorField(n, func, jacobian=jac, domain=domain)
    gamma = GammaField(n, lambda x: a * p1.gamma(x) + b * p2.gamma(x))
    return GAPair(f, gamma, p1.S)


def pair_product(p1: GAPair, p2: GAPair) -> GAPair:
    """Algebra product of two pairs, valid in the frame of constant structure constants.

    The product field is p . (f1 x f2) and the gamma-object is the bilinear
    expression p . (gamma1 f2 + f1 gamma2); the derivative of the result obeys
    the usual product rule.
    """
    _same_algebra(p1, p2)
    S = p1.S
    p = S.p
    n = p1.n

    def func(x):
        return np.einsum("kij,...i,...j->...k", p, p1.f(x), p2.f(x))

    jac = None
    if p1.f.jacobian is not None and p2.f.jacobian is not None:
        def jac(x):
            f1, f2 = p1.f(x), p2.f(x)
            j1, j2 = p1.f.jac(x), p2.f.jac(x)
            return np.einsum("kij,...im,...j->...km", p, j1, f2) + np.einsum("kij,...i,...jm->...km", p, f1, j2)

    def gamma_func(x):
        f1, f2 = p1.f(x), p2.f(x)
        g1, g2 = p1.gamma(x), p2.gamma(x)
        return np.einsum("iab,...ak,...b->...ik", p, g1, f2) + np.einsum("iab,...a,...bk->...ik", p, f1, g2)

    domain = p1.f.domain.intersect(p2.f.domain) if p1.f.domain is not None else p2.f.domain
    f = VectorField(n, func, jacobian=jac, domain=domain)
    return GAPair(f, GammaField(n, gamma_func), S)


def product_compatibility_residual(Gamma, S: StructureConstants) -> np.ndarray:
    """Residual of the frame condition under which the product rule survives
    connection coefficients Gamma[i, k, j] at one point.  Zero identically for
    the constant frame."""
    G = np.asarray(Gamma, dtype=float)
    p = S.p
    return (
        np.einsum("ikm,mab->ikab", G, p)
        - np.einsum("mka,imb->ikab", G, p)
        - np.einsum("mkb,iam->ikab", G, p)
    )


def pair_quotient(num: GAPair, den: GAPair, x, cfg: DiffConfig = DEFAULT_DIFF):
    """Pointwise quotient value and its derivative.

    Returns (num/den, (den * num' - den' * num) / den^2) as algebra elements;
    raises ZeroDivisorError when the denominator value divides zero.
    """
    _same_algebra(num, den)
    S = num.S
    x = np.asarray(x, dtype=float)
    f1 = PolyNumber(den.f(x), S.basis_tag)
    f2 = PolyNumber(num.f(x), S.basis_tag)
    f1_inv = invert(f1, S)
    value = multiply(f2, f1_inv, S)
    d1 = derivative(den, x, cfg)
    d2 = derivative(num, x, cfg)
    numerator = multiply(f1, d2, S) - multiply(d1, f2, S)
    deriv = multiply(numerator, multiply(f1_inv, f1_inv, S), S)
    return value, deriv


def pair_compose(outer: GAPair, inner: GAPair, x, cfg: DiffConfig = DEFAULT_DIFF) -> PolyNumber:
    """Chain-rule derivative of outer(inner(.)) at x, as an algebra product."""
    _same_algebra(outer, inner)
    x = np.asarray(x, dtype=float)
    y = inner.f(x)
    d_outer = derivative(outer, y, cfg)
    d_inner = derivative(inner, x, cfg)
    return multiply(d_outer, d_inner, inner.S)


def square_pair(S: StructureConstants) -> GAPair:
    """The analytic pair (X^2, 0) with its exact Jacobian 2 p . X."""
    p = S.p

    def func(x):
        return np.einsum("kij,...i,...j->...k", p, x, x)

    def jac(x):
        return 2.0 * np.einsum("kij,...i->...kj", p, x)

    return GAPair(VectorField(S.n, func, jacobian=jac), zero_gamma(S.n), S)


# ---------------------------------------------------------------------------
# coordinate transformations
# ---------------------------------------------------------------------------

class Diffeo:
    """Smooth invertible coordinate map with analytic Jacobian and Hessian.

    hessian(x)[I, k, i] is the second derivative of the I-th new coordinate
    by the old coordinates k and i.  When no inverse map is supplied, inverse
    points are found by Newton iteration on the forward map.
    """

    def __init__(self, n, func, jacobian, hessian, inverse=None):
        self.n = int(n)
        self.func = func
        self.jacobian = jacobian
        self.hessian = hessian
        self._inverse = inverse

    def __call__(self, x):
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def jac(self, x):
        return np.asarray(self.jacobian(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x):
        return np.asarray(self.hessian(np.asarray(x, dtype=float)), dtype=float)

    def inverse_point(self, y) -> np.ndarray:
        """The point mapped to y; Newton stops at a relative residual of 1e-13."""
        y = np.asarray(y, dtype=float)
        if self._inverse is not None:
            return np.asarray(self._inverse(y), dtype=float)
        u = y.copy()
        for _ in range(60):
            r = self(u) - y
            if np.max(np.abs(r)) <= 1e-13 * max(1.0, float(np.max(np.abs(y)))):
                return u
            u = u - np.linalg.solve(self.jac(u), r)
        raise ContractError("diffeomorphism inverse did not converge")


def linear_diffeo(m: np.ndarray, offset=None) -> Diffeo:
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    m_inv = np.linalg.inv(m)
    return Diffeo(
        n,
        func=lambda x: m @ x + off,
        jacobian=lambda x: m,
        hessian=lambda x: np.zeros((n, n, n)),
        inverse=lambda y: m_inv @ (y - off),
    )


def _transport(diffeo: Diffeo, x: np.ndarray, fval: np.ndarray, gval: np.ndarray):
    """The Jacobian A of the map at x, its inverse B, and gamma in the new
    coordinates: A gamma B minus the inhomogeneous Hessian term (H . f) B."""
    a = diffeo.jac(x)
    try:
        b = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ContractError("coordinate map has singular Jacobian") from exc
    h = diffeo.hess(x)
    gamma = np.einsum("Ii,ik,kK->IK", a, gval, b) - np.einsum("Iki,i,kK->IK", h, fval, b)
    return a, b, gamma


def gamma_transform(pair: GAPair, diffeo: Diffeo, x, cfg: DiffConfig = DEFAULT_DIFF):
    """Pointwise transform of (f, gamma, covariant derivative) under a coordinate change.

    f transforms as a contravariant vector, gamma picks up the inhomogeneous
    Hessian term, and the covariant derivative transforms as a (1,1)-tensor;
    returns the transformed triple at the image point.
    """
    x = np.asarray(x, dtype=float)
    fval = pair.f(x)
    a, b, gamma_new = _transport(diffeo, x, fval, pair.gamma(x))
    return a @ fval, gamma_new, a @ covariant_derivative(pair, x, cfg) @ b


def transform_pair(pair: GAPair, diffeo: Diffeo) -> GAPair:
    """The pair as fields over the new coordinates (through the inverse map, one point at a time)."""
    n = pair.n

    def f_at(y):
        u = diffeo.inverse_point(y)
        return diffeo.jac(u) @ pair.f(u)

    def gamma_at(y):
        u = diffeo.inverse_point(y)
        return _transport(diffeo, u, pair.f(u), pair.gamma(u))[2]

    f, gamma = VectorField(n, lambda y: _rowwise(f_at, y)), GammaField(n, lambda y: _rowwise(gamma_at, y))
    for field in (f, gamma):  # each row is its own one-point call; the check would add two Newton solves
        field._rows_checked = {id(field.func)}
    return GAPair(f, gamma, pair.S)


def pair_change_basis(pair: GAPair, B) -> GAPair:
    """Re-express a pair in another linear basis, transforming the constants too."""
    s = B.s
    s_inv = B.s_inv
    n = pair.n
    S_new = transform_constants(pair.S, B)

    def f_new(y):
        return np.matvec(s, pair.f(np.matvec(s_inv, y)))

    jac = None
    if pair.f.jacobian is not None:
        def jac(y):
            return s @ pair.f.jac(np.matvec(s_inv, y)) @ s_inv

    def gamma_new(y):
        return s @ pair.gamma(np.matvec(s_inv, y)) @ s_inv

    return GAPair(VectorField(n, f_new, jacobian=jac), GammaField(n, gamma_new), S_new)


# ---------------------------------------------------------------------------
# connection-driven chains
# ---------------------------------------------------------------------------

class ConnectionField:
    """Position-dependent coefficients: points (..., n) -> (..., n, n, n) arrays G[..., i, k, j], one row per point.

    rates, if given, maps a state y = (x, v), a list of 2n floats, to the 2n floats (v, a), a_i = -G[i, k, j] v_k v_j.
    """

    def __init__(self, n: int, func: Callable, rates: Callable | None = None):
        self.n = int(n)
        self.func = func
        self.rates = rates

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _stack_call(self, "connection", self.func, x, x.shape[:-1], (self.n,) * 3)


def connection_residual(pair: GAPair, Gamma: ConnectionField, x) -> np.ndarray:
    """Residual of gamma[i, k] = G[i, k, j] f_j at points x (..., n), linking a pair to a shared connection."""
    x = np.asarray(x, dtype=float)
    return np.einsum("...ikj,...j->...ik", Gamma(x), pair.f(x)) - pair.gamma(x)


def chain_conditions(Gamma: ConnectionField, S: StructureConstants, x, cfg: DiffConfig = DEFAULT_DIFF):
    """Residual arrays of the two closure conditions under which repeated
    unit-direction derivatives of a pair stay generalized-analytic.

    The first is the algebraic compatibility of the unit-direction slice of
    the connection with the structure constants; the second is the
    curvature-like expression mixing its derivatives.  Both vanish for the
    zero connection.
    """
    if S.unit_index is None:
        raise ContractError("chain conditions need an algebra with a unit basis element")
    u = S.unit_index
    x = np.asarray(x, dtype=float)
    p = S.p
    G = Gamma(x)
    G1 = G[..., :, u, :]
    res_a = np.einsum("...ij,jkr->...ikr", G1, p) - np.einsum("ikj,...jr->...ikr", p, G1)

    dG = fd_jacobian(Gamma, x, cfg)
    t1 = np.swapaxes(dG[..., :, u, :, :], -1, -2)  # d G[i, u, r] / d x_k  -> [i, k, r]
    t2 = dG[..., u]                                # d G[i, k, r] / d x_u
    m1 = G - np.einsum("ikm,...mj->...ikj", p, G1)
    term_a = np.einsum("...ikj,...jr->...ikr", m1, G1)
    m2 = G - np.einsum("jkm,...mr->...jkr", p, G1)
    term_b = np.einsum("...ij,...jkr->...ikr", G1, m2)
    res_b = t1 - t2 + term_a - term_b
    return res_a, res_b


def derivative_chain(pair: GAPair, Gamma: ConnectionField, m: int, cfg: DiffConfig = DEFAULT_DIFF) -> GAPair:
    """m-fold unit-direction derivative of the pair, re-paired with gamma = G . f.

    Each step maps f to df/dx_unit + G[:, unit, :] f; when the chain
    conditions hold every iterate is again generalized-analytic.
    """
    S = pair.S
    if S.unit_index is None:
        raise ContractError("derivative chain needs an algebra with a unit basis element")
    if m < 0:
        raise ContractError("chain order must be nonnegative")
    u = S.unit_index

    f = pair.f
    for _ in range(m):
        f = _chain_step(f, Gamma, u, cfg)

    def gamma_func(x, f=f):
        return np.einsum("...ikj,...j->...ik", Gamma(x), f(x))

    return GAPair(f, GammaField(S.n, gamma_func), S)


def _chain_step(f: VectorField, Gamma: ConnectionField, u: int, cfg: DiffConfig) -> VectorField:
    """f -> df/dx_u + G[:, u, :] f; without an analytic Jacobian, df/dx_u is the FD along x_u alone."""
    def along_u(t, x):  # f at the points x, coordinate u moved to each of its probes t (..., [s,] 1)
        return f._rows(np.where(np.arange(f.n) == u, t, np.expand_dims(x, tuple(range(x.ndim - 1, t.ndim - 1)))))

    def func(x, f=f):
        if f.jacobian is None:
            f.check_point(x)
            d = fd_jacobian(lambda t: along_u(t, x), x[..., u:u + 1], cfg)[..., 0]
        else:
            d = f.jac(x, cfg)[..., :, u]
        return d + np.matvec(Gamma(x)[..., :, u, :], f(x))

    return VectorField(f.n, func, domain=f.domain)


# ---------------------------------------------------------------------------
# paths and line integrals
# ---------------------------------------------------------------------------

class Path:
    """Piecewise-smooth parametric curve on [0, 1]: func, and velocity if given (else a central
    difference in the parameter), map parameters (...) to points (..., n), one row per parameter;
    func is checked on the stack [0, 1] against its start and end when built.
    Quadrature splits at the breakpoints, where the velocity may jump."""

    def __init__(self, func, velocity=None, breakpoints=()):
        self.func = func
        self.velocity = velocity
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        if any(not 0.0 < b < 1.0 for b in self.breakpoints):
            raise ContractError("breakpoints must lie strictly inside (0, 1)")
        self.start, self.end = (np.asarray(func(np.asarray(t)), dtype=float) for t in (0.0, 1.0))
        if self.start.ndim != 1:
            raise ContractError(f"path returned shape {self.start.shape} for one parameter, expected (n,)")
        _stack_call(self, "path", func, np.array([0.0, 1.0]), (2,), self.start.shape, alone=(self.start, self.end))

    def __call__(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        return _stack_call(self, "path", self.func, tau, tau.shape, self.start.shape)

    def vel(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if self.velocity is None:
            return fd_jacobian(lambda t: self(t[..., 0]), tau[..., None], DiffConfig(h=1e-7))[..., 0]
        return _stack_call(self, "path velocity", self.velocity, tau, tau.shape, self.start.shape)


def straight_path(x0, x1) -> Path:
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    d = x1 - x0
    return Path(lambda t: x0 + t[..., None] * d, velocity=lambda t: np.tile(d, np.shape(t) + (1,)))


def polyline_path(vertices) -> Path:
    """Straight legs through the vertices, equal parameter share per leg."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or len(verts) < 2:
        raise ContractError("polyline needs at least two vertices of equal length")
    m = len(verts) - 1
    steps = np.diff(verts, axis=0)

    def leg(t, top):
        """The leg of each parameter clipped to [0, top], and the local parameter on it."""
        s = np.clip(t, 0.0, top) * m
        k = np.minimum(s.astype(int), m - 1)
        return k, s - k

    def func(t):
        k, local = leg(t, 1.0)
        return verts[k] + local[..., None] * steps[k]

    breaks = [i / m for i in range(1, m)]
    return Path(func, velocity=lambda t: m * steps[leg(t, 1.0 - 1e-15)[0]], breakpoints=breaks)


def rectangle_loop(origin, edge1, edge2) -> Path:
    """Closed loop around the parallelogram spanned by two edges."""
    o = np.asarray(origin, dtype=float)
    u = np.asarray(edge1, dtype=float)
    v = np.asarray(edge2, dtype=float)
    return polyline_path([o, o + u, o + u + v, o + v, o])


def line_integral(F: VectorField, path: Path, S: StructureConstants, cfg: DiffConfig = DEFAULT_DIFF) -> PolyNumber:
    """Integral of p . F(x(tau)) dx/dtau over the path, by composite Simpson.

    Pieces between breakpoints are integrated separately so corners of
    polylines do not degrade the even-order convergence.
    """
    if F.n != S.n:
        raise ContractError("field dimension disagrees with the algebra")
    p = S.p
    panels = [np.zeros((1, S.n))]
    knots = [0.0, *path.breakpoints, 1.0]
    for a, b in zip(knots[:-1], knots[1:]):
        m = max(1, round(cfg.quadrature_segments * (b - a)))
        h = (b - a) / m
        # the 2m + 1 Simpson nodes: panel starts, each followed by its midpoint
        t = np.repeat(a + np.arange(m + 1) * h, 2)[:-1]
        t[1::2] += h / 2.0
        # velocity probes stay strictly inside the smooth piece so panel
        # endpoints shared with a corner read the correct one-sided velocity
        vel = path.vel(np.clip(t, a + 1e-11, b - 1e-11))
        v = np.einsum("ikj,...k,...j->...i", p, F(path(t)), vel)
        panels.append((h / 6.0) * (v[:-1:2] + 4.0 * v[1::2] + v[2::2]))
    # panel by panel, in order, as the composite rule adds them
    total = np.add.accumulate(np.concatenate(panels))[-1]
    return PolyNumber(total, S.basis_tag)


def path_independence_residual(pair: GAPair, x, cfg: DiffConfig = DEFAULT_DIFF) -> np.ndarray:
    """Antisymmetrized product of the field's Jacobian with the constants.

    T[i, k, m] = p[i,k,j] J[j,m] - p[i,m,j] J[j,k]; it vanishes exactly when
    line integrals of the field are path independent, which forces the field
    to be analytic in the plain sense.
    """
    x = np.asarray(x, dtype=float)
    J = pair.f.jac(x, cfg)
    p = pair.S.p
    return np.einsum("ikj,jm->ikm", p, J) - np.einsum("imj,jk->ikm", p, J)


# ---------------------------------------------------------------------------
# field constructors
# ---------------------------------------------------------------------------

def _diag(v: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., n, n) with the entries of v (..., n), exactly zero off the diagonal."""
    return np.where(np.eye(v.shape[-1], dtype=bool), v[..., None, :], 0.0)


def constant_field(values) -> VectorField:
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return VectorField(n, lambda x: np.broadcast_to(values, x.shape[:-1] + (n,)),
                       jacobian=lambda x: np.zeros(x.shape[:-1] + (n, n)))


def linear_field(a, offset=None) -> VectorField:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    if a.shape != (n, n) or off.shape != (n,):
        raise ContractError("linear field needs a square matrix and an offset of matching length")
    return VectorField(n, lambda x: np.matvec(a, x) + off,
                       jacobian=lambda x: np.broadcast_to(a, x.shape[:-1] + (n, n)))


def identity_field(n: int) -> VectorField:
    return linear_field(np.eye(n))


def componentwise_power_field(n: int, power: int) -> VectorField:
    k = int(power)
    return VectorField(n, lambda x: x ** k,
                       jacobian=lambda x: _diag(k * x ** (k - 1)) if k != 0 else np.zeros(x.shape + (n,)))


def componentwise_exp_field(n: int, scale: float = 1.0) -> VectorField:
    c = float(scale)
    return VectorField(n, lambda x: np.exp(c * x), jacobian=lambda x: _diag(c * np.exp(c * x)))


def monomial_field(n: int, component: int, exponents) -> VectorField:
    """Single nonzero component equal to a monomial in the coordinates."""
    comp = int(component)
    exps = np.asarray(exponents, dtype=int)
    if exps.shape != (n,):
        raise ContractError("exponents must have one entry per coordinate")

    def func(x):
        out = np.zeros(x.shape)
        out[..., comp] = np.prod(x ** exps, axis=-1)
        return out

    def jac(x):
        out = np.zeros(x.shape + (n,))
        for m in range(n):
            if exps[m] == 0:
                continue
            rest = np.prod(np.delete(x ** exps, m, axis=-1), axis=-1)
            out[..., comp, m] = exps[m] * x[..., m] ** (exps[m] - 1) * rest
        return out

    return VectorField(n, func, jacobian=jac)


def random_smooth_field(n: int, rng: np.random.Generator, amplitude: float = 1.0) -> VectorField:
    """Random field with linear, componentwise-quadratic and sine terms.

    Coefficients are bounded by the amplitude so finite differences of the
    field stay accurate; the analytic Jacobian is attached.
    """
    a = rng.uniform(-amplitude, amplitude, size=(n, n))
    b = rng.uniform(-amplitude, amplitude, size=n)
    q = rng.uniform(-amplitude, amplitude, size=(n, n))
    t = rng.uniform(-0.5 * amplitude, 0.5 * amplitude, size=(n, n))
    ph = rng.uniform(0.0, 2 * np.pi, size=(n, n))

    def func(x):
        return np.matvec(a, x) + b + np.matvec(q, x * x) + (t * np.sin(x[..., None, :] + ph)).sum(axis=-1)

    def jac(x):
        return a + 2.0 * q * x[..., None, :] + t * np.cos(x[..., None, :] + ph)

    return VectorField(n, func, jacobian=jac)
