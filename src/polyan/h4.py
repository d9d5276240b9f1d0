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

import collections
import contextlib
import functools
import math
import operator
import re
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .algebra import builtin_algebra
from .errors import ConeError, ContractError, DomainError
from .fields import (
    _EPS,
    DiffConfig,
    GAPair,
    GammaField,
    VectorField,
    _cr_from,
    fd_jacobian,
    grid_max,
)

CONVENTIONS = ("as-printed", "reciprocal")
ORIENTATIONS = ("as-printed", "transposed")


class ScalarField:
    """Positive scalar profile, written once as formula(m, x): the value and the gradient's components at
    a point x[i] in the forms m of arrays (_ARRAYS, x = np.moveaxis(points, -1, 0)) or of a trace (_Trace).
    value_and_grad maps points (..., n) to the values (...) and gradients (..., n), func to the values;
    other shapes raise ContractError, and one point gives numpy floats.  A gauge of a field kappa keeps
    it, and of_kappa(m, kappa's value and gradient) gives it."""

    def __init__(self, formula: Callable):
        def value_and_grad(x):
            v, g = formula(_ARRAYS, np.moveaxis(x, -1, 0))
            g = np.moveaxis(np.asarray(g), 0, -1)
            if (np.shape(v), g.shape) != (x.shape[:-1], x.shape):
                raise ContractError(f"a scalar field's formula gave a value of shape {np.shape(v)} and a gradient "
                                    f"of shape {g.shape} on points of shape {x.shape}")
            return v, g

        self.func = lambda x: value_and_grad(x)[0]
        self.value_and_grad, self.formula = value_and_grad, formula
        self.kappa = self.of_kappa = None

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))[()]

    def gradient(self, x) -> np.ndarray:
        return self.value_and_grad(np.asarray(x, dtype=float))[1]


def _raise_if(bad, error: type, message: str) -> None:
    """Raise error(message) if bad holds anywhere (a bool or numpy bool skips .any());
    a traced bad emits that test into its listing, unless it is the literal False."""
    if isinstance(bad, _Var):
        if bad.value is not False:
            bad.trace.lines.append((None, f"if {bad.text}: raise {bad.trace.bind(error, error.__name__)}({message!r})",
                                    False))
    elif bad.any() if isinstance(bad, np.ndarray) else bad:
        raise error(message)


def _exp(t):
    """np.exp, raising OverflowError where it overflows, as math.exp does."""
    v = np.exp(t)
    _raise_if(v == np.inf, OverflowError, "math range error")
    return v


def _quartic(t):
    """t ** 4 as C pow computes it for a Python float, raising OverflowError
    where it overflows; numpy's power may differ from C pow in the last bit."""
    v = np.float_power(t, 4)
    _raise_if(v == np.inf, OverflowError, "math range error")
    return v


def _dot(a, b):
    """The dot product of two points' four components, arrays or floats, as one
    left-to-right sum of products; BLAS may fuse them, differently on each CPU."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


# What a formula does on points of arrays, np.moveaxis(points, -1, 0), where a gradient is a list or
# an array (n, ...) of components; a constant is a read-only broadcast view, a numpy float at one point.
_ARRAYS = SimpleNamespace(exp=_exp, quartic=_quartic,
                          full=lambda t, value: np.broadcast_to(value, np.shape(t))[()],
                          zeros=lambda x: np.broadcast_to(0.0, np.shape(x))[()])


class _Var:
    """A float of a traced formula, shown by its name or literal in the listing; each operation on it
    appends at most one assignment to the listing, in the order Python runs it.  kind is the value's
    type where it is known (float, bool or int), for the identity rule, and value a literal's value."""

    def __init__(self, trace: _Trace, text: str, kind: type | None = None, value=None):
        self.trace, self.text, self.kind, self.value = trace, text, kind, value

    def __bool__(self):
        raise TypeError("a traced value has no truth value; test it with _raise_if")

    def __abs__(self):
        return self.trace.apply(abs, self, name="abs") if self.value is None else self.trace.var(abs(self.value))

    def __neg__(self):  # -t, never 0.0 - t: that is 0.0 where -t is -0.0
        return self.trace.var(-self.value) if self.value is not None else self.trace.emit(f"-{self.text}", None, True)

    def __pos__(self):  # +b of a bool b is an int, so only a float is its own +
        if self.kind is float:
            return self
        return self.trace.var(+self.value) if self.value is not None else self.trace.emit(f"+{self.text}", None, True)

    def __array_ufunc__(self, ufunc, method, *args):
        if ufunc in _UFUNC_OPS and len(args) == 2:  # a numpy scalar's operator: the same IEEE operation
            return self.trace.op(args[0], _UFUNC_OPS[ufunc], args[1])
        return self.trace.apply(ufunc, *args, name=ufunc.__name__)


_OPS, _FOLD = "add + sub - mul * truediv / pow ** or | lt < le <= eq == ne != gt > ge >=".split(), {}
for _op, _sign in zip(_OPS[::2], _OPS[1::2]):
    setattr(_Var, f"__{_op}__", lambda a, b, s=_sign: a.trace.op(a, s, b))
    setattr(_Var, f"__r{_op}__", lambda a, b, s=_sign: a.trace.op(b, s, a))
    _FOLD[_sign] = getattr(operator, f"__{_op}__")
_UFUNC_OPS = {np.add: "+", np.subtract: "-", np.multiply: "*", np.true_divide: "/", np.less: "<",
              np.less_equal: "<=", np.equal: "==", np.not_equal: "!=", np.greater: ">", np.greater_equal: ">="}
_IDENTITY = {"*": ("1.0", float), "/": ("1.0", float), "-": ("0.0", float), "|": ("False", bool)}
_TEMP = re.compile(r"\bt\d+\b")


class _Trace:
    """The traced form of a formula at one point of floats: values are _Vars, and the formula leaves a listing of
    straight-line code.  Constants are repr literals; callables are bound by name and called opaquely."""

    def __init__(self):
        self.lines, self.names, self.shared, self.handler = [], {"inf": math.inf, "nan": math.nan}, {}, []

    def var(self, a) -> _Var:
        """a as a _Var: itself if traced, a literal if a number (a numpy float as its float), else bound by name."""
        if isinstance(a, _Var):
            return a
        a = float(a) if isinstance(a, np.floating) else a
        if type(a) in (bool, int, float):
            return _Var(self, f"({a!r})" if math.copysign(1.0, a) < 0 else repr(a), type(a), a)
        return _Var(self, self.bind(a))

    def literal(self, a) -> str:
        return f"[{', '.join(map(self.literal, a))}]" if isinstance(a, (list, np.ndarray)) else self.var(a).text

    def bind(self, obj, name: str | None = None) -> str:
        name = name or f"f{len(self.names)}"
        self.names[name] = obj
        return name

    def emit(self, text: str, kind: type | None = None, op: bool = False) -> _Var:
        """The _Var of a line t = text, or of an earlier line of the same text, whose value it is: a line's
        operation is deterministic.  op marks an operator expression."""
        if text not in self.shared:
            self.lines.append((f"t{len(self.lines)}", text, op))
            self.shared[text] = _Var(self, self.lines[-1][0], kind)
        return self.shared[text]

    def op(self, a, s: str, b) -> _Var:
        """a s b: a literal where both are literals and Python's operation does not raise; the other operand at an
        identity exact in IEEE (x * 1.0, 1.0 * x, x - 0.0, x / 1.0 of a float, b | False, False | b of a bool; not
        x + 0.0: -0.0 + 0.0 is 0.0); else a line, or an earlier one of the same text.  Each rule stays for the
        operations it saves in a geodesic stage: folding 27 -> 15 (constant kappa and gauge), identities 54 -> 45
        (gaussian kappa), sharing 47 -> 29 (constant kappa, reciprocal gauge: 8.9 -> 8.1 us a step)."""
        a, b = self.var(a), self.var(b)
        if a.value is not None and b.value is not None:
            with contextlib.suppress(ArithmeticError):
                if type(r := _FOLD[s](a.value, b.value)) in (bool, int, float):
                    return self.var(r)
        if (b.text, a.kind) == _IDENTITY.get(s):
            return a
        if (a.text, b.kind) == _IDENTITY.get(s) and s in "*|":
            return b
        kind = (bool if s[0] in "<=>!" or s == "|" and a.kind is b.kind is bool
                else float if None not in (a.kind, b.kind) and s in "+-*/" and float in (a.kind, b.kind) else None)
        return self.emit(f"{a.text} {s} {b.text}", kind, True)

    def apply(self, f: Callable, *args, name: str | None = None) -> _Var:
        return self.emit(f"{self.bind(f, name)}({', '.join(map(self.literal, args))})", float if f is float else None)

    def exp(self, t) -> _Var:
        """np.exp as a float, raising OverflowError where it overflows; math.exp may differ in the last bit."""
        v = self.apply(float, np.exp(t), name="float")
        _raise_if(v == math.inf, OverflowError, "math range error")
        return v

    def quartic(self, t) -> _Var:
        return self.apply(float, self.apply(_quartic, t, name="_quartic"), name="float")

    def full(self, t, value) -> _Var:
        return self.var(value)

    def zeros(self, x) -> list:
        return [self.var(0.0)] * len(x)

    def handle(self, error: type, fallback: Callable, *args) -> None:
        """The lines from here on run in a try block, whose handler of error returns fallback(*args)."""
        self.lines.append((None, "try:", False))
        self.handler = [f"except {self.bind(error, error.__name__)}:",
                        f"    return {self.bind(fallback, fallback.__name__)}({self.literal(list(args))[1:-1]})"]

    def body(self, out) -> list:
        """The lines, those after a try: in its block, a return of out and the handler.  A temporary used once is
        written into its use where its line comes right before those already written there, so that the operations
        keep their order: a gaussian-kappa extremal stage has 14 lines, not 51, and a step takes 4.9 us, not 5.4."""
        lines = [*self.lines, (None, f"return {self.literal(out)}", False)]
        uses, done = collections.Counter(_TEMP.findall(" ".join([s for _, s, _ in lines] + self.handler))), []
        for target, text, op in lines:
            for name in reversed(_TEMP.findall(text)):
                if uses[name] == 1 and done and done[-1][0] == name:
                    _, sub, sub_op = done.pop()
                    text = re.sub(rf"\b{name}\b", lambda _: f"({sub})" if op and sub_op else sub, text)
            done.append((target, text, op))
        start = next((i for i, line in enumerate(done) if line[1] == "try:"), len(done))
        return [f"{'    ' * (i > start)}{f'{t} = ' * bool(t)}{s}" for i, (t, s, _) in enumerate(done)] + self.handler


@functools.lru_cache(maxsize=32)
def _compiled(form: Callable, cfg, y: int) -> Callable:
    """form(cfg, m, state) traced once in the form m = _Trace() and compiled into one function
    of a state of y floats: straight-line code that runs form's float operations in the order
    form runs them, so it rounds and raises as form does.  Its __doc__ is its source, and its
    listing the lines after the state's unpacking."""
    m = _Trace()
    state = [_Var(m, f"y{i}", float) for i in range(y)]
    listing = m.body(form(cfg, m, state))
    source = f"def rhs(y):\n    {m.literal(state)[1:-1]}, = y\n" + "".join(f"    {s}\n" for s in listing)
    exec(source, m.names)
    m.names["rhs"].__doc__, m.names["rhs"].listing = source, listing
    return m.names["rhs"]


# A single-variable profile b is a formula b(m, t): the value and the derivative at t in the forms m.
def constant_b(c: float = 1.0) -> Callable:
    c = float(c)
    return lambda m, t: (m.full(t, c), m.full(t, 0.0))


def quadratic_b(c: float) -> Callable:
    c = float(c)
    return lambda m, t: (1.0 + c * t * t, 2.0 * c * t)


def gaussian_b(c: float = 1.0) -> Callable:
    c = float(c)

    def formula(m, t):
        e = m.exp(c * t * t)
        return e, 2.0 * c * t * e

    return formula


def _positive_constant(value: float, what: str) -> ScalarField:
    v = float(value)
    if v <= 0:
        raise ContractError(f"{what} must be positive")
    return ScalarField(lambda m, x: (m.full(x[0], v), m.zeros(x)))


def constant_kappa(value: float = 1.0) -> ScalarField:
    return _positive_constant(value, "kappa")


def gaussian_kappa(kappa0: float = 1.0, c: float = 1.0) -> ScalarField:
    """kappa0 * exp(c * sum(x_m^2) / 4), the radially quadratic log profile."""
    k0, c = float(kappa0), float(c)
    # c/4 and c/2 are exact, so these match c * s / 4 and v * c * x / 2
    quarter_c, half_c = c / 4.0, c / 2.0

    def formula(m, x):
        v = k0 * m.exp(quarter_c * _dot(x, x))
        return v, [v * half_c * t for t in x]

    return ScalarField(formula)


def kappa_from_b(b_funcs, kappa0: float = 1.0) -> ScalarField:
    """Separable profile kappa0 * prod |b_i(x_i)|^(1/4), from the formulas b_i(m, t)."""
    bs = tuple(b_funcs)
    if len(bs) != 4:
        raise ContractError("need exactly four component functions")
    k0 = float(kappa0)

    def formula(m, x):
        v, d = zip(*(b(m, t) for b, t in zip(bs, x)))
        _raise_if((v[0] == 0.0) | (v[1] == 0.0) | (v[2] == 0.0) | (v[3] == 0.0), DomainError,
                  "component function vanishes on the evaluation point")
        logs = [np.log(abs(w)) for w in v]
        val = k0 * m.exp((logs[0] + logs[1] + logs[2] + logs[3]) / 4.0)
        return val, [val * (e / w) / 4.0 for e, w in zip(d, v)]

    return ScalarField(formula)


def cross_term_kappa(kappa0: float = 1.0, c: float = 1.0, axes=(0, 1)) -> ScalarField:
    """kappa0 * exp(c * x_a x_b / 4); its mixed log second derivative is c.

    The axes are two different coordinate indices in 0..3.
    """
    k0, c = float(kappa0), float(c)
    a, b = int(axes[0]), int(axes[1])
    if not (0 <= a < 4 and 0 <= b < 4 and a != b):
        raise ContractError(f"cross-term axes must be two different indices in 0..3, got {a}, {b}")

    def formula(m, x):
        v, g = k0 * m.exp(c * x[a] * x[b] / 4.0), list(m.zeros(x))
        g[a], g[b] = v * c * x[b] / 4.0, v * c * x[a] / 4.0
        return v, g

    return ScalarField(formula)


def constant_lambda(value: float = 1.0) -> ScalarField:
    return _positive_constant(value, "gauge")


def reciprocal_quartic_lambda(kappa: ScalarField, kappa0: float, lambda0: float) -> ScalarField:
    """The gauge lambda0 * (kappa0 / kappa)^4 that makes the family analytic."""
    k0, l0 = float(kappa0), float(lambda0)

    def of_kappa(m, kv, dk):
        _raise_if(kv <= 0, DomainError, "kappa and the gauge must stay positive")
        lv = l0 * m.quartic(k0 / kv)
        return lv, [-4.0 * lv * d / kv for d in dk]

    field = ScalarField(lambda m, x: of_kappa(m, *kappa.formula(m, x)))
    field.kappa, field.of_kappa = kappa, of_kappa
    return field


@dataclass(frozen=True)
class FinslerConfig:
    """Quartic metric data: the scale kappa, the gauge lam, and the positive
    reference constants kappa0 and lambda0."""

    kappa: ScalarField
    lam: ScalarField
    kappa0: float = 1.0
    lambda0: float = 1.0

    def __post_init__(self):
        if self.kappa0 <= 0 or self.lambda0 <= 0:
            raise ContractError("reference constants must be positive")


def finsler_length(dxi, xi, cfg: FinslerConfig) -> float:
    """Length element (kappa^4 * d1 d2 d3 d4)^(1/4) on the positive cone."""
    dxi = np.asarray(dxi, dtype=float)
    if np.any(dxi < 0):
        raise ConeError(f"displacement {dxi.tolist()} leaves the positive cone")
    kap = cfg.kappa(np.asarray(xi, dtype=float))
    if kap <= 0:
        raise DomainError("kappa must be positive")
    return kap * float(np.prod(dxi)) ** 0.25


def momenta(dxi, xi, cfg: FinslerConfig) -> np.ndarray:
    """Momenta conjugate to a displacement; they always lie on the indicatrix."""
    dxi = np.asarray(dxi, dtype=float)
    if np.any(dxi <= 0):
        raise ConeError("momenta need a displacement strictly inside the cone")
    return finsler_length(dxi, xi, cfg) / (4.0 * dxi)

def indicatrix(p, xi, cfg: FinslerConfig) -> float:
    """Tangential indicatrix value prod(p) - (kappa/4)^4; zero on extremal momenta."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ConeError(f"momenta {p.tolist()} leave the positive cone")
    kap = cfg.kappa(np.asarray(xi, dtype=float))
    return float(np.prod(p)) - (kap / 4.0) ** 4


def _kappa_and_lam(metric: FinslerConfig, m, x) -> tuple:
    """The metric's kappa value and gradient, then lam's, at a point x[i] in the forms m; a gauge
    of the metric's kappa takes kappa's value and gradient instead of evaluating kappa again."""
    lam = metric.lam
    kv, dk = metric.kappa.formula(m, x)
    lv, dlam = lam.of_kappa(m, kv, dk) if lam.kappa is metric.kappa else lam.formula(m, x)
    return kv, dk, lv, dlam


def _log_gradients(metric: FinslerConfig, xi, m=_ARRAYS):
    """kappa, lam, grad ln lam and grad ln sigma (sigma = kappa^4 lam) at points (..., 4) in the forms m;
    in a _Trace the point's four components are traced values, and so are the results' entries."""
    kv, dk, lv, dlam = _kappa_and_lam(metric, m, np.moveaxis(xi, -1, 0))
    _raise_if((kv <= 0) | (lv <= 0), DomainError, "kappa and the gauge must stay positive")
    dln_lam = [d / lv for d in dlam]
    dln_sigma = [4.0 * d / kv + e for d, e in zip(dk, dln_lam)]
    return kv, lv, np.stack(dln_lam, axis=-1), np.stack(dln_sigma, axis=-1)


def _connection(dln_lam: np.ndarray, dln_sigma: np.ndarray, orientation: str) -> np.ndarray:
    g, i = np.zeros(dln_sigma.shape[:-1] + (4, 4, 4)), np.arange(4)
    g[..., i, i, :] = -dln_sigma[..., None, :]
    g[..., i, i, i] = -dln_lam
    return np.swapaxes(g, -1, -2) if orientation == "transposed" else g


def gamma_matrices(xi, cfg: FinslerConfig, orientation: str = "transposed") -> np.ndarray:
    """Connection coefficients of the quartic metric, G[..., i, k, j] at points xi (..., 4).

    For each component i the i-th row (k = i) holds minus the log-sigma
    gradient, except the diagonal slot which holds minus the log-gauge
    derivative; the transposed orientation moves the row to the j = i column.
    Both orientations give the same geodesics since the velocity contraction
    is symmetric.
    """
    if orientation not in ORIENTATIONS:
        raise ContractError(f"orientation must be one of {ORIENTATIONS}")
    _, _, dln_lam, dln_sigma = _log_gradients(cfg, np.asarray(xi, dtype=float))
    return _connection(dln_lam, dln_sigma, orientation)


# ---------------------------------------------------------------------------
# the closed-form family
# ---------------------------------------------------------------------------

_COMPATIBILITY_DIFF = DiffConfig(h=_EPS ** 0.25)
_DIAG = (Ellipsis, np.arange(4), np.arange(4))


def compatibility_residual(kappa_field: ScalarField, xi) -> np.ndarray:
    """Mixed second derivatives (..., 4, 4) of 4*log(kappa) at points (..., 4): the FD Jacobian,
    base step eps^(1/4), of kappa's log-gradient 4 grad(kappa) / kappa, averaged with its
    transpose.  The off-diagonal entries must vanish for the separable closed-form family
    to exist; the diagonal is reported as zero."""
    def dlogk4(x):
        kv, dk = kappa_field.value_and_grad(x)
        return 4.0 * dk / kv[..., None]

    out = fd_jacobian(dlogk4, xi, _COMPATIBILITY_DIFF)
    out[_DIAG] = 0.0
    return (out + np.swapaxes(out, -1, -2)) / 2.0


@dataclass(frozen=True)
class H4FamilySpec:
    """Parameters of the closed-form family of generalized-analytic functions.

    phi0 are the component amplitudes, mu the psi-components of the constant
    multiplier element, b the four single-variable profile formulas b(m, t)
    (nonvanishing on the domain), metric the quartic metric the family is built
    on: its scale kappa (the separable kappa_from_b(b, kappa0) for the compatible
    family), its positive gauge lam and their reference constants.  convention
    selects where the profile enters the component formula, 'reciprocal' being
    the placement that satisfies the defining system for generic profiles.
    """

    phi0: np.ndarray
    mu: np.ndarray
    b: tuple
    metric: FinslerConfig
    convention: str = "reciprocal"

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


def _profile_factors(spec: H4FamilySpec, xi: np.ndarray):
    """Values and log-derivatives of the placed profiles B_i(xi_i) at points (..., 4), one formula call per axis."""
    bv, bd = (np.stack(s, axis=-1) for s in zip(*(b(_ARRAYS, xi[..., i]) for i, b in enumerate(spec.b))))
    _raise_if(bv == 0.0, DomainError, "profile function vanishes on the evaluation point")
    if spec.convention == "reciprocal":
        return 1.0 / bv, -bd / bv
    return bv, bd / bv


def _phi(spec: H4FamilySpec, xi: np.ndarray, kv, lv, bvals: np.ndarray) -> np.ndarray:
    return (spec.phi0 * _quartic(kv / spec.metric.kappa0)[..., None] * (lv / spec.metric.lambda0)[..., None]
            * bvals * np.exp(spec.mu * xi))


def family_phi(spec: H4FamilySpec, xi) -> np.ndarray:
    """Components phi_i = phi0_i (kappa/kappa0)^4 (lam/lambda0) B_i exp(mu_i xi_i) at points (..., 4)."""
    xi, kappa, lam = np.asarray(xi, dtype=float), spec.metric.kappa, spec.metric.lam
    kv = kappa.func(xi)  # values alone: a gauge of kappa takes its value, with no gradient
    lv = lam.of_kappa(_ARRAYS, kv, ())[0] if lam.kappa is kappa else lam.func(xi)
    return _phi(spec, xi, kv, lv, _profile_factors(spec, xi)[0])


def _family_terms(spec: H4FamilySpec, xi: np.ndarray, logs: tuple | None = None):
    """phi, its exact Jacobian and gamma = G . phi (G the transposed connection matrices)
    at points (..., 4), from the spec's _log_gradients (logs, if given); gamma is
    -phi_i d_k ln sigma off the diagonal and -phi_i d_i ln lam on it."""
    kv, lv, dln_lam, dln_sigma = logs or _log_gradients(spec.metric, xi)
    bvals, dlog = _profile_factors(spec, xi)
    phi = _phi(spec, xi, kv, lv, bvals)
    jac = phi[..., :, None] * dln_sigma[..., None, :]
    gamma = -jac
    gamma[_DIAG] = -phi * dln_lam
    jac[_DIAG] += phi * (dlog + spec.mu)
    return phi, jac, gamma


def family_field(spec: H4FamilySpec) -> VectorField:
    """The family as a vector field over psi-coordinates, with exact Jacobian."""
    return VectorField(4, lambda xi: family_phi(spec, xi),
                       jacobian=lambda xi: _family_terms(spec, xi)[1])


def family_pair(spec: H4FamilySpec) -> GAPair:
    """The family paired with gamma = G . phi, G the transposed connection matrices."""
    gamma = GammaField(4, lambda xi: _family_terms(spec, xi)[2])
    return GAPair(family_field(spec), gamma, builtin_algebra("h4-psi"))


@dataclass(frozen=True)
class FamilyReport:
    """Grid verification of the family's defining relations, per convention."""

    residuals: dict
    selected: str
    n_points: int


def family_residual(spec: H4FamilySpec, points) -> FamilyReport:
    """Evaluate all sixteen defining relations on a grid, for both conventions.

    The residual is the max-abs mismatch of the gamma-object demanded by the
    constant-multiplier requirement against the one induced by the shared
    transposed connection, one pass over the (m, 4) points per convention, from one
    evaluation of the metric; the convention with the smaller grid maximum is
    selected.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    logs = _log_gradients(spec.metric, points)
    residuals = {}
    for conv in CONVENTIONS:
        placed = replace(spec, convention=conv)
        phi, jac, gamma_conn = _family_terms(placed, points, logs)
        gamma_mult = -jac
        gamma_mult[_DIAG] += placed.mu * phi
        residuals[conv] = grid_max(np.abs(gamma_conn - gamma_mult))
    selected = min(CONVENTIONS, key=lambda c: (residuals[c], CONVENTIONS.index(c)))
    return FamilyReport(residuals=residuals, selected=selected, n_points=points.shape[0])


def analytic_gamma_max(spec: H4FamilySpec, points) -> float:
    """Largest gamma-object entry the bare field would need to be analytic.

    Reconstructed as minus the plain-analyticity residual of the pair
    {phi, 0}, one contraction of the exact Jacobians at all points from one
    _family_terms pass; it vanishes exactly when the family reduces to an
    analytic function, as happens under the reciprocal-quartic gauge.
    """
    jac = _family_terms(spec, np.asarray(points, dtype=float))[1]
    return grid_max(np.abs(_cr_from(builtin_algebra("h4-psi"), jac)))
