"""Batch command-line front end.

One config file per run, no interactive mode.  Reports are JSON with a fixed
key order and floats printed at 17 significant digits, so identical configs
produce byte-identical artifacts; trajectories can be written as CSV.

Exit codes: 0 all checks passed, 1 a tolerance check failed, 2 malformed
config, 3 a runtime domain error or a non-finite residual (partial results
are still flushed).  Non-finite floats are written as null.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Callable

import numpy as np

from . import algebra as alg
from . import fields as fl
from . import geodesics as geo
from . import h4
from .algebra import _number
from .errors import (
    ContractError,
    DomainError,
    IntegrationError,
    SingularQError,
    ZeroDivisorError,
)

EXIT_OK = 0
EXIT_TOL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_Compute = Callable[[], "tuple[dict, bool]"]


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configs."""


class RuntimeFailure(Exception):
    """A runtime domain error with partial results worth flushing."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("error", "runtime failure"))
        self.payload = payload


# ---------------------------------------------------------------------------
# deterministic JSON writer (stable key order, fixed float format)
# ---------------------------------------------------------------------------

def _join(items, indent: int, brackets: str = "[]") -> str:
    """The items, texts none of them empty, one to a line at indent + 1, inside the brackets at indent."""
    pad = "  " * (indent + 1)
    body = f",\n{pad}".join(items)
    return f"{brackets[0]}\n{pad}{body}\n{'  ' * indent}{brackets[1]}" if body else brackets


def _float_template(shape: tuple, indent: int) -> str:
    """The JSON text of a float array of this shape, with %.17g for each entry."""
    return _join([_float_template(shape[1:], indent + 1) if len(shape) > 1 else "%.17g"] * shape[0], indent)


_RECORD_BLOCK = 4096  # grid records formatted per %


def _records(points: np.ndarray, max_abs: np.ndarray, errors: dict, indent: int) -> str:
    """The JSON text of a grid report's records at indent, {"point": [...], "max_abs": x} for each row of points
    (m, n) and max_abs (m,) or {"point": [...], "error": message} for a row in errors, by one % per block of
    rows over those that are all finite; the rest are _json's text, with a non-finite coordinate as null."""
    record = _join([f'"point": {_float_template(points.shape[1:], indent + 2)}', '"max_abs": %.17g'], indent + 1, "{}")
    spliced = errors.keys() | set(np.flatnonzero(~np.isfinite(points).all(1)).tolist())
    texts = {i: _json({"point": points[i], **({"error": errors[i]} if i in errors else {"max_abs": max_abs[i]})},
                      indent + 1).replace("%", "%%") for i in spliced}
    values, ok = np.column_stack([points, max_abs]), ~np.isin(np.arange(len(points)), list(spliced))

    def block(start):  # a block of rows formatted by one %, so that its floats alone are alive at once
        rows = range(start, min(start + _RECORD_BLOCK, len(points)))
        return f",\n{'  ' * (indent + 1)}".join(texts.get(i, record) for i in rows) % tuple(
            values[rows.start:rows.stop][ok[rows.start:rows.stop]].ravel().tolist())
    return _join((block(start) for start in range(0, len(points), _RECORD_BLOCK)), indent)


def _json(obj, indent: int = 0) -> str:
    """JSON text of obj, numpy arrays and scalars, tuples and non-string keys as the Python values they
    convert to; a finite float array with one % on its template, and a callable as its text at indent."""
    if callable(obj):
        return obj(indent)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype.kind == "f" and np.isfinite(obj).all():
            return _float_template(obj.shape, indent) % tuple(obj.ravel().tolist())
        obj = obj.tolist()
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        return _join((f"{json.dumps(str(k))}: {_json(v, indent + 1)}" for k, v in obj.items()), indent, "{}")
    if isinstance(obj, (list, tuple)):
        return _join((_json(v, indent + 1) for v in obj), indent)
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(report: dict) -> str:
    return _json(report) + "\n"


# ---------------------------------------------------------------------------
# catalogs: config dicts to library objects
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, what: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{what} is missing required key {key!r}")
    return cfg[key]


def _make_algebra(spec) -> alg.StructureConstants:
    if isinstance(spec, str):
        return alg.builtin_algebra(spec)
    if isinstance(spec, dict) and isinstance(spec.get("file"), str):
        return alg.load_algebra(spec["file"])
    if isinstance(spec, dict) and "file" not in spec:
        return alg.algebra_from_dict(spec)
    raise ConfigError(f"algebra must be a built-in name, a document or a file name string, got {spec!r}")


def _make_field(spec: dict, n: int) -> fl.VectorField:
    if not isinstance(spec, dict):
        raise ConfigError("field spec must be an object with a 'kind'")
    kind = _require(spec, "kind", "field spec")
    if kind == "constant":
        field = fl.constant_field(_number(_require(spec, "value", "constant field"), "value", shape=(n,)))
    elif kind == "linear":
        matrix = _number(_require(spec, "matrix", "linear field"), "matrix", shape=(n, n))
        offset = _number(spec["offset"], "offset", shape=(n,)) if "offset" in spec else None
        field = fl.linear_field(matrix, offset)
    elif kind == "identity":
        field = fl.identity_field(n)
    elif kind == "componentwise-power":
        field = fl.componentwise_power_field(n, _number(spec.get("power", 2), "power", True))
    elif kind == "componentwise-exp":
        field = fl.componentwise_exp_field(n, _number(spec.get("scale", 1.0), "scale"))
    elif kind == "monomial":
        component = _number(_require(spec, "component", "monomial field"), "component", True, within=(1, n)) - 1
        exponents = _number(_require(spec, "exponents", "monomial field"), "exponents", True, (n,))
        field = fl.monomial_field(n, component, exponents)
    elif kind == "h4-family":
        if n != 4:
            raise ConfigError("the family field is four-dimensional")
        field = h4.family_field(_make_family_spec(spec.get("family", spec)))
    else:
        raise ConfigError(f"unknown field kind {kind!r}")
    if "domain" in spec:
        field = fl.VectorField(n, field.func, jacobian=field.jacobian, domain=_make_box(spec["domain"], n, 1.0))
    return field


def _make_box(spec: dict, n: int, half_width: float) -> fl.Box:
    """A box from a spec's min and max, each n numbers, by default [-half_width, half_width]^n."""
    return fl.Box(*(_number(spec.get(key, [sign * half_width] * n), key, shape=(n,))
                    for key, sign in (("min", -1.0), ("max", 1.0))))


def _make_pair(cfg: dict, S: alg.StructureConstants) -> fl.GAPair:
    field = _make_field(_require(cfg, "field"), S.n)
    gspec = cfg.get("gamma", {"kind": "zero"})
    kind = gspec.get("kind", "zero")
    if kind == "zero":
        return fl.GAPair(field, fl.zero_gamma(S.n), S)
    if kind == "prescribed":
        fprime = _make_field(_require(gspec, "fprime", "gamma spec"), S.n)
        return fl.gamma_from_prescribed(field, fprime, S)
    raise ConfigError(f"unknown gamma kind {kind!r}")


_MAX_GRID_POINTS = 100_000  # of points_per_axis ** n: cr-residual peaks at 87 MB at 17^4 on H4, 0.7 KB a point
_MAX_STEPS_TIMES_N = 400_000  # of steps * n and segments * n: at most 167 MB (a geodesic's JSON report at n = 1)
_MAX_COUNT = 1000  # pair-ops samples: 0.7 s on h4-e


def _make_grid(spec: dict, n: int) -> np.ndarray:
    box = _make_box(spec, n, 0.5)
    points = _number(spec.get("points_per_axis", 3), "points_per_axis", True, within=(1, _MAX_GRID_POINTS))
    if points ** n > _MAX_GRID_POINTS:
        raise ConfigError(f"a grid of points_per_axis ** n = {points} ** {n} points is above {_MAX_GRID_POINTS}")
    return box.grid(points)


def _make_path(spec: dict, n: int) -> fl.Path:
    kind = _require(spec, "kind", "path spec")

    def point(key, shape=(n,)):
        return _number(_require(spec, key, "path"), key, shape=shape)

    if kind == "straight":
        return fl.straight_path(point("from"), point("to"))
    if kind == "polyline":
        return fl.polyline_path(point("vertices", (None, n)))
    if kind == "rectangle":
        return fl.rectangle_loop(point("origin"), point("edge1"), point("edge2"))
    raise ConfigError(f"unknown path kind {kind!r}")


def _make_b(spec: dict) -> Callable:
    kind = _require(spec, "kind", "profile spec")
    if kind == "constant":
        return h4.constant_b(_number(spec.get("c", 1.0), "c"))
    if kind == "quadratic":
        return h4.quadratic_b(_number(spec.get("c", 0.25), "c"))
    if kind == "gaussian":
        return h4.gaussian_b(_number(spec.get("c", 1.0), "c"))
    raise ConfigError(f"unknown profile kind {kind!r}")


def _make_kappa(spec: dict, kappa0: float, b_funcs=None) -> h4.ScalarField:
    kind = spec.get("kind", "from-b")
    if kind == "constant":
        return h4.constant_kappa(_number(spec.get("value", kappa0), "value"))
    if kind == "gaussian":
        return h4.gaussian_kappa(kappa0, _number(spec.get("c", 1.0), "c"))
    if kind == "cross-term":
        a, b = _number(spec.get("axes", [1, 2]), "cross-term axes", True, (2,), within=(1, 4))
        if a == b:
            raise ConfigError(f"cross-term axes must be two different axes, got {a}, {b}")
        return h4.cross_term_kappa(kappa0, _number(spec.get("c", 1.0), "c"), (a - 1, b - 1))
    if kind == "from-b":
        if b_funcs is None:
            raise ConfigError("kappa kind 'from-b' needs profile functions")
        return h4.kappa_from_b(b_funcs, kappa0)
    raise ConfigError(f"unknown kappa kind {kind!r}")


def _make_lambda(spec: dict, kappa: h4.ScalarField, kappa0: float, lambda0: float) -> h4.ScalarField:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return h4.constant_lambda(_number(spec.get("value", lambda0), "value"))
    if kind == "kappa-reciprocal":
        return h4.reciprocal_quartic_lambda(kappa, kappa0, lambda0)
    raise ConfigError(f"unknown lambda kind {kind!r}")


def _make_profiles(b_specs) -> tuple:
    if isinstance(b_specs, dict):
        b_specs = [b_specs] * 4
    if len(b_specs) != 4:
        raise ConfigError("need one profile spec or exactly four")
    return tuple(_make_b(s) for s in b_specs)


def _make_metric(cfg: dict, b_funcs=None, kappa_default: str = "constant") -> h4.FinslerConfig:
    """kappa, lam, kappa0 and lambda0; b_funcs default to the config's own profiles, if any."""
    kappa0 = _number(cfg.get("kappa0", 1.0), "kappa0")
    lambda0 = _number(cfg.get("lambda0", 1.0), "lambda0")
    if b_funcs is None and cfg.get("b"):
        b_funcs = _make_profiles(cfg["b"])
    kappa_spec = cfg.get("kappa")
    kappa = _make_kappa({"kind": kappa_default} if kappa_spec is None else kappa_spec, kappa0, b_funcs)
    lam = _make_lambda(cfg.get("lam", {"kind": "constant"}), kappa, kappa0, lambda0)
    return h4.FinslerConfig(kappa=kappa, lam=lam, kappa0=kappa0, lambda0=lambda0)


def _make_family_spec(cfg: dict) -> h4.H4FamilySpec:
    b_funcs = _make_profiles(cfg.get("b", {"kind": "constant", "c": 1.0}))
    return h4.H4FamilySpec(
        phi0=_number(cfg.get("phi0", [1.0] * 4), "phi0", shape=(4,)),
        mu=_number(cfg.get("mu", [0.0] * 4), "mu", shape=(4,)),
        b=b_funcs, metric=_make_metric(cfg, b_funcs, kappa_default="from-b"),
        convention=cfg.get("convention", "reciprocal"),
    )


def _make_connection(spec: dict) -> geo.ConnectionField:
    kind = _require(spec, "kind", "connection spec")
    if kind == "zero":
        return geo.zero_connection(_number(spec.get("n", 4), "n", True, within=(1, alg._MAX_DIMENSION)))
    if kind == "structure-scaled":
        S = _make_algebra(_require(spec, "algebra", "connection spec"))
        return geo.connection_from_structure(S, _number(spec.get("scale", 1.0), "scale"))
    if kind == "finsler":
        return geo.finsler_connection(_make_metric(spec), spec.get("orientation", "transposed"))
    raise ConfigError(f"unknown connection kind {kind!r}")


# ---------------------------------------------------------------------------
# commands: each builds every input from the config, then hands back the
# computation, so that a bad value fails before anything is computed
# ---------------------------------------------------------------------------

def _cmd_algebra_check(cfg: dict, tol: float, rng) -> _Compute:
    S = _make_algebra(_require(cfg, "algebra"))

    def compute():
        report = alg.verify_structure(S, tol=tol)
        qt = alg.q_tensor(S)
        results = {
            "algebra": S.basis_tag,
            "n": S.n,
            "commutativity_residual": report.commutativity,
            "associativity_residual": report.associativity,
            "unit_residual": report.unit,
            "q_det": qt.det,
            "q_matrix": qt.q,
            "q_singular": qt.q_inv is None,
        }
        worst = fl.grid_max([report.commutativity, report.associativity, report.unit])
        return {"results": results, "max_residual": worst}, report.passed
    return compute


def _cmd_cr_residual(cfg: dict, tol: float, rng) -> _Compute:
    S = _make_algebra(_require(cfg, "algebra"))
    pair = _make_pair(cfg, S)
    points = _make_grid(cfg.get("grid", {}), S.n)
    diff = fl.DiffConfig(scheme=cfg.get("scheme", "central-2"))

    def compute():
        results = fl.residual_grid_report(pair, points, diff)
        rows = results["points"], results.pop("max_abs"), results.pop("errors")
        results["points"] = lambda indent: _records(*rows, indent)
        payload = {"results": results, "max_residual": results["grid_max"]}
        if results["failed_points"]:
            raise RuntimeFailure(payload)
        return payload, results["grid_max"] <= tol
    return compute


def _cmd_pair_ops(cfg: dict, tol: float, rng) -> _Compute:
    S = _make_algebra(_require(cfg, "algebra"))
    count = _number(cfg.get("count", 10), "count", True, within=(1, _MAX_COUNT))
    points = _make_grid(cfg.get("grid", {}), S.n)
    diff = fl.DiffConfig()

    def compute():
        unit = S.unit()
        samples = {"product_residual": [], "combine_residual": [],
                   "product_rule": [], "quotient_roundtrip": [], "compose_vs_product": []}
        for _ in range(count):
            f1 = fl.random_smooth_field(S.n, rng, amplitude=0.5)
            g1 = fl.random_smooth_field(S.n, rng, amplitude=0.5)
            f2 = fl.random_smooth_field(S.n, rng, amplitude=0.5)
            g2 = fl.random_smooth_field(S.n, rng, amplitude=0.5)
            p1 = fl.gamma_from_prescribed(f1, g1, S)
            p2 = fl.gamma_from_prescribed(f2, g2, S)
            prod = fl.pair_product(p1, p2)
            comb = fl.pair_combine(1.0, p1, -2.0, p2)
            x = points[int(rng.integers(0, points.shape[0]))]
            samples["product_residual"].append(float(np.max(np.abs(fl.cr_residual(prod, x, diff)))))
            samples["combine_residual"].append(float(np.max(np.abs(fl.cr_residual(comb, x, diff)))))
            d_rule = fl.derivative(prod, x, diff) - (
                alg.multiply(fl.derivative(p1, x, diff), S.element(p2.f(x)), S)
                + alg.multiply(S.element(p1.f(x)), fl.derivative(p2, x, diff), S)
            )
            samples["product_rule"].append(float(np.max(np.abs(d_rule.coords))))
            # denominator near the unit stays invertible on the sample box
            den_f = fl.pair_combine(0.15, p1, 1.0, fl.GAPair(
                fl.constant_field(unit.coords), fl.zero_gamma(S.n), S))
            num = fl.pair_product(den_f, p2)
            value, deriv = fl.pair_quotient(num, den_f, x, diff)
            samples["quotient_roundtrip"] += [
                float(np.max(np.abs(value.coords - p2.f(x)))),
                float(np.max(np.abs(deriv.coords - fl.derivative(p2, x, diff).coords))),
            ]
            chain = fl.pair_compose(fl.square_pair(S), p1, x, diff)
            product_route = fl.derivative(fl.pair_product(p1, p1), x, diff)
            samples["compose_vs_product"].append(float(np.max(np.abs(chain.coords - product_route.coords))))
        results = {key: fl.grid_max(values) for key, values in samples.items()}
        worst = fl.grid_max(results.values())
        results["count"] = count
        return {"results": results, "max_residual": worst}, worst <= tol
    return compute


def _cmd_line_integral(cfg: dict, tol: float, rng) -> _Compute:
    S = _make_algebra(_require(cfg, "algebra"))
    field = _make_field(_require(cfg, "field"), S.n)
    path = _make_path(_require(cfg, "path"), S.n)
    path_b = _make_path(cfg["path_b"], S.n) if "path_b" in cfg else None
    segments = _number(cfg.get("segments", 512), "segments", True, within=(1, _MAX_STEPS_TIMES_N // S.n))
    diff = fl.DiffConfig(quadrature_segments=segments)
    expect = cfg.get("expect", "equal")
    if expect not in ("equal", "different"):
        raise ConfigError(f"unknown expectation {expect!r}")
    min_gap = _number(cfg.get("min_difference", 1e-3), "min_difference", within=(0, math.inf))

    def compute():
        values = [fl.line_integral(field, p, S, diff).coords for p in (path, path_b) if p is not None]
        results = {"integral": values[0]}
        if path_b is not None:
            difference = float(np.max(np.abs(values[0] - values[1])))
            results["integral_b"] = values[1]
            results["difference"] = difference
        if not np.all(np.isfinite(values)):
            raise RuntimeFailure({"results": results})
        if path_b is None:
            return {"results": results, "max_residual": 0.0}, True
        if expect == "equal":
            return {"results": results, "max_residual": difference}, difference <= tol
        results["min_difference"] = min_gap
        return {"results": results, "max_residual": 0.0}, difference > min_gap
    return compute


def _cmd_geodesic(cfg: dict, tol: float, rng) -> _Compute:
    gamma = _make_connection(_require(cfg, "connection"))
    s0 = geo.GeodesicState(*(_number(_require(cfg, key), key, shape=(gamma.n,)) for key in ("x0", "v0")))
    steps = _number(cfg.get("steps", 1000), "steps", True, within=(1, _MAX_STEPS_TIMES_N // gamma.n))
    icfg = geo.IntegratorConfig(steps=steps, t_end=_number(cfg.get("t_end", 1.0), "t_end"))

    def compute():
        traj = geo.integrate_geodesic(gamma, s0, icfg)
        results = {
            "steps": icfg.steps,
            "samples": len(traj),
            "final_x": traj.x[-1],
            "final_v": traj.v[-1],
        }
        return {"results": results, "max_residual": None, "trajectory": traj}, True
    return compute


def _cmd_extremal(cfg: dict, tol: float, rng) -> _Compute:
    metric = _make_metric(cfg)
    xi0 = _number(_require(cfg, "xi0"), "xi0", shape=(4,))
    icfg = geo.IntegratorConfig(
        steps=_number(cfg.get("steps", 1000), "steps", True, within=(1, _MAX_STEPS_TIMES_N // 4)),
        t_end=_number(cfg.get("t_end", 1.0), "t_end"),
        drift_tol=tol,
    )
    p0 = (_number(cfg["p0"], "p0", shape=(4,)) if "p0" in cfg
          else h4.momenta(_number(_require(cfg, "dxi0"), "dxi0", shape=(4,)), xi0, metric))
    e0 = geo.ExtremalState(xi0, p0)
    geo._check_start(metric, e0, icfg.drift_tol)

    def compute():
        traj = geo.integrate_extremal(metric, e0, icfg)
        results = {
            "steps": icfg.steps,
            "samples": len(traj),
            "final_xi": traj.xi[-1],
            "final_p": traj.p[-1],
            "max_drift": traj.max_drift,
        }
        return {"results": results, "max_residual": traj.max_drift, "trajectory": traj}, traj.max_drift <= tol
    return compute


def _cmd_family_verify(cfg: dict, tol: float, rng) -> _Compute:
    spec = _make_family_spec(cfg)
    points = _make_grid(cfg.get("grid", {}), 4)

    def compute():
        report = h4.family_residual(spec, points)
        compat_max = fl.grid_max(np.abs(h4.compatibility_residual(spec.metric.kappa, points)))
        gamma_needed = h4.analytic_gamma_max(spec, points)
        best = report.residuals[report.selected]
        results = {
            "residual_as_printed": report.residuals["as-printed"],
            "residual_reciprocal": report.residuals["reciprocal"],
            "selected_convention": report.selected,
            "compatibility_max": compat_max,
            "analytic_gamma_max": gamma_needed,
            "n_points": report.n_points,
        }
        return {"results": results, "max_residual": best}, best <= tol
    return compute


# command name -> (handler, default tolerance, writes a trajectory)
_HANDLERS = {
    "algebra-check": (_cmd_algebra_check, 1e-12, False),
    "cr-residual": (_cmd_cr_residual, 1e-7, False),
    "pair-ops": (_cmd_pair_ops, 1e-7, False),
    "line-integral": (_cmd_line_integral, 1e-8, False),
    "geodesic": (_cmd_geodesic, 0.0, True),
    "extremal": (_cmd_extremal, 1e-6, True),
    "family-verify": (_cmd_family_verify, 1e-7, False),
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _write_output(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run(command: str, config: dict, output: str | None = None, fmt: str | None = None,
        tol: float | None = None, seed: int = 0) -> int:
    """Execute one command against a parsed config; returns the exit code.

    A value the command cannot build its inputs from raises ConfigError;
    a domain error while computing flushes a partial report and returns 3.
    """
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    handler, default_tol, writes_trajectory = _HANDLERS[command]
    try:
        tol = default_tol if tol is None else _number(tol, "tol", within=(0, math.inf))
        seed = _number(seed, "seed", True, within=(0, math.inf))
    except ContractError as exc:
        raise ConfigError(str(exc)) from None
    if fmt is None:
        fmt = "csv" if writes_trajectory else "json"
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {fmt!r}")
    if fmt == "csv" and not writes_trajectory:
        raise ConfigError(f"command {command!r} produces no CSV trajectory")
    rng = np.random.default_rng(seed)
    report = {
        "command": command,
        "config_echo": dict(config, seed=seed, tol=tol),
        "results": None,
        "max_residual": None,
        "pass": False,
    }
    try:
        try:
            compute = handler(config, tol, rng)
        except DomainError:
            raise
        except (ContractError, ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
            raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
        # a non-finite value is reported as such; numpy's warning about it is noise
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            payload, passed = compute()
    except RuntimeFailure as exc:
        report.update(exc.payload)
        _write_output(render_report(report), output)
        return EXIT_RUNTIME
    except (DomainError, ZeroDivisorError, SingularQError, IntegrationError, ContractError,
            OverflowError) as exc:
        report["results"] = {"error": f"{type(exc).__name__}: {exc}"}
        _write_output(render_report(report), output)
        return EXIT_RUNTIME
    trajectory = payload.pop("trajectory", None)
    report.update(payload)
    worst = report["max_residual"]
    non_finite = isinstance(worst, float) and not math.isfinite(worst)
    report["pass"] = bool(passed) and not non_finite
    if fmt == "csv":
        buf = io.StringIO()
        if isinstance(trajectory, geo.ExtremalTrajectory):
            geo.write_extremal_csv(trajectory, buf)
        else:
            geo.write_geodesic_csv(trajectory, buf)
        _write_output(buf.getvalue(), output)
    else:
        if trajectory is not None:
            report["results"]["trajectory"] = trajectory.columns()
        _write_output(render_report(report), output)
    if non_finite:
        return EXIT_RUNTIME
    return EXIT_OK if passed else EXIT_TOL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyan",
        description="Verification and integration runs for poly-number field calculus.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _HANDLERS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--output", default=None, help="artifact path (default stdout)")
        sp.add_argument("--format", default=None, choices=("json", "csv"), dest="fmt")
        sp.add_argument("--tol", type=float, default=None, help="override the pass tolerance")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config root must be an object")
        return run(args.command, config, output=args.output, fmt=args.fmt,
                   tol=args.tol, seed=args.seed)
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
