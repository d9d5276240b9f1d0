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

import numpy as np

from . import algebra as alg
from . import fields as fl
from . import geodesics as geo
from . import h4
from .errors import (
    ConeError,
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

COMMANDS = (
    "algebra-check",
    "cr-residual",
    "pair-ops",
    "line-integral",
    "geodesic",
    "extremal",
    "family-verify",
)

_DEFAULT_TOL = {
    "algebra-check": 1e-12,
    "cr-residual": 1e-7,
    "pair-ops": 1e-7,
    "line-integral": 1e-8,
    "geodesic": 0.0,
    "extremal": 1e-6,
    "family-verify": 1e-7,
}


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

def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(obj, out: io.TextIOBase, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for idx, (k, v) in enumerate(obj.items()):
            out.write(f'{pad}  {json.dumps(k)}: ')
            _write_json(v, out, indent + 1)
            out.write(",\n" if idx < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for idx, v in enumerate(obj):
            out.write(pad + "  ")
            _write_json(v, out, indent + 1)
            out.write(",\n" if idx < len(obj) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(format(obj, ".17g") if math.isfinite(obj) else "null")
    else:
        out.write(json.dumps(obj))


def render_report(report: dict) -> str:
    buf = io.StringIO()
    _write_json(_clean(report), buf)
    buf.write("\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# catalogs: config dicts to library objects
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, what: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{what} is missing required key {key!r}")
    return cfg[key]


def _make_algebra(spec) -> alg.StructureConstants:
    if isinstance(spec, str):
        try:
            return alg.builtin_algebra(spec)
        except ContractError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(spec, dict):
        try:
            if "file" in spec:
                return alg.load_algebra(spec["file"])
            return alg.algebra_from_dict(spec)
        except (OSError, json.JSONDecodeError, ContractError) as exc:
            raise ConfigError(f"cannot load algebra: {exc}") from exc
    raise ConfigError("algebra must be a built-in name or a document")


def _make_field(spec: dict, n: int) -> fl.VectorField:
    if not isinstance(spec, dict):
        raise ConfigError("field spec must be an object with a 'kind'")
    kind = _require(spec, "kind", "field spec")
    if kind == "constant":
        values = np.asarray(_require(spec, "value", "constant field"), dtype=float)
        if values.shape != (n,):
            raise ConfigError("constant field value has wrong length")
        return fl.constant_field(values)
    if kind == "linear":
        a = np.asarray(_require(spec, "matrix", "linear field"), dtype=float)
        if a.shape != (n, n):
            raise ConfigError("linear field matrix has wrong shape")
        off = spec.get("offset")
        return fl.linear_field(a, None if off is None else np.asarray(off, dtype=float))
    if kind == "identity":
        return fl.identity_field(n)
    if kind == "componentwise-power":
        return fl.componentwise_power_field(n, int(spec.get("power", 2)))
    if kind == "componentwise-exp":
        return fl.componentwise_exp_field(n, float(spec.get("scale", 1.0)))
    if kind == "monomial":
        component = int(_require(spec, "component", "monomial field")) - 1
        exponents = _require(spec, "exponents", "monomial field")
        if not 0 <= component < n:
            raise ConfigError("monomial component out of range")
        return fl.monomial_field(n, component, exponents)
    if kind == "h4-family":
        if n != 4:
            raise ConfigError("the family field is four-dimensional")
        spec_obj = _make_family_spec(spec.get("family", spec))
        return h4.family_field(spec_obj)
    raise ConfigError(f"unknown field kind {kind!r}")


def _with_domain(field: fl.VectorField, spec: dict, n: int) -> fl.VectorField:
    if "domain" not in spec:
        return field
    dom = spec["domain"]
    lo = np.asarray(dom.get("min", [-1.0] * n), dtype=float)
    hi = np.asarray(dom.get("max", [1.0] * n), dtype=float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise ConfigError("field domain bounds have wrong length")
    try:
        box = fl.Box(lo, hi)
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    return fl.VectorField(field.n, field.func, jacobian=field.jacobian, domain=box)


def _make_pair(cfg: dict, S: alg.StructureConstants) -> fl.GAPair:
    fspec = _require(cfg, "field")
    field = _with_domain(_make_field(fspec, S.n), fspec, S.n)
    gspec = cfg.get("gamma", {"kind": "zero"})
    kind = gspec.get("kind", "zero")
    if kind == "zero":
        return fl.GAPair(field, fl.zero_gamma(S.n), S)
    if kind == "prescribed":
        fprime = _make_field(_require(gspec, "fprime", "gamma spec"), S.n)
        return fl.gamma_from_prescribed(field, fprime, S)
    raise ConfigError(f"unknown gamma kind {kind!r}")


def _make_grid(spec: dict, n: int) -> np.ndarray:
    if not isinstance(spec, dict):
        raise ConfigError("grid must be an object")
    lo = np.asarray(spec.get("min", [-0.5] * n), dtype=float)
    hi = np.asarray(spec.get("max", [0.5] * n), dtype=float)
    points = int(spec.get("points_per_axis", 3))
    if lo.shape != (n,) or hi.shape != (n,):
        raise ConfigError("grid bounds have wrong length")
    if points < 1:
        raise ConfigError("points_per_axis must be positive")
    try:
        return fl.Box(lo, hi).grid(points)
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc


def _make_path(spec: dict) -> fl.Path:
    kind = _require(spec, "kind", "path spec")
    if kind == "straight":
        return fl.straight_path(_require(spec, "from", "path"), _require(spec, "to", "path"))
    if kind == "polyline":
        return fl.polyline_path(_require(spec, "vertices", "path"))
    if kind == "rectangle":
        return fl.rectangle_loop(
            _require(spec, "origin", "path"),
            _require(spec, "edge1", "path"),
            _require(spec, "edge2", "path"),
        )
    raise ConfigError(f"unknown path kind {kind!r}")


def _make_b(spec: dict) -> h4.ScalarFunc1D:
    kind = _require(spec, "kind", "profile spec")
    if kind == "constant":
        return h4.constant_b(float(spec.get("c", 1.0)))
    if kind == "quadratic":
        return h4.quadratic_b(float(spec.get("c", 0.25)))
    if kind == "gaussian":
        return h4.gaussian_b(float(spec.get("c", 1.0)))
    raise ConfigError(f"unknown profile kind {kind!r}")


def _make_kappa(spec: dict, kappa0: float, b_funcs=None) -> h4.ScalarField:
    kind = spec.get("kind", "from-b")
    if kind == "constant":
        return h4.constant_kappa(float(spec.get("value", kappa0)))
    if kind == "gaussian":
        return h4.gaussian_kappa(kappa0, float(spec.get("c", 1.0)))
    if kind == "cross-term":
        axes = spec.get("axes", [1, 2])
        return h4.cross_term_kappa(kappa0, float(spec.get("c", 1.0)), (int(axes[0]) - 1, int(axes[1]) - 1))
    if kind == "from-b":
        if b_funcs is None:
            raise ConfigError("kappa kind 'from-b' needs profile functions")
        return h4.kappa_from_b(b_funcs, kappa0)
    raise ConfigError(f"unknown kappa kind {kind!r}")


def _make_lambda(spec: dict, kappa: h4.ScalarField, kappa0: float, lambda0: float) -> h4.ScalarField:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return h4.constant_lambda(float(spec.get("value", lambda0)))
    if kind == "kappa-reciprocal":
        return h4.reciprocal_quartic_lambda(kappa, kappa0, lambda0)
    raise ConfigError(f"unknown lambda kind {kind!r}")


def _make_family_spec(cfg: dict) -> h4.H4FamilySpec:
    phi0 = np.asarray(cfg.get("phi0", [1.0, 1.0, 1.0, 1.0]), dtype=float)
    mu = np.asarray(cfg.get("mu", [0.0, 0.0, 0.0, 0.0]), dtype=float)
    b_specs = cfg.get("b", {"kind": "constant", "c": 1.0})
    if isinstance(b_specs, dict):
        b_specs = [b_specs] * 4
    if len(b_specs) != 4:
        raise ConfigError("need one profile spec or exactly four")
    b_funcs = tuple(_make_b(s) for s in b_specs)
    kappa0 = float(cfg.get("kappa0", 1.0))
    lambda0 = float(cfg.get("lambda0", 1.0))
    kappa_spec = cfg.get("kappa")
    kappa = None
    if kappa_spec is not None and kappa_spec.get("kind", "from-b") != "from-b":
        kappa = _make_kappa(kappa_spec, kappa0, b_funcs)
    kappa_for_lambda = kappa if kappa is not None else h4.kappa_from_b(b_funcs, kappa0)
    lam = _make_lambda(cfg.get("lam", {"kind": "constant"}), kappa_for_lambda, kappa0, lambda0)
    convention = cfg.get("convention", "reciprocal")
    try:
        return h4.H4FamilySpec(
            phi0=phi0,
            mu=mu,
            b=b_funcs,
            lam=lam,
            kappa0=kappa0,
            lambda0=lambda0,
            convention=convention,
            kappa=kappa,
        )
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc


def _make_metric(cfg: dict) -> h4.FinslerConfig:
    kappa0 = float(cfg.get("kappa0", 1.0))
    lambda0 = float(cfg.get("lambda0", 1.0))
    b_specs = cfg.get("b")
    b_funcs = tuple(_make_b(s) for s in b_specs) if b_specs else None
    kappa = _make_kappa(cfg.get("kappa", {"kind": "constant"}), kappa0, b_funcs)
    lam = _make_lambda(cfg.get("lam", {"kind": "constant"}), kappa, kappa0, lambda0)
    return h4.FinslerConfig(kappa=kappa, lam=lam, kappa0=kappa0, lambda0=lambda0)


def _make_connection(spec: dict) -> geo.ConnectionField:
    kind = _require(spec, "kind", "connection spec")
    if kind == "zero":
        return geo.zero_connection(int(spec.get("n", 4)))
    if kind == "structure-scaled":
        S = _make_algebra(_require(spec, "algebra", "connection spec"))
        return geo.connection_from_structure(S, float(spec.get("scale", 1.0)))
    if kind == "finsler":
        metric = _make_metric(spec)
        orientation = spec.get("orientation", "transposed")
        if orientation not in h4.ORIENTATIONS:
            raise ConfigError(f"orientation must be one of {h4.ORIENTATIONS}")
        return geo.finsler_connection(metric, orientation)
    raise ConfigError(f"unknown connection kind {kind!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_algebra_check(cfg: dict, tol: float, rng) -> tuple[dict, bool]:
    S = _make_algebra(_require(cfg, "algebra"))
    report = alg.verify_structure(S, tol=tol)
    qt = alg.q_tensor(S)
    results = {
        "algebra": S.basis_tag,
        "n": S.n,
        "commutativity_residual": report.commutativity,
        "associativity_residual": report.associativity,
        "unit_residual": report.unit,
        "q_det": qt.det,
        "q_matrix": qt.q.tolist(),
        "q_singular": qt.q_inv is None,
    }
    worst = fl.grid_max([report.commutativity, report.associativity, report.unit])
    return {"results": results, "max_residual": worst}, report.passed


def _cmd_cr_residual(cfg: dict, tol: float, rng) -> tuple[dict, bool]:
    S = _make_algebra(_require(cfg, "algebra"))
    pair = _make_pair(cfg, S)
    points = _make_grid(cfg.get("grid", {}), S.n)
    diff = fl.DiffConfig(scheme=cfg.get("scheme", "central-2"), tol_residual=tol)
    results = fl.residual_grid_report(pair, points, diff)
    payload = {"results": results, "max_residual": results["grid_max"]}
    if results["failed_points"]:
        raise RuntimeFailure(payload)
    return payload, results["grid_max"] <= tol


def _cmd_pair_ops(cfg: dict, tol: float, rng) -> tuple[dict, bool]:
    S = _make_algebra(_require(cfg, "algebra"))
    count = int(cfg.get("count", 10))
    points = _make_grid(cfg.get("grid", {}), S.n)
    diff = fl.DiffConfig(tol_residual=tol)
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


def _cmd_line_integral(cfg: dict, tol: float, rng) -> tuple[dict, bool]:
    S = _make_algebra(_require(cfg, "algebra"))
    field = _make_field(_require(cfg, "field"), S.n)
    path = _make_path(_require(cfg, "path"))
    diff = fl.DiffConfig(quadrature_segments=int(cfg.get("segments", 512)))
    value = fl.line_integral(field, path, S, diff)
    results = {"integral": value.coords.tolist()}
    passed = True
    max_residual = 0.0
    if "path_b" in cfg:
        other = fl.line_integral(field, _make_path(cfg["path_b"]), S, diff)
        difference = float(np.max(np.abs(value.coords - other.coords)))
        results["integral_b"] = other.coords.tolist()
        results["difference"] = difference
        expect = cfg.get("expect", "equal")
        if expect == "equal":
            max_residual = difference
            passed = difference <= tol
        elif expect == "different":
            min_gap = float(cfg.get("min_difference", 1e-3))
            results["min_difference"] = min_gap
            passed = difference > min_gap
        else:
            raise ConfigError(f"unknown expectation {expect!r}")
    return {"results": results, "max_residual": max_residual}, passed


def _cmd_geodesic(cfg: dict, tol: float, rng) -> tuple[dict, bool]:
    gamma = _make_connection(_require(cfg, "connection"))
    x0 = np.asarray(_require(cfg, "x0"), dtype=float)
    v0 = np.asarray(_require(cfg, "v0"), dtype=float)
    icfg = geo.IntegratorConfig(
        steps=int(cfg.get("steps", 1000)), t_end=float(cfg.get("t_end", 1.0))
    )
    try:
        s0 = geo.GeodesicState(x0, v0)
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    traj = geo.integrate_geodesic(gamma, s0, icfg)
    results = {
        "steps": icfg.steps,
        "samples": len(traj),
        "final_x": traj.x[-1].tolist(),
        "final_v": traj.v[-1].tolist(),
    }
    return {"results": results, "max_residual": None, "trajectory": traj}, True


def _cmd_extremal(cfg: dict, tol: float, rng) -> tuple[dict, bool]:
    metric = _make_metric(cfg)
    xi0 = np.asarray(_require(cfg, "xi0"), dtype=float)
    icfg = geo.IntegratorConfig(
        steps=int(cfg.get("steps", 1000)),
        t_end=float(cfg.get("t_end", 1.0)),
        drift_tol=tol,
    )
    if "p0" in cfg:
        p0 = np.asarray(cfg["p0"], dtype=float)
    else:
        dxi0 = np.asarray(_require(cfg, "dxi0"), dtype=float)
        p0 = h4.momenta(dxi0, xi0, metric)
    try:
        e0 = geo.ExtremalState(xi0, p0)
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    traj = geo.integrate_extremal(metric, e0, icfg)
    results = {
        "steps": icfg.steps,
        "samples": len(traj),
        "final_xi": traj.xi[-1].tolist(),
        "final_p": traj.p[-1].tolist(),
        "max_drift": traj.max_drift,
    }
    return {"results": results, "max_residual": traj.max_drift, "trajectory": traj}, traj.max_drift <= tol


def _cmd_family_verify(cfg: dict, tol: float, rng) -> tuple[dict, bool]:
    spec = _make_family_spec(cfg)
    points = _make_grid(cfg.get("grid", {}), 4)
    report = h4.family_residual(spec, points)
    kappa_field = spec.kappa_field()
    compat_max = fl.grid_max(
        float(np.max(np.abs(h4.compatibility_residual(kappa_field, xi)))) for xi in points
    )
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


_HANDLERS = {
    "algebra-check": _cmd_algebra_check,
    "cr-residual": _cmd_cr_residual,
    "pair-ops": _cmd_pair_ops,
    "line-integral": _cmd_line_integral,
    "geodesic": _cmd_geodesic,
    "extremal": _cmd_extremal,
    "family-verify": _cmd_family_verify,
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
    """Execute one command against a parsed config; returns the exit code."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    tol = _DEFAULT_TOL[command] if tol is None else float(tol)
    if fmt is None:
        fmt = "csv" if command in ("geodesic", "extremal") else "json"
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {fmt!r}")
    rng = np.random.default_rng(seed)
    report = {
        "command": command,
        "config_echo": dict(config, seed=seed, tol=tol),
        "results": None,
        "max_residual": None,
        "pass": False,
    }
    try:
        payload, passed = _HANDLERS[command](config, tol, rng)
    except RuntimeFailure as exc:
        report.update(exc.payload)
        _write_output(render_report(report), output)
        return EXIT_RUNTIME
    except (DomainError, ConeError, ZeroDivisorError, SingularQError, IntegrationError,
            ContractError) as exc:
        report["results"] = {"error": f"{type(exc).__name__}: {exc}"}
        _write_output(render_report(report), output)
        return EXIT_RUNTIME
    trajectory = payload.pop("trajectory", None)
    report.update(payload)
    worst = report["max_residual"]
    non_finite = isinstance(worst, float) and not math.isfinite(worst)
    report["pass"] = bool(passed) and not non_finite
    if fmt == "csv":
        if trajectory is None:
            raise ConfigError(f"command {command!r} produces no CSV trajectory")
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
    for name in COMMANDS:
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
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
