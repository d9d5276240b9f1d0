"""The benchmark's three workloads, built from a seed.

A workload is a fixed list of operations.  Each operation has a ``run``
callable (the timed part: one CLI command or one library loop), a ``check``
callable that compares the output against ``oracles`` (untimed), and the
number of library work units it performs.  Every call into polyan goes
through a module attribute at call time (``fl.cr_residual``, ``cli.main``),
so the tracer's wrappers see it.  Expected values that only a check needs
are computed on the first check (``functools.cache``), so that set-up time
is polyan's import and the building of inputs.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as orc


@dataclass
class Op:
    name: str
    kind: str                      # "lib" or "cli"
    run: Callable[[], object]
    check: Callable[[object], list]
    units: int = 0                 # library work units done by one run
    command: str | None = None     # CLI command group for the per-command medians
    known_fault: bool = False      # a known library fault: counted as failed, not timed


@dataclass
class Workload:
    unit_metric: str               # per-layer name of the library throughput
    ops: list = field(default_factory=list)
    panels: int = 0                # Simpson panels per round, for evals_per_panel


class Cli:
    """Runs polyan.cli.main with a config file and --output into a work dir."""

    def __init__(self, cli_module, workdir: str):
        self.cli = cli_module
        self.workdir = workdir
        self.count = 0

    def op(self, name, command, config, check, group, extra=(), known_fault=False) -> Op:
        self.count += 1
        cfg_path = os.path.join(self.workdir, f"{self.count:02d}-{name}.json")
        out_path = os.path.join(self.workdir, f"{self.count:02d}-{name}.out")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [command, "--config", cfg_path, "--output", out_path, *extra]

        def run():
            return self.cli.main(argv)

        def check_output(code):
            try:
                with open(out_path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                return [f"no report: {exc}"]
            return check(code, text)

        return Op(name, "cli", run, check_output, command=group, known_fault=known_fault)


def _box(rng, n, half=0.5, jitter=0.1):
    centre = rng.uniform(-jitter, jitter, n)
    return centre - half, centre + half


# ---------------------------------------------------------------------------
# grid-residuals: many points, few trajectories
# ---------------------------------------------------------------------------

CONSTRUCTION_ALGEBRAS = ("p3-psi", "c3", "h4-e", "h4-psi")
SCHEMES = ("central-2", "central-4")


def _grid_residual_op(fl, name, pair, grid, cfg, expect=None, tol=1e-7) -> Op:
    """max|R| per grid point (expect None), or every R against the closed
    form that expect() returns."""
    def run():
        if expect is None:
            return np.array([np.max(np.abs(fl.cr_residual(pair, x, cfg))) for x in grid])
        return np.array([fl.cr_residual(pair, x, cfg) for x in grid])

    def check(out):
        if out.shape[0] != grid.shape[0]:
            return [f"{out.shape[0]} residuals for {grid.shape[0]} points"]
        worst = orc.max_abs(out if expect is None else out - expect()[None])
        if not orc.finite_le(worst, tol):
            return [f"max residual error {worst!r} not finite and <= {tol:g}"]
        return []

    return Op(name, "lib", run, check, units=grid.shape[0])


def build_grid_residuals(rng, workdir, pl) -> Workload:
    alg, fl, cli = pl.algebra, pl.fields, pl.cli
    wl = Workload("cr_points_per_s")
    for name in CONSTRUCTION_ALGEBRAS:
        S = alg.builtin_algebra(name)
        grid = fl.Box(*_box(rng, S.n)).grid(5)
        for scheme in SCHEMES:
            # the construction identity: gamma from the analytic Jacobian, f
            # differentiated by finite differences
            f = fl.random_smooth_field(S.n, rng, amplitude=0.8)
            fprime = fl.random_smooth_field(S.n, rng, amplitude=0.8)
            pair = fl.GAPair(f.without_jacobian(), fl.gamma_from_prescribed(f, fprime, S).gamma, S)
            wl.ops.append(_grid_residual_op(
                fl, f"construction.{name}.{scheme}", pair, grid, fl.DiffConfig(scheme=scheme)))
    for name in CONSTRUCTION_ALGEBRAS:
        S = alg.builtin_algebra(name)
        a = rng.uniform(-1.0, 1.0, (S.n, S.n))
        pair = fl.GAPair(fl.linear_field(a).without_jacobian(), fl.zero_gamma(S.n), S)
        grid = fl.Box(*_box(rng, S.n)).grid(3)
        wl.ops.append(_grid_residual_op(
            fl, f"linear.{name}", pair, grid, fl.DiffConfig(),
            expect=functools.cache(lambda name=name, a=a: orc.linear_cr_residual(name, a)),
            tol=1e-8))

    runner = Cli(cli, workdir)
    lo, hi = _box(rng, 4)
    cr_cfg = {"algebra": "h4-psi",
              "field": {"kind": "componentwise-exp", "scale": float(rng.uniform(0.5, 1.5))},
              "grid": {"min": lo.tolist(), "max": hi.tolist(), "points_per_axis": 9}}
    wl.ops.append(runner.op("cr-residual", "cr-residual", cr_cfg,
                            lambda code, text: orc.check_cr_report(code, text, 9 ** 4, 1e-7),
                            "cr_residual"))
    fam_cfg = {"phi0": rng.uniform(0.5, 2.0, 4).tolist(),
               "mu": rng.uniform(-0.4, 0.4, 4).tolist(),
               "b": {"kind": "quadratic", "c": float(rng.uniform(0.2, 1.0))},
               "lam": {"kind": "kappa-reciprocal"},
               "grid": {"points_per_axis": 7}}
    wl.ops.append(runner.op("family-verify", "family-verify", fam_cfg, orc.check_family_report,
                            "family_verify"))
    # Known fault: x^-1 on the default 3^4 grid, which contains 0.  The
    # correct report is strict JSON with pass false and exit 3; the seed code
    # drops the NaNs, prints bare nan tokens and exits 0.
    bad_cfg = {"algebra": "h4-psi", "field": {"kind": "componentwise-power", "power": -1}}
    wl.ops.append(runner.op("cr-residual-nonfinite", "cr-residual", bad_cfg,
                            orc.check_nonfinite_cr_report, None, known_fault=True))
    return wl


# ---------------------------------------------------------------------------
# trajectories: long RK4 runs, no grids
# ---------------------------------------------------------------------------

TRAJECTORY_STEPS = 10_000
ORDER_STEPS = (16, 32, 64)
ORDER_REFERENCE_STEPS = 1280
CROSS_CHECK_STEPS = 2000
STRUCTURE_STEPS = 1000


def build_trajectories(rng, workdir, pl) -> Workload:
    h4, geo, cli = pl.h4, pl.geodesics, pl.cli
    wl = Workload("rk4_steps_per_s")
    kappa0 = 1.0
    c = float(rng.uniform(0.5, 1.5))
    lam = float(rng.uniform(8.0, 16.0))
    xi0 = rng.uniform(0.05, 0.25, 4)
    dxi0 = rng.uniform(0.8, 1.2, 4)
    p0 = orc.extremal_momenta(dxi0, xi0, kappa0, c)
    v0 = orc.geodesic_velocity(p0, lam)
    metric = h4.FinslerConfig(kappa=h4.gaussian_kappa(kappa0, c), lam=h4.constant_lambda(lam))
    conn = geo.finsler_connection(metric)
    s0 = geo.GeodesicState(xi0, v0)

    def run_orders():
        ref = geo.integrate_geodesic(conn, s0, geo.IntegratorConfig(steps=ORDER_REFERENCE_STEPS))
        return [orc.max_abs(geo.integrate_geodesic(conn, s0, geo.IntegratorConfig(steps=m)).x[-1]
                            - ref.x[-1]) for m in ORDER_STEPS]

    def check_orders(errors):
        if not all(np.isfinite(errors)) or min(errors) <= 0.0:
            return [f"step-halving errors {errors!r} not finite and positive"]
        orders = orc.rk4_orders(errors)
        if not all(3.7 <= o <= 4.3 for o in orders):
            return [f"measured RK4 orders {orders!r} outside [3.7, 4.3]"]
        return []

    wl.ops.append(Op("rk4-order", "lib", run_orders, check_orders,
                     units=ORDER_REFERENCE_STEPS + sum(ORDER_STEPS)))

    e0 = geo.ExtremalState(xi0, p0)

    def run_cross():
        return geo.cross_check_forms(metric, e0, geo.IntegratorConfig(steps=CROSS_CHECK_STEPS))

    def check_cross(res):
        problems = []
        if not orc.finite_le(res.discrepancy, 1e-5):
            problems.append(f"cross-form discrepancy {res.discrepancy!r} > 1e-5")
        drift = orc.max_abs(orc.indicatrix_defect(res.extremal.xi, res.extremal.p, kappa0, c))
        if not orc.finite_le(drift, 1e-6):
            problems.append(f"indicatrix defect {drift!r} > 1e-6")
        return problems

    wl.ops.append(Op("cross-check-forms", "lib", run_cross, check_cross,
                     units=2 * CROSS_CHECK_STEPS))

    psi = pl.algebra.builtin_algebra("h4-psi")
    c_s = float(rng.uniform(0.5, 1.5))
    x0_s = rng.uniform(-0.5, 0.5, 4)
    v0_s = rng.uniform(0.5, 1.5, 4)
    structure_conn = geo.connection_from_structure(psi, c_s)

    def run_structure():
        return geo.integrate_geodesic(structure_conn, geo.GeodesicState(x0_s, v0_s),
                                      geo.IntegratorConfig(steps=STRUCTURE_STEPS))

    def check_structure(traj):
        err = orc.max_abs(traj.x - orc.structure_geodesic(x0_s, v0_s, c_s, traj.sigma))
        return [] if orc.finite_le(err, 1e-10) else [f"closed-form geodesic error {err!r} > 1e-10"]

    wl.ops.append(Op("structure-geodesic", "lib", run_structure, check_structure,
                     units=STRUCTURE_STEPS))

    runner = Cli(cli, workdir)
    metric_cfg = {"kappa0": kappa0, "kappa": {"kind": "gaussian", "c": c},
                  "lam": {"kind": "constant", "value": lam}}
    ext_cfg = dict(metric_cfg, xi0=xi0.tolist(), dxi0=dxi0.tolist(),
                   steps=TRAJECTORY_STEPS, t_end=1.0)
    geo_cfg = {"connection": dict(metric_cfg, kind="finsler"), "x0": xi0.tolist(),
               "v0": v0.tolist(), "steps": TRAJECTORY_STEPS, "t_end": 1.0}
    extremal_xi = {}

    def check_extremal_csv(code, text):
        try:
            header, data = orc.read_csv(text)
        except ValueError as exc:
            return [f"extremal CSV unreadable: {exc}"]
        extremal_xi["xi"] = data[:, 1:5]
        return orc.check_extremal_rows(code, data[:, 1:5], data[:, 5:9], kappa0, c,
                                       TRAJECTORY_STEPS)

    def check_geodesic_csv(code, text):
        if code != orc.EXIT_OK:
            return [f"exit code {code}, expected {orc.EXIT_OK}"]
        try:
            header, data = orc.read_csv(text)
        except ValueError as exc:
            return [f"geodesic CSV unreadable: {exc}"]
        if "xi" not in extremal_xi:
            return ["no extremal rows to compare against"]
        if not orc.close(data[:, 1:5], extremal_xi["xi"], 1e-5):
            return ["Finsler geodesic and extremal positions differ by more than 1e-5"]
        return []

    def check_extremal_json(code, text):
        problems = []
        try:
            rep = orc.strict_json(text)
            traj = rep["results"]["trajectory"]
            xi, p = traj["xi"], traj["p"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"extremal JSON report unusable: {exc}"]
        if rep.get("pass") is not True:
            problems.append("extremal JSON report does not pass")
        return problems + orc.check_extremal_rows(code, xi, p, kappa0, c, TRAJECTORY_STEPS)

    wl.ops.append(runner.op("extremal-csv", "extremal", ext_cfg, check_extremal_csv, "extremal"))
    wl.ops.append(runner.op("geodesic-csv", "geodesic", geo_cfg, check_geodesic_csv, "geodesic"))
    wl.ops.append(runner.op("extremal-json", "extremal", ext_cfg, check_extremal_json,
                            "trajectory_json", extra=("--format", "json")))
    return wl


# ---------------------------------------------------------------------------
# pair-calculus: single-point calls through deep closures
# ---------------------------------------------------------------------------

MULTIPLY_ALGEBRAS = ("complex", "p3-psi", "c3", "h4-e", "h4-psi")
MULTIPLY_PAIRS = 400
INVERSES = 200
DIFFEOS = 40
SERIES_EVALS = 100
SERIES_TERMS = 20
PAIR_OPS_COUNT = 40
SEGMENTS = 512


def _invertible(rng, name, n):
    """Elements well away from the zero divisors: near 2 (unit algebras) or
    positive componentwise (psi algebras)."""
    if orc.UNIT_INDEX[name] is None:
        return rng.uniform(0.5, 1.5, n)
    a = rng.uniform(-0.4, 0.4, n)
    a[orc.UNIT_INDEX[name]] += 2.0
    return a


def _diffeo(fl, rng):
    """x + sum_j alpha_ij sin(x_j + phase_ij): a small smooth perturbation of
    the identity, inverted by Newton iteration inside every evaluation."""
    alpha = rng.uniform(-0.04, 0.04, (4, 4))
    phase = rng.uniform(0.0, 2 * np.pi, (4, 4))
    rows = np.arange(4)

    def func(x):
        return x + np.sum(alpha * np.sin(x[None, :] + phase), axis=1)

    def jac(x):
        return np.eye(4) + alpha * np.cos(x[None, :] + phase)

    def hess(x):
        h = np.zeros((4, 4, 4))
        h[:, rows, rows] = -alpha * np.sin(x[None, :] + phase)
        return h

    return fl.Diffeo(4, func, jac, hess)


def build_pair_calculus(rng, workdir, pl) -> Workload:
    alg, fl, cli = pl.algebra, pl.fields, pl.cli
    wl = Workload("pair_checks_per_s")

    for name in MULTIPLY_ALGEBRAS:
        S = alg.builtin_algebra(name)
        a = [S.element(v) for v in rng.uniform(-1.0, 1.0, (MULTIPLY_PAIRS, S.n))]
        b = [S.element(v) for v in rng.uniform(-1.0, 1.0, (MULTIPLY_PAIRS, S.n))]
        expect = functools.cache(lambda name=name, a=a, b=b: np.array(
            [orc.reference_product(name, x.coords, y.coords) for x, y in zip(a, b)]))

        def run_mul(S=S, a=a, b=b):
            return np.array([alg.multiply(x, y, S).coords for x, y in zip(a, b)])

        def check_mul(out, expect=expect, name=name):
            return [] if orc.close(out, expect(), 1e-12) else [f"multiply over {name} != reference"]

        wl.ops.append(Op(f"multiply.{name}", "lib", run_mul, check_mul, units=MULTIPLY_PAIRS))

    for name in MULTIPLY_ALGEBRAS:
        S = alg.builtin_algebra(name)
        elems = [S.element(_invertible(rng, name, S.n)) for _ in range(INVERSES)]
        unit = orc.unit_coords(name)

        def run_inv(S=S, elems=elems):
            return np.array([alg.invert(x, S).coords for x in elems])

        def check_inv(out, elems=elems, name=name, unit=unit):
            prods = np.array([orc.reference_product(name, x.coords, y) for x, y in zip(elems, out)])
            if not orc.close(prods, np.broadcast_to(unit, prods.shape), 1e-12):
                return [f"a * invert(a) != 1 over {name}"]
            return []

        wl.ops.append(Op(f"invert.{name}", "lib", run_inv, check_inv, units=INVERSES))

    E = alg.builtin_algebra("h4-e")
    pair = fl.gamma_from_prescribed(fl.random_smooth_field(4, rng), fl.random_smooth_field(4, rng), E)
    diffeos = [(_diffeo(fl, rng), rng.uniform(-0.4, 0.4, 4)) for _ in range(DIFFEOS)]

    def run_tensor():
        worst = []
        for diffeo, x in diffeos:
            _, _, transported = fl.gamma_transform(pair, diffeo, x)
            direct = fl.covariant_derivative(fl.transform_pair(pair, diffeo), diffeo(x))
            worst.append(orc.max_abs(direct - transported))
        return worst

    def check_tensor(worst):
        w = orc.max_abs(worst)
        return [] if orc.finite_le(w, 1e-6) else [f"tensoriality mismatch {w!r} > 1e-6"]

    wl.ops.append(Op("tensoriality", "lib", run_tensor, check_tensor, units=DIFFEOS))

    for name in ("p3-psi", "h4-psi"):
        S = alg.builtin_algebra(name)
        coeffs = alg.exp_series_coeffs(S, SERIES_TERMS)
        xs = rng.uniform(-1.0, 1.0, (SERIES_EVALS, S.n))
        args = [S.element(x) for x in xs]

        def run_exp(S=S, coeffs=coeffs, args=args):
            return np.array([alg.poly_eval(coeffs, x, S).coords for x in args])

        def check_exp(out, xs=xs, name=name):
            ok = orc.close(out, np.exp(xs), 1e-12 * float(np.exp(1.0)))
            return [] if ok else [f"exp series over {name} != componentwise exp"]

        wl.ops.append(Op(f"exp-series.{name}", "lib", run_exp, check_exp, units=SERIES_EVALS))

    runner = Cli(cli, workdir)
    for name in ("h4-e", "h4-psi"):
        cfg = {"algebra": name, "count": PAIR_OPS_COUNT}
        seed = str(int(rng.integers(0, 2 ** 31)))
        wl.ops.append(runner.op(f"pair-ops-{name}", "pair-ops", cfg,
                                lambda code, text: orc.check_pair_ops_report(code, text),
                                "pair_ops", extra=("--seed", seed)))

    a = rng.uniform(-1.0, 1.0, 2)
    b = rng.uniform(-1.0, 1.0, 2)
    corner = rng.uniform(-1.0, 1.0, 2)
    exact = orc.complex_z_integral(a, b)
    z_cfg = {"algebra": "complex", "field": {"kind": "identity"}, "segments": SEGMENTS,
             "path": {"kind": "straight", "from": a.tolist(), "to": b.tolist()},
             "path_b": {"kind": "polyline", "vertices": [a.tolist(), corner.tolist(), b.tolist()]}}
    wl.ops.append(runner.op("line-integral-z", "line-integral", z_cfg,
                            lambda code, text: orc.check_line_integral_report(code, text, exact, exact),
                            "line_integral"))

    origin = rng.uniform(-1.0, 1.0, 2)
    edge1 = rng.uniform(0.2, 1.0, 2)
    edge2 = np.array([-edge1[1], edge1[0]]) * rng.uniform(0.5, 1.5)
    loop_cfg = {"algebra": "complex", "field": {"kind": "identity"}, "segments": SEGMENTS,
                "path": {"kind": "rectangle", "origin": origin.tolist(),
                         "edge1": edge1.tolist(), "edge2": edge2.tolist()}}
    wl.ops.append(runner.op("line-integral-loop", "line-integral", loop_cfg,
                            lambda code, text: orc.check_line_integral_report(code, text, np.zeros(2)),
                            "line_integral"))

    mat = rng.uniform(-1.0, 1.0, (4, 4))
    x0 = rng.uniform(-1.0, 1.0, 4)
    x1 = rng.uniform(-1.0, 1.0, 4)
    bend = rng.uniform(-1.0, 1.0, 4)
    # an input, not only an expectation: half the exact gap is the config's
    # min_difference (three closed-form leg integrals, a few microseconds)
    straight =orc.linear_line_integral("h4-e", mat, [x0, x1])
    bent = orc.linear_line_integral("h4-e", mat, [x0, bend, x1])
    gap = orc.max_abs(straight - bent)
    lin_cfg = {"algebra": "h4-e", "field": {"kind": "linear", "matrix": mat.tolist()},
               "segments": SEGMENTS,
               "path": {"kind": "straight", "from": x0.tolist(), "to": x1.tolist()},
               "path_b": {"kind": "polyline", "vertices": [x0.tolist(), bend.tolist(), x1.tolist()]},
               "expect": "different", "min_difference": 0.5 * gap}
    wl.ops.append(runner.op("line-integral-linear", "line-integral", lin_cfg,
                            lambda code, text: orc.check_line_integral_report(code, text, straight, bent),
                            "line_integral"))
    # Simpson panels per round: both paths of the two-path configs, one loop
    wl.panels = 5 * SEGMENTS
    return wl


BUILDERS = {
    "grid-residuals": build_grid_residuals,
    "trajectories": build_trajectories,
    "pair-calculus": build_pair_calculus,
}


def build(name: str, seed: int, workdir: str, pl) -> Workload:
    return BUILDERS[name](np.random.default_rng([seed, list(BUILDERS).index(name)]), workdir, pl)
