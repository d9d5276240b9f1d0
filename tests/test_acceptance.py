"""Acceptance gate: every release criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion in addition to the pytest verdicts.
"""

import json
import math
import time

import numpy as np

from polyan import (
    builtin_algebra,
    cr_residual,
    derivative,
    line_integral,
    multiply,
    pair_combine,
    pair_compose,
    pair_product,
    pair_quotient,
    q_tensor,
    verify_structure,
)
from polyan.cli import EXIT_OK, main
from polyan.fields import (
    Box,
    DiffConfig,
    Diffeo,
    GAPair,
    constant_field,
    covariant_derivative,
    gamma_from_prescribed,
    gamma_transform,
    identity_field,
    monomial_field,
    path_independence_residual,
    polyline_path,
    random_smooth_field,
    square_pair,
    straight_path,
    transform_pair,
    zero_gamma,
)
from polyan.geodesics import (
    ExtremalState,
    GeodesicState,
    IntegratorConfig,
    cross_check_forms,
    extremal_velocity,
    finsler_connection,
    integrate_extremal,
    integrate_geodesic,
    zero_connection,
)
from polyan.h4 import (
    FinslerConfig,
    H4FamilySpec,
    analytic_gamma_max,
    constant_b,
    constant_lambda,
    cross_term_kappa,
    family_residual,
    gaussian_kappa,
    kappa_from_b,
    momenta,
    quadratic_b,
    reciprocal_quartic_lambda,
)


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


# ---------------------------------------------------------------------------
# 1. algebra axioms of both H4 bases, exactly zero, under a second
# ---------------------------------------------------------------------------

def test_criterion_1_algebra_axioms():
    t0 = time.perf_counter()
    ok = True
    for name in ("h4-e", "h4-psi"):
        rep = verify_structure(builtin_algebra(name))
        ok &= rep.commutativity == 0.0 and rep.associativity == 0.0 and rep.unit == 0.0
    ok &= np.array_equal(q_tensor(builtin_algebra("h4-psi")).q, np.eye(4))
    ok &= np.array_equal(q_tensor(builtin_algebra("h4-e")).q, 4.0 * np.eye(4))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("1 algebra-axioms", ok, f"residuals exactly 0, runtime {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. a thousand random prescribed pairs over 3- and 4-dimensional systems
# ---------------------------------------------------------------------------

def test_criterion_2_construction_identity():
    rng = np.random.default_rng(7)
    algebras = [builtin_algebra(n) for n in ("p3-psi", "c3", "h4-e", "h4-psi")]
    grids = {S.basis_tag: Box([-0.5] * S.n, [0.5] * S.n).grid(3) for S in algebras}
    cfg = DiffConfig(scheme="central-2")
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        S = algebras[trial % len(algebras)]
        f = random_smooth_field(S.n, rng, amplitude=0.8)
        fprime = random_smooth_field(S.n, rng, amplitude=0.8)
        pair = GAPair(f.without_jacobian(), gamma_from_prescribed(f, fprime, S).gamma, S)
        for x in grids[S.basis_tag]:
            worst = max(worst, float(np.max(np.abs(cr_residual(pair, x, cfg)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 30.0
    _report("2 construction-identity", ok, f"max residual {worst:.2e}, runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. closure of the pair calculus
# ---------------------------------------------------------------------------

def test_criterion_3_pair_calculus_closure():
    rng = np.random.default_rng(11)
    S = builtin_algebra("h4-psi")
    E = builtin_algebra("h4-e")
    grid = Box([-0.5] * 4, [0.5] * 4).grid(3)
    worst = 0.0
    for algebra in (S, E):
        p1 = gamma_from_prescribed(
            random_smooth_field(4, rng), random_smooth_field(4, rng), algebra
        )
        p2 = gamma_from_prescribed(
            random_smooth_field(4, rng), random_smooth_field(4, rng), algebra
        )
        prod = pair_product(p1, p2)
        comb = pair_combine(0.7, p1, -1.2, p2)
        for x in grid[::5]:
            worst = max(worst, float(np.max(np.abs(cr_residual(prod, x)))))
            worst = max(worst, float(np.max(np.abs(cr_residual(comb, x)))))
            rule = derivative(prod, x) - (
                multiply(derivative(p1, x), algebra.element(p2.f(x)), algebra)
                + multiply(algebra.element(p1.f(x)), derivative(p2, x), algebra)
            )
            worst = max(worst, float(np.max(np.abs(rule.coords))))
        # quotient: divide the product back out against a unit-anchored factor
        den = pair_combine(
            1.0,
            GAPair(constant_field(algebra.unit().coords), zero_gamma(4), algebra),
            0.15,
            p1,
        )
        num = pair_product(den, p2)
        x = np.array([0.2, -0.3, 0.1, 0.25])
        value, deriv = pair_quotient(num, den, x)
        worst = max(worst, float(np.max(np.abs(value.coords - p2.f(x)))))
        worst = max(worst, float(np.max(np.abs(deriv.coords - derivative(p2, x).coords))))
        # composition: squaring chain against the product route
        sq = pair_product(p1, p1)
        chain = pair_compose(square_pair(algebra), p1, x)
        worst = max(worst, float(np.max(np.abs(chain.coords - derivative(sq, x).coords))))
    ok = worst < 1e-7
    _report("3 pair-calculus", ok, f"max residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. tensoriality of the covariant derivative under twenty random diffeos
# ---------------------------------------------------------------------------

def test_criterion_4_tensoriality():
    rng = np.random.default_rng(13)
    S = builtin_algebra("h4-e")
    pair = gamma_from_prescribed(
        random_smooth_field(4, rng), random_smooth_field(4, rng), S
    )
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(-0.04, 0.04, (4, 4))
        phase = rng.uniform(0, 2 * np.pi, (4, 4))

        def func(x, alpha=alpha, phase=phase):
            return x + np.sum(alpha * np.sin(x[None, :] + phase), axis=1)

        def jac(x, alpha=alpha, phase=phase):
            return np.eye(4) + alpha * np.cos(x[None, :] + phase)

        def hess(x, alpha=alpha, phase=phase):
            h = np.zeros((4, 4, 4))
            for i in range(4):
                for j in range(4):
                    h[i, j, j] -= alpha[i, j] * np.sin(x[j] + phase[i, j])
            return h

        diffeo = Diffeo(4, func, jac, hess)
        x = rng.uniform(-0.4, 0.4, 4)
        _, _, transported = gamma_transform(pair, diffeo, x)
        direct = covariant_derivative(transform_pair(pair, diffeo), diffeo(x))
        worst = max(worst, float(np.max(np.abs(direct - transported))))
    ok = worst < 1e-6
    _report("4 tensoriality", ok, f"max transport mismatch {worst:.2e} over 20 diffeos")


# ---------------------------------------------------------------------------
# 5. path independence forces analyticity
# ---------------------------------------------------------------------------

def test_criterion_5_path_independence():
    S = builtin_algebra("h4-psi")
    target = np.array([1.0, 2.0, 3.0, 4.0])
    straight = straight_path(np.zeros(4), target)
    bent = polyline_path([np.zeros(4), np.array([1.0, 2.0, 0.0, 0.0]), target])

    analytic = identity_field(4)
    v1 = line_integral(analytic, straight, S)
    v2 = line_integral(analytic, bent, S)
    expected = np.array([0.5, 2.0, 4.5, 8.0])
    agree = max(
        float(np.max(np.abs(v1.coords - expected))), float(np.max(np.abs(v2.coords - expected)))
    )

    crooked = monomial_field(4, 0, [0, 1, 0, 0])
    w1 = line_integral(crooked, straight, S)
    w2 = line_integral(crooked, polyline_path([np.zeros(4), np.array([1.0, 0, 0, 0]), target]), S)
    gap = float(np.max(np.abs(w1.coords - w2.coords)))
    curl = path_independence_residual(
        GAPair(crooked, zero_gamma(4), S), np.array([0.2, 0.3, 0.1, 0.4])
    )
    ok = agree < 1e-8 and gap > 1e-3 and float(np.max(np.abs(curl))) > 0.5
    _report(
        "5 path-independence",
        ok,
        f"analytic agreement {agree:.2e}, non-analytic gap {gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. geodesics: straightness, measured order, cross-form agreement, drift
# ---------------------------------------------------------------------------

def test_criterion_6_geodesics():
    v0 = np.array([1.0, 2.0, 3.0, 4.0])
    straight = integrate_geodesic(
        zero_connection(4), GeodesicState(np.zeros(4), v0), IntegratorConfig(steps=100, t_end=1.0)
    )
    straightness = float(np.max(np.abs(straight.x - np.outer(straight.sigma, v0))))

    metric = FinslerConfig(kappa=gaussian_kappa(1.0), lam=constant_lambda(16.0), lambda0=16.0)
    xi0 = np.array([0.05, 0.1, 0.15, 0.2])
    p0 = momenta(np.array([1.0, 1.2, 0.8, 1.1]), xi0, metric)
    e0 = ExtremalState(xi0, p0)
    conn = finsler_connection(metric)
    s0 = GeodesicState(xi0, extremal_velocity(metric, e0))

    ref = integrate_geodesic(conn, s0, IntegratorConfig(steps=1280, t_end=1.0))
    errors = []
    for steps in (16, 32, 64):
        traj = integrate_geodesic(conn, s0, IntegratorConfig(steps=steps, t_end=1.0))
        errors.append(float(np.max(np.abs(traj.x[-1] - ref.x[-1]))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]

    cross = cross_check_forms(metric, e0, IntegratorConfig(steps=10000, t_end=1.0))
    drift = cross.extremal.max_drift

    ok = (
        straightness < 1e-12
        and all(3.7 <= o <= 4.3 for o in orders)
        and cross.discrepancy < 1e-5
        and drift < 1e-6
    )
    _report(
        "6 geodesics",
        ok,
        f"straightness {straightness:.1e}, orders {orders[0]:.2f}/{orders[1]:.2f}, "
        f"cross-form {cross.discrepancy:.1e}, drift {drift:.1e}",
    )


# ---------------------------------------------------------------------------
# 7. the closed-form family
# ---------------------------------------------------------------------------

def test_criterion_7_h4_family():
    grid = Box([-0.5] * 4, [0.5] * 4).grid(3)
    phi0 = [1.0, 0.5, 2.0, 1.0]
    mu = [0.3, -0.2, 0.1, 0.4]

    trivial = H4FamilySpec(
        phi0=[1, 1, 1, 1], mu=[1, 0, 0, 0],
        b=tuple(constant_b(1.0) for _ in range(4)), lam=constant_lambda(1.0),
    )
    trivial_res = max(family_residual(trivial, grid, use_fd=True).residuals.values())

    b = tuple(quadratic_b(0.25) for _ in range(4))
    reduced = H4FamilySpec(
        phi0=phi0, mu=mu, b=b,
        lam=reciprocal_quartic_lambda(kappa_from_b(b, 1.0), 1.0, 1.0),
    )
    gamma_needed = analytic_gamma_max(reduced, grid)

    generic = H4FamilySpec(phi0=phi0, mu=mu, b=b, lam=constant_lambda(1.0))
    generic_rep = family_residual(generic, grid)

    incompatible = H4FamilySpec(
        phi0=[1, 1, 1, 1], mu=[0, 0, 0, 0],
        b=tuple(constant_b(1.0) for _ in range(4)),
        lam=constant_lambda(1.0), kappa=cross_term_kappa(1.0, 1.0, (0, 1)),
    )
    incompatible_rep = family_residual(incompatible, grid)

    ok = (
        trivial_res < 1e-9
        and gamma_needed < 1e-8
        and generic_rep.selected == "reciprocal"
        and generic_rep.residuals["reciprocal"] < 1e-7
        and generic_rep.residuals["as-printed"] > 1e-7
        and incompatible_rep.residuals["as-printed"] > 1e-3
        and incompatible_rep.residuals["reciprocal"] > 1e-3
    )
    _report(
        "7 h4-family",
        ok,
        f"trivial {trivial_res:.1e}, gamma-needed {gamma_needed:.1e}, "
        f"selected {generic_rep.selected} at {generic_rep.residuals['reciprocal']:.1e} "
        f"(other {generic_rep.residuals['as-printed']:.1e}), "
        f"incompatible {min(incompatible_rep.residuals.values()):.1e}",
    )


# ---------------------------------------------------------------------------
# 8. deterministic reports
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": "h4-e", "count": 10}))
    artifacts = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(["pair-ops", "--config", str(cfg), "--output", str(out), "--seed", "99"])
        assert code == EXIT_OK
        artifacts.append(out.read_bytes())
    fam_cfg = tmp_path / "fam.json"
    fam_cfg.write_text(json.dumps({
        "phi0": [1, 0.5, 2, 1], "mu": [0.3, -0.2, 0.1, 0.4],
        "b": {"kind": "quadratic", "c": 0.25}, "lam": {"kind": "constant", "value": 1.0},
    }))
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        main(["family-verify", "--config", str(fam_cfg), "--output", str(out), "--seed", "99"])
        artifacts.append(out.read_bytes())
    ok = artifacts[0] == artifacts[1] and artifacts[2] == artifacts[3]
    _report("8 determinism", ok, f"{len(artifacts[0])}-byte reports byte-identical")
