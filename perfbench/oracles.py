"""Independent reference computations and output checks for the benchmark.

Nothing here imports polyan: every closed form is computed from the
benchmark's own tables and formulas, so a fault in the library cannot also
hide in its oracle.  Each ``check_*`` function returns a list of problems;
an empty list means the output is correct.  Every comparison treats NaN and
inf as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# exit codes documented in the polyan README
EXIT_OK = 0
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# strict, NaN-aware primitives
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def strict_json(text: str):
    """Parse a report as strict JSON: NaN and Infinity tokens are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def finite_le(value, tol: float) -> bool:
    """value <= tol for a finite real number; False for NaN, inf or non-numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) and value <= tol


def max_abs(a) -> float:
    """NaN-propagating max|a| (Python's max() would drop a NaN)."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def close(a, b, tol: float) -> bool:
    """Elementwise |a - b| <= tol with every entry finite."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return False
    return bool(np.all(np.abs(a - b) <= tol))


# ---------------------------------------------------------------------------
# structure-constant tables, written out independently of the library
# ---------------------------------------------------------------------------

def table(name: str) -> np.ndarray:
    """p[k, i, j] for a built-in algebra, from its defining multiplication rule."""
    if name == "complex":
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = 1.0
        p[1, 0, 1] = p[1, 1, 0] = 1.0
        p[0, 1, 1] = -1.0
        return p
    if name in ("p3-psi", "h4-psi"):
        n = 3 if name == "p3-psi" else 4
        p = np.zeros((n, n, n))
        for i in range(n):
            p[i, i, i] = 1.0
        return p
    if name == "c3":
        p = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                p[(i + j) % 3, i, j] = 1.0
        return p
    if name == "h4-e":
        p = np.zeros((4, 4, 4))
        for i in range(4):
            for j in range(4):
                p[i ^ j, i, j] = 1.0
        return p
    raise ValueError(f"no reference table for {name!r}")


UNIT_INDEX = {"complex": 0, "c3": 0, "h4-e": 0, "p3-psi": None, "h4-psi": None}


def reference_product(name: str, a, b) -> np.ndarray:
    """Product by the algebra's own arithmetic, not by a structure tensor."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if name == "complex":
        z = complex(a[0], a[1]) * complex(b[0], b[1])
        return np.array([z.real, z.imag])
    if name in ("p3-psi", "h4-psi"):
        return a * b
    if name == "h4-e":
        out = np.zeros(4)
        for i in range(4):
            for j in range(4):
                out[i ^ j] += a[i] * b[j]
        return out
    if name == "c3":
        return np.array([sum(a[i] * b[(k - i) % 3] for i in range(3)) for k in range(3)])
    raise ValueError(f"no reference product for {name!r}")


def unit_coords(name: str) -> np.ndarray:
    n = table(name).shape[0]
    if UNIT_INDEX[name] is None:
        return np.ones(n)
    u = np.zeros(n)
    u[UNIT_INDEX[name]] = 1.0
    return u


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def linear_cr_residual(name: str, a) -> np.ndarray:
    """Cauchy-Riemann residual of the field x -> A x with zero gamma.

    Unit algebras: R = A - p.(A e_u).  Componentwise (psi) algebras: the
    off-diagonal part of A.
    """
    a = np.asarray(a, dtype=float)
    u = UNIT_INDEX[name]
    if u is None:
        return a - np.diag(np.diag(a))
    return a - np.einsum("ikj,j->ik", table(name), a[:, u])


def structure_geodesic(x0, v0, c: float, t) -> np.ndarray:
    """Geodesic of the constant connection c.p over h4-psi: x_i'' = -c v_i^2,
    so x_i(t) = x0_i + ln(1 + c v0_i t) / c; rows are the sample times."""
    t = np.asarray(t, dtype=float)[:, None]
    return np.asarray(x0, dtype=float)[None, :] + np.log1p(c * np.asarray(v0)[None, :] * t) / c


def gaussian_kappa(xi, kappa0: float, c: float) -> np.ndarray:
    """kappa0 exp(c |xi|^2 / 4), row-wise."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    return kappa0 * np.exp(c * np.sum(xi * xi, axis=1) / 4.0)


def extremal_momenta(dxi, xi, kappa0: float, c: float) -> np.ndarray:
    """Momenta ds / (4 dxi) with ds = kappa (prod dxi)^(1/4); on the indicatrix."""
    dxi = np.asarray(dxi, dtype=float)
    ds = gaussian_kappa(xi, kappa0, c)[0] * float(np.prod(dxi)) ** 0.25
    return ds / (4.0 * dxi)


def indicatrix_defect(xi, p, kappa0: float, c: float) -> np.ndarray:
    """|prod p / (kappa/4)^4 - 1| per row."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    return np.abs(np.prod(p, axis=1) / (gaussian_kappa(xi, kappa0, c) / 4.0) ** 4 - 1.0)


def geodesic_velocity(p, lam: float) -> np.ndarray:
    """Coordinate velocity prod(p)/p * lambda of an extremal state."""
    p = np.asarray(p, dtype=float)
    return np.prod(p) / p * lam


def rk4_orders(errors) -> list:
    """Observed orders log2(e_h / e_{h/2}) of successive step halvings."""
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def linear_line_integral(name: str, a, vertices) -> np.ndarray:
    """Exact integral of p.(A x) dx along straight legs through the vertices.

    On a leg x = x0 + t d the integrand is linear in t, so the leg integral
    is the midpoint value p_ikj (A (x0 + d/2))_k d_j.
    """
    p = table(name)
    a = np.asarray(a, dtype=float)
    verts = [np.asarray(v, dtype=float) for v in vertices]
    total = np.zeros(p.shape[0])
    for x0, x1 in zip(verts[:-1], verts[1:]):
        d = x1 - x0
        total += np.einsum("ikj,k,j->i", p, a @ (x0 + 0.5 * d), d)
    return total


def complex_z_integral(a, b) -> np.ndarray:
    """The integral of z dz from a to b, (b^2 - a^2)/2, as coordinates."""
    za, zb = complex(*a), complex(*b)
    w = (zb * zb - za * za) / 2.0
    return np.array([w.real, w.imag])


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _load(code: int, text: str, want_code: int, problems: list):
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    try:
        return strict_json(text)
    except ValueError as exc:
        problems.append(f"report is not strict JSON: {exc}")
        return None


def check_cr_report(code: int, text: str, n_points: int, tol: float) -> list:
    """cr-residual report: exit 0, n_points finite entries, grid_max <= tol."""
    problems = []
    rep = _load(code, text, EXIT_OK, problems)
    if rep is None:
        return problems
    res = rep.get("results") or {}
    entries = res.get("points", [])
    if len(entries) != n_points:
        problems.append(f"{len(entries)} point entries, expected {n_points}")
    bad = [e for e in entries if not finite_le(e.get("max_abs"), tol)]
    if bad:
        problems.append(f"{len(bad)} point entries missing, non-finite or above {tol:g}")
    if not finite_le(res.get("grid_max"), tol):
        problems.append(f"grid_max {res.get('grid_max')!r} not finite and <= {tol:g}")
    if rep.get("pass") is not True:
        problems.append("report does not pass")
    return problems


def check_nonfinite_cr_report(code: int, text: str) -> list:
    """A grid with non-finite residuals: strict JSON, pass false, exit 3."""
    problems = []
    rep = _load(code, text, EXIT_RUNTIME, problems)
    if rep is not None and rep.get("pass") is not False:
        problems.append(f"pass is {rep.get('pass')!r} on a grid with non-finite residuals")
    return problems


def check_family_report(code: int, text: str) -> list:
    """family-verify under the kappa-reciprocal gauge."""
    problems = []
    rep = _load(code, text, EXIT_OK, problems)
    if rep is None:
        return problems
    res = rep.get("results") or {}
    if res.get("selected_convention") != "reciprocal":
        problems.append(f"selected {res.get('selected_convention')!r}, expected 'reciprocal'")
    if not finite_le(res.get("residual_reciprocal"), 1e-7):
        problems.append(f"reciprocal residual {res.get('residual_reciprocal')!r} > 1e-7")
    printed = res.get("residual_as_printed")
    if not (isinstance(printed, (int, float)) and math.isfinite(printed) and printed > 1e-3):
        problems.append(f"as-printed residual {printed!r} not finite and > 1e-3")
    if not finite_le(res.get("analytic_gamma_max"), 1e-8):
        problems.append(f"analytic_gamma_max {res.get('analytic_gamma_max')!r} > 1e-8")
    if not finite_le(res.get("compatibility_max"), 1e-6):
        problems.append(f"compatibility_max {res.get('compatibility_max')!r} > 1e-6")
    return problems


PAIR_OPS_KEYS = ("product_residual", "combine_residual", "product_rule",
                 "quotient_roundtrip", "compose_vs_product")


def check_pair_ops_report(code: int, text: str, tol: float = 1e-7) -> list:
    problems = []
    rep = _load(code, text, EXIT_OK, problems)
    if rep is None:
        return problems
    res = rep.get("results") or {}
    for key in PAIR_OPS_KEYS:
        if not finite_le(res.get(key), tol):
            problems.append(f"{key} {res.get(key)!r} not finite and <= {tol:g}")
    return problems


def check_line_integral_report(code: int, text: str, expect_a, expect_b=None,
                               tol: float = 1e-8) -> list:
    """Integrals (and the second path's, if any) against exact values."""
    problems = []
    rep = _load(code, text, EXIT_OK, problems)
    if rep is None:
        return problems
    res = rep.get("results") or {}
    if not close(res.get("integral", []), expect_a, tol):
        problems.append(f"integral {res.get('integral')!r} != exact {np.asarray(expect_a).tolist()}")
    if expect_b is not None:
        if not close(res.get("integral_b", []), expect_b, tol):
            problems.append(f"integral_b {res.get('integral_b')!r} != exact {np.asarray(expect_b).tolist()}")
        gap = max_abs(np.asarray(expect_a) - np.asarray(expect_b))
        if not close(res.get("difference", math.nan), gap, tol):
            problems.append(f"difference {res.get('difference')!r} != exact gap {gap!r}")
    return problems


def read_csv(text: str):
    """Header and float rows of a trajectory CSV; raises ValueError if malformed."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError("CSV rows do not match the header")
    return header, data


def check_extremal_rows(code: int, xi, p, kappa0: float, c: float, steps: int,
                        tol: float = 1e-6) -> list:
    """Extremal samples: exit 0, steps + 1 finite rows on the indicatrix."""
    problems = []
    if code != EXIT_OK:
        problems.append(f"exit code {code}, expected {EXIT_OK}")
    xi = np.asarray(xi, dtype=float)
    p = np.asarray(p, dtype=float)
    if xi.shape != (steps + 1, 4) or p.shape != (steps + 1, 4):
        problems.append(f"trajectory shape {xi.shape}/{p.shape}, expected ({steps + 1}, 4)")
        return problems
    defect = max_abs(indicatrix_defect(xi, p, kappa0, c))
    if not finite_le(defect, tol):
        problems.append(f"indicatrix defect {defect!r} > {tol:g}")
    return problems
