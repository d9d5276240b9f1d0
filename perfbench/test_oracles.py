"""Tests of the benchmark's own oracles: closed forms against hand-computed
values, and report checks that must reject NaN, wrong exit codes and
non-strict JSON.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import math

import numpy as np
import pytest

import oracles as orc


def _report(results, passed=True, max_residual=0.0):
    return json.dumps({"command": "x", "config_echo": {}, "results": results,
                       "max_residual": max_residual, "pass": passed})


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_linear_cr_residual_complex_by_hand():
    # f = (x + 2y) + i(3x + 4y): u_x - v_y = -3 and u_y + v_x = 5
    r = orc.linear_cr_residual("complex", [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(r, [[0.0, 5.0], [0.0, 3.0]])


def test_linear_cr_residual_psi_is_off_diagonal():
    a = np.arange(16.0).reshape(4, 4)
    r = orc.linear_cr_residual("h4-psi", a)
    assert np.array_equal(np.diag(r), np.zeros(4))
    assert r[0, 1] == 1.0 and r[3, 2] == 14.0


def test_linear_cr_residual_vanishes_on_a_multiplication_operator():
    # x -> c x is analytic in every algebra with a unit
    for name in ("complex", "c3", "h4-e"):
        p = orc.table(name)
        c = np.linspace(0.5, 1.5, p.shape[0])
        m = np.einsum("kij,i->kj", p, c)
        assert orc.max_abs(orc.linear_cr_residual(name, m)) < 1e-15


def test_reference_products_by_hand():
    assert np.array_equal(orc.reference_product("complex", [1, 2], [3, 4]), [-5.0, 10.0])
    e = np.eye(4)
    assert np.array_equal(orc.reference_product("h4-e", e[1], e[2]), e[3])  # j k = jk
    assert np.array_equal(orc.reference_product("h4-e", e[3], e[3]), e[0])
    c = np.eye(3)
    assert np.array_equal(orc.reference_product("c3", c[1], c[2]), c[0])
    assert np.array_equal(orc.reference_product("h4-psi", [1, 2, 3, 4], [2, 2, 2, 2]), [2, 4, 6, 8])


def test_reference_products_match_tables():
    rng = np.random.default_rng(0)
    for name in orc.UNIT_INDEX:
        p = orc.table(name)
        a, b = rng.normal(size=(2, p.shape[0]))
        assert np.allclose(orc.reference_product(name, a, b), np.einsum("kij,i,j->k", p, a, b),
                           rtol=0, atol=1e-14)
        assert np.allclose(orc.reference_product(name, orc.unit_coords(name), a), a,
                           rtol=0, atol=1e-15)


def test_structure_geodesic_by_hand():
    t = np.array([0.0, math.e - 1.0])
    x = orc.structure_geodesic([0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], 1.0, t)
    assert np.allclose(x[0], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(x[1], [1.0, 2.0, 1.0, 1.0])


def test_structure_geodesic_solves_its_equation():
    # x'' = -c x'^2, checked by central differences
    c, v0, h = 0.7, np.array([0.5, 1.0, 1.5, 2.0]), 1e-4
    t = np.array([0.3 - h, 0.3, 0.3 + h])
    x = orc.structure_geodesic(np.zeros(4), v0, c, t)
    vel = (x[2] - x[0]) / (2 * h)
    acc = (x[2] - 2 * x[1] + x[0]) / h ** 2
    assert np.allclose(acc, -c * vel ** 2, rtol=1e-5)


def test_momenta_lie_on_the_indicatrix():
    p = orc.extremal_momenta([1.0, 1.0, 1.0, 1.0], np.zeros(4), kappa0=4.0, c=1.0)
    assert np.allclose(p, 1.0)  # ds = 4, p = ds / 4
    assert orc.indicatrix_defect(np.zeros(4), p, 4.0, 1.0)[0] == 0.0
    xi = np.ones(4)
    assert orc.gaussian_kappa(xi, 2.0, 1.0)[0] == pytest.approx(2.0 * math.e)
    p = orc.extremal_momenta([0.9, 1.1, 1.0, 1.2], xi, 1.0, 0.8)
    assert orc.indicatrix_defect(xi, p, 1.0, 0.8)[0] < 1e-15


def test_geodesic_velocity_by_hand():
    assert np.array_equal(orc.geodesic_velocity([1.0, 2.0, 3.0, 4.0], 2.0), [48.0, 24.0, 16.0, 12.0])


def test_rk4_orders_by_hand():
    assert orc.rk4_orders([16.0, 1.0, 1.0 / 16.0]) == [4.0, 4.0]


def test_z_integral_by_hand():
    # integral of z dz from 0 to 1 + i is (1 + i)^2 / 2 = i
    assert np.allclose(orc.complex_z_integral([0.0, 0.0], [1.0, 1.0]), [0.0, 1.0])
    a, b = [0.3, -0.2], [-0.5, 0.8]
    ident = np.eye(2)
    assert np.allclose(orc.linear_line_integral("complex", ident, [a, b]),
                       orc.complex_z_integral(a, b), atol=1e-15)
    assert np.allclose(orc.linear_line_integral("complex", ident, [a, [1.0, 1.0], b]),
                       orc.complex_z_integral(a, b), atol=1e-15)


def test_non_analytic_path_gap_by_hand():
    # psi-basis, f_0 = x_1: along x = t (1, 1) the first component is
    # integral of t dt = 1/2; along the corner path it is 0
    a = np.zeros((4, 4))
    a[0, 1] = 1.0
    end = [1.0, 1.0, 0.0, 0.0]
    straight = orc.linear_line_integral("h4-psi", a, [np.zeros(4), end])
    bent = orc.linear_line_integral("h4-psi", a, [np.zeros(4), [1.0, 0.0, 0.0, 0.0], end])
    assert np.array_equal(straight, [0.5, 0.0, 0.0, 0.0])
    assert np.array_equal(bent, np.zeros(4))


# ---------------------------------------------------------------------------
# NaN-aware primitives
# ---------------------------------------------------------------------------

def test_nan_never_passes():
    assert not orc.finite_le(math.nan, 1.0)
    assert not orc.finite_le(math.inf, math.inf)
    assert not orc.finite_le(None, 1.0)
    assert not orc.finite_le(True, 1.0)
    assert orc.finite_le(0.5, 1.0)
    # Python's max keeps the first argument when comparing with NaN
    assert max(0.0, math.nan) == 0.0
    assert math.isnan(orc.max_abs([0.0, math.nan]))
    assert not orc.close([1.0, math.nan], [1.0, math.nan], 1.0)


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}',
                                  '{"a": nan}', '{"a": inf}'])
def test_strict_json_rejects_non_finite_tokens(text):
    with pytest.raises(ValueError):
        orc.strict_json(text)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _cr_results(values, grid_max=None):
    return {"points": [{"point": [0.0], "max_abs": v} for v in values],
            "grid_max": max(values) if grid_max is None else grid_max,
            "grid_mean": 0.0, "failed_points": 0}


def test_cr_report_accepts_a_clean_grid():
    assert orc.check_cr_report(0, _report(_cr_results([1e-9, 2e-9])), 2, 1e-7) == []


def test_cr_report_rejects_nan_entries():
    # the seed writer prints bare nan tokens and keeps grid_max finite
    text = _report(_cr_results([1e-9, 0.0])).replace('"max_abs": 0.0', '"max_abs": nan')
    assert orc.check_cr_report(0, text, 2, 1e-7)
    text = _report(_cr_results([1e-9, 0.0])).replace('"max_abs": 0.0', '"max_abs": NaN')
    assert orc.check_cr_report(0, text, 2, 1e-7)
    text = _report(_cr_results([1e-9, 0.0])).replace('"max_abs": 0.0', '"max_abs": null')
    assert orc.check_cr_report(0, text, 2, 1e-7)


def test_cr_report_rejects_exit_code_mismatch_and_wrong_size():
    text = _report(_cr_results([1e-9, 2e-9]))
    assert any("exit code" in p for p in orc.check_cr_report(3, text, 2, 1e-7))
    assert orc.check_cr_report(0, text, 3, 1e-7)
    assert orc.check_cr_report(0, _report(_cr_results([1e-9, 2e-9]), passed=False), 2, 1e-7)


def test_nonfinite_cr_report_check():
    seed_like = _report(_cr_results([0.0, 0.0])).replace('"max_abs": 0.0', '"max_abs": nan', 1)
    problems = orc.check_nonfinite_cr_report(0, seed_like)
    assert any("exit code" in p for p in problems)
    assert any("strict JSON" in p for p in problems)
    # pass must be false even when the report parses and the code is right
    assert orc.check_nonfinite_cr_report(3, _report({"points": []}, passed=True))
    assert orc.check_nonfinite_cr_report(3, _report({"points": []}, passed=False)) == []


def _family(**over):
    res = {"residual_as_printed": 1.05, "residual_reciprocal": 1e-16,
           "selected_convention": "reciprocal", "compatibility_max": 2e-8,
           "analytic_gamma_max": 1e-16, "n_points": 2401}
    res.update(over)
    return _report(res)


def test_family_report_check():
    assert orc.check_family_report(0, _family()) == []
    assert orc.check_family_report(1, _family())
    assert orc.check_family_report(0, _family(selected_convention="as-printed"))
    assert orc.check_family_report(0, _family(residual_as_printed=1e-4))
    assert orc.check_family_report(0, _family(analytic_gamma_max=1e-6))
    assert orc.check_family_report(0, _family(compatibility_max=1e-3))
    assert orc.check_family_report(0, _family().replace("1e-16", "NaN", 1))


def test_pair_ops_report_check():
    good = {k: 1e-10 for k in orc.PAIR_OPS_KEYS}
    assert orc.check_pair_ops_report(0, _report(good)) == []
    assert orc.check_pair_ops_report(1, _report(good))
    assert orc.check_pair_ops_report(0, _report(dict(good, product_rule=1e-3)))
    missing = dict(good)
    del missing["product_rule"]
    assert orc.check_pair_ops_report(0, _report(missing))
    assert orc.check_pair_ops_report(0, _report(good).replace("1e-10", "nan", 1))


def test_line_integral_report_check():
    res = {"integral": [0.5, 0.0], "integral_b": [0.0, 0.0], "difference": 0.5}
    assert orc.check_line_integral_report(0, _report(res), [0.5, 0.0], [0.0, 0.0]) == []
    assert orc.check_line_integral_report(0, _report(res), [0.5, 0.0], [0.1, 0.0])
    assert orc.check_line_integral_report(2, _report(res), [0.5, 0.0], [0.0, 0.0])


def test_extremal_rows_check():
    xi = np.zeros((3, 4))
    p = np.full((3, 4), 0.25)  # (kappa/4)^4 with kappa = 1 at xi = 0
    assert orc.check_extremal_rows(0, xi, p, 1.0, 1.0, 2) == []
    assert orc.check_extremal_rows(1, xi, p, 1.0, 1.0, 2)
    assert orc.check_extremal_rows(0, xi, p, 1.0, 1.0, 3)
    p[1, 0] = math.nan
    assert orc.check_extremal_rows(0, xi, p, 1.0, 1.0, 2)


def test_read_csv_rejects_ragged_rows():
    header, data = orc.read_csv("tau,x\n0,1\n1,2\n")
    assert header == ["tau", "x"] and data.shape == (2, 2)
    with pytest.raises(ValueError):
        orc.read_csv("tau,x\n0,1,2\n")
    with pytest.raises(ValueError):
        orc.read_csv("tau,x\n0,nan-ish\n")
