"""End-to-end runs of the batch front end: exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyan import cli
from polyan.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_TOL, main


def run_cli(tmp_path, command, config, name="cfg.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / (name + ".out")
    code = main([command, "--config", str(cfg_path), "--output", str(out_path), *extra])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


# ---------------------------------------------------------------------------
# algebra-check
# ---------------------------------------------------------------------------

def test_algebra_check_builtin_passes(tmp_path):
    code, text = run_cli(tmp_path, "algebra-check", {"algebra": "h4-psi"})
    assert code == EXIT_OK
    report = json.loads(text)
    assert list(report.keys()) == ["command", "config_echo", "results", "max_residual", "pass"]
    assert report["results"]["commutativity_residual"] == 0
    assert report["results"]["associativity_residual"] == 0
    assert report["results"]["unit_residual"] == 0
    assert report["pass"] is True


def test_algebra_check_inline_document(tmp_path):
    doc = {
        "n": 2,
        "unit_index": 1,
        "entries": [
            {"k": 1, "i": 1, "j": 1, "value": 1},
            {"k": 2, "i": 1, "j": 2, "value": 1},
            {"k": 2, "i": 2, "j": 1, "value": 1},
            {"k": 1, "i": 2, "j": 2, "value": -1},
        ],
    }
    code, text = run_cli(tmp_path, "algebra-check", {"algebra": doc})
    assert code == EXIT_OK
    assert json.loads(text)["results"]["q_det"] == pytest.approx(-4.0)


def test_algebra_check_broken_table_fails_tolerance(tmp_path):
    doc = {"n": 2, "entries": [{"k": 1, "i": 1, "j": 2, "value": 1}]}  # not commutative
    code, text = run_cli(tmp_path, "algebra-check", {"algebra": doc})
    assert code == EXIT_TOL
    assert json.loads(text)["pass"] is False


# ---------------------------------------------------------------------------
# cr-residual
# ---------------------------------------------------------------------------

def test_cr_residual_analytic_field_passes(tmp_path):
    config = {
        "algebra": "h4-psi",
        "field": {"kind": "componentwise-exp", "scale": 1.0},
        "gamma": {"kind": "zero"},
        "grid": {"min": [-0.5, -0.5, -0.5, -0.5], "max": [0.5, 0.5, 0.5, 0.5], "points_per_axis": 3},
    }
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_OK
    report = json.loads(text)
    assert report["results"]["grid_max"] < 1e-9
    assert len(report["results"]["points"]) == 81
    assert report["results"]["grid_mean"] <= report["results"]["grid_max"]


def test_cr_residual_nonanalytic_field_fails(tmp_path):
    config = {
        "algebra": "h4-psi",
        "field": {"kind": "monomial", "component": 1, "exponents": [0, 1, 0, 0]},
        "gamma": {"kind": "zero"},
    }
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_TOL
    assert json.loads(text)["max_residual"] == pytest.approx(1.0)


def test_cr_residual_partial_results_on_domain_error(tmp_path):
    # grid corners outside the field's domain are reported per point and the
    # remaining residuals are still flushed
    config = {
        "algebra": "h4-psi",
        "field": {"kind": "componentwise-exp", "domain": {"min": [-0.2, -1, -1, -1],
                                                          "max": [1, 1, 1, 1]}},
        "gamma": {"kind": "zero"},
        "grid": {"min": [-0.5, -0.5, -0.5, -0.5], "max": [0.5, 0.5, 0.5, 0.5],
                 "points_per_axis": 3},
    }
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_RUNTIME
    report = json.loads(text)
    entries = report["results"]["points"]
    assert report["results"]["failed_points"] == 27  # first axis at -0.5 excluded
    assert any("error" in e for e in entries)
    assert any("max_abs" in e for e in entries)
    assert report["results"]["grid_max"] < 1e-8


def test_cr_residual_vanishing_family_profile_fails_per_point(tmp_path):
    # b = 1 - 4 t^2 vanishes on the grid's faces at +-0.5; the 2^4 inner points still report
    config = {"algebra": "h4-psi",
              "field": {"kind": "h4-family", "family": {"b": {"kind": "quadratic", "c": -4.0}}},
              "grid": {"points_per_axis": 4}}
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_RUNTIME
    results = json.loads(text)["results"]
    on_face = [e for e in results["points"] if 0.5 in np.abs(e["point"])]
    inner = [e for e in results["points"] if 0.5 not in np.abs(e["point"])]
    assert len(on_face) == 4 ** 4 - 16 and len(inner) == 16
    assert all(e["error"] == "DomainError: component function vanishes on the evaluation point"
               and "max_abs" not in e for e in on_face)
    assert all(math.isfinite(e["max_abs"]) and "error" not in e for e in inner)
    assert results["failed_points"] == 4 ** 4 - 16
    assert results["grid_max"] == max(e["max_abs"] for e in inner)


def test_cr_residual_nonfinite_points_fail_loudly(tmp_path):
    # x^-1 on the default 3^4 grid: the 65 points with a zero coordinate
    # have non-finite residuals
    config = {"algebra": "h4-psi", "field": {"kind": "componentwise-power", "power": -1}}
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_RUNTIME

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(text, parse_constant=reject)
    assert report["pass"] is False
    assert report["results"]["failed_points"] == 65
    assert sum("error" in e for e in report["results"]["points"]) == 65


def test_an_algebra_name_with_percent_signs_reaches_every_error_row_verbatim(tmp_path):
    """The record writer formats its rows with %, so an error message is escaped before it is spliced in."""
    config = {"algebra": {"n": 2, "name": "50%s %d"}, "field": {"kind": "identity"}}
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_RUNTIME
    results = json.loads(text)["results"]
    assert results["failed_points"] == len(results["points"]) == 9
    assert all(e["error"] == "SingularQError: q-tensor of algebra '50%s %d' is singular; residual needs a unit "
               "element" and set(e) == {"point", "error"} for e in results["points"])


def test_a_box_whose_width_overflows_is_a_config_error(tmp_path, capsys):
    """A box of +-1e308 has a width that overflows, which would put NaN and inf coordinates in its grid: the
    grid is refused, so no residual is computed at such a point and none can pass there."""
    box = {"points_per_axis": 3, "min": [-1e308, -1e308], "max": [1e308, 1e308]}
    config = {"algebra": "complex", "field": {"kind": "identity"}, "grid": box}
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert (code, text) == (EXIT_CONFIG, "")
    assert capsys.readouterr().err == "config error: ContractError: box width hi - lo overflows\n"


@st.composite
def grid_records(draw):
    """points (m, n), NaN and inf among them, max_abs (m,) and error messages, some with % and JSON escapes,
    at any rows."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    points = np.array(draw(st.lists(st.floats(), min_size=m * n, max_size=m * n))).reshape(m, n)
    failed = draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else set()
    messages = st.text(alphabet='%sd .\\"\né', max_size=12).map(lambda t: t + "%")
    errors = {i: draw(messages) for i in sorted(failed)}
    max_abs = np.array([math.nan if i in errors else draw(st.floats(allow_nan=False, allow_infinity=False))
                        for i in range(m)])
    return points, max_abs, errors


@settings(max_examples=200, deadline=None)
@given(records=grid_records(), indent=st.integers(0, 4))
def test_grid_records_are_the_json_of_their_dicts(records, indent):
    points, max_abs, errors = records
    entries = [{"point": x.tolist(), **({"error": errors[i]} if i in errors else {"max_abs": float(max_abs[i])})}
               for i, x in enumerate(points)]
    assert cli._records(points, max_abs, errors, indent) == cli._json(entries, indent)


def test_nonfinite_max_residual_is_runtime_error(tmp_path, monkeypatch):
    def nan_check(cfg, tol, rng):
        return lambda: ({"results": {"value": float("inf")}, "max_residual": float("nan")}, True)

    monkeypatch.setitem(cli._HANDLERS, "algebra-check", (nan_check, 1e-12, False))
    code, text = run_cli(tmp_path, "algebra-check", {"algebra": "h4-psi"})
    assert code == EXIT_RUNTIME
    report = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    assert report["max_residual"] is None
    assert report["results"]["value"] is None
    assert report["pass"] is False


def test_command_added_to_the_table_alone_runs(tmp_path, monkeypatch):
    def constant_check(cfg, tol, rng):
        return lambda: ({"results": {"tol": tol}, "max_residual": 0.0}, True)

    monkeypatch.setitem(cli._HANDLERS, "constant-check", (constant_check, 1e-9, False))
    code, text = run_cli(tmp_path, "constant-check", {})
    assert code == EXIT_OK
    assert json.loads(text)["results"]["tol"] == 1e-9


_NONFINITE_RUNS = [
    ("cr-residual", {"algebra": "h4-psi", "field": {"kind": "componentwise-power", "power": -1}}),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "componentwise-power", "power": -1},
                       "path": {"kind": "straight", "from": [-1, -1, -1, -1], "to": [1, 1, 1, 1]}}),
]


@pytest.mark.parametrize("command, config", _NONFINITE_RUNS)
def test_nonfinite_runs_print_no_numpy_warnings(tmp_path, capfd, command, config):
    # a separate interpreter, so that numpy's warnings would reach stderr
    # instead of pytest's warning capture
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = subprocess.call([sys.executable, "-m", "polyan.cli", command, "--config", str(cfg_path),
                            "--output", str(tmp_path / "out.json")], env=env)
    assert code == EXIT_RUNTIME
    assert capfd.readouterr().err == ""


def test_cr_residual_prescribed_gamma(tmp_path):
    config = {
        "algebra": "h4-e",
        "field": {"kind": "componentwise-power", "power": 2},
        "gamma": {"kind": "prescribed", "fprime": {"kind": "constant", "value": [1, 0, 0, 0]}},
    }
    code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_OK
    assert json.loads(text)["results"]["grid_max"] < 1e-8


# ---------------------------------------------------------------------------
# pair-ops
# ---------------------------------------------------------------------------

def test_pair_ops_random_pairs_pass(tmp_path):
    code, text = run_cli(tmp_path, "pair-ops", {"algebra": "h4-e", "count": 8}, extra=["--seed", "11"])
    assert code == EXIT_OK
    results = json.loads(text)["results"]
    for key in ("product_residual", "combine_residual", "product_rule",
                "quotient_roundtrip", "compose_vs_product"):
        assert results[key] < 1e-7


def test_pair_ops_three_dimensional_algebra(tmp_path):
    code, text = run_cli(tmp_path, "pair-ops", {"algebra": "c3", "count": 5}, extra=["--seed", "3"])
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# line-integral
# ---------------------------------------------------------------------------

def test_line_integral_two_paths_equal(tmp_path):
    config = {
        "algebra": "h4-psi",
        "field": {"kind": "identity"},
        "path": {"kind": "straight", "from": [0, 0, 0, 0], "to": [1, 2, 3, 4]},
        "path_b": {"kind": "polyline", "vertices": [[0, 0, 0, 0], [1, 2, 0, 0], [1, 2, 3, 4]]},
        "expect": "equal",
    }
    code, text = run_cli(tmp_path, "line-integral", config)
    assert code == EXIT_OK
    report = json.loads(text)
    assert np.allclose(report["results"]["integral"], [0.5, 2.0, 4.5, 8.0], atol=1e-8)
    assert report["results"]["difference"] < 1e-8


def test_line_integral_path_dependence_detected(tmp_path):
    config = {
        "algebra": "h4-psi",
        "field": {"kind": "monomial", "component": 1, "exponents": [0, 1, 0, 0]},
        "path": {"kind": "straight", "from": [0, 0, 0, 0], "to": [1, 2, 3, 4]},
        "path_b": {"kind": "polyline", "vertices": [[0, 0, 0, 0], [1, 0, 0, 0], [1, 2, 3, 4]]},
        "expect": "different",
        "min_difference": 1e-3,
    }
    code, text = run_cli(tmp_path, "line-integral", config)
    assert code == EXIT_OK
    assert json.loads(text)["results"]["difference"] > 1e-3


def test_line_integral_nonfinite_is_runtime_error(tmp_path):
    # 1/x on a path through the origin: the integral is not a number
    config = {
        "algebra": "h4-psi",
        "field": {"kind": "componentwise-power", "power": -1},
        "path": {"kind": "straight", "from": [-1, -1, -1, -1], "to": [1, 1, 1, 1]},
    }
    code, text = run_cli(tmp_path, "line-integral", config)
    assert code == EXIT_RUNTIME
    report = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    assert report["pass"] is False
    assert report["results"]["integral"] == [None] * 4


# ---------------------------------------------------------------------------
# geodesic and extremal trajectories
# ---------------------------------------------------------------------------

def test_geodesic_csv_fencepost(tmp_path):
    config = {
        "connection": {"kind": "zero", "n": 4},
        "x0": [0, 0, 0, 0],
        "v0": [1, 2, 3, 4],
        "steps": 100,
        "t_end": 1.0,
    }
    code, text = run_cli(tmp_path, "geodesic", config)
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0].startswith("tau,xi1")
    assert len(lines) - 1 == 101


def test_geodesic_json_summary(tmp_path):
    config = {
        "connection": {"kind": "finsler", "kappa": {"kind": "gaussian", "c": 1.0},
                       "lam": {"kind": "constant", "value": 16.0}},
        "x0": [0.05, 0.1, 0.15, 0.2],
        "v0": [0.26, 0.31, 0.21, 0.29],
        "steps": 50,
        "t_end": 1.0,
    }
    code, text = run_cli(tmp_path, "geodesic", config, extra=["--format", "json"])
    assert code == EXIT_OK
    report = json.loads(text)
    assert report["results"]["samples"] == 51
    assert len(report["results"]["trajectory"]["xi"]) == 51


def test_extremal_csv_with_drift_column(tmp_path):
    config = {
        "kappa": {"kind": "gaussian", "c": 1.0},
        "lam": {"kind": "constant", "value": 16.0},
        "xi0": [0.05, 0.1, 0.15, 0.2],
        "dxi0": [1.0, 1.2, 0.8, 1.1],
        "steps": 200,
        "t_end": 1.0,
    }
    code, text = run_cli(tmp_path, "extremal", config)
    assert code == EXIT_OK
    lines = text.strip().split("\n")
    assert lines[0].endswith("constraint_residual")
    assert len(lines) - 1 == 201


def test_extremal_cone_violation_is_runtime_error(tmp_path):
    config = {
        "kappa": {"kind": "constant", "value": 1.0},
        "lam": {"kind": "constant", "value": 1.0},
        "xi0": [0, 0, 0, 0],
        "p0": [0.25, -0.25, 0.25, 0.25],
        "steps": 10,
    }
    code, text = run_cli(tmp_path, "extremal", config, extra=["--format", "json"])
    assert code == EXIT_RUNTIME
    report = json.loads(text)
    assert "ConeError" in report["results"]["error"]
    assert report["pass"] is False


def test_extremal_overflow_is_runtime_error(tmp_path):
    config = {
        "kappa": {"kind": "gaussian", "c": 1.0},
        "lam": {"kind": "constant", "value": 16.0},
        "xi0": [0.05, 0.1, 0.15, 0.2],
        "dxi0": [1.0, 1.2, 0.8, 1.1],
        "steps": 200,
        "t_end": 50.0,
    }
    code, text = run_cli(tmp_path, "extremal", config, extra=["--format", "json"])
    assert code == EXIT_RUNTIME
    report = json.loads(text)
    assert "OverflowError" in report["results"]["error"]
    assert report["pass"] is False


def test_extremal_start_on_a_zero_of_b_is_runtime_error(tmp_path):
    # b = 1 - 4 t^2 vanishes at xi0_1 = 0.5: a property of the point, not of the config
    config = {"b": {"kind": "quadratic", "c": -4.0}, "kappa": {"kind": "from-b"},
              "xi0": [0.5, 0.1, 0.1, 0.1], "dxi0": [1.0, 1.0, 1.0, 1.0]}
    code, text = run_cli(tmp_path, "extremal", config, extra=["--format", "json"])
    assert code == EXIT_RUNTIME
    assert json.loads(text)["results"]["error"] == (
        "DomainError: component function vanishes on the evaluation point")


# kappa = exp(-1000 |xi|^2) is 0.0 in floats at (1/2, 1/2, 1/2, 1/2), where the
# kappa-reciprocal gauge would divide by it
_UNDERFLOW_METRIC = {"kappa": {"kind": "gaussian", "c": -4000}, "lam": {"kind": "kappa-reciprocal"}}
_UNDERFLOW_RUNS = [
    ("family-verify", dict(_UNDERFLOW_METRIC)),
    ("geodesic", {"connection": dict(_UNDERFLOW_METRIC, kind="finsler"),
                  "x0": [0.5] * 4, "v0": [1.0] * 4}),
    ("extremal", dict(_UNDERFLOW_METRIC, xi0=[0.5] * 4, p0=[1.0] * 4)),
    # the start's momenta from dxi0 take the length element, whose kappa is 0.0 there
    ("extremal", dict(_UNDERFLOW_METRIC, xi0=[0.5] * 4, dxi0=[1.0] * 4)),
]


@pytest.mark.parametrize("command, config", _UNDERFLOW_RUNS)
def test_underflowing_kappa_is_runtime_error(tmp_path, capfd, command, config):
    # a separate interpreter, so that a traceback or a numpy warning would
    # reach stderr
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "out.json"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = subprocess.call([sys.executable, "-m", "polyan.cli", command, "--config", str(cfg_path),
                            "--output", str(out_path), "--format", "json"], env=env)
    assert code == EXIT_RUNTIME
    assert capfd.readouterr().err == ""
    report = json.loads(out_path.read_text())
    assert report["results"]["error"].startswith("DomainError:")
    assert report["pass"] is False


_GAUSSIAN_METRIC = {"kappa": {"kind": "gaussian", "c": 1.0}, "lam": {"kind": "constant", "value": 16.0}}
_KERNEL_RUNS = [
    ("extremal", dict(_GAUSSIAN_METRIC, xi0=[0.05, 0.1, 0.15, 0.2], dxi0=[1.0, 1.2, 0.8, 1.1], steps=200), "csv"),
    ("extremal", dict(_GAUSSIAN_METRIC, xi0=[0.05, 0.1, 0.15, 0.2], dxi0=[1.0, 1.2, 0.8, 1.1], steps=200), "json"),
    ("geodesic", {"connection": dict(_GAUSSIAN_METRIC, kind="finsler"), "x0": [0.05, 0.1, 0.15, 0.2],
                  "v0": [0.26, 0.31, 0.21, 0.29], "steps": 200}, "csv"),
]


def test_trajectories_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel by CPU; Nehalem's has no fused multiply-add, so
    # a dot product through BLAS would round differently there than on a
    # newer CPU's kernel.  A BLAS that ignores the variable passes trivially.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    for k, (command, config, fmt) in enumerate(_KERNEL_RUNS):
        cfg_path = tmp_path / f"cfg{k}.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for coretype in (None, "Nehalem"):
            out_path = tmp_path / f"out{k}-{coretype}.{fmt}"
            run_env = env if coretype is None else dict(env, OPENBLAS_CORETYPE=coretype)
            code = subprocess.call([sys.executable, "-m", "polyan.cli", command, "--config", str(cfg_path),
                                    "--output", str(out_path), "--format", fmt], env=run_env)
            assert code == EXIT_OK
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1], (command, fmt)


def test_extremal_takes_one_profile_for_all_four_axes(tmp_path):
    one = {"kind": "quadratic", "c": 0.25}
    config = {"b": one, "kappa": {"kind": "from-b"}, "lam": {"kind": "constant", "value": 16.0},
              "xi0": [0.05, 0.1, 0.15, 0.2], "dxi0": [1.0, 1.2, 0.8, 1.1], "steps": 50}
    code, single = run_cli(tmp_path, "extremal", config, name="single.json")
    assert code == EXIT_OK
    code, four = run_cli(tmp_path, "extremal", dict(config, b=[one] * 4), name="four.json")
    assert code == EXIT_OK
    assert single == four
    code, text = run_cli(tmp_path, "extremal", dict(config, b=[one]), name="short.json")
    assert code == EXIT_CONFIG
    assert text == ""


# ---------------------------------------------------------------------------
# family-verify
# ---------------------------------------------------------------------------

def test_family_verify_trivial_profiles(tmp_path):
    config = {"phi0": [1, 1, 1, 1], "mu": [1, 0, 0, 0], "b": {"kind": "constant", "c": 1.0},
              "lam": {"kind": "constant", "value": 1.0}}
    code, text = run_cli(tmp_path, "family-verify", config)
    assert code == EXIT_OK
    assert json.loads(text)["max_residual"] < 1e-9


def test_family_verify_generic_selects_reciprocal(tmp_path):
    config = {
        "phi0": [1, 0.5, 2, 1],
        "mu": [0.3, -0.2, 0.1, 0.4],
        "b": {"kind": "quadratic", "c": 0.25},
        "lam": {"kind": "constant", "value": 1.0},
    }
    code, text = run_cli(tmp_path, "family-verify", config)
    assert code == EXIT_OK
    results = json.loads(text)["results"]
    assert results["selected_convention"] == "reciprocal"
    assert results["residual_as_printed"] > 1e-3


def test_family_verify_analytic_switch(tmp_path):
    config = {
        "phi0": [1, 0.5, 2, 1],
        "mu": [0.3, -0.2, 0.1, 0.4],
        "b": {"kind": "quadratic", "c": 0.25},
        "lam": {"kind": "kappa-reciprocal"},
    }
    code, text = run_cli(tmp_path, "family-verify", config)
    assert code == EXIT_OK
    assert json.loads(text)["results"]["analytic_gamma_max"] < 1e-8


def test_family_verify_incompatible_kappa_fails(tmp_path):
    config = {
        "phi0": [1, 1, 1, 1],
        "mu": [0, 0, 0, 0],
        "b": {"kind": "constant", "c": 1.0},
        "kappa": {"kind": "cross-term", "c": 1.0, "axes": [1, 2]},
        "lam": {"kind": "constant", "value": 1.0},
    }
    code, text = run_cli(tmp_path, "family-verify", config)
    assert code == EXIT_TOL
    report = json.loads(text)
    assert report["results"]["residual_as_printed"] > 1e-3
    assert report["results"]["residual_reciprocal"] > 1e-3
    assert report["results"]["compatibility_max"] > 0.5


# ---------------------------------------------------------------------------
# config handling and determinism
# ---------------------------------------------------------------------------

def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["algebra-check", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-5e-324"])
def test_tolerance_must_be_a_finite_nonnegative_number(tmp_path, capsys, tol):
    """--tol is read as every config number is: NaN would fail every check and inf pass it."""
    code, text = run_cli(tmp_path, "algebra-check", {"algebra": "complex"}, extra=(f"--tol={tol}",))
    assert (code, text) == (EXIT_CONFIG, "")
    assert capsys.readouterr().err.startswith("config error: tol must")
    with pytest.raises(cli.ConfigError, match="tol must"):
        cli.run("algebra-check", {"algebra": "complex"}, tol=float(tol))


@pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
def test_seed_must_be_a_whole_number_in_int64_from_zero(tmp_path, capsys, seed):
    """numpy's default_rng takes no negative seed: -1 raised its ValueError out of main."""
    code, text = run_cli(tmp_path, "pair-ops", {"algebra": "complex", "count": 2}, extra=(f"--seed={seed}",))
    assert (code, text) == (EXIT_CONFIG, "")
    assert capsys.readouterr().err.startswith("config error: seed must be in 0..9223372036854775807")
    assert run_cli(tmp_path, "pair-ops", {"algebra": "complex", "count": 2}, extra=(f"--seed={2 ** 63 - 1}",))[0] == EXIT_OK


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["algebra-check", "--config", str(bad)]) == EXIT_CONFIG


def test_a_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # the byte 0xff inside a string: json.load raises UnicodeDecodeError, not JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"algebra": "h4-\xff"}')
    assert main(["algebra-check", "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: 'utf-8' codec can't decode byte 0xff")


def test_unknown_algebra_is_config_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "algebra-check", {"algebra": "h5-psi"})
    assert code == EXIT_CONFIG


def test_missing_required_key_is_config_error(tmp_path):
    code, _ = run_cli(tmp_path, "geodesic", {"connection": {"kind": "zero", "n": 4}})
    assert code == EXIT_CONFIG


def test_reports_are_byte_identical_across_runs(tmp_path):
    config = {"algebra": "h4-e", "count": 6}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["pair-ops", "--config", str(cfg_path), "--output", str(out), "--seed", "42"])
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_different_seeds_change_sampled_results(tmp_path):
    config = {"algebra": "h4-e", "count": 6}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.json"
        main(["pair-ops", "--config", str(cfg_path), "--output", str(out), "--seed", seed])
        texts.append(json.loads(out.read_text())["results"]["product_residual"])
    assert texts[0] != texts[1]


def test_stdout_output_when_no_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"algebra": "complex"}))
    code = main(["algebra-check", "--config", str(cfg_path)])
    assert code == EXIT_OK
    assert '"command": "algebra-check"' in capsys.readouterr().out


def test_render_report_writes_numpy_values_as_python_values():
    report = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7), "flag": np.bool_(True),
        "pair": (1, 2.5), 3: {True: None}, "matrix": np.array([[1.0, -0.0], [2.5, 1e300]]),
        "nan": float("nan"), "inf": np.float64(-np.inf), "empty": (),
        "awkward": np.array([[-0.0, 5e-324, 1e300], [np.nan, -np.inf, 0.5]]),
        "no_rows": np.empty((0, 4)), "ints": np.array([3, -1]),
    }
    assert cli.render_report(report) == (
        '{\n  "f64": 0.10000000000000001,\n  "f32": 0.10000000149011612,\n  "i64": -7,\n'
        '  "flag": true,\n  "pair": [\n    1,\n    2.5\n  ],\n  "3": {\n    "True": null\n  },\n'
        '  "matrix": [\n    [\n      1,\n      -0\n    ],\n    [\n      2.5,\n'
        '      1.0000000000000001e+300\n    ]\n  ],\n  "nan": null,\n  "inf": null,\n'
        '  "empty": [],\n  "awkward": [\n    [\n      -0,\n      4.9406564584124654e-324,\n'
        '      1.0000000000000001e+300\n    ],\n    [\n      null,\n      null,\n      0.5\n'
        '    ]\n  ],\n  "no_rows": [],\n  "ints": [\n    3,\n    -1\n  ]\n}\n'
    )
    # a float array is written as the nested lists it converts to
    for value in (report["awkward"], report["no_rows"], np.ones((2, 0)), np.arange(3.0)):
        assert cli.render_report({"a": value}) == cli.render_report({"a": value.tolist()})
    with pytest.raises(TypeError, match="cannot serialize object"):
        cli.render_report({"x": object()})


# ---------------------------------------------------------------------------
# malformed configs: exit 2 at the build step, never a traceback
# ---------------------------------------------------------------------------

_CR = {"algebra": "h4-psi", "field": {"kind": "componentwise-exp"}}
_FAMILY = {"phi0": [1, 0.5, 2, 1], "mu": [0.3, -0.2, 0.1, 0.4],
           "b": {"kind": "quadratic", "c": 0.25}, "lam": {"kind": "kappa-reciprocal"}}
_ZERO = {"connection": {"kind": "zero", "n": 4}, "x0": [0, 0, 0, 0], "v0": [1, 1, 1, 1]}
_STRAIGHT = {"kind": "straight", "from": [0, 0, 0, 0], "to": [1, 2, 3, 4]}
_EXTREMAL = {"kappa": {"kind": "gaussian", "c": 1.0}, "lam": {"kind": "constant", "value": 16.0},
             "xi0": [0.05, 0.1, 0.15, 0.2], "dxi0": [1.0, 1.2, 0.8, 1.1], "steps": 10}
_PLANE = {"connection": {"kind": "structure-scaled", "algebra": "complex"}, "x0": [0, 0], "v0": [1, 1], "steps": 4}
_DOC = {"n": 2, "unit_index": 1, "entries": [{"k": 1, "i": 1, "j": 1, "value": 1}]}

MALFORMED = [
    ("cr-residual", dict(_CR, grid={"points_per_axis": "x"})),
    ("cr-residual", dict(_CR, gamma="zero")),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-exp", "domain": "box"})),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-power", "power": "two"})),
    ("pair-ops", {"algebra": "h4-e", "count": "ten"}),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "identity"},
                       "path": dict(_STRAIGHT, to=[1, 2])}),
    ("family-verify", dict(_FAMILY, kappa="gaussian")),
    ("family-verify", dict(_FAMILY, kappa={"kind": "cross-term", "axes": [5, 6]})),
    ("geodesic", dict(_ZERO, steps="many")),
    ("geodesic", dict(_ZERO, x0=["a", 0, 0, 0])),
    ("cr-residual", dict(_CR, scheme="forward")),
    ("cr-residual", dict(_CR, field={"kind": "monomial", "component": 1, "exponents": [1, 2]})),
    ("geodesic", dict(_ZERO, steps=0)),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "identity"}, "path": _STRAIGHT,
                       "segments": 0}),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "identity"},
                       "path": {"kind": "polyline", "vertices": [[0, 0, 0, 0]]}}),
    ("extremal", dict(_EXTREMAL, kappa={"kind": "constant", "value": -1})),
    ("extremal", dict(_EXTREMAL, kappa0=-1)),
    ("cr-residual", dict(_CR, grid={"min": [None, -0.5, -0.5, -0.5], "points_per_axis": 2})),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-exp", "domain": {"min": [None, -1, -1, -1]}},
                         grid={"points_per_axis": 2})),
    ("extremal", {"kappa": {"kind": "constant", "value": 1.0}, "xi0": [0, 0, 0, 0], "p0": [1, 1, 1, 1]}),
    # a count is a JSON integer or a float with an integral value: no fraction,
    # bool, non-finite number or string; t_end is a finite number
    ("geodesic", dict(_ZERO, steps=1e400)),
    ("geodesic", dict(_ZERO, steps=2.7)),
    ("geodesic", dict(_ZERO, steps=True)),
    ("extremal", dict(_EXTREMAL, steps=float("nan"))),
    ("extremal", dict(_EXTREMAL, steps="10")),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-power", "power": 2.5})),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-power", "power": False})),
    ("cr-residual", dict(_CR, field={"kind": "monomial", "component": 1.5, "exponents": [1, 0, 0, 0]})),
    ("cr-residual", dict(_CR, grid={"points_per_axis": 2.5})),
    ("family-verify", dict(_FAMILY, kappa={"kind": "cross-term", "axes": [1, 2.5]})),
    ("family-verify", dict(_FAMILY, kappa={"kind": "cross-term", "axes": [True, 2]})),
    ("geodesic", dict(_ZERO, connection={"kind": "zero", "n": 4.5})),
    ("pair-ops", {"algebra": "h4-e", "count": True}),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "identity"}, "path": _STRAIGHT,
                       "segments": 1e400}),
    ("extremal", dict(_EXTREMAL, t_end=float("nan"))),
    ("geodesic", dict(_ZERO, t_end=float("inf"))),
    ("geodesic", dict(_ZERO, t_end=True)),
    ("geodesic", dict(_ZERO, t_end="1")),
    # every other config number is a finite JSON number too: no string, bool,
    # null or non-finite number
    ("family-verify", dict(_FAMILY, kappa0="2")),
    ("family-verify", dict(_FAMILY, kappa0=True)),
    ("family-verify", dict(_FAMILY, kappa0=1e400)),
    ("family-verify", dict(_FAMILY, lambda0="1")),
    ("family-verify", dict(_FAMILY, b={"kind": "quadratic", "c": "0.3"})),
    ("family-verify", dict(_FAMILY, b={"kind": "constant", "c": True})),
    ("family-verify", dict(_FAMILY, b={"kind": "gaussian", "c": 1e400})),
    ("family-verify", dict(_FAMILY, kappa={"kind": "gaussian", "c": "1"})),
    ("family-verify", dict(_FAMILY, kappa={"kind": "cross-term", "c": None})),
    ("family-verify", dict(_FAMILY, kappa={"kind": "constant", "value": "2"})),
    ("extremal", dict(_EXTREMAL, lam={"kind": "constant", "value": False})),
    ("geodesic", {"connection": {"kind": "structure-scaled", "algebra": "complex", "scale": 1e400},
                  "x0": [0, 0], "v0": [1, 1], "steps": 4}),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-exp", "scale": "1"})),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "identity"}, "path": _STRAIGHT,
                       "path_b": _STRAIGHT, "expect": "different", "min_difference": "0.1"}),
    # vectors and algebra documents are read the same way, with an exact shape
    ("algebra-check", {"algebra": {"n": 2, "entries": [{"k": 1, "i": 1, "j": 1, "value": 1e400}]}}),
    ("algebra-check", {"algebra": {"n": 2, "entries": [{"k": 1, "i": 1, "j": 1, "value": "nan"}]}}),
    ("algebra-check", {"algebra": {"file": 0}}),
    ("algebra-check", {"algebra": dict(_DOC, n=2.7)}),
    ("algebra-check", {"algebra": dict(_DOC, n="2")}),
    ("algebra-check", {"algebra": dict(_DOC, unit_index=True)}),
    ("algebra-check", {"algebra": dict(_DOC, entries=[{"k": 1, "i": 1, "j": 1, "value": True}])}),
    ("algebra-check", {"algebra": dict(_DOC, entries=[{"k": 1, "i": 1, "j": 1, "value": "1"}])}),
    ("cr-residual", dict(_CR, field={"kind": "constant", "value": [1, 2, 3, None]})),
    ("cr-residual", dict(_CR, field={"kind": "monomial", "component": 1, "exponents": [0.5, 0, 0, 0]})),
    ("cr-residual", {"algebra": "complex", "field": {"kind": "linear", "matrix": [[1, 0], [None, 1]]}}),
    ("geodesic", dict(_ZERO, connection={"kind": "zero", "n": 0}, x0=[], v0=[])),
    ("geodesic", dict(_ZERO, x0=[0, 0], v0=[1, 1])),
    ("geodesic", dict(_PLANE, x0=[True, False])),
    ("geodesic", dict(_PLANE, v0=["1", "2"])),
    ("family-verify", dict(_FAMILY, phi0=[1, 2, 3, None])),
    ("family-verify", dict(_FAMILY, mu=[1e400, 0, 0, 0])),
    ("family-verify", dict(_FAMILY, mu=[True, 0, 0, 0])),
    ("extremal", dict(_EXTREMAL, dxi0=[1, 1, 1, "1"])),
    ("line-integral", {"algebra": "complex", "field": {"kind": "identity"},
                       "path": {"kind": "straight", "from": [0, None], "to": [1, 1]}}),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "identity"},
                       "path": {"kind": "straight", "from": [0, 0], "to": [1, 2]}}),
    # an algebra document's n is bounded before its (n, n, n) constants are allocated
    ("algebra-check", {"algebra": {"n": 1000000}}),
    # every config number is read with its range: the value just outside each end
    ("cr-residual", dict(_CR, field={"kind": "monomial", "component": 0, "exponents": [1, 0, 0, 0]})),
    ("cr-residual", dict(_CR, field={"kind": "monomial", "component": 5, "exponents": [1, 0, 0, 0]})),
    ("cr-residual", dict(_CR, grid={"points_per_axis": 0})),
    ("cr-residual", dict(_CR, grid={"points_per_axis": 100001})),
    ("pair-ops", {"algebra": "h4-e", "count": 0}),
    ("pair-ops", {"algebra": "h4-e", "count": 1001}),
    ("geodesic", dict(_ZERO, connection={"kind": "zero", "n": 65}, x0=[0] * 65, v0=[1] * 65)),
    ("algebra-check", {"algebra": dict(_DOC, n=0, unit_index=0, entries=[])}),
    ("algebra-check", {"algebra": dict(_DOC, n=65, unit_index=1, entries=[])}),
    ("algebra-check", {"algebra": dict(_DOC, entries=[{"k": 0, "i": 1, "j": 1, "value": 1}])}),
    ("algebra-check", {"algebra": dict(_DOC, entries=[{"k": 1, "i": 1, "j": 3, "value": 1}])}),
    ("algebra-check", {"algebra": dict(_DOC, unit_index=0)}),
    ("algebra-check", {"algebra": dict(_DOC, unit_index=3)}),
    ("extremal", dict(_EXTREMAL, steps=0)),
    # work is bounded too: steps and segments times the dimension, and count
    ("extremal", dict(_EXTREMAL, steps=100001)),
    ("geodesic", dict(_ZERO, steps=100001)),
    ("geodesic", dict(_PLANE, steps=200001)),
    ("line-integral", {"algebra": "h4-psi", "field": {"kind": "identity"}, "path": _STRAIGHT,
                       "segments": 100001}),
    ("line-integral", {"algebra": "complex", "field": {"kind": "identity"},
                       "path": {"kind": "straight", "from": [0, 0], "to": [1, 1]}, "segments": 1e300}),
    ("line-integral", {"algebra": "complex", "field": {"kind": "identity"},
                       "path": {"kind": "straight", "from": [0, 0], "to": [1, 1]}, "segments": 1e9}),
    ("extremal", dict(_EXTREMAL, steps=1e300)),
    ("geodesic", dict(_ZERO, steps=1e300)),
    ("pair-ops", {"algebra": "h4-e", "count": 1e300}),
    ("geodesic", dict(_ZERO, connection={"kind": "zero", "n": 3000}, x0=[0] * 3000, v0=[1] * 3000)),
    # a whole number is one that int64 holds
    ("cr-residual", {"algebra": "complex", "field": {"kind": "monomial", "component": 1, "exponents": [1e300, 1]}}),
    ("extremal", dict(_EXTREMAL, kappa={"kind": "cross-term", "axes": [1e300, 2]})),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-power", "power": 1e300})),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-power", "power": 2 ** 63})),
    ("cr-residual", dict(_CR, field={"kind": "componentwise-power", "power": -2 ** 63 - 1})),
]


@pytest.mark.parametrize("command, config", MALFORMED)
def test_malformed_config_value_is_config_error(tmp_path, capsys, command, config):
    code, text = run_cli(tmp_path, command, config)
    assert code == EXIT_CONFIG
    assert text == ""
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("axes, message", [
    ([5, 6], "cross-term axes[0] must be in 1..4, got 5"),
    ([0, 1], "cross-term axes[0] must be in 1..4, got 0"),
    ([2, 2], "cross-term axes must be two different axes, got 2, 2"),
], ids=["above-4", "below-1", "equal"])
def test_cross_term_axes_errors_quote_the_config_numbers(tmp_path, capsys, axes, message):
    """The config numbers its axes from 1, and its errors quote them as it wrote them."""
    code, text = run_cli(tmp_path, "family-verify", dict(_FAMILY, kappa={"kind": "cross-term", "axes": axes}))
    assert (code, text) == (EXIT_CONFIG, "")
    assert message in capsys.readouterr().err


def test_a_negative_min_difference_is_a_config_error(tmp_path, capsys):
    """"expect": "different" passes when the two integrals differ by more than min_difference, so a
    negative one would pass two equal paths: it exits 2, and 0 is the smallest it takes."""
    config = {"algebra": "h4-psi", "field": {"kind": "identity"}, "path": _STRAIGHT, "path_b": _STRAIGHT,
              "expect": "different", "min_difference": -1}
    code, text = run_cli(tmp_path, "line-integral", config)
    assert (code, text) == (EXIT_CONFIG, "")
    assert "min_difference must be in 0..inf, got -1" in capsys.readouterr().err
    code, text = run_cli(tmp_path, "line-integral", dict(config, min_difference=0))
    assert code == EXIT_TOL and json.loads(text)["results"]["difference"] == 0


def test_algebra_file_must_be_a_string(tmp_path):
    """{"file": 0} would open file descriptor 0 and read the algebra from stdin."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"algebra": {"file": 0}}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "polyan.cli", "algebra-check", "--config", str(cfg_path)],
                          input=json.dumps(_DOC), capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr.startswith("config error:")


@pytest.mark.parametrize("command", ["cr-residual", "pair-ops", "family-verify"])
def test_a_grid_too_large_to_hold_is_a_config_error(tmp_path, command):
    """points_per_axis ** n is bounded before the grid is built: 100 ** 4 points, 3.2 GB for the
    grid alone, exit 2 with nothing allocated.  The run has a 1.5 GB address space, so a command
    that built the grid first fails fast instead, with a MemoryError traceback and exit 1."""
    import resource

    limit = 1_500_000_000
    cfg_path = tmp_path / "cfg.json"
    config = {"algebra": "h4-psi", "field": {"kind": "identity"}, "grid": {"points_per_axis": 100}}
    cfg_path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "polyan.cli", command, "--config", str(cfg_path)], capture_output=True,
                          text=True, env=env, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr == "config error: a grid of points_per_axis ** n = 100 ** 4 points is above 100000\n"


def _unit_first_document(n: int) -> dict:
    """An n-dimensional algebra with unit e1, in which any two other basis elements multiply to zero."""
    entries = [{"k": 1, "i": 1, "j": 1, "value": 1}]
    for j in range(2, n + 1):
        entries += [{"k": j, "i": 1, "j": j, "value": 1}, {"k": j, "i": j, "j": 1, "value": 1}]
    return {"n": n, "unit_index": 1, "entries": entries}


@pytest.mark.parametrize("n", [33, 64])
def test_grid_commands_take_algebra_documents_up_to_the_dimension_bound(tmp_path, n):
    """A grid has one axis per dimension, up to the 64 of an algebra document (np.meshgrid
    takes at most 32 arrays): the zero algebra fails its one point, and the identity is
    analytic in an algebra with a unit."""
    grid = {"points_per_axis": 1}
    code, text = run_cli(tmp_path, "cr-residual", {"algebra": {"n": n}, "field": {"kind": "identity"}, "grid": grid})
    assert code == EXIT_RUNTIME
    [point] = json.loads(text)["results"]["points"]
    assert point["point"] == [-0.5] * n and point["error"].startswith("SingularQError:")
    config = {"algebra": _unit_first_document(n), "field": {"kind": "identity"}, "grid": grid}
    code, text = run_cli(tmp_path, "cr-residual", config, name="unit.json")
    assert code == EXIT_OK
    assert json.loads(text)["results"]["points"] == [{"point": [-0.5] * n, "max_abs": 0}]


def test_grid_bound_keeps_every_grid_up_to_its_limit():
    assert cli._make_grid({"points_per_axis": 9}, 4).shape == (6561, 4)
    assert cli._make_grid({"points_per_axis": 17}, 4).shape == (83521, 4)
    assert cli._make_grid({"points_per_axis": 2}, 16).shape == (65536, 16)
    for points, n in ((18, 4), (2, 17)):
        with pytest.raises(cli.ConfigError, match=rf"= {points} \*\* {n} points is above 100000"):
            cli._make_grid({"points_per_axis": points}, n)


def test_line_integral_field_keeps_its_domain(tmp_path):
    config = {"algebra": "complex",
              "field": {"kind": "identity", "domain": {"min": [0, 0], "max": [0.1, 0.1]}},
              "path": {"kind": "straight", "from": [0, 0], "to": [1, 1]}}
    code, text = run_cli(tmp_path, "line-integral", config)
    assert code == EXIT_RUNTIME
    report = json.loads(text)
    assert report["results"]["error"].startswith("DomainError:")
    assert report["pass"] is False
    config["field"]["domain"]["max"] = [1, 1]
    code, text = run_cli(tmp_path, "line-integral", config, name="inside.json")
    assert code == EXIT_OK
    assert json.loads(text)["results"]["integral"] == pytest.approx([0.0, 1.0])


def test_integral_float_counts_and_negative_t_end_are_accepted(tmp_path):
    code, text = run_cli(tmp_path, "geodesic", dict(_ZERO, steps=10.0, t_end=-0.5), extra=["--format", "json"])
    assert code == EXIT_OK
    report = json.loads(text)
    assert report["results"]["samples"] == 11
    assert report["results"]["final_x"] == pytest.approx([-0.5] * 4)
    code, text = run_cli(tmp_path, "cr-residual", dict(_CR, field={"kind": "componentwise-power", "power": 2.0},
                                                       grid={"points_per_axis": 2.0}))
    assert code == EXIT_OK and len(json.loads(text)["results"]["points"]) == 16


# the dual numbers with unit e2: every algebra axiom holds exactly
_UNIT_E2 = {"n": 2, "unit_index": 2, "entries": [{"k": 1, "i": 2, "j": 1, "value": 1},
                                                 {"k": 1, "i": 1, "j": 2, "value": 1},
                                                 {"k": 2, "i": 2, "j": 2, "value": 1}]}


@pytest.mark.parametrize("command, config, extra", [
    ("pair-ops", {"algebra": "complex", "count": 1, "grid": {"points_per_axis": 1}}, ()),
    ("geodesic", dict(_ZERO, connection={"kind": "zero", "n": 1}, x0=[0], v0=[1], steps=1), ()),
    ("geodesic", dict(_ZERO, connection={"kind": "zero", "n": 64}, x0=[0] * 64, v0=[1] * 64, steps=1), ()),
    ("extremal", dict(_EXTREMAL, steps=1, t_end=1e-3), ()),
    ("line-integral", {"algebra": "complex", "field": {"kind": "identity"}, "segments": 1,
                       "path": {"kind": "straight", "from": [0, 0], "to": [1, 1]}}, ()),
    ("cr-residual", dict(_CR, field={"kind": "monomial", "component": 1, "exponents": [1, 0, 0, 0]}), ()),
    ("cr-residual", dict(_CR, field={"kind": "monomial", "component": 4, "exponents": [0, 0, 0, 1]}), ()),
    ("algebra-check", {"algebra": _UNIT_E2}, ("--tol", "0")),
    ("algebra-check", {"algebra": {"n": 1, "unit_index": 1, "entries": [{"k": 1, "i": 1, "j": 1, "value": 1}]}}, ()),
    ("extremal", dict(_EXTREMAL, kappa={"kind": "cross-term", "axes": [4, 1]}, steps=1, t_end=1e-3), ()),
    ("line-integral", {"algebra": "complex", "field": {"kind": "identity"}, "segments": 1, "expect": "different",
                       "min_difference": 0, "path": {"kind": "straight", "from": [0, 0], "to": [1, 1]},
                       "path_b": {"kind": "straight", "from": [0, 0], "to": [1, 2]}}, ()),
])
def test_config_numbers_are_accepted_at_both_ends_of_their_ranges(tmp_path, command, config, extra):
    """Each range is closed: these runs read count, steps, segments, points_per_axis, a zero connection's
    n, a monomial's component, an algebra document's n, entry indices, unit_index, --tol, cross-term axes
    and min_difference at an end of its range, each with little work to do, and each passes."""
    code, text = run_cli(tmp_path, command, config, extra=extra)
    assert code == EXIT_OK and text


# Config fuzz: one leaf or sub-object of a small well-formed config per
# command is replaced by a wrong-typed value.
_B4 = [{"kind": "gaussian", "c": 0.2}, {"kind": "quadratic", "c": 0.3},
       {"kind": "constant", "c": 2.0}, {"kind": "quadratic", "c": 0.1}]
FUZZ_BASES = [
    ("algebra-check", {"algebra": "complex"}),
    ("cr-residual", {"algebra": "complex",
                     "field": {"kind": "linear", "matrix": [[1, 0], [0, 1]], "offset": [0, 1],
                               "domain": {"min": [-1, -1], "max": [1, 1]}},
                     "gamma": {"kind": "prescribed", "fprime": {"kind": "constant", "value": [1, 0]}},
                     "grid": {"min": [-0.5, -0.5], "max": [0.5, 0.5], "points_per_axis": 2},
                     "scheme": "central-4"}),
    ("cr-residual", {"algebra": {"n": 2, "unit_index": 1,
                                 "entries": [{"k": 1, "i": 1, "j": 1, "value": 1},
                                             {"k": 2, "i": 1, "j": 2, "value": 1},
                                             {"k": 2, "i": 2, "j": 1, "value": 1}]},
                     "field": {"kind": "monomial", "component": 2, "exponents": [1, 2]},
                     "grid": {"points_per_axis": 2}}),
    ("cr-residual", {"algebra": "h4-psi", "field": {"kind": "h4-family", "family": {
        "phi0": [1, 1, 1, 1], "mu": [0.1, 0, 0, 0], "b": {"kind": "constant", "c": 1.0}}},
        "grid": {"points_per_axis": 2}}),
    ("pair-ops", {"algebra": "complex", "count": 1, "grid": {"points_per_axis": 2}}),
    ("line-integral", {"algebra": "complex", "field": {"kind": "componentwise-power", "power": 2},
                       "path": {"kind": "straight", "from": [0, 0], "to": [1, 1]},
                       "path_b": {"kind": "rectangle", "origin": [0, 0], "edge1": [1, 0],
                                  "edge2": [0, 1]},
                       "expect": "equal", "segments": 4}),
    ("line-integral", {"algebra": "complex", "field": {"kind": "identity"},
                       "path": {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]]},
                       "segments": 4}),
    ("geodesic", {"connection": {"kind": "finsler", "orientation": "as-printed",
                                 "kappa": {"kind": "cross-term", "c": 0.5, "axes": [1, 2]},
                                 "lam": {"kind": "kappa-reciprocal"}},
                  "x0": [0.1, 0.1, 0.1, 0.1], "v0": [0.2, 0.2, 0.2, 0.2], "steps": 4, "t_end": 0.1}),
    ("geodesic", {"connection": {"kind": "structure-scaled", "algebra": "complex", "scale": 0.5},
                  "x0": [0, 0], "v0": [1, 1], "steps": 4}),
    ("extremal", {"kappa0": 1.0, "lambda0": 1.0, "b": _B4, "kappa": {"kind": "from-b"},
                  "lam": {"kind": "constant", "value": 16.0}, "xi0": [0.05, 0.1, 0.15, 0.2],
                  "dxi0": [1.0, 1.2, 0.8, 1.1], "steps": 4, "t_end": 0.01}),
    ("extremal", {"kappa": {"kind": "constant", "value": 4.0}, "lam": {"kind": "constant"},
                  "xi0": [0, 0, 0, 0], "p0": [1, 1, 1, 1], "steps": 4, "t_end": 0.01}),
    ("family-verify", {"phi0": [1, 0.5, 2, 1], "mu": [0.3, -0.2, 0.1, 0.4], "b": _B4,
                       "kappa0": 1.0, "lambda0": 1.0, "lam": {"kind": "kappa-reciprocal"},
                       "convention": "reciprocal", "grid": {"points_per_axis": 2}}),
    ("family-verify", {"b": {"kind": "gaussian", "c": 0.5}, "kappa": {"kind": "gaussian", "c": 0.5},
                       "lam": {"kind": "constant", "value": 1.0}, "grid": {"points_per_axis": 2}}),
]
FUZZ_VALUES = ["x", [], [[1.0]], {}, {"kind": "x"}, None, -1, 0]


def _node_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


FUZZ_CASES = [(command, base, path) for command, base in FUZZ_BASES for path in _node_paths(base)]


def _numeric(node) -> bool:
    """A JSON number, or a non-empty list of numeric nodes: what the config number reader reads."""
    if isinstance(node, list):
        return bool(node) and all(map(_numeric, node))
    return type(node) in (int, float)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_VALUES))
def test_config_fuzz_keeps_exit_code_contract(tmp_path_factory, case, value):
    command, base, path = case
    config = json.loads(json.dumps(base))
    node = config
    for key in path[:-1]:
        node = node[key]
    old, node[path[-1]] = node[path[-1]], value
    tmp = tmp_path_factory.mktemp("fuzz")
    code, text = run_cli(tmp, command, config, extra=["--format", "json"])
    assert code in (EXIT_OK, EXIT_TOL, EXIT_CONFIG, EXIT_RUNTIME)
    # a number or a list of them, replaced by anything but a number of the same shape
    if _numeric(old) and not (type(old) in (int, float) and type(value) is int):
        assert code == EXIT_CONFIG, (path, old, value)
    if code == EXIT_TOL:
        report = json.loads(text)
        worst = report["max_residual"]
        assert worst is not None and math.isfinite(worst)  # 17g writes 2.0 as 2
        assert worst > report["config_echo"]["tol"]
