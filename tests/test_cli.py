"""End-to-end runs of the batch front end: exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

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


def test_cr_residual_nonfinite_points_fail_loudly(tmp_path):
    # x^-1 on the default 3^4 grid: the 65 points with a zero coordinate
    # have non-finite residuals
    config = {"algebra": "h4-psi", "field": {"kind": "componentwise-power", "power": -1}}
    with np.errstate(divide="ignore", invalid="ignore"):
        code, text = run_cli(tmp_path, "cr-residual", config)
    assert code == EXIT_RUNTIME

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(text, parse_constant=reject)
    assert report["pass"] is False
    assert report["results"]["failed_points"] == 65
    assert sum("error" in e for e in report["results"]["points"]) == 65


def test_nonfinite_max_residual_is_runtime_error(tmp_path, monkeypatch):
    def nan_check(cfg, tol, rng):
        return {"results": {"value": float("inf")}, "max_residual": float("nan")}, True

    monkeypatch.setitem(cli._HANDLERS, "algebra-check", nan_check)
    code, text = run_cli(tmp_path, "algebra-check", {"algebra": "h4-psi"})
    assert code == EXIT_RUNTIME
    report = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    assert report["max_residual"] is None
    assert report["results"]["value"] is None
    assert report["pass"] is False


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


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["algebra-check", "--config", str(bad)]) == EXIT_CONFIG


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
