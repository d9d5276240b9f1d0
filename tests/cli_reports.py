"""Fingerprints of the command line's reports on a fixed list of small configs.

Each config runs through polyan.cli.main in this process, in a fresh temporary directory,
and gives one line: its name, the exit code, and the sha256 of the report (stdout) and of
stderr.  Run it against two versions of the library and compare the lines; the configs
whose lines differ are the ones whose reports changed:

    PYTHONPATH=src python tests/cli_reports.py > head.txt
    PYTHONPATH=/path/to/other/src python tests/cli_reports.py > base.txt
    diff base.txt head.txt

It imports whichever polyan is on the path.  An exception that escapes main counts as
exit 1, as the interpreter would exit, with its type and message standing in for the
traceback on stderr.  The tier-1 suite does not collect this file: its name does not
start with test_.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from polyan.cli import main

XI0 = [0.05, 0.1, 0.15, 0.2]
DXI0 = [1.0, 1.2, 0.8, 1.1]
V0 = [0.3, -0.1, 0.4, 0.2]
GAUSSIAN = {"kappa0": 1.1, "kappa": {"kind": "gaussian", "c": 0.9}, "lam": {"kind": "constant", "value": 12.0}}
CROSS = {"kappa0": 1.1, "lambda0": 2.0, "kappa": {"kind": "cross-term", "c": 0.7, "axes": [2, 4]},
         "lam": {"kind": "kappa-reciprocal"}}
FROM_B = {"kappa0": 1.1, "lambda0": 2.0, "kappa": {"kind": "from-b"}, "lam": {"kind": "constant", "value": 3.0},
          "b": [{"kind": "quadratic", "c": 0.3}, {"kind": "gaussian", "c": 0.6}, {"kind": "constant", "c": 1.5},
                {"kind": "gaussian", "c": -0.4}]}
ALGEBRA_DOC = {"n": 2, "unit_index": 1, "name": "my-complex",
               "entries": [{"k": 1, "i": 1, "j": 1, "value": 1}, {"k": 2, "i": 1, "j": 2, "value": 1},
                           {"k": 2, "i": 2, "j": 1, "value": 1}, {"k": 1, "i": 2, "j": 2, "value": -1}]}
GRID = {"points_per_axis": 3}


def dense_document(n: int) -> dict:
    """An algebra document with every entry of an n-dimensional table non-zero, p[k, i, j] != p[k, j, i]."""
    cells = [(k, i, j) for k in range(1, n + 1) for i in range(1, n + 1) for j in range(1, n + 1)]
    return {"n": n, "entries": [{"k": k, "i": i, "j": j, "value": 1 + (9 * k + 3 * i + j) % 7 / 8}
                                for k, i, j in cells]}


def sparse_document(n: int, rows: tuple, per_row: int) -> dict:
    """An algebra document whose entries lie in the given rows k, per_row each, 4 to a row's i, spread over j."""
    return {"n": n, "entries": [{"k": k, "i": 1 + (5 * (t // 4) + k) % n, "j": 1 + (13 * t) % n,
                                 "value": (-1) ** t * (1 + t / 8)} for k in rows for t in range(per_row)]}

# (name, command, config, extra arguments)
CONFIGS = [
    ("algebra-check builtin", "algebra-check", {"algebra": "h4-e"}, ()),
    ("algebra-check document", "algebra-check", {"algebra": ALGEBRA_DOC}, ()),
    ("algebra-check file", "algebra-check", {"algebra": {"file": "algebra.json"}}, ()),
    ("algebra-check singular q", "algebra-check", {"algebra": "h4-psi"}, ("--tol", "0")),
    ("cr-residual identity", "cr-residual", {"algebra": "h4-e", "field": {"kind": "identity"}, "grid": GRID}, ()),
    ("cr-residual constant", "cr-residual", {"algebra": "complex", "field": {"kind": "constant", "value": [1, 2]}}, ()),
    ("cr-residual linear", "cr-residual",
     {"algebra": "complex", "field": {"kind": "linear", "matrix": [[1, -2], [2, 1]], "offset": [0.5, 0]}}, ()),
    ("cr-residual power central-4", "cr-residual",
     {"algebra": "h4-psi", "field": {"kind": "componentwise-power", "power": 3}, "scheme": "central-4"}, ()),
    ("cr-residual power -1 non-finite", "cr-residual",
     {"algebra": "h4-psi", "field": {"kind": "componentwise-power", "power": -1}}, ()),
    ("cr-residual exp", "cr-residual", {"algebra": "h4-psi", "field": {"kind": "componentwise-exp", "scale": 0.5}}, ()),
    ("cr-residual monomial", "cr-residual",
     {"algebra": "complex", "field": {"kind": "monomial", "component": 1, "exponents": [2, 1]}}, ()),
    ("cr-residual prescribed gamma", "cr-residual",
     {"algebra": "h4-e", "field": {"kind": "componentwise-exp"},
      "gamma": {"kind": "prescribed", "fprime": {"kind": "identity"}}}, ()),
    ("cr-residual domain", "cr-residual",
     {"algebra": "complex", "field": {"kind": "identity", "domain": {"min": [0, 0], "max": [0.2, 0.2]}}}, ()),
    ("cr-residual h4-family", "cr-residual",
     {"algebra": "h4-psi", "field": {"kind": "h4-family", "b": {"kind": "quadratic", "c": 0.25},
                                     "mu": [0.3, -0.2, 0.1, 0.4]}}, ()),
    ("cr-residual h4-family vanishing profile", "cr-residual",
     {"algebra": "h4-psi", "field": {"kind": "h4-family", "b": {"kind": "quadratic", "c": -4}}}, ()),
    # far above the grid bound: where there is no bound, building it fails at the allocation
    # of the 71 PiB mesh, before any memory is touched
    ("cr-residual grid bound", "cr-residual",
     {"algebra": "h4-psi", "field": {"kind": "identity"}, "grid": {"points_per_axis": 10000}}, ()),
    # more grid axes than np.meshgrid takes (32), up to the bound on an algebra document's n
    ("cr-residual 33 axes", "cr-residual",
     {"algebra": {"n": 33}, "field": {"kind": "identity"}, "grid": {"points_per_axis": 1}}, ()),
    ("cr-residual 64 axes", "cr-residual",
     {"algebra": {"n": 64}, "field": {"kind": "identity"}, "grid": {"points_per_axis": 1}}, ()),
    # the record writer's edge cases: % in every error row, one column, one record
    ("cr-residual percent name singular q", "cr-residual",
     {"algebra": {"n": 2, "name": "50%s %d"}, "field": {"kind": "identity"}}, ()),
    ("cr-residual n=1 document", "cr-residual",
     {"algebra": {"n": 1, "unit_index": 1, "entries": [{"k": 1, "i": 1, "j": 1, "value": 1}]},
      "field": {"kind": "componentwise-power", "power": 3}}, ()),
    ("cr-residual one point", "cr-residual",
     {"algebra": "complex", "field": {"kind": "identity"}, "grid": {"points_per_axis": 1}}, ()),
    ("cr-residual overflowing grid", "cr-residual",
     {"algebra": "complex", "field": {"kind": "identity"},
      "grid": {"points_per_axis": 3, "min": [-1e308, -1e308], "max": [1e308, 1e308]}}, ()),
    ("pair-ops h4-e", "pair-ops", {"algebra": "h4-e", "count": 2}, ()),
    ("pair-ops complex seed 3", "pair-ops", {"algebra": "complex", "count": 3}, ("--seed", "3")),
    ("pair-ops negative seed", "pair-ops", {"algebra": "complex", "count": 3}, ("--seed", "-1")),
    ("line-integral straight", "line-integral",
     {"algebra": "complex", "field": {"kind": "componentwise-power", "power": 2},
      "path": {"kind": "straight", "from": [0, 0], "to": [1, 0.5]}}, ()),
    ("line-integral polyline vs straight", "line-integral",
     {"algebra": "h4-e", "field": {"kind": "identity"}, "segments": 64,
      "path": {"kind": "polyline", "vertices": [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]]},
      "path_b": {"kind": "straight", "from": [0, 0, 0, 0], "to": [1, 1, 0, 0]}}, ()),
    ("line-integral rectangle different", "line-integral",
     {"algebra": "complex", "field": {"kind": "monomial", "component": 1, "exponents": [0, 1]},
      "path": {"kind": "rectangle", "origin": [0, 0], "edge1": [1, 0], "edge2": [0, 1]},
      "path_b": {"kind": "straight", "from": [0, 0], "to": [0, 0]}, "expect": "different"}, ()),
    ("geodesic zero csv", "geodesic",
     {"connection": {"kind": "zero", "n": 3}, "x0": [0, 0, 0], "v0": [1, 2, 3], "steps": 50}, ()),
    ("geodesic structure-scaled csv", "geodesic",
     {"connection": {"kind": "structure-scaled", "algebra": "h4-psi", "scale": 0.7},
      "x0": [0.1, -0.2, 0.3, 0.0], "v0": [0.5, 1.0, 0.8, 1.2], "steps": 500}, ()),
    ("geodesic structure-scaled json", "geodesic",
     {"connection": {"kind": "structure-scaled", "algebra": "h4-e", "scale": 0.5},
      "x0": [0.1, -0.2, 0.3, 0.0], "v0": [0.5, 1.0, 0.8, 1.2], "steps": 200}, ("--format", "json")),
    ("geodesic structure-scaled blow-up", "geodesic",
     {"connection": {"kind": "structure-scaled", "algebra": "h4-psi"},
      "x0": [0, 0, 0, 0], "v0": [-5, -5, -5, -5], "steps": 1000, "t_end": 10}, ()),
    ("geodesic finsler transposed csv", "geodesic",
     {"connection": dict(GAUSSIAN, kind="finsler"), "x0": XI0, "v0": V0, "steps": 1000}, ()),
    ("geodesic finsler as-printed json", "geodesic",
     {"connection": dict(CROSS, kind="finsler", orientation="as-printed"), "x0": XI0, "v0": V0, "steps": 300},
     ("--format", "json")),
    ("geodesic finsler from-b", "geodesic",
     {"connection": dict(FROM_B, kind="finsler", orientation="transposed"), "x0": XI0, "v0": V0, "steps": 300}, ()),
    ("geodesic finsler exp overflow", "geodesic",
     {"connection": {"kind": "finsler", "kappa": {"kind": "gaussian", "c": 1.0}, "lam": {"kind": "constant",
                                                                                          "value": 16.0}},
      "x0": XI0, "v0": [4.0, 4.0, 4.0, 4.0], "steps": 200, "t_end": 50}, ()),
    ("geodesic finsler kappa underflow reciprocal", "geodesic",
     {"connection": {"kind": "finsler", "kappa": {"kind": "gaussian", "c": -4000}, "lam": {"kind": "kappa-reciprocal"}},
      "x0": [0.5, 0.5, 0.5, 0.5], "v0": [1, 1, 1, 1], "steps": 3}, ()),
    ("geodesic finsler from-b crossing zero", "geodesic",
     {"connection": {"kind": "finsler", "kappa": {"kind": "from-b"}, "b": {"kind": "quadratic", "c": -4}},
      "x0": [0.4, 0.1, 0.1, 0.1], "v0": [1, 0.2, 0.2, 0.2], "steps": 100}, ()),
    # the generated RK4 loop's edge cases: the smallest and the largest state, an odd n
    ("geodesic zero n=1", "geodesic", {"connection": {"kind": "zero", "n": 1}, "x0": [0.5], "v0": [-2], "steps": 10},
     ()),
    ("geodesic zero n=1 json", "geodesic",
     {"connection": {"kind": "zero", "n": 1}, "x0": [0.5], "v0": [-2], "steps": 10}, ("--format", "json")),
    ("geodesic zero n=64", "geodesic",
     {"connection": {"kind": "zero", "n": 64}, "x0": [k / 64 for k in range(64)], "v0": [1 - k / 32 for k in range(64)],
      "steps": 20}, ()),
    # the structure connection's rates on both sides of their bound of 64 terms: 27 compiled, 125 contracted
    ("geodesic structure-scaled dense n=3 document", "geodesic",
     {"connection": {"kind": "structure-scaled", "algebra": dense_document(3), "scale": -0.15},
      "x0": [0.1, -0.2, 0.3], "v0": [0.5, -0.4, 0.2], "steps": 300}, ()),
    ("geodesic structure-scaled dense n=5 document", "geodesic",
     {"connection": {"kind": "structure-scaled", "algebra": dense_document(5), "scale": 0.05},
      "x0": [0.1, -0.2, 0.3, 0.0, 0.2], "v0": [0.5, -0.4, 0.2, -0.3, 0.1], "steps": 300}, ()),
    # 64 terms at n = 64, 16 in each of 4 rows of 4,096 cells: compiled, the largest rows a document can have
    ("geodesic structure-scaled sparse n=64 document", "geodesic",
     {"connection": {"kind": "structure-scaled", "algebra": sparse_document(64, (1, 22, 43, 64), 16), "scale": 0.05},
      "x0": [k / 64 for k in range(64)], "v0": [(-1) ** k * (1 + k % 7 / 3) / 2 for k in range(64)], "steps": 200}, ()),
    ("geodesic structure-scaled c3", "geodesic",
     {"connection": {"kind": "structure-scaled", "algebra": "c3", "scale": 0.4},
      "x0": [0.1, -0.2, 0.3], "v0": [0.5, 1.0, 0.8], "steps": 100}, ()),
    ("geodesic finsler kappa underflow constant", "geodesic",
     {"connection": {"kind": "finsler", "kappa": {"kind": "gaussian", "c": -40.0},
                     "lam": {"kind": "constant", "value": 640.0}},
      "x0": [5, 5, 5, 5], "v0": [1, 1, 1, 1], "steps": 3}, ()),
    ("extremal one step", "extremal", dict(GAUSSIAN, xi0=XI0, dxi0=DXI0, steps=1, t_end=0.01), ()),
    ("extremal from-b json", "extremal", dict(FROM_B, xi0=XI0, dxi0=DXI0, steps=100), ("--format", "json")),
    ("extremal gaussian csv", "extremal", dict(GAUSSIAN, xi0=XI0, dxi0=DXI0, steps=1000), ()),
    ("extremal cross-term reciprocal json", "extremal", dict(CROSS, xi0=XI0, dxi0=DXI0, steps=300),
     ("--format", "json")),
    ("extremal from-b", "extremal", dict(FROM_B, xi0=XI0, dxi0=DXI0, steps=300), ()),
    ("extremal constant kappa p0", "extremal",
     {"kappa": {"kind": "constant", "value": 4.0}, "xi0": [0, 0, 0, 0], "p0": [1, 1, 1, 1], "steps": 20}, ()),
    ("extremal drift failure", "extremal", dict(GAUSSIAN, xi0=XI0, dxi0=DXI0, steps=2, t_end=0.5), ()),
    ("extremal exp overflow", "extremal",
     {"kappa": {"kind": "gaussian", "c": 1.0}, "lam": {"kind": "constant", "value": 16.0},
      "xi0": XI0, "dxi0": DXI0, "steps": 200, "t_end": 50}, ()),
    ("extremal quartic overflow", "extremal",
     {"kappa0": 1.03125, "kappa": {"kind": "gaussian", "c": 2.75}, "lam": {"kind": "constant", "value": 10.0},
      "xi0": [0.0, 0.25, 0.375, 0.4375], "dxi0": [1, 1, 1, 1], "steps": 1}, ()),
    ("extremal cone exit", "extremal",
     {"kappa": {"kind": "gaussian", "c": -1.0}, "lam": {"kind": "constant", "value": 64.0},
      "xi0": [0.5, 0.5, 0.5, 0.5], "dxi0": [1, 1, 1, 1], "steps": 8, "t_end": 40}, ()),
    ("extremal start outside the cone", "extremal",
     {"kappa": {"kind": "constant", "value": 4.0}, "xi0": [0, 0, 0, 0], "p0": [-1, -1, 1, 1]}, ()),
    ("extremal kappa underflow constant gauge", "extremal",
     {"kappa": {"kind": "gaussian", "c": -40.0}, "lam": {"kind": "constant", "value": 640.0},
      "xi0": [0, 0, 0, 0], "dxi0": [1, 1, 1, 1], "steps": 1}, ()),
    ("extremal kappa underflow reciprocal", "extremal",
     {"kappa": {"kind": "gaussian", "c": -4000}, "lam": {"kind": "kappa-reciprocal"},
      "xi0": [0.5, 0.5, 0.5, 0.5], "p0": [1, 1, 1, 1], "steps": 3}, ()),
    ("extremal kappa underflow reciprocal dxi0", "extremal",
     {"kappa": {"kind": "gaussian", "c": -4000}, "lam": {"kind": "kappa-reciprocal"},
      "xi0": [0.5, 0.5, 0.5, 0.5], "dxi0": [1, 1, 1, 1]}, ()),
    ("extremal profile zero at the start", "extremal",
     {"b": {"kind": "quadratic", "c": -4}, "kappa": {"kind": "from-b"}, "xi0": [0.5, 0.1, 0.1, 0.1],
      "dxi0": [1, 1, 1, 1]}, ()),
    ("extremal from-b crossing zero", "extremal",
     {"b": {"kind": "quadratic", "c": -4}, "kappa": {"kind": "from-b"}, "xi0": [0.4, 0.1, 0.1, 0.1],
      "dxi0": [1, 1, 1, 1], "steps": 100}, ()),
    ("family-verify default", "family-verify",
     {"b": {"kind": "quadratic", "c": 0.25}, "mu": [0.3, -0.2, 0.1, 0.4]}, ()),
    ("family-verify kappa-reciprocal", "family-verify",
     {"b": {"kind": "gaussian", "c": 0.5}, "lam": {"kind": "kappa-reciprocal"}, "grid": GRID}, ()),
    ("family-verify cross-term", "family-verify",
     {"b": {"kind": "constant", "c": 2.0}, "kappa": {"kind": "cross-term", "c": 0.7}, "convention": "as-printed"}, ()),
    ("family-verify kappa underflow", "family-verify",
     {"kappa": {"kind": "gaussian", "c": -4000}, "lam": {"kind": "kappa-reciprocal"},
      "grid": {"min": [0.5] * 4, "max": [0.5] * 4, "points_per_axis": 1}}, ()),
    ("malformed count", "pair-ops", {"algebra": "complex", "count": 0.5}, ()),
    # out of range: more segments than any array holds, and whole numbers that int64 does not hold
    ("segments out of range", "line-integral",
     {"algebra": "complex", "field": {"kind": "identity"}, "segments": 1e300,
      "path": {"kind": "straight", "from": [0, 0], "to": [1, 1]}}, ()),
    ("monomial exponent beyond int64", "cr-residual",
     {"algebra": "complex", "field": {"kind": "monomial", "component": 1, "exponents": [1e300, 1]}}, ()),
    ("cross-term axes beyond int64", "extremal", dict(CROSS, kappa={"kind": "cross-term", "axes": [1e300, 2]},
                                                      xi0=XI0, dxi0=DXI0), ()),
]


def run(command: str, config: dict, extra: tuple) -> tuple:
    """The exit code, the report and stderr of one run, in the current directory."""
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, "--config", "cfg.json", *extra])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - an escaping error is the run's outcome
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def main_reports() -> int:
    home = os.getcwd()
    for name, command, config, extra in CONFIGS:
        with tempfile.TemporaryDirectory(prefix="polyan-report-") as tmp:
            os.chdir(tmp)
            try:
                with open("algebra.json", "w", encoding="utf-8") as fh:
                    json.dump(ALGEBRA_DOC, fh)
                code, report, stderr = run(command, config, extra)
            finally:
                os.chdir(home)
        digests = (hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (report, stderr))
        print(f"{name.replace(' ', '_')} {code} {' '.join(digests)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_reports())
