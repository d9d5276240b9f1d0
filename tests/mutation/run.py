"""Mutation runner: each mutant in MUTANTS is a one-place edit of the library that a test
should notice.  Every mutant is applied to its own temporary copy of the repository, and
only the test files or test ids it names run there; the mutant is killed when they fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutation/run.py            # every mutant
    python tests/mutation/run.py cone-open  # the mutants named

It first runs the named tests on an unmutated copy, which must pass.  It prints one
line per mutant and then "killed k of n", which it also appends to $GITHUB_STEP_SUMMARY
when that is set.  Exit code 0 when every mutant is killed, 1 when some survive, and 2
when the unmutated copy fails or a mutant's old text is not found exactly once.

The tier-1 suite does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
PYTEST = [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", "-m", "pytest", "-q", "-x",
          "-p", "no:cacheprovider", "--hypothesis-seed=0"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # test files or test ids to run, relative to the repository root


MUTANTS = (
    Mutant("compatibility-step-1e-3", "src/polyan/h4.py",
           "_COMPATIBILITY_DIFF = DiffConfig(h=_EPS ** 0.25)", "_COMPATIBILITY_DIFF = DiffConfig(h=1e-3)",
           ("tests/test_h4.py", "tests/test_family.py")),
    Mutant("box-margin-1e-3", "src/polyan/fields.py",
           "np.all(x >= self.lo - 1e-9) and np.all(x <= self.hi + 1e-9)",
           "np.all(x >= self.lo - 1e-3) and np.all(x <= self.hi + 1e-3)",
           ("tests/test_fields.py",)),
    Mutant("central-4-base-step-1e-2", "src/polyan/fields.py",
           "base = _EPS ** 0.2", "base = 1e-2", ("tests/test_fields.py",)),
    Mutant("cone-open", "src/polyan/geodesics.py",
           "f' or y{i} <= 0' for i in cone", "f' or y{i} < 0' for i in cone",
           ("tests/test_geodesics.py::test_a_momentum_driven_to_exactly_zero_leaves_the_cone",)),
    Mutant("rk4-stage-2-full-step", "src/polyan/geodesics.py",
           '(2, "half")', '(2, "h")',
           ("tests/test_geodesics.py::test_the_largest_generated_loop_steps_the_reference_bitwise",)),
    Mutant("rk4-stage-3-full-step", "src/polyan/geodesics.py",
           '(3, "half")', '(3, "h")',
           ("tests/test_geodesics.py::test_the_largest_generated_loop_steps_the_reference_bitwise",)),
    Mutant("listing-drops-plus-zero", "src/polyan/h4.py",
           '"-": ("0.0", float), "|"', '"-": ("0.0", float), "+": ("0.0", float), "|"',
           ("tests/test_geodesics.py::test_the_listing_rules_keep_each_outcome",)),
    Mutant("listing-identity-ignores-kind", "src/polyan/h4.py",
           "if (b.text, a.kind) == _IDENTITY.get(s):", 'if b.text == _IDENTITY.get(s, ("",))[0]:',
           ("tests/test_geodesics.py::test_a_random_program_compiles_to_its_float_outcome",)),
    Mutant("neg-as-zero-minus", "src/polyan/h4.py", 'emit(f"-{self.text}", None, True)',
           'emit(f"0.0 - {self.text}", None, True)',
           ("tests/test_geodesics.py::test_unary_minus_and_plus_trace_to_the_array_result",)),
    Mutant("pos-of-a-bool-is-the-bool", "src/polyan/h4.py", "        if self.kind is float:\n            return self\n",
           "        if self.kind in (float, bool):\n            return self\n",
           ("tests/test_geodesics.py::test_unary_plus_of_a_comparison_is_an_int_line",)),
    Mutant("listing-fusion-swaps-operands", "src/polyan/h4.py",
           "for name in reversed(_TEMP.findall(text)):", "for name in _TEMP.findall(text):",
           ("tests/test_geodesics.py::test_the_listing_rules_keep_each_outcome",)),
    Mutant("rk4-finiteness-skips-last-slot", "src/polyan/geodesics.py",
           "f'isfinite({y})' for y in ys)", "f'isfinite({y})' for y in ys[:-1])",
           ("tests/test_geodesics.py::test_an_abort_in_the_last_slot_at_step_1_is_the_reference_error",)),
    Mutant("rk4-abort-step-m", "src/polyan/geodesics.py",
           '"    return m + 1"', '"    return m"',
           ("tests/test_geodesics.py::test_an_abort_in_the_last_slot_at_step_1_is_the_reference_error",)),
    Mutant("rk4-abort-error-from-start-state", "src/polyan/geodesics.py",
           "map(math.isfinite, samples[-len(y):])", "map(math.isfinite, samples[:len(y)])",
           ("tests/test_geodesics.py::test_an_abort_in_the_last_slot_at_step_1_is_the_reference_error",)),
    Mutant("numpy-scalar-bound-by-name", "src/polyan/h4.py",
           "        a = float(a) if isinstance(a, np.floating) else a\n", "",
           ("tests/test_geodesics.py::test_a_numpy_scalar_constant_compiles_as_its_float_literal",)),
    Mutant("numpy-scalar-operator-as-ufunc-call", "src/polyan/h4.py",
           "if ufunc in _UFUNC_OPS and len(args) == 2:", "if False:",
           ("tests/test_geodesics.py::test_a_numpy_scalar_constant_compiles_as_its_float_literal",)),
    Mutant("newton-tolerance-1e-7", "src/polyan/fields.py",
           "<= 1e-13 * max(1.0,", "<= 1e-7 * max(1.0,", ("tests/test_transforms.py",)),
    Mutant("central-4-denominator", "src/polyan/fields.py",
           "8 * v[2] + v[3], 12 * h", "8 * v[2] + v[3], 12.000001 * h", ("tests/test_fields.py",)),
    Mutant("drift-column-halved", "src/polyan/geodesics.py",
           "drift = _relative_indicatrix(ys[:, :4], ys[:, 4:], metric)",
           "drift = _relative_indicatrix(ys[:, :4], ys[:, 4:], metric) / 2",
           ("tests/test_geodesics.py",)),
    Mutant("connection-untransposed", "src/polyan/h4.py",
           'return np.swapaxes(g, -1, -2) if orientation == "transposed" else g', "return g",
           ("tests/test_h4.py", "tests/test_transforms.py")),
    Mutant("chain-step-column-0", "src/polyan/fields.py",
           "x[..., u:u + 1], cfg)[..., 0]", "x[..., 0:1], cfg)[..., 0]", ("tests/test_fields.py",)),
    Mutant("tol-without-number", "src/polyan/cli.py",
           'tol = default_tol if tol is None else _number(tol, "tol", within=(0, math.inf))',
           "tol = default_tol if tol is None else float(tol)", ("tests/test_cli.py",)),
    Mutant("number-accepts-bools", "src/polyan/algebra.py",
           "if type(value) in (int, float) and", "if isinstance(value, (int, float)) and",
           ("tests/test_algebra.py", "tests/test_cli.py")),
    Mutant("number-accepts-infinity", "src/polyan/algebra.py",
           "abs(value) <= sys.float_info.max", "abs(value) <= math.inf",
           ("tests/test_algebra.py", "tests/test_cli.py")),
    Mutant("number-skips-shape", "src/polyan/algebra.py",
           "isinstance(value, list) and shape[0] in (None, len(value))", "isinstance(value, list)",
           ("tests/test_algebra.py", "tests/test_cli.py")),
    Mutant("number-accepts-fractional-counts", "src/polyan/algebra.py",
           " and not (integral and value % 1)", "", ("tests/test_algebra.py", "tests/test_cli.py")),
    Mutant("field-ignores-domain", "src/polyan/cli.py",
           'if "domain" in spec:', "if False:", ("tests/test_cli.py",)),
    Mutant("compiled-positivity-raise-dropped", "src/polyan/h4.py",
           '    _raise_if((kv <= 0) | (lv <= 0), DomainError, "kappa and the gauge must stay positive")',
           '    m is _ARRAYS and _raise_if((kv <= 0) | (lv <= 0), DomainError, "kappa and the gauge must stay positive")',
           ("tests/test_geodesics.py",)),
    Mutant("compiled-dot-reassociated", "src/polyan/h4.py",
           "return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]",
           "return (a[0] * b[0] + a[1] * b[1]) + (a[2] * b[2] + a[3] * b[3])", ("tests/test_geodesics.py",)),
    Mutant("compiled-fallback-covers-kappa", "src/polyan/h4.py",
           'self.lines.append((None, "try:", False))', 'self.lines.insert(0, (None, "try:", False))',
           ("tests/test_geodesics.py",)),
    Mutant("compiled-constants-15g", "src/polyan/h4.py",
           'f"({a!r})" if math.copysign(1.0, a) < 0 else repr(a), type(a), a)',
           'f"({a:.15g})" if math.copysign(1.0, a) < 0 else f"{a:.15g}", type(a), a)', ("tests/test_geodesics.py",)),
    Mutant("field-rows-unchecked", "src/polyan/fields.py",
           "if many and id(func) not in", "if False and id(func) not in", ("tests/test_fields.py",)),
    Mutant("algebra-dimension-unbounded", "src/polyan/algebra.py",
           "integral=True, within=(1, _MAX_DIMENSION))", "integral=True, within=(1, math.inf))",
           ("tests/test_algebra.py",)),
    Mutant("gamma-rows-unchecked", "src/polyan/fields.py",
           '        return _stack_call(self, "gamma field",',
           '        vars(self).setdefault("_rows_checked", {id(self.func)})\n'
           '        return _stack_call(self, "gamma field",', ("tests/test_fields.py",)),
    Mutant("connection-lift-unwrapped", "src/polyan/fields.py",
           "if isinstance(exc, PolyanError) or not many:",
           'if isinstance(exc, PolyanError) or not many or what == "connection":', ("tests/test_geodesics.py",)),
    Mutant("path-rows-unchecked", "src/polyan/fields.py",
           '        _stack_call(self, "path", func,',
           '        self._rows_checked = {id(func)}\n        _stack_call(self, "path", func,',
           ("tests/test_line_integral.py",)),
    Mutant("rows-exempt-everywhere", "src/polyan/fields.py",
           'getattr(owner, "_rows_checked", ())', 'getattr(owner, "_rows_checked", (id(func),))',
           ("tests/test_fields.py", "tests/test_geodesics.py", "tests/test_line_integral.py")),
    Mutant("grid-max-ignores-nan", "src/polyan/fields.py",
           "return float(np.max(values)) if values.size", "return float(np.nanmax(values)) if values.size",
           ("tests/test_fields.py", "tests/test_cli.py")),
    Mutant("non-finite-worst-exits-1", "src/polyan/cli.py",
           "    if non_finite:\n        return EXIT_RUNTIME", "    if non_finite:\n        return EXIT_TOL",
           ("tests/test_cli.py",)),
    Mutant("json-non-finite-as-number", "src/polyan/cli.py",
           'return format(obj, ".17g") if math.isfinite(obj) else "null"', 'return format(obj, ".17g")',
           ("tests/test_cli.py",)),
    Mutant("zero-rates-positive-zero", "src/polyan/geodesics.py", "return v + [-a for a in acc]",
           "return v + [0.0 - a for a in acc]",
           ("tests/test_geodesics.py::test_zero_connection_rates_are_the_contraction_bitwise",)),
    Mutant("records-percent-unescaped", "src/polyan/cli.py", '.replace("%", "%%")', "",
           ("tests/test_cli.py::test_an_algebra_name_with_percent_signs_reaches_every_error_row_verbatim",
            "tests/test_cli.py::test_grid_records_are_the_json_of_their_dicts")),
    Mutant("records-error-rows-as-ok", "src/polyan/cli.py",
           "spliced = errors.keys() | set(np.flatnonzero", "spliced = set(np.flatnonzero",
           ("tests/test_cli.py::test_grid_records_are_the_json_of_their_dicts",)),
    Mutant("records-non-finite-points-in-template", "src/polyan/cli.py",
           "errors.keys() | set(np.flatnonzero(~np.isfinite(points).all(1)).tolist())", "errors.keys()",
           ("tests/test_cli.py::test_grid_records_are_the_json_of_their_dicts",)),
    Mutant("grid-mean-pairwise", "src/polyan/fields.py",
           "float(np.add.accumulate(values)[-1] / values.size)", "float(np.mean(values))",
           ("tests/test_fields.py::test_grid_mean_is_the_left_to_right_sum",)),
    Mutant("structure-rates-sign-dropped", "src/polyan/geodesics.py",
           "return v + [-a for a in acc]", "return v + acc", ("tests/test_geodesics.py",)),
    Mutant("structure-term-product-regrouped", "src/polyan/geodesics.py",
           "acc[i] + c * v[k] * v[j]", "acc[i] + c * (v[k] * v[j])",
           ("tests/test_geodesics.py::test_structure_rates_are_the_einsum_bitwise",)),
    Mutant("structure-sum-from-first-term", "src/polyan/geodesics.py",
           "acc[i] = acc[i] + c * v[k] * v[j]",
           "acc[i] = c * v[k] * v[j] if isinstance(acc[i], float) else acc[i] + c * v[k] * v[j]",
           ("tests/test_geodesics.py::test_structure_rates_are_the_einsum_bitwise",)),
    Mutant("structure-terms-reversed", "src/polyan/geodesics.py",
           "for i, k, j, c in terms:", "for i, k, j, c in reversed(terms):",
           ("tests/test_geodesics.py::test_structure_rates_are_the_einsum_bitwise",)),
    Mutant("structure-bound-removed", "src/polyan/geodesics.py",
           "if len(terms) <= _MAX_TERMS else", "if True else",
           ("tests/test_geodesics.py::test_a_table_above_the_bound_steps_the_einsum_as_before",)),
    Mutant("structure-einsum-transposed", "src/polyan/geodesics.py",
           '(-np.einsum("ikj,k,j->i", g,', '(-np.einsum("kij,k,j->i", g,',
           ("tests/test_geodesics.py::test_a_table_above_the_bound_steps_the_einsum_as_before",)),
    Mutant("fallback-position-rates-are-x", "src/polyan/geodesics.py",
           "y[n:] + geodesic_rhs(Gamma,", "y[:n] + geodesic_rhs(Gamma,", ("tests/test_geodesics.py",)),
    Mutant("grid-unbounded", "src/polyan/cli.py",
           "if points ** n > _MAX_GRID_POINTS:", "if False:", ("tests/test_cli.py",)),
    Mutant("formula-shape-unchecked", "src/polyan/h4.py",
           "if (np.shape(v), g.shape) != (x.shape[:-1], x.shape):", "if False:",
           ("tests/test_h4.py::test_a_formula_of_the_wrong_shape_raises_contract_error",)),
    Mutant("formula-gradient-unmoved", "src/polyan/h4.py",
           "g = np.moveaxis(np.asarray(g), 0, -1)", "g = np.asarray(g)",
           ("tests/test_h4.py::test_a_gradient_array_has_its_direction_last",)),
    Mutant("family-gauge-shortcut-dropped", "src/polyan/h4.py",
           "if lam.kappa is metric.kappa else", "if False else", ("tests/test_family.py",)),
    Mutant("finsler-length-contract-error", "src/polyan/h4.py",
           'raise DomainError("kappa must be positive")', 'raise ContractError("kappa must be positive")',
           ("tests/test_cli.py",)),
    Mutant("grid-index-reversed", "src/polyan/fields.py",
           "np.unravel_index(np.arange(p ** self.n), (p,) * self.n)",
           'np.unravel_index(np.arange(p ** self.n), (p,) * self.n, order="F")', ("tests/test_fields.py",)),
    Mutant("range-check-dropped", "src/polyan/algebra.py",
           "if lo <= value <= hi:", "if True:", ("tests/test_algebra.py", "tests/test_cli.py")),
    Mutant("range-lower-bound-open", "src/polyan/algebra.py",
           "if lo <= value <= hi:", "if lo < value <= hi:", ("tests/test_algebra.py", "tests/test_cli.py")),
    Mutant("segments-unbounded", "src/polyan/cli.py",
           '"segments", True, within=(1, _MAX_STEPS_TIMES_N // S.n))', '"segments", True)', ("tests/test_cli.py",)),
    Mutant("whole-numbers-beyond-int64", "src/polyan/algebra.py",
           "lo, hi = (max(within[0], -2 ** 63), min(within[1], 2 ** 63 - 1)) if integral else within",
           "lo, hi = within", ("tests/test_algebra.py", "tests/test_cli.py")),
    Mutant("cross-term-equal-axes-unchecked", "src/polyan/cli.py", "if a == b:", "if False:",
           ("tests/test_cli.py::test_cross_term_axes_errors_quote_the_config_numbers",)),
    Mutant("min-difference-unbounded", "src/polyan/cli.py",
           '"min_difference", within=(0, math.inf))', '"min_difference")',
           ("tests/test_cli.py::test_a_negative_min_difference_is_a_config_error",)),
    Mutant("gaussian-b-derivative-unscaled", "src/polyan/h4.py",
           "return e, 2.0 * c * t * e", "return e, c * t * e",
           ("tests/test_h4.py::test_profile_functions_are_elementwise",)),
    Mutant("profile-factors-swapped", "src/polyan/h4.py",
           "bv, bd = (np.stack(s, axis=-1) for s", "bd, bv = (np.stack(s, axis=-1) for s",
           ("tests/test_family.py::test_family_field_fd_jacobian_agrees",)),
    Mutant("from-b-gradient-inverted", "src/polyan/h4.py",
           "for e, w in zip(d, v)]", "for e, w in zip(v, d)]",
           ("tests/test_h4.py::test_kappa_from_b_gradient_is_analytic",)),
    Mutant("seed-unread", "src/polyan/cli.py",
           '        seed = _number(seed, "seed", True, within=(0, math.inf))\n', "",
           ("tests/test_cli.py::test_seed_must_be_a_whole_number_in_int64_from_zero",)),
    Mutant("non-utf8-config-uncaught", "src/polyan/cli.py",
           "json.JSONDecodeError, UnicodeDecodeError)", "json.JSONDecodeError)",
           ("tests/test_cli.py::test_a_config_that_is_not_utf8_is_config_error",)),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "mutation")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _in_copy(tests, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """pytest on the tests in a fresh copy of the repository, with the mutant applied if given."""
    with tempfile.TemporaryDirectory(prefix="polyan-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise LookupError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times "
                                  f"in {mutant.file}, not once")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        return subprocess.run([*PYTEST, *tests], cwd=copy, env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    start = time.monotonic()
    every_test = sorted({t for m in mutants for t in m.tests})
    baseline = _in_copy(every_test)
    if baseline.returncode != 0:
        print(baseline.stdout[-4000:], baseline.stderr[-4000:], sep="\n", file=sys.stderr)
        print(f"the unmutated copy fails {' '.join(every_test)}", file=sys.stderr)
        return 2
    survivors = []
    for m in mutants:
        try:
            result = _in_copy(m.tests, m)
        except LookupError as exc:
            print(exc, file=sys.stderr)
            return 2
        killed = result.returncode != 0
        if not killed:
            survivors.append(m.name)
        print(f"{'killed ' if killed else 'SURVIVED'} {m.name} ({m.file}; {' '.join(m.tests)})", flush=True)
    score = f"killed {len(mutants) - len(survivors)} of {len(mutants)}"
    print(f"{score} in {time.monotonic() - start:.0f} s")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(f"Mutation runner: {score}" + (f"; survived: {', '.join(survivors)}" if survivors else "") + "\n")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
