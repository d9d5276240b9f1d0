"""One workload in one fresh process: set up, run whole rounds, check, report.

Started by run.py from the root of a checkout with PYTHONPATH=src and BLAS
threads pinned to 1.  Prints one JSON object as its last line of output.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

T0 = time.perf_counter()  # set-up is timed from here: before numpy and polyan load

OUT_DIR = ".perfbench"

# The machine this runs on is shared: its speed drifts by 20 % and more over
# minutes, and by more over seconds, for all code at once.  A fixed job of
# the benchmark's own is therefore timed after every operation.  It mixes
# what polyan's point-wise code does (small einsum and array arithmetic,
# Python calls, float formatting), so the drift shows in it too.  Each
# normalised sample is an operation's time times REFERENCE_S / (the mean
# time of the reference jobs just before and just after it): seconds on a
# machine where the job takes REFERENCE_S.
REFERENCE_S = 0.010
_REF_ITERATIONS = 700
# reference jobs timed by a set-up-only process, to normalise its set-up
SETUP_ONLY_REFERENCE_JOBS = 9


def reference_job() -> int:
    import numpy as np
    p = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            p[i ^ j, i, j] = 1.0
    x = np.linspace(0.1, 0.4, 4)
    acc = 0.0
    rows = []
    for k in range(_REF_ITERATIONS):
        y = np.einsum("kij,i,j->k", p, x, x)
        z = np.asarray(y, dtype=float) * 0.5 + x
        acc += float(np.max(np.abs(z))) + math.exp(-acc)
        rows.append({"k": k, "v": format(acc, ".17g")})
    return len(rows)


def describe(ops) -> list:
    """The parts of each operation that the metrics need, as plain data."""
    return [{"kind": op.kind, "units": op.units, "command": op.command,
             "known_fault": op.known_fault} for op in ops]


def timing_metrics(ops, times, prefix="") -> dict:
    """wall_s, cli_s and lib_ops_per_s from each operation's time samples.

    ops are descriptors from describe(); each operation contributes its
    median.  The known-fault operation is left out of every timing.
    """
    med = [statistics.median(t) for t in times]

    def total(kinds):
        return sum(m for m, op in zip(med, ops) if op["kind"] in kinds and not op["known_fault"])

    units = sum(op["units"] for op in ops if op["kind"] == "lib")
    return {f"{prefix}wall_s": (total(("lib", "cli")), "s"),
            f"{prefix}cli_s": (total(("cli",)), "s"),
            f"{prefix}lib_ops_per_s": (units / total(("lib",)), "1/s")}


def normalised_samples(times, refs) -> list:
    """Each operation's time samples of one process, normalised by the
    reference jobs next to them.  refs holds one reference job per
    operation run, in the order run_round runs them."""
    n = len(times)
    return [[REFERENCE_S * t / statistics.fmean(refs[max(r * n + i - 1, 0):r * n + i + 1])
             for r, t in enumerate(samples)]
            for i, samples in enumerate(times)]


def normalised(ops, times, refs) -> dict:
    """timing_metrics of one process's normalised samples."""
    return timing_metrics(ops, normalised_samples(times, refs), prefix="norm_")


def run_round(ops, times, refs, problems, before_checks=None):
    """Run every operation once, each followed by the reference job, then
    check every output; returns (attempted, failed_known, failed_other).

    The checks come after all of the round's operations, so before_checks
    (if given) sees the process as the operations alone left it.
    """
    outputs = []
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            out, found = op.run(), None
        except Exception as exc:  # a raising operation is a failed one
            out, found = None, [f"raised {type(exc).__name__}: {exc}"]
        times[i].append(time.perf_counter() - start)
        start = time.perf_counter()
        reference_job()
        refs.append(time.perf_counter() - start)
        outputs.append((out, found))
    if before_checks is not None:
        before_checks()
    failed_known = failed_other = 0
    for op, (out, found) in zip(ops, outputs):
        if found is None:
            found = op.check(out)
        if found:
            if op.known_fault:
                failed_known += 1
            else:
                failed_other += 1
                problems.append(f"{op.name}: {'; '.join(found)}")
    return len(ops), failed_known, failed_other


CLI_COMMANDS = ("cr_residual", "family_verify", "geodesic", "extremal", "trajectory_json",
                "pair_ops", "line_integral")
THROUGHPUTS = ("cr_points_per_s", "rk4_steps_per_s", "pair_checks_per_s")


def per_layer(wl, ops, times, refs, traced_times, traced_refs, rounds):
    """Per-layer metrics of the traced rounds, plus untraced per-command medians.

    rounds holds one (span summary, counters, line-integral field evaluations)
    triple per traced round.  Counts come from the first traced round (every
    round does the same work); times are medians over the traced rounds.
    """
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    first, counts, evals = rounds[0]

    def calls(name):
        return first.get(name, zero)["calls"]

    def median_of(name, key):
        return statistics.median(summary.get(name, zero)[key] for summary, _, _ in rounds)

    def us_per(name, denom):
        return (1e6 * median_of(name, "total_s") / denom if denom else 0.0, "us")

    out = {}
    for name in ("algebra.multiply", "fields.fd_jacobian", "fields.cr_residual",
                 "fields.VectorField", "fields.GammaField", "h4.gamma_matrices",
                 "h4.ScalarField", "h4.ScalarField.gradient"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("algebra.multiply", "algebra.invert", "fields.fd_jacobian",
                 "fields.cr_residual", "fields.covariant_derivative", "fields.line_integral",
                 "fields.derivative", "fields.pair_quotient", "fields.pair_compose",
                 "fields.transform_pair", "h4.gamma_matrices", "h4.family_residual",
                 "h4.compatibility_residual", "h4.analytic_gamma_max",
                 "geodesics.integrate_geodesic", "geodesics.integrate_extremal",
                 "geodesics.write_geodesic_csv", "geodesics.write_extremal_csv",
                 "cli.render_report", "cli.run"):
        out[f"{name}.self_s"] = (median_of(name, "self_s"), "s")
    out["fields.fd_jacobian.probes"] = (counts["fields.fd_jacobian.probes"], "count")
    out["fields.cr_residual.us_per_point"] = us_per("fields.cr_residual", calls("fields.cr_residual"))
    out["fields.line_integral.field_evals"] = (evals, "count")
    out["fields.line_integral.evals_per_panel"] = (evals / wl.panels if wl.panels else 0.0, "count")
    out["h4.gamma_matrices.us_per_call"] = us_per("h4.gamma_matrices", calls("h4.gamma_matrices"))
    for name in ("geodesics.integrate_geodesic", "geodesics.integrate_extremal"):
        steps = counts[f"{name}.steps"]
        out[f"{name}.steps"] = (steps, "count")
        out[f"{name}.us_per_step"] = us_per(name, steps)
    out["geodesics.csv_bytes"] = (counts["geodesics.csv_bytes"], "bytes")
    out["cli.render_report.bytes"] = (counts["cli.render_report.bytes"], "bytes")

    for command in CLI_COMMANDS:
        # one command may run on several configs: the median over all its runs
        pooled = [t for op, samples in zip(ops, times) if op["command"] == command
                  for t in samples]
        out[f"cli_{command}_s"] = (statistics.median(pooled) if pooled else 0.0, "s")
    untraced = timing_metrics(ops, times)
    for name in THROUGHPUTS:
        out[name] = (untraced["lib_ops_per_s"][0] if name == wl.unit_metric else 0.0, "1/s")
    out.update(untraced)
    out["reference_job_s"] = (statistics.median(refs), "s")
    # normalised on each side, as the machine's speed may change in between
    out["trace.overhead_s"] = (normalised(ops, traced_times, traced_refs)["norm_wall_s"][0]
                               - normalised(ops, times, refs)["norm_wall_s"][0], "s")
    return out


def run_rounds(ops, times, refs, problems, seconds, before_checks=None, after_round=None):
    """Whole rounds until the time is spent (at least one); summed tallies.

    A round is started only if at least half of it is expected to fit in
    the time, so a run overshoots by at most about half a round, and on
    average ends near the time.
    before_checks runs in the first round only, between its operations and
    their checks.
    """
    totals = [0, 0, 0]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for k, v in enumerate(run_round(ops, times, refs, problems, before_checks)):
            totals[k] += v
        before_checks = None
        if after_round is not None:
            after_round()
        now = time.perf_counter()
        if now + 0.5 * (now - round_start) - start > seconds:
            return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, time the reference job a few times and stop")
    args = parser.parse_args(argv)

    import polyan  # timed as part of set-up
    import polyan.cli
    import workloads

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(polyan.__file__).startswith(src + os.sep):
        sys.stderr.write(f"polyan was imported from {polyan.__file__}, not from {src}\n")
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, polyan)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            refs = []
            for _ in range(SETUP_ONLY_REFERENCE_JOBS):
                start = time.perf_counter()
                reference_job()
                refs.append(time.perf_counter() - start)
            print(json.dumps({"setup_s": setup_s, "refs": refs}))
            return 0

        ops = describe(wl.ops)
        times = [[] for _ in wl.ops]
        refs = []
        problems = []
        # a traced run spends half its time untraced, for the overhead baseline
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        # peak memory of set-up and the first round's operations, read
        # before any check has parsed an output
        peak = []

        def read_peak():
            peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

        tallies = run_rounds(wl.ops, times, refs, problems, untraced_s, read_peak)
        out = {"setup_s": setup_s, "peak_rss_mb": peak[0],
               "ops": ops, "times": times, "refs": refs}

        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            traced_times = [[] for _ in wl.ops]
            traced_refs = []
            rounds = []

            def keep_round():
                evals = tracer.count_under("fields.VectorField", "fields.line_integral")
                rounds.append((tracer.summary(), defaultdict(int, tracer.counts), evals))
                if len(rounds) == 1:
                    tracer.write(os.path.join(
                        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
                tracer.reset()

            tracer.install(polyan)
            try:
                traced = run_rounds(wl.ops, traced_times, traced_refs, problems,
                                    args.seconds - untraced_s, after_round=keep_round)
            finally:
                tracer.uninstall()
            tallies = [a + b for a, b in zip(tallies, traced)]
            out = {"metrics": per_layer(wl, ops, times, refs, traced_times, traced_refs, rounds)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out.update(tallies=tallies, problems=problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
