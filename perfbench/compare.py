"""Repeated runs of the benchmark and their comparison.

    # ten runs of one workload, one seed each, results saved under DIR
    python3 perfbench/compare.py sweep --workload trajectories --seeds 1-10 --out DIR

    # spread of every end-to-end metric in one set of runs
    python3 perfbench/compare.py report DIR

    # a parent set against a change set, one row per workload and metric
    python3 perfbench/compare.py report PARENT_DIR CHANGE_DIR

Bounds and better directions come from BENCHMARK.json.  A metric whose
run-to-run spread (interquartile range over median) exceeds its bound on
either side is reported as unresolved, unless every change run beats every
parent run.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def load_spec(path=SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list:
    """'1-10' or '3,5,8' to a list of ints."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def sweep(workload, seeds, out_dir) -> int:
    """Untraced runs of BENCHMARK.json's command and run length, one per seed."""
    os.makedirs(out_dir, exist_ok=True)
    spec = load_spec()
    seconds = spec["run_seconds"]
    for seed in seeds:
        argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"seed {seed}: exit {proc.returncode}, no result\n")
            return 1
        result = json.loads(lines[-1])
        record = {"workload": workload, "seed": seed, "seconds": seconds, "result": result}
        path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return 0


def load_runs(directory):
    """(workload -> list of (seed, result) sorted by seed, set of run lengths)."""
    runs = {}
    lengths = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], []).append((rec["seed"], rec["result"]))
        lengths.add(rec["seconds"])
    return {w: sorted(v, key=lambda sr: sr[0]) for w, v in runs.items()}, lengths


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative worsening of the change's median; negative when it improved."""
    if better == "lower":
        return (change - parent) / parent
    return (parent - change) / parent


def verdict(parent, change, metric, pairs) -> str:
    """One metric on one workload, by the rules in perfbench/README.md."""
    bound, better = metric["bound"], metric["better"]

    def beats(a, b):
        return a < b if better == "lower" else a > b

    all_better = all(beats(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    delta = worse_by(quartiles(parent)[1], quartiles(change)[1], better)
    if delta > bound:
        return "regressed"
    q1, _, q3 = quartiles(parent)
    wins = sum(beats(c, p) for p, c in pairs)
    gap = abs(quartiles(change)[1] - quartiles(parent)[1])
    if pairs and wins >= 0.9 * len(pairs) and gap > q3 - q1 and delta < 0:
        return "improved"
    return "within bound"


def failed_share(runs) -> set:
    """The distinct shares of failed operations among the runs."""
    return {r["failed"] / r["attempted"] for _, r in runs}


def report(dirs) -> int:
    spec = load_spec()
    sides, lengths = zip(*(load_runs(d) for d in dirs))
    status = 0
    if len(set().union(*lengths)) > 1:
        print(f"warning: the runs do not all have the same length: {sorted(set().union(*lengths))} s")
    for workload in [w["name"] for w in spec["workloads"]]:
        if any(workload not in side for side in sides):
            continue
        print(f"\n== {workload} ==")
        for label, side in zip(("parent", "change"), sides):
            runs = side[workload]
            wrong = sum(not r["correct"] for _, r in runs)
            shares = sorted(failed_share(runs))
            print(f"  {label if len(sides) == 2 else 'runs'}: {len(runs)}, "
                  f"incorrect {wrong}, failed share {shares}")
            status |= bool(wrong)
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            values = [[r["metrics"][name]["value"] for _, r in side[workload]] for side in sides]
            cols = []
            for v in values:
                q1, med, q3 = quartiles(v)
                cols.append(f"{med:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread(v):6.1%}")
            if len(sides) == 1:
                steady = "ok" if spread(values[0]) <= bound else "TOO NOISY"
                print(f"  {name:16s} {unit:6s} {cols[0]}  bound {bound:.0%}: {steady}")
                status |= steady != "ok"
            else:
                by_seed = [dict(side[workload]) for side in sides]
                pairs = [(by_seed[0][s]["metrics"][name]["value"], by_seed[1][s]["metrics"][name]["value"])
                         for s in by_seed[0] if s in by_seed[1]]
                v = verdict(values[0], values[1], metric, pairs)
                delta = worse_by(quartiles(values[0])[1], quartiles(values[1])[1], metric["better"])
                print(f"  {name:16s} {unit:6s} parent {cols[0]} | change {cols[1]} | "
                      f"worse by {delta:+.1%} (bound {bound:.0%}): {v}")
                status |= v == "regressed"
        if len(sides) == 2 and failed_share(sides[0][workload]) != failed_share(sides[1][workload]):
            print("  failed share differs between parent and change")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    sw = sub.add_parser("sweep", help="run one workload once per seed, saving each result")
    sw.add_argument("--workload", required=True)
    sw.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    sw.add_argument("--out", required=True)
    rp = sub.add_parser("report", help="spread of one set, or parent set against change set")
    rp.add_argument("dirs", nargs="+", metavar="DIR")
    args = parser.parse_args(argv)
    if args.mode == "sweep":
        return sweep(args.workload, parse_seeds(args.seeds), args.out)
    if len(args.dirs) > 2:
        parser.error("report takes one or two directories")
    return report(args.dirs)


if __name__ == "__main__":
    sys.exit(main())
