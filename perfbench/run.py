"""polyan benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-residuals --seed 1 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics from
traced rounds.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid-residuals", "trajectories", "pair-calculus")
# An untraced run is split over this many fresh worker processes, one after
# another.  Timings differ from process to process on a shared machine by
# more than they differ within one, so each operation's median is taken over
# samples pooled from all of them.
PROCESSES = 3
# Set-up is timed once per fresh process: in the timing processes and in
# this many more that only set up, so that its median rests on more values.
SETUP_ONLY_PROCESSES = 6
TIME_LIMIT_S = 170.0    # a run must end within 180 s


def worker_env() -> dict:
    """The library from this checkout's src, one BLAS thread, a fixed hash seed."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": "src",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


def run_worker(args, seconds, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           *(["--setup-only"] if setup_only else [])]
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def pooled_metrics(parts, setup_parts) -> dict:
    """End-to-end metrics of several worker processes' samples."""
    ops = parts[0]["ops"]
    norm = [worker.normalised_samples(part["times"], part["refs"]) for part in parts]
    pooled = [[t for samples in norm for t in samples[i]] for i in range(len(ops))]
    # set-up drifts with the machine's speed like everything else: each
    # process's set-up is normalised by its own reference job times
    setups = [p["setup_s"] * worker.REFERENCE_S / statistics.median(p["refs"])
              for p in parts + setup_parts]
    return {"setup_s": (statistics.median(setups), "s"),
            **worker.timing_metrics(ops, pooled, prefix="norm_"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in parts), "MB")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "polyan", "__init__.py")):
        sys.stderr.write("run from the root of a polyan checkout: src/polyan not found\n")
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            parts = [run_worker(args, args.seconds, deadline)]
            metrics = parts[0]["metrics"]
        else:
            setup_parts = [run_worker(args, 0.0, deadline, setup_only=True)
                           for _ in range(SETUP_ONLY_PROCESSES)]
            parts = [run_worker(args, args.seconds / PROCESSES, deadline)
                     for _ in range(PROCESSES)]
            metrics = pooled_metrics(parts, setup_parts)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc!r}\n")
        return 1

    attempted, failed_known, failed_other = (sum(p["tallies"][k] for p in parts) for k in range(3))
    for part in parts:
        for problem in part["problems"]:
            sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({
        "correct": failed_other == 0,
        "attempted": attempted,
        "failed": failed_known + failed_other,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
