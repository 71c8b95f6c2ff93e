"""gatelab benchmark: one workload per call, timed in fresh processes.

    python3 gatebench/run.py --workload scan127 --seed 1 --seconds 20 --trace 0

Run from the repository root; gatelab is imported from ``src/``.  Every
process that imports numpy gets one BLAS thread.  With ``--trace 0`` two
set-up-only processes and one full process run the workload, and the result
line carries the end-to-end metrics, timed at the reference speed of
``speed.py`` (the raw wall times are printed above it).  With ``--trace 1``
an untraced and a traced process run it without speed sampling, and the
result line carries the per-layer metrics, including the tracing overhead
(traced minus untraced raw wall time).  The last line of standard output is
the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")

# Nominal length of one round on the reference machine.  A run makes
# round(seconds / length) whole rounds, at least one, so the amount of work
# depends on --seconds alone and never on how fast the machine was.
ROUND_SECONDS = {"scan127": 28.0, "shells": 28.0, "cli_table": 12.0,
                 "oracle3": 10.5}
SETUP_PROBES = 2
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def spawn(name, seed, rounds, mode, deadline):
    """Run worker.py once; returns its JSON record (raises on failure)."""
    tag = "%s-%d-%s" % (name, os.getpid(), mode)
    workdir = os.path.join(RUNS, tag)
    out = os.path.join(RUNS, tag + ".json")
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    try:
        started = time.monotonic()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", name, "--seed", str(seed), "--rounds",
             str(rounds), "--mode", mode, "--started", repr(started),
             "--workdir", workdir, "--out", out],
            env=env, cwd=ROOT, stdout=sys.stderr, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(out):
            os.unlink(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "gatelab",
                                       "__init__.py")):
        print("gatebench: no gatelab sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    name, seed = args.workload, args.seed

    if args.trace:
        plain = spawn(name, seed, rounds, "plain", deadline)
        result = spawn(name, seed, rounds, "trace", deadline)
        values = result["layers"]
        values["trace.overhead_s"] = (
            statistics.median(result["raw_walls"])
            - statistics.median(plain["raw_walls"]))
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in LAYER_METRICS}
        result["checks"] += plain["checks"]
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
    else:
        setups = [spawn(name, seed, rounds, "setup", deadline)
                  for _ in range(SETUP_PROBES)]
        result = spawn(name, seed, rounds, "run", deadline)
        setups.append(result)
        print("raw set-up %s s; rounds raw %s s, at reference speed %s s"
              % (" ".join("%.3f" % r["raw_setup_s"] for r in setups),
                 " ".join("%.3f" % w for w in result["raw_walls"]),
                 " ".join("%.3f" % w for w in result["walls"])))
        setups = [r["setup_s"] for r in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]),
                       "unit": "s"},
            "items_per_s": {"value": result["items"] / sum(result["walls"]),
                            "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    for check in result["checks"]:
        print("%-4s %-40s %s" % ("ok" if check["ok"] else "FAIL",
                                 check["label"], check["detail"]))
    print("%s: %d rounds, %d items, %d of %d operations failed"
          % (name, len(result["raw_walls"]), result["items"], result["failed"],
             result["attempted"]))
    for key, metric in metrics.items():
        print("%-26s %14.6f %s" % (key, metric["value"], metric["unit"]))
    # a failed operation is counted in "failed"; "correct" speaks of the rest
    correct = all(check["ok"] for check in result["checks"]
                  if not check["operation"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
