"""One workload in one fresh process; started by run.py, not by hand.

The parent passes the monotonic clock reading taken just before it started
this process, so the set-up time covers interpreter start, the imports and
the workload's input construction.  In ``setup`` and ``run`` mode every time
is also expressed at the reference speed of :mod:`speed`: the set-up by the
reference slices run right after it, each round by those sampled while it
runs.  ``plain`` and ``trace`` mode report raw wall times only, so that
sampling adds nothing to the traced spans.  The result goes to ``--out`` as
JSON.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "plain", "trace"),
                        required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import gatelab
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(gatelab.__file__)) != src:
        raise SystemExit("gatelab imported from %s, not from %s"
                         % (gatelab.__file__, src))
    from workloads import WORKLOADS
    from tracer import Tracer

    tracer = Tracer() if args.mode == "trace" else None
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    record = {"raw_setup_s": time.monotonic() - args.started}
    sampled = args.mode in ("setup", "run")
    if sampled:
        import speed
        speed.slice_seconds()    # warm-up: first calls into numpy/LAPACK
        record["setup_s"] = speed.reference_seconds(
            record["raw_setup_s"],
            [speed.slice_seconds() for _ in range(speed.BRACKET_SLICES)])
    if args.mode != "setup":
        rounds, walls, raw_walls = [], [], []
        for index in range(args.rounds):
            if sampled:
                with speed.Sampler() as sampler:
                    rounds.append(workload.run(index))
                walls.append(sampler.seconds())
                raw_walls.append(sampler.wall_s)
            else:
                start = time.monotonic()
                rounds.append(workload.run(index))
                raw_walls.append(time.monotonic() - start)
        # high-water mark of the workload itself, before the checks run
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.remove()
            record["layers"] = tracer.metrics()
            tracer.write(os.path.join(os.path.dirname(args.out),
                                      "spans-%s-seed%d.jsonl"
                                      % (args.workload, args.seed)))
        checks = workload.check(rounds)
        record.update(
            walls=walls,
            raw_walls=raw_walls,
            items=sum(r.items for r in rounds),
            attempted=sum(r.attempted for r in rounds) + len(checks),
            failed=(sum(r.failed for r in rounds)
                    + sum(not check.ok for check in checks)),
            checks=[dict(check._asdict(), ok=bool(check.ok))
                    for check in checks])
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
