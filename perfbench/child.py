"""One round of one workload, in a fresh process; prints one JSON line.

Started by run.py, never by hand: run.py pins the BLAS and OpenMP thread
counts to 1 in this process's environment, so numpy starts single-threaded
and the process's CPU time stays close to its wall time.  A set-up round
stops once the shared inputs are ready; a full round also runs the
operations, reads its CPU time and peak resident set, and only then checks
the outputs, so the checks never count against the program.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "full"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before the process was started")
    parser.add_argument("--scratch", required=True,
                        help="directory for the round's temporary files")
    args = parser.parse_args()

    from workloads import WORKLOADS, Round, peak_rss_mb   # imports the program

    imports_s = time.monotonic() - args.spawned_at
    workload = WORKLOADS[args.workload]
    rnd = Round(args.seed, args.round, bool(args.trace))
    inputs = workload.inputs(rnd.rng)
    report = {"phase": args.phase, "round": args.round, "imports_s": imports_s}

    t0 = time.perf_counter()
    state = workload.setup(rnd, inputs)
    report["setup_s"] = imports_s + time.perf_counter() - t0
    if args.phase == "full":
        rnd.phase = "run"
        with tempfile.TemporaryDirectory(dir=args.scratch) as workdir:
            rnd.workdir = workdir
            t0 = time.perf_counter()
            out = workload.run(rnd, inputs, state)
            report["run_s"] = time.perf_counter() - t0
            report["cpu_s"] = time.process_time()
            report["peak_rss_mb"] = peak_rss_mb()
            workload.check(rnd, inputs, state, out)
            checks = rnd.checks.evaluate()
        for c in checks:
            if not c["passed"]:
                rnd.errors.setdefault(c["op"], "check failed: " + c["check"])
        report.update(ops=rnd.ops, checks=checks)
    report["errors"] = rnd.errors
    report["layers"] = rnd.layer_values()
    if args.trace:
        report["spans"] = rnd.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
