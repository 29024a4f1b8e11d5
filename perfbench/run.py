"""Run one workload of the omegalab benchmark and print its metrics.

    python3 perfbench/run.py --workload stats_1e8 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
src/.  Each round is a fresh single-threaded Python process (child.py), so
every round starts with every cache of the program empty.  A run holds the
whole number of full rounds nearest to --seconds, at least one: another
round starts only if it would end less than half a round past --seconds.
Then set-up-only rounds are added until the workload has its number of
set-up samples.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics of BENCHMARK.json, medians over the rounds; with --trace 1 its
per-layer metrics, medians over the rounds (0 for a layer the workload
never calls).  Every round's full report is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("stats_1e8", "fourier_1e7", "windows_cli")
# Set-up samples per run, each a fresh process from its start to the shared
# inputs being ready; the dense 10^8 sieve makes stats_1e8's samples dear.
SETUP_SAMPLES = {"stats_1e8": 3, "fourier_1e7": 5, "windows_cli": 5}
DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RoundFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    env.pop("OMEGALAB_WORKERS", None)   # the sieve keeps its default of one worker
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_round(args, index: int, phase: str, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(index), "--phase", phase,
           "--trace", str(args.trace), "--spawned-at", repr(spawned_at),
           "--scratch", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round {index} ({phase}) passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round {index} ({phase}) exited {proc.returncode}")
    return json.loads(lines[-1])


def wants_another_round(elapsed: float, done: int, seconds: float) -> bool:
    """True if one more round of the mean length so far ends nearer to seconds."""
    return elapsed + elapsed / done / 2 < seconds


def summarize(args, spec: dict, rounds: list) -> dict:
    full = [r for r in rounds if r["phase"] == "full"]
    # a check that accepted its deliberately wrong value could never fail
    broken = [c for r in full for c in r["checks"] if c["perturbed_rejected"] is False]
    correct = not broken and not any(r["errors"] for r in rounds)
    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            values = [r["layers"][m["name"]] for r in rounds if m["name"] in r["layers"]]
            metrics[m["name"]] = {"value": statistics.median(values) if values else 0.0,
                                  "unit": m["unit"]}
    else:
        samples = {"setup_s": [r["setup_s"] for r in rounds],
                   "run_s": [r["run_s"] for r in full],
                   "cpu_s": [r["cpu_s"] for r in full],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in full]}
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": correct, "attempted": sum(len(r["ops"]) for r in full),
            "failed": sum(len(r["errors"]) for r in full), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "omegalab" / "__init__.py").is_file():
        print(f"error: no omegalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    rounds = []
    try:
        while not rounds or wants_another_round(time.monotonic() - start, len(rounds),
                                                args.seconds):
            rounds.append(run_round(args, len(rounds), "full", deadline))
        while len(rounds) < SETUP_SAMPLES[args.workload]:
            rounds.append(run_round(args, len(rounds), "setup", deadline))
    except RoundFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    result = summarize(args, spec, rounds)
    checks = [c for r in rounds if r["phase"] == "full" for c in r["checks"]]
    print(f"{args.workload}: {len(checks)} checks, "
          f"{sum(not c['passed'] for c in checks)} failed, "
          f"{sum(c['perturbed_rejected'] is True for c in checks)} rejected their "
          f"perturbed value", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for r in rounds:
                for span in r.pop("spans"):
                    fh.write(json.dumps(dict(span, round=r["round"])) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "rounds": rounds, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
