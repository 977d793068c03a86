"""chainpoly benchmark: one workload, one result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh,
single-threaded worker process (bench/worker.py) with the hash seed
pinned, so memo caches and peak RSS start empty.  With --trace 0 the
last line of stdout carries every end-to-end metric named in
BENCHMARK.json; with --trace 1 it carries every per-layer metric, taken
from a separate traced run.  set-up time is the median over several
fresh processes: the worker that measures, plus set-up-only probes.
Exits non-zero without a result when the package or a metric is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150


def fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def worker(args, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("worker ran past %d s" % CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    src = os.path.join(ROOT, "src", "chainpoly")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        fail("no chainpoly sources under %s" % src)
    # the build step: byte-compile once, so no timed import compiles
    if not compileall.compile_dir(src, quiet=1):
        fail("chainpoly does not compile")

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(args, ["--setup-only"])["setup_s"])
    result = worker(args)
    setups.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setups))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    for problem in result["problems"]:
        print("FAILED: %s" % problem)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
