"""Steadiness of the benchmark: many seeds per workload, spread per metric.

    python3 bench/steady.py --first-seed 1 --out bench/results/set1.json
    python3 bench/steady.py --compare bench/results/set1.json bench/results/set2.json

Each workload runs RUNS times, one run after another, each run
`bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`
with its own seed.  For every end-to-end
metric the table gives the median, the quartiles (statistics.quantiles
with n=4), the spread (q3 - q1) / median beside the metric's bound, and
the share of failed operations, which must be the same in every run.
--compare checks a second set against a first: no median may differ
from the first, better or worse, by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited with code %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec, results):
    """Per workload and metric: median, quartiles, spread, bound."""
    table = {}
    for workload, runs in results.items():
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(values),
                               "bound": m["bound"], "values": values}
        shares = {r["failed"] / r["attempted"] for r in runs}
        table[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                           "correct": all(r["correct"] for r in runs)}
    return table


def print_table(table):
    for workload, entry in table.items():
        print("%s  (failed share %s, correct %s)" % (
            workload, entry["failed_shares"], entry["correct"]))
        for name, row in entry["metrics"].items():
            flag = "ok" if row["spread"] <= row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "TOO WIDE")
            print("  %-12s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  bound %.2f  %s"
                  % (name, row["median"], row["q1"], row["q3"], row["spread"],
                     row["bound"], flag))


def compare(first, second):
    apart = 0
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for workload in first:
        for name, row in first[workload]["metrics"].items():
            a = row["median"]
            b = second[workload]["metrics"][name]["median"]
            change = (b - a) / a if better[name] == "lower" else (a - b) / a
            verdict = "beyond bound" if abs(change) > row["bound"] else "ok"
            apart += verdict != "ok"
            print("%-10s %-12s first %12.4f  second %12.4f  worse by %+7.3f  bound %.2f  %s"
                  % (workload, name, a, b, change, row["bound"], verdict))
        if first[workload]["failed_shares"] != second[workload]["failed_shares"]:
            apart += 1
            print("%-10s failed shares differ" % workload)
    return apart


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write the raw results and summary as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh)["summary"])
        sys.exit(1 if compare(*sets) else 0)

    spec = load_spec()
    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            results[workload].append(run_once(workload, seed, spec["run_seconds"]))
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
    table = summarize(spec, results)
    print_table(table)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": results, "summary": table}, fh, indent=1)


if __name__ == "__main__":
    main()
