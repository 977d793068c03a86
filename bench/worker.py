"""One workload in one fresh process; bench/run.py starts it.

Set-up imports chainpoly from the checkout's src/ and generates every
input.  The expected values are derived in the same pass, but their
time (inputs.derive_s) is left out of setup_s.  Then whole rounds of the workload's fixed job
list run until --seconds have passed.  Before each round every memo
cache of the package is cleared and the garbage collector runs, so each
round does the same cold-cache work and peak RSS does not grow with the
number of rounds.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types
from bisect import bisect_left

T0 = time.perf_counter()  # set-up starts here, before chainpoly is imported

import inputs  # noqa: E402
import jobs  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_SAMPLES = 100  # jobs per round: the 90th percentile has ten beyond it


def load_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    package = importlib.import_module("chainpoly")
    where = os.path.realpath(package.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("chainpoly was imported from %s, not from %s" % (where, src))
    lib = types.SimpleNamespace(package=package)
    for name in LAYERS:
        setattr(lib, name, importlib.import_module("chainpoly." + name))
    return lib


def find_memos(lib):
    """Every functools cache in the package, by layer."""
    out = {}
    for name in LAYERS:
        for obj in vars(getattr(lib, name)).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == "chainpoly." + name:
                out.setdefault(name, [])
                if obj not in out[name]:
                    out[name].append(obj)
    return out


class Workload:
    def __init__(self, name, seed, lib):
        self.name = name
        self.lib = lib
        rng = random.Random(seed)
        if name == "certify":
            self.jobs = inputs.certify_jobs(rng)
        elif name == "structures":
            self.jobs = inputs.structures_jobs(rng)
        else:
            workdir = os.path.join("bench", "work", "batch")
            self.lines, files = inputs.batch_lines(rng, workdir)
            self.path = inputs.write_batch(self.lines, files, workdir)
        size = len(self.lines if name == "batch" else self.jobs)
        if size < MIN_SAMPLES:
            raise SystemExit("%d jobs per round; the 90th percentile needs %d"
                             % (size, MIN_SAMPLES))
        self.memos = find_memos(lib)

    def cold_start(self):
        for memos in self.memos.values():
            for memo in memos:
                memo.cache_clear()
        gc.collect()

    def run_round(self, tracer=None):
        """Returns (samples in s, timed wall in s, attempted, problems)."""
        if self.name == "batch":
            return self._batch_round(tracer)
        samples, problems = [], []
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            try:
                result = jobs.run(self.lib, job)
            except Exception as exc:  # a crash is a failed operation
                samples.append(time.perf_counter() - start)
                problems.append("%s %r: %r" % (job[0], job[1], exc))
                continue
            samples.append(time.perf_counter() - start)
            found = jobs.check(job, result)
            if found:
                problems.append("%s %r: %s" % (job[0], job[1], "; ".join(found[:3])))
        return samples, sum(samples), len(self.jobs), problems

    def _batch_round(self, tracer):
        problems = []
        begin = time.perf_counter()
        try:
            code, reports, stamps, start, end = jobs.run_batch(self.lib, self.path)
        except Exception as exc:  # the whole call died: every line fails
            wall = time.perf_counter() - begin
            return [wall], wall, len(self.lines), ["batch call: %r" % exc] * len(self.lines)
        # a line's latency is the time since the previous report was written
        samples = [b - a for a, b in zip([start] + stamps, stamps)]
        if tracer is not None:
            for rec in tracer.spans:
                rec[5] = bisect_left(stamps, rec[2])  # the line being served
        firsts = {}
        for i, (argv, kind, expect) in enumerate(self.lines):
            if i >= len(reports):
                problems.append("line %d %s: no report" % (i, argv))
                continue
            try:
                rep = json.loads(reports[i])
            except ValueError:
                problems.append("line %d %s: unreadable report" % (i, argv))
                continue
            found = jobs.check_report(kind, expect, rep)
            key = json.dumps(argv)
            if firsts.setdefault(key, reports[i]) != reports[i]:
                found.append("repeat differs from the first report")
            if found:
                problems.append("line %d %s: %s" % (i, argv, "; ".join(found[:3])))
        if len(reports) > len(self.lines):
            problems.append("%d reports for %d lines" % (len(reports), len(self.lines)))
        worst = max(e["exit"] for _, _, e in self.lines)
        if code != worst and not problems:
            problems.append("batch exit %r, want %d" % (code, worst))
        return samples, end - start, len(self.lines), problems


def timed_run(work, seconds):
    """Whole rounds until the time is up.  Every round runs the same job
    list, so each job's time is taken as its median over the rounds, and
    the percentiles are over jobs; throughput is the median over rounds.
    A round slowed by the machine then moves neither.  A round whose
    operations failed still yields metrics, so the result line reports
    the failures."""
    rounds, rates, attempted, problems = [], [], 0, []
    deadline = time.perf_counter() + seconds
    while True:
        work.cold_start()
        s, wall, n, p = work.run_round()
        rounds.append(s or [wall])
        rates.append(len(s) / wall if wall else 0.0)
        attempted += n
        problems += p
        if time.perf_counter() >= deadline and len(rounds) >= 3:
            break
    per_job = [statistics.median(r[i] for r in rounds if i < len(r)) * 1e3
               for i in range(max(map(len, rounds)))]
    p90 = statistics.quantiles(per_job, n=10)[8] if len(per_job) > 1 else per_job[0]
    metrics = {
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": statistics.median(per_job),
        "job_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return attempted, problems, metrics


def traced_run(work, seconds, trace_path):
    """Pairs of one untraced and one traced round, in alternating order
    after one warm-up round; per-layer numbers are medians over the
    traced rounds, per round."""
    tracer = Tracer(work.lib)
    memo_realroots = work.memos.get("realroots", [])
    per_round, overheads, attempted, problems = [], [], 0, []

    def one_round(traced):
        nonlocal attempted
        work.cold_start()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            _, wall, n, p = work.run_round(tracer if traced else None)
        finally:
            tracer.uninstall()
        attempted += n
        problems.extend(p)
        if traced:
            lines = n if work.name == "batch" else 0
            stats = [memo.cache_info() for memo in memo_realroots]
            per_round.append(layer_metrics(tracer.spans, tracer.counts, stats, lines))
        return wall

    one_round(False)
    deadline = time.perf_counter() + seconds
    while True:
        order = (False, True) if len(overheads) % 2 == 0 else (True, False)
        walls = {traced: one_round(traced) for traced in order}
        overheads.append((walls[True] - walls[False]) * 1e3)
        if time.perf_counter() >= deadline:
            break
    tracer.write(trace_path)
    metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    metrics["trace.overhead_ms"] = statistics.median(overheads)
    return attempted, problems, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("certify", "structures", "batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    lib = load_package()
    work = Workload(args.workload, args.seed, lib)
    work.cold_start()
    setup_s = time.perf_counter() - T0 - inputs.derive_s
    out = {"setup_s": setup_s, "derive_s": inputs.derive_s}
    if not args.setup_only:
        if args.trace:
            os.makedirs(os.path.join("bench", "results"), exist_ok=True)
            path = os.path.join("bench", "results", "trace-%s-%d.jsonl" % (args.workload, args.seed))
            attempted, problems, metrics = traced_run(work, args.seconds, path)
        else:
            attempted, problems, metrics = timed_run(work, args.seconds)
        out.update(attempted=attempted, failed=len(problems),
                   problems=problems[:10], metrics=metrics)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
