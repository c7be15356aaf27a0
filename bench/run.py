"""Benchmark of the essential-rewrite workbench.

Run from the root of a source checkout:

    python3 bench/run.py --workload reduce-church --seed 1 --seconds 60 --trace 0

The package is imported from `src/` of the working directory, never from an
installed copy.  The run builds the workload's ops from the seed (set-up),
then runs passes over them, each in a fresh seeded order, until `--seconds`
have gone by.  Each op's time in the run is its best over the passes (see
best_time_metrics).  Every output is checked against a reference the timed call
did not produce; an op that raises, exits non-zero or fails its check counts
as failed.  Ops run one at a time in this process, as one client in a closed
loop.

BENCHMARK.json lists reduce-church and sweep-exhaustive.  factorize-traces
runs the same way by hand.  It is not listed because the total time of all
benchmark runs is capped: three workloads would leave about 40 seconds a run,
and on a noisy host 40-second runs spread beyond the bounds where 60-second
runs did not.

With `--trace 0` the last line of standard output reports the end-to-end
metrics; with `--trace 1` it reports the per-layer metrics of one traced
pass, run after untraced passes for half of `--seconds`.  The line before it
is a report with the environment, the sample counts and the failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# the fewest set-ups a run makes, however few passes it has
SETUP_REPEATS = 5
# The host this runs on is shared: another tenant's load slows a sample by
# 10-90%, in bursts much shorter than a pass.  So each op's time in a run is
# its best time over the run's passes, which that load can only lengthen.
# The pass time is the sum of the ops' best times, and the latency
# percentiles are taken over the samples of the complete passes, each sample
# replaced by the best time of its op.  The tail is the highest of
# TAIL_LADDER's percentiles with at least ten samples beyond it, which is p90
# for 100 to 999 samples.
TAIL_LADDER = (50.0, 90.0)

# Imports the package in a fresh interpreter and prints the seconds it took,
# which counts the standard modules the package pulls in but not the
# interpreter's own start.
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "start = time.perf_counter(); import essential_rewrite.cli; "
                 "print(time.perf_counter() - start)")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="essential-rewrite benchmark")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import essential_rewrite from ./src, or exit if the checkout lacks it."""
    if not os.path.isfile(os.path.join(SRC, "essential_rewrite", "__init__.py")):
        print(f"error: no src/essential_rewrite under {ROOT}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import essential_rewrite
    if not os.path.abspath(essential_rewrite.__file__).startswith(SRC + os.sep):
        print(f"error: essential_rewrite was imported from {essential_rewrite.__file__}",
              file=sys.stderr)
        sys.exit(2)


def import_seconds() -> float:
    probe = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, SRC],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def host_probe_ms() -> float:
    """Best time of a fixed pure-Python loop of about a millisecond: a record
    of the host's speed at that moment, kept in the report and in no metric."""
    best = math.inf
    for _ in range(20):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return None


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            best = pct
    return best if best is not None else 100.0


def best_time_metrics(op_times, op_work):
    """Pass time, work per second, median and tail latency, the tail
    percentile and the sample count, all from each op's best time.  The
    percentiles count the samples of the complete passes, so that every op
    weighs the same and a pass cut short by the deadline moves no rank."""
    best = sorted(min(times) for times in op_times if times)
    complete = min(len(times) for times in op_times)
    tail = tail_percentile(len(best) * complete)
    wall = sum(best)
    return (wall, sum(op_work.values()) / wall, nearest_rank(best, 50),
            nearest_rank(best, tail), tail, len(best) * complete)


class Runner:
    """Runs passes over a workload's ops and keeps the samples."""

    def __init__(self, ops, rng):
        self.ops = ops
        self.rng = rng
        self.samples: list[float] = []
        self.pass_walls: list[float] = []
        self.op_times: list[list[float]] = [[] for _ in ops]
        self.op_work: dict[int, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict = {}

    def run_op(self, i, timed):
        """Run op i through `timed(call) -> (result, seconds)`, then check it."""
        op = self.ops[i]
        self.attempted += 1
        try:
            result, seconds = timed(op.call)
        except (Exception, SystemExit) as exc:  # every failure is counted and reported
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}"[:300])
            return None
        try:
            outcome = op.check(op, result)
        except Exception as exc:
            self.failures.append(f"{op.label}: check raised {type(exc).__name__}: {exc}"[:300])
            return seconds
        self.op_work[i] = outcome.work
        for key, value in outcome.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        if not outcome.ok:
            self.failures.append(f"{op.label}: {outcome.problem}"[:300])
        return seconds

    def one_pass(self, timed, deadline=None):
        """One pass in a fresh seeded order; stops early at `deadline`.
        Returns the summed op seconds of a complete pass, else None."""
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        total = 0.0
        for i in order:
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            seconds = self.run_op(i, timed)
            if seconds is not None:
                self.samples.append(seconds)
                self.op_times[i].append(seconds)
                total += seconds
        self.pass_walls.append(total)
        return total

    def run_for(self, seconds, timed, between):
        """Passes until `seconds` have gone by, calling `between()` before
        each; the first pass always completes."""
        deadline = time.perf_counter() + seconds
        between()
        self.one_pass(timed)
        while time.perf_counter() < deadline:
            between()
            self.one_pass(timed, deadline)


def plain_timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def code_digest():
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "essential_rewrite"), BENCH):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def cross_check_counts(workload, seed, tiny, counts):
    """Compare the exact per-layer counts with those of an earlier traced run
    of the same workload, seed and code; returns the names that differ."""
    folder = os.path.join(OUT_DIR, "counts")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}{'-tiny' if tiny else ''}-{seed}-{code_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        return sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counts, handle, indent=1, sort_keys=True)
    return []


def main(argv=None) -> int:
    import_package()
    import workloads
    args = parse_args(argv, list(workloads.WORKLOADS))

    # set-up is the package import plus building the ops.  It is repeated
    # between the passes, so that its medians span the host's speed over the
    # whole run and not only at its start; the medians are added.
    build = workloads.WORKLOADS[args.workload]
    import_times, build_times, host_probes = [], [], []

    def set_up():
        import_times.append(import_seconds())
        start = time.perf_counter()
        built = build(random.Random(args.seed), tiny=args.tiny)
        build_times.append(time.perf_counter() - start)
        return built

    def between_passes():
        host_probes.append(host_probe_ms())
        set_up()

    ops = set_up()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "ops_per_pass": len(ops),
    }
    if args.workload == "factorize-traces":
        report["trace_lengths"] = [op.info["length"] for op in ops]

    runner = Runner(ops, random.Random(args.seed + 1))
    runner.run_for(args.seconds / 2 if args.trace else args.seconds, plain_timed,
                   between_passes)
    while len(import_times) < SETUP_REPEATS:
        set_up()
    setup_s = statistics.median(import_times) + statistics.median(build_times)
    samples = runner.samples
    wall, work_per_s, p50, high, tail, pooled = (
        best_time_metrics(runner.op_times, runner.op_work) if samples
        else (0.0, 0.0, 0.0, 0.0, 100.0, 0))
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall,
        "work_per_s": work_per_s,
        "op_p50_ms": 1000 * p50,
        "op_tail_ms": 1000 * high,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report.update({
        "passes": len(runner.pass_walls),
        "pass_walls": runner.pass_walls,
        "samples": len(samples),
        "import_s": import_times,
        "build_s": build_times,
        "host_probe_ms": host_probes,
        "samples_per_op": [len(times) for times in runner.op_times],
        "op_best_s": {op.label: min(times) for op, times in zip(ops, runner.op_times) if times},
        "p50_samples_beyond": pooled - math.ceil(0.5 * pooled),
        "tail_percentile": tail,
        "tail_samples_beyond": pooled - math.ceil(tail / 100 * pooled),
        workloads.WORK_UNITS[args.workload]: e2e["work_per_s"],
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
    })

    correct = bool(samples)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if args.trace:
        layers, traced_ok = traced_pass(args, ops, runner, report)
        correct = correct and traced_ok
        metrics = layers

    failed = len(runner.failures)
    report["fail_ratio"] = failed / runner.attempted
    report["failures"] = runner.failures[:20]
    report["loadavg_end"] = loadavg()
    correct = correct and failed == 0
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_pass(args, ops, runner, report):
    """One pass with spans at the module boundaries.  Returns the per-layer
    metrics and whether the span accounting and count cross-check held."""
    import tracing
    from layers import PER_LAYER_UNITS, COUNT_METRICS

    tracer = tracing.Tracer()
    traced = Runner(ops, runner.rng)
    op_ids = iter(range(len(ops)))
    worst = [0.0]

    def timed(call):
        result, seconds, self_sum = tracer.run_op(next(op_ids), call)
        error = 1.0 if self_sum is None else abs(self_sum - seconds) / max(seconds, 1e-12)
        worst[0] = max(worst[0], error)
        return result, seconds

    tracer.install()
    try:
        traced_wall = traced.one_pass(timed)
    finally:
        tracer.uninstall()
    runner.attempted += traced.attempted
    runner.failures += traced.failures

    values = tracer.layer_metrics()
    values.update(traced.counts)
    contractions = values.get("reductions.contractions", 0)
    values["reductions.useful_ratio"] = values.get("steps_fired", 0) / contractions if contractions else 0.0
    values["trace.overhead_s"] = traced_wall - statistics.mean(runner.pass_walls)
    layers = {name: {"value": values.get(name, 0), "unit": unit}
              for name, unit in PER_LAYER_UNITS.items()}

    counts = {name: values.get(name, 0) for name in COUNT_METRICS}
    mismatches = cross_check_counts(args.workload, args.seed, args.tiny, counts)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
    tracer.write(span_file)
    report.update({
        "spans": len(tracer.span_name),
        "span_file": os.path.relpath(span_file, ROOT),
        "self_time_max_rel_error": worst[0],
        "count_mismatches": mismatches,
        "traced_pass_s": traced_wall,
    })
    return layers, worst[0] < 1e-6 and not mismatches


if __name__ == "__main__":
    sys.exit(main())
