"""Self-test of the benchmark.  It never gates on time.

Run from the root of a source checkout:

    python3 bench/selftest.py

It checks that a tiny run of every workload, listed in BENCHMARK.json or
not, completes, traced and untraced, and prints a result line that parses
and names exactly the metrics of BENCHMARK.json; that two traced runs of one seed, under different string
hash seeds, count exactly the same per-layer work; that a deliberately wrong
reference makes every op fail; and that the benchmark exits non-zero,
printing no result, where there is no source checkout.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")

sys.path.insert(0, os.path.join(ROOT, "src"))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(condition, detail=""):
    if not condition:
        raise SelfTestFailure(detail)


def run_bench(workload, trace, seed=7, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc):
    expect(proc.returncode == 0, proc.stderr)
    lines = proc.stdout.splitlines()
    expect(lines[-2].startswith("report "), lines[-2])
    return json.loads(lines[-1]), json.loads(lines[-2][len("report "):])


def check_runs(spec):
    listed = {w["name"] for w in spec["workloads"]}
    expect(listed <= set(WORKLOADS), listed)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, report = result_of(run_bench(workload, trace))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            expect(result["correct"] and result["failed"] == 0, report["failures"])
            expect(result["attempted"] >= 1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == expected[trace], (workload, trace))
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()))
            expect(report["fail_ratio"] == 0)
        print(f"ok   {workload}: tiny runs, traced and untraced")


def check_counts_repeat(spec):
    seed = random.randrange(1, 10 ** 6)
    for workload in WORKLOADS:
        first, _ = result_of(run_bench(workload, 1, seed=seed, hash_seed="1"))
        second, report = result_of(run_bench(workload, 1, seed=seed, hash_seed="2"))
        expect(report["count_mismatches"] == [], report["count_mismatches"])
        for name, metric in first["metrics"].items():
            if metric["unit"] in ("count", "bytes"):
                expect(second["metrics"][name]["value"] == metric["value"], name)
        print(f"ok   {workload}: per-layer counts repeat exactly")


def corrupt(workload, op):
    """Replace an op's reference by a wrong one."""
    if workload == "reduce-church":
        _, n = op.expect
        op.expect = ("church", n + 1)
    elif workload == "sweep-exhaustive":
        op.expect = op.expect + 1 if op.label.split(":")[0] != "normalization" else 0
    else:
        from essential_rewrite import Free
        from essential_rewrite.engine import Trace
        op.expect = Trace(Free("wrong"), op.expect.steps)


def check_wrong_reference():
    for workload in WORKLOADS:
        ops = WORKLOADS[workload](random.Random(3), tiny=True)
        for op in ops:
            corrupt(workload, op)
        runner = run.Runner(ops, random.Random(4))
        runner.one_pass(run.plain_timed)
        expect(runner.attempted == len(ops))
        expect(len(runner.failures) == runner.attempted, runner.failures)
        print(f"ok   {workload}: a wrong reference fails all {runner.attempted} ops")


def check_bare_directory(spec):
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout)
    print("ok   no source checkout: exit code", proc.returncode, "and no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_runs(spec)
    check_counts_repeat(spec)
    check_wrong_reference()
    check_bare_directory(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
