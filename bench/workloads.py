"""The benchmark's workloads: inputs made from a seed, the timed calls, and
the checks of each output against a reference the timed call did not make.

An op is one call into the package's public functions.  A workload is a
list of ops, run in a seeded order as one pass; the benchmark repeats passes.

* reduce-church: in-process `essential-rewrite reduce ... --output json` on
  ladders of Church exponentials.  Few, deep, long-lived terms with a large
  printed form: stresses terms (instantiate, replace_at, is_neutral, show),
  reductions and cli; parallel, enumeration and graphs stay idle.
* sweep-exhaustive: `check_property` / `check_normalization` over every term
  up to a size bound.  Millions of tiny short-lived terms: stresses
  enumeration, parallel (all_parallel_steps, derive), engine split/merge and
  graphs.explore; deep-term costs (replace_at depth, show) stay near zero.
* factorize-traces: `factorize` on seeded base-step traces.  A few large
  derivations rebuilt at every split round: stresses parallel and engine
  the other way round from the sweep; enumeration, graphs and cli stay idle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from essential_rewrite import cli, engine, parse
from essential_rewrite.reductions import redexes, step_at

import reference

SYSTEMS = ("head", "weak-cbv", "lo", "ll")

# Binder names for the Church numerals: single letters, so the printed form
# (and the CLI's output size) is the same for every seed.
_LETTERS = "abcdefghkmnpqrstuvw"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    expect: object
    check: Callable[["Op", object], "Outcome"]
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    work: int
    counts: dict = field(default_factory=dict)
    problem: str = ""


def church(n: int, f: str, x: str) -> str:
    return "(" + reference.church_text(n, f, x) + ")"


# ---------------------------------------------------------------------------
# reduce-church

# Rungs k of c_k c_2 (= 2^k) per system, sized so that one pass takes a few
# seconds and the largest op stays near one second.
CHURCH_LADDERS = {
    "lo": range(3, 9),
    "ll": range(3, 8),
    "head": range(3, 10),
    "weak-cbv": range(3, 8),
}
TINY_LADDERS = {system: range(2, 4) for system in SYSTEMS}


def _cli_call(argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _check_reduce(op: Op, result) -> Outcome:
    code, text = result
    counts = {"cli.output_bytes": len(text.encode("utf-8"))}
    if code != 0:
        return Outcome(False, 0, counts, f"exit code {code}")
    payload = json.loads(text)
    steps = payload["steps"]
    if payload["outcome"] != "normal-form":
        return Outcome(False, len(steps), counts, f"outcome {payload['outcome']}")
    final = steps[-1]["term"] if steps else payload["start"]
    kind, n = op.expect
    good = reference.is_church_numeral(final, n) if kind == "church" else reference.is_identity(final)
    if not good:
        return Outcome(False, len(steps), counts, f"final term is not the expected {kind} {n}")
    return Outcome(True, len(steps), counts)


def reduce_church(rng: random.Random, tiny: bool = False) -> list[Op]:
    ladders = TINY_LADDERS if tiny else CHURCH_LADDERS
    ops = []
    for system in SYSTEMS:
        for k in ladders[system]:
            f, x, g, y, z = rng.sample(_LETTERS, 5)
            term = f"{church(k, f, x)} {church(2, g, y)}"
            if system in ("head", "weak-cbv"):
                # applied to two identities, the exponential reduces to one
                term += rf" (\{z}.{z}) (\{z}.{z})"
                expect = ("identity", 1)
            else:
                expect = ("church", 2 ** k)
            argv = ["reduce", term, "--system", system, "--output", "json",
                    "--fuel", "100000"]
            ops.append(Op(f"{system}:2^{k}", _cli_call(argv), expect, _check_reduce))
    return ops


# ---------------------------------------------------------------------------
# sweep-exhaustive

# One size below the sizes the theorems are usually swept at, so that one pass
# of all 30 sweeps takes a few seconds.
SWEEP_SIZES = {"pair": 7, "single": 8, "normalization": 8, "normalization-cbv": 10}
TINY_SWEEP_SIZES = {"pair": 3, "single": 4, "normalization": 4, "normalization-cbv": 5}
_NAME_POOLS = (("x", "y"), ("a", "b"), ("u", "v"), ("p", "q"))


def _check_property(op: Op, report) -> Outcome:
    if report.result != "PASS":
        return Outcome(False, report.checked_count, problem=f"{report.result}: {report.counterexample}")
    if report.checked_count != op.expect:
        return Outcome(False, report.checked_count,
                       problem=f"checked {report.checked_count} terms, expected {op.expect}")
    return Outcome(True, report.checked_count)


def _check_normalization(op: Op, report) -> Outcome:
    if report.result != "PASS":
        return Outcome(False, 0, problem=f"{report.result}: {report.counterexample}")
    if not 0 < report.checked_count <= op.expect:
        return Outcome(False, 0, problem=f"{report.checked_count} relevant terms out of {op.expect}")
    # every enumerated term was examined, relevant or not
    return Outcome(True, op.expect)


def sweep_exhaustive(rng: random.Random, tiny: bool = False) -> list[Op]:
    sizes = TINY_SWEEP_SIZES if tiny else SWEEP_SIZES
    plan = [(prop, system, sizes["pair"])
            for prop in ("split", "merge", "indexed-split") for system in SYSTEMS]
    plan += [(prop, system, sizes["single"])
             for prop in ("decomposition", "persistence") for system in SYSTEMS]
    plan += [(prop, system, sizes["single"]) for prop, system in (
        ("diamond", "ll"), ("diamond", "weak-cbv"), ("determinism", "lo"),
        ("fullness", "ll"), ("ll-monotone", "ll"), ("ll-invariant", "ll"))]
    ops = []
    for prop, system, size in plan:
        names = rng.choice(_NAME_POOLS)
        ops.append(Op(
            f"{prop}:{system}:{size}",
            lambda p=prop, s=system, n=size, fn=names: engine.check_property(
                p, s, size_bound=n, free_names=fn),
            reference.term_count(size, len(names)), _check_property))
    for system in SYSTEMS:
        closed = system == "weak-cbv"
        size = sizes["normalization-cbv" if closed else "normalization"]
        ops.append(Op(
            f"normalization:{system}:{size}",
            lambda s=system, n=size: engine.check_normalization(s, size_bound=n),
            reference.term_count(size, 0 if closed else 2), _check_normalization))
    return ops


# ---------------------------------------------------------------------------
# factorize-traces

# Start terms c_6 c_2 and c_4 c_3.  Each trace contracts, at every step, a
# redex of greatest depth, the seed choosing among equally deep ones.  It
# stops after TRACE_STEPS steps or before the step that would reach a base
# normal form (a trace ending in a normal form factorizes into a whole
# normalization, whose cost swamps every other trace).
FACTOR_STARTS = ((6, 2), (4, 3))
TINY_FACTOR_STARTS = ((2, 2),)
TRACE_STEPS = 24
TRACES_PER_START = 8
TINY_TRACES_PER_START = 1


def innermost_positions(rng: random.Random, start, system, steps: int) -> list:
    base = engine.get_system(system).base
    current, positions = start, []
    for _ in range(steps):
        candidates = redexes(current, base)
        deepest = max(map(len, candidates))
        pos = rng.choice([p for p in candidates if len(p) == deepest])
        following = step_at(current, pos, base)
        if not redexes(following, base):
            break
        positions.append(pos)
        current = following
    return positions


def _check_factorization(op: Op, result) -> Outcome:
    system, trace = op.info["system"], op.expect
    base = engine.get_system(system).base
    n = len(trace.steps)
    if not reference.same_term(result.essential.start, trace.start):
        return Outcome(False, n, problem="essential prefix does not start at the trace start")
    current = trace.start
    for part, kind in ((result.essential, "essential"), (result.inessential, "inessential")):
        if not reference.same_term(part.start, current):
            return Outcome(False, n, problem=f"{kind} part does not start where the last ended")
        for step, target in part.steps:
            replayed = step_at(current, step.position, base)
            if not reference.same_term(replayed, target):
                return Outcome(False, n, problem=f"{kind} step does not replay")
            if step.kind.value != kind:
                return Outcome(False, n, problem=f"{kind} part holds a {step.kind.value} step")
            if reference.is_essential(system, current, step.position) != (kind == "essential"):
                return Outcome(False, n, problem=f"{kind} step is misclassified")
            current = target
    if not reference.same_term(current, trace.steps[-1][1] if trace.steps else trace.start):
        return Outcome(False, n, problem="factorization does not end at the trace end")
    return Outcome(True, n)


def factorize_traces(rng: random.Random, tiny: bool = False) -> list[Op]:
    starts = TINY_FACTOR_STARTS if tiny else FACTOR_STARTS
    per_start = TINY_TRACES_PER_START if tiny else TRACES_PER_START
    ops = []
    for system in SYSTEMS:
        for k, base in starts:
            start = parse(f"{church(k, 'f', 'x')} {church(base, 'g', 'y')}")
            for _ in range(per_start):
                positions = innermost_positions(rng, start, system, TRACE_STEPS)
                trace = engine.trace_from_positions(start, positions, system)
                ops.append(Op(
                    f"{system}:c{k}c{base}:{len(positions)}",
                    lambda t=trace, s=system: engine.factorize(t, s),
                    trace, _check_factorization,
                    {"system": system, "length": len(positions)}))
    return ops


WORKLOADS = {
    "reduce-church": reduce_church,
    "sweep-exhaustive": sweep_exhaustive,
    "factorize-traces": factorize_traces,
}

# The name each workload gives its unit of work in the report.
WORK_UNITS = {
    "reduce-church": "steps_per_s",
    "sweep-exhaustive": "terms_per_s",
    "factorize-traces": "trace_steps_per_s",
}
