"""Spans at the boundaries between the package's modules.

`Tracer.install` replaces functions at the binding a calling module looks
them up through (for instance `reductions.instantiate`, the name `step_at`
calls), so a call crossing into another module opens a span while recursion
inside a module does not.  A few functions are called from their own module
(`engine.split` from `factorize`, `reductions.least_level` from
`level_indexed_steps`), so they are wrapped at their own binding as well.
`least_level` also calls itself through that binding; its wrapper opens no
span when the innermost open span already is a `least_level` span.

Each span records its name, start, end, parent span and op id.  Spans are
kept in flat arrays in memory and written out once, at the end of the run.
The CLI runs commands on a worker thread while the calling thread waits in
`join`, so one shared stack of open spans carries the parent link across
that hop.  Self time (a span's duration minus the time its children cover)
is summed per span name as spans close.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict

from essential_rewrite import cli, engine, graphs, parallel, reductions


def _count_list(key):
    def post(counts, result):
        counts[key] += len(result)
    return post


def _count_split(counts, result):
    counts["engine.split.steps"] += len(result[0].steps)


def _count_explore(counts, result):
    counts["graphs.explore.nodes"] += len(result.edges)
    counts["graphs.explore.truncated"] += int(result.truncated)


def _count_fired_normalize(counts, result):
    counts["steps_fired"] += len(result[0].steps)


def _count_fired_factorize(counts, result):
    counts["steps_fired"] += len(result.essential.steps) + len(result.inessential.steps)


def _count_chars(counts, result):
    counts["terms.show.chars"] += len(result)


# (span name, [(module, attribute), ...], options).  Options: "guard" for a
# function that calls itself through the wrapped binding, "gen" for a
# generator whose span covers each `next`, "post" to count something in the
# result.
BOUNDARIES = [
    ("terms.instantiate", [(reductions, "instantiate"), (parallel, "instantiate")], {}),
    ("terms.replace_at", [(reductions, "replace_at")], {}),
    ("terms.is_neutral", [(reductions, "is_neutral"), (parallel, "is_neutral"),
                          (engine, "is_neutral")], {}),
    ("terms.show", [(cli, "show"), (engine, "show"), (graphs, "show")],
     {"post": _count_chars}),
    ("terms.parse", [(cli, "parse")], {}),
    ("terms.alpha_eq", [(engine, "alpha_eq")], {}),
    ("reductions.essential_steps",
     [(engine, "head_steps"), (engine, "lo_steps"), (engine, "weak_cbv_steps"),
      (engine, "ll_steps")], {"post": _count_list("reductions.contractions")}),
    ("reductions.inessential_steps",
     [(engine, "neg_head_steps"), (engine, "neg_lo_steps"), (engine, "neg_weak_steps"),
      (engine, "neg_ll_steps")], {"post": _count_list("reductions.contractions")}),
    ("reductions.redexes",
     [(engine, "redexes"), (engine, "beta_redexes"), (engine, "betav_redexes"),
      (graphs, "redexes"), (cli, "redexes"), (parallel, "beta_redexes"),
      (parallel, "betav_redexes")], {}),
    ("reductions.step_at", [(engine, "step_at"), (graphs, "step_at"), (cli, "step_at")], {}),
    ("reductions.least_level", [(reductions, "least_level"), (parallel, "least_level"),
                                (engine, "least_level")], {"guard": True}),
    ("parallel.derive", [(engine, "derive")], {}),
    ("parallel.all_parallel_steps", [(engine, "all_parallel_steps")], {"gen": True}),
    ("parallel.is_parallel_inessential", [(engine, "is_parallel_inessential")], {}),
    ("parallel.selection_of", [(engine, "selection_of")], {}),
    ("parallel.realize", [(engine, "realize")], {}),
    ("parallel.sequential_index", [(engine, "sequential_index")], {}),
    ("engine.normalize", [(cli, "normalize"), (engine, "normalize")],
     {"post": _count_fired_normalize}),
    ("engine.split", [(engine, "split")], {"post": _count_split}),
    ("engine.merge", [(engine, "merge")], {}),
    ("engine.factorize", [(cli, "factorize"), (engine, "factorize")],
     {"post": _count_fired_factorize}),
    ("engine.check_property", [(engine, "check_property")], {}),
    ("engine.check_normalization", [(engine, "check_normalization")], {}),
    ("enumeration.enumerate_terms", [(engine, "enumerate_terms")], {"gen": True}),
    ("graphs.explore", [(engine, "explore")], {"post": _count_explore}),
    ("cli.main", [(cli, "main")], {}),
]

OP_SPAN = "bench.op"


class Tracer:
    """Open spans, the span log, and per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []  # [span id, name id, start, child seconds]
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_self_sum = 0.0
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> None:
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self.stack.append([span, name_id, start, 0.0])

    def _close(self) -> float:
        end = time.perf_counter()
        span, name_id, start, children = self.stack.pop()
        self.span_end[span] = end
        duration = end - start
        self.self_s[name_id] += duration - children
        self.op_self_sum += duration - children
        self.calls[name_id] += 1
        if self.stack:
            self.stack[-1][3] += duration
        return duration

    def run_op(self, op_id: int, call):
        """Run `call()` as op `op_id` under a root span.  Returns the result,
        the op's duration, and the sum of the self times of all its spans,
        or None if a span was left open."""
        self.op = op_id
        self.op_self_sum = 0.0
        self._open(0)
        try:
            result = call()
        finally:
            balanced = len(self.stack) == 1
            duration = self._close()
        return result, duration, self.op_self_sum if balanced else None

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for name, bindings, options in BOUNDARIES:
            name_id = len(self.names)
            self.names.append(name)
            for module, attr in bindings:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name_id, original, **options))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name_id, fn, guard=False, gen=False, post=None):
        tracer = self
        counts = self.counts

        if gen:
            yielded = self.names[name_id] + ".yielded"

            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    counts[yielded] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if guard and stack and stack[-1][1] == name_id:
                return fn(*args, **kwargs)
            tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if post is not None:
                post(counts, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls and self seconds per span name, plus the result counters."""
        out = {}
        for name_id, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[name_id]
            out[name + ".self_s"] = self.self_s[name_id]
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """The span log as gzip-compressed text, one span a line:
        id, op, parent, name, start, end (seconds, perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\top\tparent\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t"
                          f"{names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                          f"{self.span_end[i]!r}\n")
