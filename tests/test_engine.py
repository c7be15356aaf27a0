"""Split, merge, factorization, normalization and the report harness."""

import contextlib
import dataclasses
import json
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from essential_rewrite import (
    App,
    Base,
    EnumSpec,
    Free,
    Lam,
    Outcome,
    StepKind,
    SystemId,
    Var,
    alpha_eq,
    beta_redexes,
    betav_redexes,
    check_normalization,
    check_property,
    check_subst_index,
    derive,
    enumerate_terms,
    factorize,
    identity_derivation,
    is_normal,
    is_parallel_inessential,
    least_level,
    merge,
    normalize,
    random_term,
    selection_of,
    sequential_index,
    show,
    split,
    trace_from_positions,
)
from essential_rewrite import engine, reductions, terms
from essential_rewrite.engine import (
    NotComposableError,
    NotInessentialError,
    SYSTEMS,
    Trace,
    UnsupportedPropertyError,
    _essential_redex,
    _residual,
)
from essential_rewrite.enumeration import count_terms
from essential_rewrite.graphs import explore
from essential_rewrite.parallel import (
    Flavor,
    all_parallel_steps,
    base_of,
    contracts,
    parallel_level,
    realize,
    sequentialize,
    subst_parallel,
)
from essential_rewrite.reductions import Step, Walk, _ll_positions, reducts, redexes, step_at
from essential_rewrite.terms import (
    bound_positions,
    count_bound,
    count_occurrences,
    free_names,
    instantiate,
    is_closed,
    is_locally_closed,
    is_neutral,
    is_value,
    parse,
    replace_at,
    shift,
    show_spliced,
    show_steps,
    size,
    substitute,
    subterm_at,
)
from conftest import OMEGA, p, terms_up_to


HEAD, LO, WCBV, LL = (SystemId.HEAD, SystemId.LO, SystemId.WEAK_CBV,
                      SystemId.LEAST_LEVEL)


class TestSplit:
    def test_identity_splits_trivially(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        prefix, rest = split(identity_derivation(t, Flavor.CBN), HEAD)
        assert prefix.steps == [] and alpha_eq(rest.target, t)

    def test_split_rejects_wrong_flavor(self):
        from essential_rewrite.parallel import FlavorMismatchError
        t = p(r"(\z.z) y")
        with pytest.raises(FlavorMismatchError):
            split(identity_derivation(t, Flavor.CBN), WCBV)

    def test_head_example(self):
        # contracting both redexes of I(x(II)) splits into the head step to
        # x(II) followed by a parallel step that only touches the argument
        t = p(r"(\z.z) (x ((\z.z) (\z.z)))")
        d = derive(t, beta_redexes(t), Flavor.CBN)
        prefix, rest = split(d, HEAD)
        assert [show(u) for _, u in prefix.steps] == [r"x ((\z.z) (\z.z))"]
        assert selection_of(rest) == {("R",)}
        assert is_parallel_inessential(rest, HEAD)
        assert alpha_eq(rest.target, d.target)

    def test_weak_cbv_root_redex(self):
        # one weak step, then a residual built by substitution: the copied
        # argument work lands under the binder occurrences
        t = p(r"(\x.x x) (\w.(\z.z) (\z.z))")
        d = derive(t, [(), ("R", "B")], Flavor.CBV)
        prefix, rest = split(d, WCBV)
        assert len(prefix.steps) == 1
        assert alpha_eq(prefix.steps[0][1], p(r"(\w.(\z.z) (\z.z)) (\w.(\z.z) (\z.z))"))
        assert selection_of(rest) == {("L", "B"), ("R", "B")}
        assert sequential_index(rest) == sequential_index(d) - 1

    def test_all_systems_split_soundly(self, small_terms):
        for t in small_terms[::5]:
            for system_id in SystemId:
                system = SYSTEMS[system_id]
                for d in all_parallel_steps(t, system.flavor):
                    prefix, rest = split(d, system_id)
                    current = t
                    for s, u in prefix.steps:
                        assert system.classify(current, s.position) is StepKind.ESSENTIAL
                        current = u
                    assert alpha_eq(rest.source, current)
                    assert is_parallel_inessential(rest, system_id)
                    assert alpha_eq(rest.target, d.target)

    def test_index_decreases_by_exactly_one(self, small_terms):
        for t in small_terms[::5]:
            for system_id in SystemId:
                system = SYSTEMS[system_id]
                for d in all_parallel_steps(t, system.flavor):
                    current, index = d, sequential_index(d)
                    while True:
                        pos = _essential_redex(current, system_id)
                        if pos is None:
                            break
                        current = _residual(current, pos, system.flavor)
                        assert sequential_index(current) == index - 1
                        index -= 1

    def test_residual_agrees_with_oracle(self, small_terms):
        # every peeling round of every parallel step of every term up to size
        # 6, and of a sample of sizes 7 and 8, which have several redexes
        larger = [t for t in terms_up_to(8)[::10] if size(t) > 6]
        for t in small_terms + larger:
            for system in SYSTEMS.values():
                for d in all_parallel_steps(t, system.flavor):
                    before = d
                    for pos, after in engine._peel(d, system):
                        expected = oracle_residual(before, pos, system.flavor)
                        assert after.to_json() == expected.to_json(), show(t)
                        assert show(after.source) == show(expected.source)
                        assert show(after.target) == show(expected.target)
                        before = after


def oracle_residual(d, pos, flavor):
    """The residual of `d` after firing its redex at `pos`: the selection
    re-rooted by slicing every selected position against the redex's body and
    argument prefixes, and the reduct derived through the checking `derive`."""
    sel = selection_of(d)
    body_prefix = pos + ("L", "B")
    arg_prefix = pos + ("R",)
    nb, na = len(body_prefix), len(arg_prefix)
    new_sel = {q for q in sel if q[:len(pos)] != pos}
    body_sel = [q[nb:] for q in sel if q[:nb] == body_prefix]
    arg_sel = [q[na:] for q in sel if q[:na] == arg_prefix]
    occurrences = list(bound_positions(subterm_at(d.source, pos).fun.body))
    new_sel.update(pos + q for q in body_sel)
    new_sel.update(pos + o + r for o in occurrences for r in arg_sel)
    return derive(step_at(d.source, pos, base_of(flavor)), new_sel, flavor)


def _counting(row):
    """`row` with a `positions` that records the terms it is called on."""
    calls = []

    def positions(t):
        calls.append(t)
        return row.positions(t)
    return dataclasses.replace(row, positions=positions), calls


class TestSplitCost:
    """A peeling round reads its source's essential positions once and builds
    its residual without checking the selection again."""

    @pytest.fixture(scope="class")
    def terms(self):
        # terms of size 7 and 8 have several redexes
        return terms_up_to(8)[::20]

    @pytest.mark.parametrize("system_id", list(SystemId))
    def test_split_reads_positions_once_per_round(self, terms, system_id):
        row, calls = _counting(SYSTEMS[system_id])
        peeled = set()
        for t in terms:
            for d in all_parallel_steps(t, row.flavor):
                calls.clear()
                prefix, _ = split(d, row)
                assert len(calls) == len(prefix.steps) + 1, show(t)
                peeled.add(len(prefix.steps))
        assert {0, 1, 2} <= peeled

    @pytest.mark.parametrize("system_id", list(SystemId))
    def test_lift_reads_positions_once_per_step(self, terms, system_id):
        row, calls = _counting(SYSTEMS[system_id])
        kinds = set()
        for t in terms:
            for pos, u in reducts(t, row.base):
                for second in [[]] + [[q] for q, _ in reducts(u, row.base)]:
                    trace = trace_from_positions(t, [pos] + second, system_id)
                    calls.clear()
                    engine._lift(trace, row)
                    assert len(calls) == len(trace), show(t)
                    kinds.update(s.kind for s, _ in trace.steps)
        assert kinds == {StepKind.ESSENTIAL, StepKind.INESSENTIAL}

    def test_split_does_not_call_derive(self, terms, monkeypatch):
        def derive_called(*args):
            raise AssertionError("split called derive")
        monkeypatch.setattr(engine, "derive", derive_called)
        for t in terms:
            for system in SYSTEMS.values():
                for d in all_parallel_steps(t, system.flavor):
                    split(d, system)


class TestMerge:
    def test_identity_then_step_is_that_step(self):
        t = p(r"(\z.z) y")
        d = identity_derivation(t, Flavor.CBN)
        step, target = SYSTEMS[HEAD].essential_steps(t)[0]
        merged = merge(d, (step, target), HEAD)
        assert merged.index == 1 and alpha_eq(merged.target, target)

    def test_head_argument_then_root(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        d = derive(t, [("R",)], Flavor.CBN)
        assert is_parallel_inessential(d, HEAD)
        step, target = SYSTEMS[HEAD].essential_steps(d.target)[0]
        merged = merge(d, (step, target), HEAD)
        assert alpha_eq(merged.source, t) and alpha_eq(merged.target, target)
        assert selection_of(merged) == {(), ("R",)}

    def test_lo_persistence_case(self):
        # function side not neutral, inessential step on the right, essential
        # step inside the (unchanged) function side afterwards
        t = p(r"((\z.z) (\z.z)) ((\w.w) y)")
        d = derive(t, [("R",)], Flavor.CBN)
        assert is_parallel_inessential(d, LO)
        step, target = SYSTEMS[LO].essential_steps(d.target)[0]
        assert step.position == ("L",)
        merged = merge(d, (step, target), LO)
        assert alpha_eq(merged.target, target)

    def test_lo_merge_on_non_neutral_function_side(self):
        # with (II) y the only redex is the leftmost one, so the only
        # inessential parallel step is the identity and merge yields the step
        t = p(r"((\z.z) (\z.z)) y")
        d = identity_derivation(t, Flavor.CBN)
        assert is_parallel_inessential(d, LO)
        step, target = SYSTEMS[LO].essential_steps(t)[0]
        merged = merge(d, (step, target), LO)
        assert merged.index == 1 and alpha_eq(merged.target, p(r"(\z.z) y"))

    def test_rejects_essential_parallel_step(self):
        t = p(r"(\z.z) y")
        d = derive(t, [()], Flavor.CBN)
        with pytest.raises(NotInessentialError):
            merge(d, (Step((), StepKind.ESSENTIAL), p("y")), HEAD)

    def test_rejects_noncomposable_step(self):
        t = p(r"x ((\z.z) y)")
        d = derive(t, [("R",)], Flavor.CBN)
        with pytest.raises(NotComposableError):
            merge(d, (Step((), StepKind.ESSENTIAL), p("x y")), HEAD)

    def test_rejects_wrong_reduct_at_essential_position(self):
        # the root is d's target's head redex, but it reduces to y, not x
        t = p(r"(\z.z) ((\z.z) y)")
        d = derive(t, [("R",)], Flavor.CBN)
        with pytest.raises(NotComposableError, match="misses the essential target"):
            merge(d, (Step((), StepKind.ESSENTIAL), p("x")), HEAD)

    def test_merge_everywhere(self, small_terms):
        for t in small_terms[::5]:
            for system_id in SystemId:
                system = SYSTEMS[system_id]
                for d in all_parallel_steps(t, system.flavor):
                    if not is_parallel_inessential(d, system_id):
                        continue
                    for s, u in system.essential_steps(d.target):
                        merged = merge(d, (s, u), system_id)
                        assert alpha_eq(merged.source, t)
                        assert alpha_eq(merged.target, u)


class TestMacroInclusions:
    def test_single_inessential_steps_lift(self, small_terms):
        # a one-redex parallel step over an inessential position is itself
        # an inessential parallel step
        for t in small_terms[::5]:
            for system_id in SystemId:
                system = SYSTEMS[system_id]
                for s, _ in system.inessential_steps(t):
                    d = derive(t, [s.position], system.flavor)
                    assert is_parallel_inessential(d, system_id)

    def test_inessential_parallel_steps_expand(self, small_terms):
        # replaying an inessential parallel step innermost-first yields only
        # inessential single steps
        from essential_rewrite import realize, step_at
        for t in small_terms[::5]:
            for system_id in SystemId:
                system = SYSTEMS[system_id]
                for d in all_parallel_steps(t, system.flavor):
                    if not is_parallel_inessential(d, system_id):
                        continue
                    current = t
                    for pos in realize(d):
                        assert system.classify(current, pos) is StepKind.INESSENTIAL
                        current = step_at(current, pos, system.base)
                    assert alpha_eq(current, d.target)


class TestFactorize:
    def test_all_essential_input_unchanged(self):
        t = p(r"(\x.\y.x) a b")
        trace = trace_from_positions(t, [("L",), ()], LO)
        f = factorize(trace, LO)
        assert [u for _, u in f.essential.steps] == [u for _, u in trace.steps]
        assert f.inessential.steps == []

    def test_head_regression(self):
        # inessential-then-essential swaps into essential-then-inessential
        t = p(r"(\z.z) (x ((\z.z) (\z.z)))")
        trace = trace_from_positions(t, [("R", "R"), ()], HEAD)
        f = factorize(trace, HEAD)
        assert [( ".".join(s.position) or "root", show(u)) for s, u in f.essential.steps] == \
            [("root", r"x ((\z.z) (\z.z))")]
        assert [( ".".join(s.position) or "root", show(u)) for s, u in f.inessential.steps] == \
            [("R", r"x (\z.z)")]
        f.validate()

    def test_empty_trace(self):
        t = p("x y")
        f = factorize(Trace(t, []), LL)
        assert f.essential.steps == [] and f.inessential.steps == []

    def test_factorize_randomish_sequences(self, small_terms):
        # every short base sequence factorizes with matching endpoints
        for t in small_terms[2::37]:
            for system_id in SystemId:
                system = SYSTEMS[system_id]
                stack = [(t, [])]
                sequences = []
                while stack:
                    term, steps = stack.pop()
                    if steps:
                        sequences.append((steps))
                    if len(steps) == 3:
                        continue
                    for q, u in reducts(term, system.base):
                        stack.append((u, steps + [(term, system.make_step(term, q), u)]))
                for seq in sequences[:40]:
                    trace = Trace(t, [(s, u) for _, s, u in seq])
                    f = factorize(trace, system_id)
                    assert alpha_eq(f.essential.start, t)
                    assert alpha_eq(f.inessential.end, trace.end)
                    f.validate()


class TestNormalize:
    def test_head_stops_at_head_normal_form(self):
        t = p(r"(\z.z) (x ((\z.z) (\z.z)))")
        trace, outcome = normalize(t, HEAD)
        assert outcome is Outcome.ESSENTIAL_NORMAL
        assert alpha_eq(trace.end, p(r"x ((\z.z) (\z.z))"))
        assert len(trace.steps) == 1

    def test_divergence_exhausts_fuel(self):
        trace, outcome = normalize(p(OMEGA), LO, fuel=50)
        assert outcome is Outcome.FUEL_EXHAUSTED
        assert len(trace.steps) == 50

    def test_lo_reaches_beta_normal_form(self):
        t = p(r"x ((\z.z) y) ((\w.w) (\w.w))")
        trace, outcome = normalize(t, LO)
        assert outcome is Outcome.NORMAL_FORM
        assert is_normal(trace.end)
        assert alpha_eq(trace.end, p(r"x y (\w.w)"))

    def test_weak_cbv_stops_at_value(self):
        t = p(r"(\x.\y.x) (\z.z) (\w.w)")
        trace, outcome = normalize(t, WCBV)
        assert outcome is Outcome.NORMAL_FORM
        assert alpha_eq(trace.end, p(r"\z.z"))

    def test_head_sequence_endpoint_differs_from_beta_endpoint(self):
        # the base sequence may reach a term head reduction never visits
        t = p(r"(\z.z) (x ((\z.z) (\z.z)))")
        trace, _ = normalize(t, HEAD)
        beta_end = p(r"x (\z.z)")
        assert not alpha_eq(trace.end, beta_end)
        seq = trace_from_positions(t, [("R", "R"), ()], HEAD)
        assert alpha_eq(seq.end, beta_end)


def oracle_normalize(t, system_id, fuel):
    """The strategy loop `normalize` must reproduce: build every essential
    step and fire the first."""
    system = SYSTEMS[system_id]
    steps, current = [], t
    for _ in range(fuel):
        available = system.essential_steps(current)
        if not available:
            break
        steps.append(available[0])
        current = available[0][1]
    if system.essential_steps(current):
        return steps, Outcome.FUEL_EXHAUSTED
    if system.base_normal(current):
        return steps, Outcome.NORMAL_FORM
    return steps, Outcome.ESSENTIAL_NORMAL


def _church(k: int) -> str:
    return r"(\f.\x." + "f (" * k + "x" + ")" * k + ")"


class TestNormalizeOracle:
    @staticmethod
    def assert_agrees(t, system_id, fuel):
        trace, outcome = normalize(t, system_id, fuel=fuel)
        steps, expected = oracle_normalize(t, system_id, fuel)
        assert outcome is expected
        assert [(s, u, show(u)) for s, u in trace.steps] == \
            [(s, u, show(u)) for s, u in steps]

    @pytest.mark.parametrize("system_id", list(SystemId))
    def test_every_small_term(self, system_id):
        for t in terms_up_to(7):
            for fuel in (1, 2, 50):
                self.assert_agrees(t, system_id, fuel)

    @pytest.mark.parametrize("system_id", list(SystemId))
    @pytest.mark.parametrize("k", range(5))
    def test_church_exponentials(self, system_id, k):
        self.assert_agrees(p(f"{_church(k)} {_church(2)}"), system_id, 1000)


class TestWalk:
    """A walk is the fast path of its row's positions: it must find their
    least one, and resuming after a step must reproduce the full loop."""

    @pytest.fixture(scope="class")
    def terms8(self):
        return terms_up_to(8)

    @pytest.mark.parametrize("system_id", list(SystemId))
    def test_first_is_least_essential_position(self, terms8, system_id):
        system = SYSTEMS[system_id]
        for t in terms8:
            positions = system.positions(t)
            assert system.walk.first(t) == (min(positions) if positions else None), show(t)

    @pytest.mark.parametrize("base", list(Base))
    def test_base_walk_finds_first_redex(self, terms8, base):
        for t in terms8:
            found = redexes(t, base)
            assert Walk(base).first(t) == (found[0] if found else None), show(t)

    @pytest.mark.parametrize("text, second", [
        (r"y (z ((\a.a) c)) ((\b.b) d)", "L.R.R"),
        (r"y (z (w ((\a.a) c))) (v ((\b.b) d))", "L.R.R.R"),
    ])
    def test_least_level_grows_past_an_earlier_redex(self, text, second):
        # the only redex of least level fires, and the first redex of the
        # next least level lies before its reduct in preorder
        trace, _ = normalize(p(text), LL)
        assert [".".join(s.position) for s, _ in trace.steps][1:] == [second]
        TestNormalizeOracle.assert_agrees(p(text), LL, 10)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 30), size=st.integers(1, 30),
           fuel=st.integers(1, 30), system_id=st.sampled_from(list(SystemId)))
    def test_random_runs_match_oracle(self, seed, size, fuel, system_id):
        t = random_term(seed, size, EnumSpec(max_size=size))
        TestNormalizeOracle.assert_agrees(t, system_id, fuel)


# the six walks `reduce` runs, each with the row whose positions it follows
# (None for plain beta and beta-value reduction)
_REDUCE_RUNS = [(row.walk, row) for row in SYSTEMS.values()] + [(Walk(b), None) for b in Base]


def oracle_run(t, walk, row, fuel):
    """The run a walk's step stream must reproduce, on whole terms: fire the
    least position the row lists, or the first redex in preorder.  Returns
    each step's position and term, the last term and whether a redex is
    left."""
    steps = []
    for _ in range(fuel + 1):
        positions = row.positions(t) if row else redexes(t, walk.base)
        if not positions or len(steps) == fuel:
            return steps, t, bool(positions)
        pos = min(positions)
        t = step_at(t, pos, walk.base)
        steps.append((pos, t))


class TestStepStream:
    """`Walk.steps` fires the steps of its row on a zipper with stale
    parents, and must agree with the oracle run on whole terms."""

    @staticmethod
    def assert_agrees(t, walk, row, fuel):
        stream = walk.steps(t, fuel)
        got = list(stream)
        want, end, exhausted = oracle_run(t, walk, row, fuel)
        assert [pos for pos, _ in got] == [pos for pos, _ in want], show(t)
        assert all(reduct == subterm_at(u, pos) for (pos, reduct), (_, u) in zip(got, want))
        assert stream.root() == end and stream.exhausted is exhausted
        return stream

    @pytest.mark.parametrize("pool", [("x", "y"), ("x",), ()])
    def test_every_small_term(self, pool):
        for t in enumerate_terms(EnumSpec(max_size=7, free_names=pool)):
            for walk, row in _REDUCE_RUNS:
                self.assert_agrees(t, walk, row, 20)

    @pytest.mark.parametrize("text", [
        # the least level grows, and its first redex lies before the reduct
        r"y (z ((\a.a) c)) ((\b.b) d)",
        # ... behind a redex of a level greater still
        r"x (y (z ((\a.a) c))) (w ((\b.b) d)) ((\e.e) f)",
    ])
    def test_least_level_grows_past_the_reduct(self, text):
        for walk, row in _REDUCE_RUNS:
            self.assert_agrees(p(text), walk, row, 20)

    @pytest.mark.parametrize("k", range(7))
    def test_church_exponentials_to_normal_form(self, k):
        t = p(f"{_church(k)} {_church(2)}")
        for walk, row in _REDUCE_RUNS:
            assert not self.assert_agrees(t, walk, row, 10_000).exhausted


class TestStreamCost:
    """A run rebuilds a stale parent only when its walk climbs out of it,
    not every ancestor at every step."""

    @pytest.fixture
    def rebuilds(self, monkeypatch):
        """Counts the parents rebuilt: by the walk as it climbs (`plug`) and
        by whole-term rebuilds (`rebuild`, as in `root()`)."""
        count = [0]
        plug, rebuild = reductions.plug, reductions.rebuild

        def counting_plug(parent, tag, child):
            count[0] += 1
            return plug(parent, tag, child)

        def counting_rebuild(node, path, depth=None):
            count[0] += len(path) if depth is None else depth
            return rebuild(node, path, depth)

        monkeypatch.setattr(reductions, "plug", counting_plug)
        monkeypatch.setattr(reductions, "rebuild", counting_rebuild)
        return count

    @staticmethod
    def fire(system_id, k, extra=""):
        stream = SYSTEMS[system_id].walk.steps(p(f"{_church(k)} {_church(2)}{extra}"), 100_000)
        fired = sum(1 for _ in stream)
        stream.root()
        assert not stream.exhausted
        return fired

    def test_lo_rebuilds_at_most_a_parent_per_step(self, rebuilds):
        # rebuilding every ancestor at every step took 64,503
        fired = self.fire(LO, 8)
        assert fired == 510 and rebuilds[0] <= fired

    @pytest.mark.parametrize("system_id, ladder", [(HEAD, range(3, 10)), (WCBV, range(3, 8))])
    def test_head_and_weak_cbv_rebuild_nothing(self, rebuilds, system_id, ladder):
        # applied to two identities, the exponential reduces to one
        for k in ladder:
            self.fire(system_id, k, r" (\z.z) (\z.z)")
        assert rebuilds[0] == 0


class TestSpliceCost:
    """`show_spliced` renders the first term and each step's reduct, and
    nothing else: the siblings it passes are measured, not rendered."""

    @pytest.mark.parametrize("system_id", [HEAD, LO, LL, WCBV])
    def test_one_render_per_step(self, monkeypatch, system_id):
        calls = [0]
        emitter = terms._emitter

        def counting_emitter(*args):
            calls[0] += 1
            return emitter(*args)

        monkeypatch.setattr(terms, "_emitter", counting_emitter)
        # c6 c2 takes one weak CbV step; applied to two identities, as in the
        # reduce-church ladders, it takes 135
        tail = r" (\z.z) (\z.z)" if system_id is WCBV else ""
        t = p(f"{_church(6)} {_church(2)}{tail}")
        stream = SYSTEMS[system_id].walk.steps(t, 100_000)
        texts = list(show_spliced(t, stream, stream.root))
        assert not stream.exhausted and len(texts) > 1
        # a closed term never renders whole after its first text
        assert calls[0] == len(texts)


# (\y.y) z, at the bottom of a tower of binders or of a right spine x (x (...))
DEEP = 20_000
_CORE = App(Lam(Var(0), "y"), Free("z"))


def _deep_under_binders(core=_CORE, depth=DEEP):
    # each binder its own hint: under one hint the text would name them w,
    # w', w'', ... and run to 200 million characters
    t = core
    for i in range(depth):
        t = Lam(t, f"w{i}")
    return t


def _deep_right_spine(core=_CORE, depth=DEEP):
    t = core
    for _ in range(depth):
        t = App(Free("x"), t)
    return t


@contextlib.contextmanager
def _recursion_limit(limit):
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old_limit)


def _depth() -> int:
    """The recursion depth of the caller as the interpreter counts it: the
    least limit it accepts, as it rejects a limit at or below the depth."""
    limit = sys.getrecursionlimit()
    for n in range(1, limit):
        try:
            sys.setrecursionlimit(n)
        except RecursionError:
            continue
        sys.setrecursionlimit(limit)
        return n
    raise AssertionError("no limit below the current one is accepted")


def _json_depth(tree) -> int:
    """How deep `ParDerivation.to_json` nests; json.dumps would recurse."""
    deepest, pending = 0, [(tree, 1)]
    while pending:
        node, depth = pending.pop()
        deepest = max(deepest, depth)
        pending += ((child, depth + 1) for child in node["children"])
    return deepest


class TestDeepTerms:
    """No function recurses on the depth of a term, a derivation or a size."""

    @pytest.mark.parametrize("build, system_id, steps, outcome", [
        (_deep_under_binders, HEAD, 1, Outcome.NORMAL_FORM),
        (_deep_under_binders, WCBV, 0, Outcome.ESSENTIAL_NORMAL),
        (_deep_under_binders, LO, 1, Outcome.NORMAL_FORM),
        (_deep_under_binders, LL, 1, Outcome.NORMAL_FORM),
        (_deep_right_spine, HEAD, 0, Outcome.ESSENTIAL_NORMAL),
        (_deep_right_spine, WCBV, 1, Outcome.NORMAL_FORM),
        (_deep_right_spine, LO, 1, Outcome.NORMAL_FORM),
        (_deep_right_spine, LL, 1, Outcome.NORMAL_FORM),
    ])
    def test_normalize_at_default_recursion_limit(self, build, system_id, steps, outcome):
        t = build()
        with _recursion_limit(1000):  # CPython's default
            trace, got = normalize(t, system_id, fuel=10)
        assert len(trace.steps) == steps and got is outcome
        if steps:
            assert len(trace.steps[0][0].position) == DEEP
            assert trace.end == build(Free("z"))

    @pytest.mark.parametrize("build", [_deep_under_binders, _deep_right_spine])
    def test_redex_lists_at_default_recursion_limit(self, build):
        t = build()
        with _recursion_limit(1000):
            lists = [redexes(t, Base.BETA), redexes(t, Base.BETAV),
                     beta_redexes(t), betav_redexes(t)]
            found = list(reducts(t, Base.BETA))
            weak = SYSTEMS[WCBV].positions(t)
            spine = [SYSTEMS[s].positions(t) for s in (HEAD, LO)]
            inessential = [SYSTEMS[s].neg_positions(t) for s in (HEAD, WCBV, LO)]
            least = least_level(t)
            leveled = [SYSTEMS[LL].positions(t), SYSTEMS[LL].neg_positions(t)]
            # (\y.y) z contracts to z in place
            [(reduct_pos, reduct)] = found
            assert reduct == build(Free("z"))
        (pos,) = lists[0]
        assert len(pos) == DEEP and lists == [[pos]] * 4
        assert reduct_pos == pos
        # weak CbV never enters an abstraction, and head reduction no argument
        assert weak == ([] if build is _deep_under_binders else [pos])
        assert spine == ([[pos], [pos]] if build is _deep_under_binders else [[], [pos]])
        # under binders only weak CbV counts the redex inessential; in
        # arguments of the neutral x only head does
        if build is _deep_under_binders:
            assert inessential == [[], [pos], []]
        else:
            assert inessential == [[pos], [], []]
        # the one redex is the least-level one, at the level of its argument sides
        assert least == pos.count("R") and leveled == [[pos], []]

    @pytest.mark.parametrize("build", [_deep_under_binders, _deep_right_spine])
    def test_step_streams_at_default_recursion_limit(self, build):
        t = build()
        reduct = build(Free("z"))
        with _recursion_limit(1000):
            runs = []
            for walk, _ in _REDUCE_RUNS:
                stream = walk.steps(t, 10)
                runs.append(([pos for pos, _ in stream], stream.root(), stream.exhausted))
            (pos,) = redexes(t, Base.BETA)
            for (walk, row), (positions, root, exhausted) in zip(_REDUCE_RUNS, runs):
                fires = row.positions(t) if row else [pos]
                assert positions == fires and not exhausted
                assert root is t if not fires else root == reduct

    @pytest.mark.parametrize("build", [_deep_under_binders, _deep_right_spine])
    def test_position_addressed_steps_at_default_recursion_limit(self, build):
        t = build()
        (pos,) = redexes(t, Base.BETA)
        reduct = build(Free("z"))
        with _recursion_limit(1000):
            redex = subterm_at(t, pos)
            replaced = replace_at(t, pos, Free("z"))
            stepped = step_at(t, pos)
            traces = [trace_from_positions(t, [pos], s) for s in SystemId]
            assert replaced == stepped == reduct
            assert [(len(tr), tr.steps[0][0].position, tr.end) for tr in traces] == \
                [(1, pos, reduct)] * len(SystemId)
        assert redex == App(Lam(Var(0)), Free("z"))
        # the step is inessential where the row's neg_positions list it
        inessential = {_deep_under_binders: WCBV, _deep_right_spine: HEAD}[build]
        assert [tr.steps[0][0].kind for tr in traces] == [
            StepKind.INESSENTIAL if s is inessential else StepKind.ESSENTIAL for s in SystemId]

    def test_closed_argument_at_default_recursion_limit(self):
        # (\x.\y.x) D, with D = \z.z z ... z closed and DEEP applications
        # deep: the contraction holds D under \y as it is
        spine = Var(0)
        for _ in range(DEEP):
            spine = App(spine, Var(0))
        d = Lam(spine, "z")
        t = App(Lam(Lam(Var(1), "y"), "x"), d)
        with _recursion_limit(1000):
            contracted = instantiate(t.fun.body, t.arg)
            trace, outcome = normalize(t, HEAD, fuel=10)
            closed = [is_locally_closed(d), is_locally_closed(spine),
                      is_locally_closed(spine, 1)]
        assert type(contracted) is Lam and contracted.body is d
        assert len(trace.steps) == 1 and trace.end.body is d
        assert outcome is Outcome.NORMAL_FORM
        assert closed == [True, False, True]

    def test_spliced_text_measures_deep_siblings(self):
        # x x ... x, a left spine DEEP applications deep, beside a redex and
        # as the argument a redex copies: the step's text measures it
        spine = Free("x")
        for _ in range(DEEP):
            spine = App(spine, Free("x"))
        copy = Lam(App(Var(0), Var(0)), "v")
        for t, pos, reduct in [(App(spine, _CORE), ("R",), App(spine, Free("z"))),
                               (App(copy, spine), (), App(spine, spine))]:
            with _recursion_limit(1000):
                texts = list(show_steps(t, [(pos, reduct)]))
            assert texts == [show(t), show(reduct)]

    @pytest.mark.parametrize("build", [_deep_under_binders, _deep_right_spine])
    def test_term_functions_at_default_recursion_limit(self, build):
        under_binders = build is _deep_under_binders
        t, reduct = build(), build(Free("z"))
        (pos,) = redexes(t, Base.BETA)
        # the same shape with the redex's argument the one index that
        # dangles out of `body`, one binder below the outermost
        open_core = App(Lam(Var(0), "y"), Var(DEEP - 1 if under_binders else 0))
        body = build(open_core).body if under_binders else build(open_core)
        rest = DEEP - 1 if under_binders else DEEP

        def shape(core):
            return build(core, rest)

        with _recursion_limit(1000):
            assert t == build() and t != reduct and alpha_eq(t, build())
            assert size(t) == (DEEP if under_binders else 2 * DEEP) + 4
            assert free_names(t) == ({"z"} if under_binders else {"x", "z"})
            assert is_locally_closed(t) and not is_closed(t)
            assert [is_value(t), is_neutral(t), is_normal(t)] == [under_binders, False, False]
            assert is_normal(reduct) and is_neutral(reduct) is not under_binders
            assert substitute(t, "z", Free("q")) == build(App(Lam(Var(0)), Free("q")))
            assert substitute(t, "q", Free("z")) is t
            assert count_occurrences(t, "z") == 1
            assert count_bound(body) == 1 and count_bound(t) == 0
            (occurrence,) = bound_positions(body)
            assert occurrence == pos[1 if under_binders else 0:] + ("R",)
            assert shift(body, 2) == shape(App(Lam(Var(0)), Var(open_core.arg.index + 2)))
            assert shift(t, 2) is t
            assert instantiate(body, Free("q")) == shape(App(Lam(Var(0)), Free("q")))
            text = show(t)
            assert parse(text) == t and show(parse(text)) == text
            assert list(show_steps(t, [(pos, reduct)])) == [text, show(reduct)]
        assert text.endswith("((\\y.y) z)" + ")" * (DEEP - 1)) is not under_binders

    @pytest.mark.parametrize("build", [_deep_under_binders, _deep_right_spine])
    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_derivations_at_default_recursion_limit(self, build, flavor):
        t, reduct = build(), build(Free("z"))
        (pos,) = redexes(t, Base.BETA)
        with _recursion_limit(1000):
            d = derive(t, [pos], flavor)
            identity = identity_derivation(t, flavor)
            steps = list(all_parallel_steps(t, flavor))
            assert [s.target for s in steps] == [t, reduct]
            assert d.target == reduct and identity.target is t
            assert selection_of(d) == {pos} and contracts(d, pos)
            assert realize(d) == [pos] and realize(identity) == []
            if flavor is Flavor.LEVELED:
                assert parallel_level(d) == pos.count("R")
            else:
                assert sequential_index(d) == 1 and sequential_index(identity) == 0
                assert sequentialize(d) == [pos]
                grafted = subst_parallel(d, "z", identity_derivation(Free("q"), flavor), flavor)
                assert grafted.source == substitute(t, "z", Free("q"))
                assert grafted.target == build(Free("q"))
            tree = d.to_json()
        assert _json_depth(tree) == len(pos) + 2

    @pytest.mark.parametrize("build", [_deep_under_binders, _deep_right_spine])
    def test_engine_at_default_recursion_limit(self, build):
        t, reduct = build(), build(Free("z"))
        (pos,) = redexes(t, Base.BETA)
        lo, head = SYSTEMS[LO], SYSTEMS[HEAD]
        with _recursion_limit(1000):
            for row in SYSTEMS.values():
                steps = row.essential_steps(t) + row.inessential_steps(t)
                assert [u for _, u in steps] == [reduct]
                assert row.make_step(t, pos).kind is row.classify(t, pos)
                assert not row.base_normal(t) and row.outcome(reduct, False) is Outcome.NORMAL_FORM
            # leftmost-outermost reduction contracts the redex on both
            # shapes: split peels it off, and merge puts it back
            prefix, rest = split(derive(t, [pos], lo.flavor), lo)
            merged = merge(identity_derivation(t, lo.flavor), lo.essential_steps(t)[0], lo)
            assert prefix.end == merged.target == reduct
            assert rest.source is rest.target and is_parallel_inessential(rest, lo)
            # head reduction counts the redex in the spine's argument
            # inessential: factorizing moves its derivation along
            facts = [factorize(trace_from_positions(t, [pos], row), row) for row in (lo, head)]
            payload = [fact.to_json() for fact in facts]
            graph = explore(t)
            assert list(graph.edges) == [t, reduct] and not graph.truncated
            graph_json = graph.to_json()
        assert [len(fact.essential.steps) for fact in facts] == [
            1, int(build is _deep_under_binders)]
        if build is _deep_right_spine:
            assert payload[1]["inessential"]["steps"][0]["position"] == ".".join(pos)
        text = payload[0]["essential"]["start"]
        assert graph_json["nodes"][text][0]["to"] == payload[0]["essential"]["steps"][0]["term"]


    def test_factorize_a_long_head_trace_at_default_recursion_limit(self):
        # the head trace of c_10 c_2 contracting a deepest redex each step
        # (ties broken by a seeded choice), stopped before a normal form:
        # its terms are some 500 nodes deep
        church = [r"(\f.\x." + "f (" * (k - 1) + "f x" + ")" * (k - 1) + ")" for k in (10, 2)]
        current = start = p(" ".join(church))
        rng, positions = random.Random(1), []
        while True:
            candidates = redexes(current, Base.BETA)
            deepest = max(map(len, candidates))
            pos = rng.choice([q for q in candidates if len(q) == deepest])
            following = step_at(current, pos)
            if not redexes(following, Base.BETA):
                break
            positions.append(pos)
            current = following
        trace = trace_from_positions(start, positions, HEAD)
        with _recursion_limit(1000):
            fact = factorize(trace, HEAD)
        assert len(positions) == 28
        assert [len(fact.essential.steps), len(fact.inessential.steps)] == [3, 72]
        assert fact.inessential.end == trace.end

    def test_enumeration_needs_no_frame_per_size(self):
        # a frame per size, or per level of a drawn term, would need more
        # than the frames left here
        spec = EnumSpec(max_size=10, closed_only=True)
        t = random_term(0, 200, EnumSpec(max_size=200, closed_only=True))
        with _recursion_limit(_depth() + 12):
            counts = count_terms(spec)
            drawn = random_term(0, 200, EnumSpec(max_size=200, closed_only=True))
        assert sum(counts.values()) == 10180
        assert drawn == t and _term_depth(t) == 31


def _term_depth(t) -> int:
    deepest, pending = 0, [(t, 1)]
    while pending:
        u, depth = pending.pop()
        deepest = max(deepest, depth)
        if type(u) is Lam:
            pending.append((u.body, depth + 1))
        elif type(u) is App:
            pending += [(u.fun, depth + 1), (u.arg, depth + 1)]
    return deepest


def _no_positions(t):
    return []


def _verdict_by_text(t):
    """A sweep check that passes x, skips y and cuts z off, and fails the rest."""
    return {"x": None, "y": False, "z": engine._Inconclusive("cut off")}.get(show(t), "broken")


class TestCheckProperty:
    @pytest.mark.parametrize("prop, system", [
        ("determinism", HEAD), ("determinism", LO),
        ("diamond", WCBV), ("diamond", LL),
        ("persistence", HEAD), ("persistence", WCBV),
        ("persistence", LO), ("persistence", LL),
        ("fullness", LO), ("fullness", LL),
        ("decomposition", HEAD), ("decomposition", WCBV),
        ("decomposition", LO), ("decomposition", LL),
        ("ll-monotone", LL), ("ll-invariant", LL),
    ])
    def test_passes_at_small_size(self, prop, system):
        report = check_property(prop, system, size_bound=6)
        assert report.result == "PASS", report.counterexample
        assert report.checked_count == 324 + 87 + 26 + 8 + 3 + 2

    @pytest.mark.parametrize("prop", ["merge", "split", "indexed-split"])
    @pytest.mark.parametrize("system", list(SystemId))
    def test_macro_properties_pass(self, prop, system):
        report = check_property(prop, system, size_bound=6)
        assert report.result == "PASS", report.counterexample

    def test_unknown_property_rejected(self):
        with pytest.raises(UnsupportedPropertyError):
            check_property("confluence", HEAD)

    def test_unclaimed_pairing_rejected(self):
        with pytest.raises(UnsupportedPropertyError):
            check_property("determinism", WCBV)

    def test_report_serializes(self):
        report = check_property("determinism", HEAD, size_bound=4)
        data = json.loads(json.dumps(report.to_json()))
        assert data == {"property": "determinism", "system": "head", "size_bound": 4,
                        "checked_count": 39, "result": "PASS"}

    @pytest.mark.parametrize("system_id", list(SystemId))
    @pytest.mark.parametrize("breakage", ["drop", "essential", "non-redex"])
    def test_broken_decomposition_fails(self, system_id, breakage):
        row = SYSTEMS[system_id]

        def broken(t):
            positions = sorted(set(row.neg_positions(t)))
            if breakage == "drop":
                return positions[1:]
            if breakage == "essential":
                return positions + list(row.positions(t))[:1]
            return positions + ([] if () in redexes(t, row.base) else [()])

        system = dataclasses.replace(row, neg_positions=broken)
        # size 7 is the least size with an inessential lo or ll redex, as in
        # (\z.z) ((\z.z) y); nothing can be dropped from smaller terms
        report = check_property("decomposition", system, size_bound=7)
        assert report.result == "FAIL"
        assert "do not partition" in report.counterexample

    def test_ll_invariant_sweeps_the_row_given(self):
        # a least-level row listing its essential redexes as inessential
        # breaks the invariant at (\x.x) x -> x
        system = dataclasses.replace(SYSTEMS[LL], neg_positions=_ll_positions)
        report = check_property("ll-invariant", system, size_bound=7)
        assert report.result == "FAIL"
        assert "changed the least level" in report.counterexample

    def test_parallel_workers_agree(self):
        solo = check_property("persistence", LO, size_bound=5)
        multi = check_property("persistence", LO, size_bound=5, workers=2)
        assert (solo.result, solo.checked_count) == (multi.result, multi.checked_count)

    def test_parallel_workers_sweep_the_row_given(self):
        # a head row without essential redexes breaks decomposition; the
        # workers must sweep that row, not the stock head row
        system = dataclasses.replace(SYSTEMS[HEAD], positions=_no_positions)
        solo = check_property("decomposition", system, size_bound=5)
        multi = check_property("decomposition", system, size_bound=5, workers=2)
        assert (solo.result, solo.checked_count) == ("FAIL", 34)
        assert multi.to_json() == solo.to_json()

    def test_parallel_workers_reject_a_row_they_cannot_receive(self):
        system = dataclasses.replace(SYSTEMS[HEAD], positions=lambda t: [])
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            check_property("decomposition", system, size_bound=5, workers=2)

    # no term has size 1 without free names, so the sweep examines nothing
    def test_nothing_checked_is_inconclusive(self):
        solo = check_property("persistence", LO, size_bound=1, free_names=())
        multi = check_property("persistence", LO, size_bound=1, free_names=(), workers=2)
        assert (solo.result, solo.checked_count) == ("INCONCLUSIVE", 0)
        assert multi.to_json() == solo.to_json()

    def test_repeated_free_name_rejected(self):
        assert check_property("persistence", LO, size_bound=2, free_names=("x",)).checked_count == 3
        with pytest.raises(ValueError, match="'x'"):
            check_property("persistence", LO, size_bound=2, free_names=("x", "x"))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be positive"):
            check_property("persistence", LO, size_bound=2, workers=workers)

    # the pool forks all its processes at once, so it starts no more than
    # there are CPUs; a serial stand-in records how many it was asked for
    @pytest.mark.parametrize("cpus, workers, started", [(3, 5000, 3), (None, 8, 1), (4, 2, 2)],
                             ids=["capped", "cpu-count-unknown", "below-cpus"])
    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch, cpus, workers, started):
        import concurrent.futures
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        report = check_property("persistence", LO, size_bound=5, workers=workers)
        assert sizes == [started]
        assert report.to_json() == check_property("persistence", LO, size_bound=5).to_json()

    # one loop reads every verdict, whether the checks ran here or in workers
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("texts, result, checked, reason", [
        (["x", "y", "z", "x", "z"], "INCONCLUSIVE", 2, "z: cut off (2 terms inconclusive)"),
        (["y", "y"], "INCONCLUSIVE", 0, "no term satisfied the theorem's hypothesis"),
        (["y", "x", "w", "z"], "FAIL", 2, "broken"),
        (["y", "x"], "PASS", 1, None),
    ], ids=["inconclusive", "none-relevant", "fail", "pass"])
    def test_sweep_reads_every_verdict(self, monkeypatch, workers, texts, result, checked,
                                       reason):
        monkeypatch.setattr(engine, "enumerate_terms", lambda spec: iter(map(p, texts)))
        report = engine._sweep("probe", SYSTEMS[HEAD], EnumSpec(1), _verdict_by_text, workers)
        assert (report.result, report.checked_count, report.counterexample) == (
            result, checked, reason)


class TestCheckNormalization:
    @pytest.mark.parametrize("system", [HEAD, LO, LL])
    def test_open_systems_pass(self, system):
        report = check_normalization(system, size_bound=6, fuel=200, node_budget=4000)
        assert report.result == "PASS", report.counterexample
        assert report.checked_count > 0

    def test_weak_cbv_closed_pass(self):
        report = check_normalization(WCBV, size_bound=8, fuel=200, node_budget=4000)
        assert report.result == "PASS", report.counterexample
        assert report.checked_count > 0

    # size 7 holds (\x.y) ((\z.z) y), whose inessential step would make a
    # sequence one step longer: the least-level row fails if it is let through
    @pytest.mark.parametrize("system, size, count", [
        (HEAD, 6, 450), (LO, 6, 450), (LL, 6, 450), (LL, 7, 1711), (WCBV, 8, 707)])
    def test_checked_counts(self, system, size, count):
        report = check_normalization(system, size_bound=size, fuel=200, node_budget=4000)
        assert (report.result, report.checked_count) == ("PASS", count)

    @pytest.mark.parametrize("fuel", [0, -3])
    def test_fuel_below_one_rejected(self, fuel):
        # as `normalize` does: no sweep runs on fuel that allows no step
        with pytest.raises(ValueError, match="fuel must be positive"):
            check_normalization(LO, size_bound=4, fuel=fuel)

    def test_nothing_relevant_is_inconclusive(self):
        # no closed term has size 1, so the weak CbV theorem is never exercised
        report = check_normalization(WCBV, size_bound=1)
        assert (report.result, report.checked_count) == ("INCONCLUSIVE", 0)
        assert report.counterexample == "no term satisfied the theorem's hypothesis"

    def test_first_inconclusive_term_is_reported(self):
        # terms come smallest first, so a larger sweep must name the same term
        # (the count of inconclusive terms after it grows with the size)
        small = check_normalization(LO, size_bound=7, fuel=1)
        large = check_normalization(LO, size_bound=8, fuel=1)
        assert small.result == large.result == "INCONCLUSIVE"
        assert (small.counterexample.rsplit(" (", 1)[0]
                == large.counterexample.rsplit(" (", 1)[0])

    # the fuel bounds every system's essential sequences
    @pytest.mark.parametrize("system, counterexample, checked", [
        (LO, r"(\x.x) ((\x.x) x): leftmost-outermost reduction hit the fuel bound"
             " (61 terms inconclusive)", 1650),
        (LL, r"(\x.x) ((\x.x) x): least-level reduction hit the fuel bound"
             " (61 terms inconclusive)", 1650),
        (WCBV, r"(\x.x x) (\x.x): weak CbV reduction hit the fuel bound"
               " (1 term inconclusive)", 200),
    ], ids=["lo", "ll", "weak-cbv"])
    def test_inconclusive_terms_are_counted(self, system, counterexample, checked):
        report = check_normalization(system, size_bound=7, fuel=1)
        assert (report.result, report.counterexample) == ("INCONCLUSIVE", counterexample)
        assert report.checked_count == checked

    # every reduction from a size-7 term that takes two steps ends in a
    # normal form, so a depth budget of 2 explores every graph whole
    @pytest.mark.parametrize("system", [LO, LL])
    def test_normal_forms_at_the_depth_bound(self, system):
        report = check_normalization(system, size_bound=7, depth_budget=2)
        assert (report.result, report.checked_count) == ("PASS", 1711)

    # the graph of this term grows forever, but it already holds the normal
    # form y when the node budget cuts it off
    @pytest.mark.parametrize("system", [HEAD, LO, LL])
    def test_truncated_graph_with_a_normal_form_is_relevant(self, system, monkeypatch):
        term = p(r"(\x.y) ((\x.x x) (\x.x x x))")
        monkeypatch.setattr(engine, "enumerate_terms", lambda spec: iter([term]))
        report = check_normalization(system, node_budget=5)
        assert (report.result, report.checked_count) == ("PASS", 1)

    # with one node a graph holds only its root, so every term that is not
    # essential-normal is cut off before its relevance is decided
    def test_graph_cut_before_an_essential_normal_term_is_inconclusive(self):
        report = check_normalization(LO, size_bound=6, node_budget=1)
        assert (report.result, report.checked_count) == ("INCONCLUSIVE", 276)
        assert report.counterexample == (r"(\x.x) x: beta graph search hit a budget before an"
                                         " essential-normal term (174 terms inconclusive)")

    # the rule fails a row whose strategy breaks the row's theorem: head steps
    # stop short of the normal form the leftmost-outermost row asks for, and
    # sequences of arbitrary beta steps differ in length or loop
    @pytest.mark.parametrize("system, positions, term, failure", [
        (LO, SYSTEMS[HEAD].positions, r"x ((\x.x) x)",
         r"leftmost-outermost reduction from x ((\x.x) x) halts at the bad term x ((\x.x) x)"),
        (LL, beta_redexes, r"(\x.y) ((\x.x) y)",
         r"least-level sequences from (\x.y) ((\x.x) y) have different lengths"),
        (LL, beta_redexes, rf"(\x.y) ({OMEGA})",
         rf"least-level reduction loops below (\x.y) ({OMEGA})"),
    ], ids=["stops-short", "different-lengths", "loop"])
    def test_broken_strategy_fails(self, system, positions, term, failure, monkeypatch):
        monkeypatch.setattr(engine, "enumerate_terms", lambda spec: iter([p(term)]))
        broken = dataclasses.replace(SYSTEMS[system], positions=positions)
        report = check_normalization(broken)
        assert (report.result, report.counterexample) == ("FAIL", failure)

    # a base-normal term skips its graph: the rule read off the graph must
    # give the same verdict, and budgets `explore` rejects are still rejected
    @pytest.mark.parametrize("system", [HEAD, LO, LL, WCBV])
    def test_base_normal_terms_agree_with_their_graphs(self, system):
        row = SYSTEMS[system]
        rejecting = dataclasses.replace(row, terminal=lambda t: False)
        normal = [t for t in terms_up_to(8) if not redexes(t, row.base)]
        assert normal
        for r in (row, rejecting):
            for t in normal:
                for budgets in ((1000, 20000, 64), (1, 1, 1)):
                    assert (engine._normalization_verdict(r, *budgets, t)
                            == engine._check_normalization_on_graph(r, t, *budgets))
        bad = engine._normalization_verdict(rejecting, 1000, 20000, 64, normal[0])
        assert bad == (f"{row.name} reduction from {show(normal[0])} halts at the "
                       f"bad term {show(normal[0])}")
        for budgets in ({"node_budget": 0}, {"depth_budget": 0}):
            with pytest.raises(ValueError, match="budgets must be positive"):
                check_normalization(system, **budgets)

    @pytest.mark.parametrize("budgets", [{"node_budget": 0}, {"depth_budget": -1}],
                             ids=["nodes", "depth"])
    def test_bad_budget_rejected_before_any_term(self, monkeypatch, budgets):
        def enumerate_terms(spec):
            raise AssertionError("a term was enumerated")

        monkeypatch.setattr(engine, "enumerate_terms", enumerate_terms)
        with pytest.raises(ValueError, match="budgets must be positive"):
            check_normalization(LO, **budgets)

    def test_one_inconclusive_term(self, monkeypatch):
        term = p(r"(\x.x) ((\x.x) x)")
        monkeypatch.setattr(engine, "enumerate_terms", lambda spec: iter([term]))
        report = check_normalization(LO, fuel=1)
        assert report.counterexample.endswith("hit the fuel bound (1 term inconclusive)")


class TestCheckSubstIndex:
    def test_cbn_and_cbv_pass(self):
        for flavor in (Flavor.CBN, Flavor.CBV):
            report = check_subst_index(flavor, samples=60, seed=3)
            assert report.result == "PASS", report.counterexample
            assert report.checked_count == 60

    def test_leveled_rejected(self):
        with pytest.raises(UnsupportedPropertyError):
            check_subst_index(Flavor.LEVELED, samples=1)

    def test_no_samples_is_inconclusive(self):
        report = check_subst_index(Flavor.CBN, samples=0)
        assert (report.result, report.checked_count) == ("INCONCLUSIVE", 0)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be at least 0"):
            check_subst_index(Flavor.CBN, samples=-1)

    def test_size_below_sampled_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            check_subst_index(Flavor.CBN, samples=0, max_size=3)
