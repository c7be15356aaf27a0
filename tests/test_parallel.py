"""Parallel steps as derivation trees: indices, substitutivity, recognizers."""

import json
import pickle
import random

import pytest

from essential_rewrite import (
    INFINITY,
    SystemId,
    alpha_eq,
    all_parallel_steps,
    beta_redexes,
    count_occurrences,
    derive,
    explore,
    identity_derivation,
    is_parallel_inessential,
    parallel_level,
    parse,
    realize,
    selection_of,
    show,
    step_at,
    subst_parallel,
    substitute,
)
from essential_rewrite.engine import SYSTEMS, split
from essential_rewrite.enumeration import EnumSpec, random_term
from essential_rewrite.parallel import (
    Flavor,
    FlavorMismatchError,
    InvalidSelectionError,
    NonValueError,
    ParDerivation,
    Rule,
    base_of,
    contracts,
    sequential_index,
)
from essential_rewrite.reductions import (
    betav_redexes,
    least_level,
    position_level,
    redexes,
)
from essential_rewrite.terms import (
    BODY,
    LEFT,
    RIGHT,
    App,
    Lam,
    count_bound,
    instantiate,
    is_neutral,
    is_value,
)
from conftest import p, terms_up_to
from graph_deciders import path_exists


class TestDerive:
    def test_empty_selection_is_identity(self):
        t = p(r"(\x.x x) ((\z.z) (\z.z))")
        for flavor in (Flavor.CBN, Flavor.CBV):
            d = derive(t, (), flavor)
            assert d.index == 0 and alpha_eq(d.target, t)
        assert derive(t, (), Flavor.LEVELED).index == INFINITY

    def test_both_redexes_of_duplicating_term(self):
        # contracting the root duplicates the argument work: 0 + 2*1 + 1
        t = p(r"(\x.x x) ((\z.z) (\z.z))")
        d = derive(t, [(), ("R",)], Flavor.CBN)
        assert d.index == 3
        assert d.target == p(r"(\z.z) (\z.z)")
        # and a three-step base sequence indeed reaches the target
        g = explore(t)
        assert path_exists(g, t, d.target, 3) is not None

    def test_single_redex_is_one_step(self, small_terms):
        for t in small_terms[::6]:
            for pos in beta_redexes(t):
                d = derive(t, [pos], Flavor.CBN)
                assert d.index == 1
                assert alpha_eq(d.target, step_at(t, pos))

    def test_invalid_selection_rejected(self):
        with pytest.raises(InvalidSelectionError):
            derive(p("x y"), [()], Flavor.CBN)

    def test_cbv_rejects_nonvalue_argument(self):
        with pytest.raises(NonValueError):
            derive(p(r"(\x.x) (y y)"), [()], Flavor.CBV)

    def test_index_zero_iff_identity(self, small_terms):
        for t in small_terms[::9]:
            for d in all_parallel_steps(t, Flavor.CBN):
                assert (d.index == 0) == alpha_eq(d.source, d.target) == (not selection_of(d))

    def test_leveled_infinite_iff_identity(self, small_terms):
        for t in small_terms[::9]:
            for d in all_parallel_steps(t, Flavor.LEVELED):
                assert (d.index == INFINITY) == alpha_eq(d.source, d.target)

    def test_selection_roundtrip(self, small_terms):
        for t in small_terms[::9]:
            for d in all_parallel_steps(t, Flavor.CBN):
                sel = selection_of(d)
                again = derive(t, sel, Flavor.CBN)
                assert again.index == d.index and alpha_eq(again.target, d.target)

    def test_contracts_agrees_with_selection(self):
        # size 7 is the least size with a redex inside a contracted body
        for t in terms_up_to(7):
            for d in all_parallel_steps(t, Flavor.CBN):
                sel = selection_of(d)
                assert all(contracts(d, q) == (q in sel) for q in beta_redexes(t)), show(t)

    def test_flavors_agree_on_targets(self, small_terms):
        # the index decoration never changes what a selection contracts to
        for t in small_terms[::9]:
            for d in all_parallel_steps(t, Flavor.CBN):
                sel = selection_of(d)
                assert alpha_eq(derive(t, sel, Flavor.LEVELED).target, d.target)


class TestAllParallelSteps:
    def test_variable_has_only_identity(self):
        steps = list(all_parallel_steps(p("x"), Flavor.CBN))
        assert len(steps) == 1 and steps[0].index == 0

    def test_i_ii_has_four(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        assert len(list(all_parallel_steps(t, Flavor.CBN))) == 4

    def test_cbv_cannot_pick_nonvalue_root(self):
        t = p(r"(\x.x) (y y)")
        selections = [selection_of(d) for d in all_parallel_steps(t, Flavor.CBV)]
        assert all(() not in sel for sel in selections)

    def test_cap_limits_enumeration(self):
        t = p(r"((\z.z) (\z.z)) ((\z.z) (\z.z)) ((\z.z) (\z.z))")
        assert len(list(all_parallel_steps(t, Flavor.CBN, cap=5))) == 5

    def test_one_step_parallel_equals_base(self, small_terms):
        # index-1 derivations are exactly the single base steps
        for t in small_terms[::10]:
            for flavor in (Flavor.CBN, Flavor.CBV):
                singles = {d.target for d in all_parallel_steps(t, flavor) if d.index == 1}
                base = {step_at(t, q, base_of(flavor)) for q in redexes(t, base_of(flavor))}
                assert singles == base


# Oracle for `all_parallel_steps` and `derive`: one bit mask over the redex
# list per selection, each derived from scratch, rebuilding both endpoints of
# every node.  It shares nothing, so it checks the library's order, sharing
# and cap.


def _oracle_derive(t, sel, flavor):
    def strip(prefix):
        k = len(prefix)
        return frozenset(q[k:] for q in sel if q[:k] == prefix)

    if () in sel:
        body = _oracle_derive(t.fun.body, strip((LEFT, BODY)), flavor)
        arg = _oracle_derive(t.arg, strip((RIGHT,)), flavor)
        if flavor is Flavor.CBV and not is_value(arg.source):
            raise NonValueError("selected redex has a non-value argument")
        index = (0 if flavor is Flavor.LEVELED
                 else body.index + count_bound(body.target) * arg.index + 1)
        return ParDerivation(flavor, Rule.BETA, (body, arg),
                             App(Lam(body.source, t.fun.hint), arg.source),
                             instantiate(body.target, arg.target), index)
    if isinstance(t, Lam):
        child = _oracle_derive(t.body, strip((BODY,)), flavor)
        return ParDerivation(flavor, Rule.ABS, (child,), Lam(child.source, t.hint),
                             Lam(child.target, t.hint), child.index)
    if isinstance(t, App):
        left = _oracle_derive(t.fun, strip((LEFT,)), flavor)
        right = _oracle_derive(t.arg, strip((RIGHT,)), flavor)
        index = (min(left.index, right.index + 1) if flavor is Flavor.LEVELED
                 else left.index + right.index)
        return ParDerivation(flavor, Rule.APP, (left, right),
                             App(left.source, right.source),
                             App(left.target, right.target), index)
    return ParDerivation(flavor, Rule.VAR, (), t, t,
                         INFINITY if flavor is Flavor.LEVELED else 0)


def oracle_all_parallel_steps(t, flavor, cap=2 ** 14):
    positions = beta_redexes(t) if flavor is not Flavor.CBV else betav_redexes(t)
    for mask in range(min(1 << len(positions), cap)):
        sel = frozenset(q for i, q in enumerate(positions) if mask >> i & 1)
        yield sel, _oracle_derive(t, sel, flavor)


def _same_tree(d, e) -> bool:
    """Equal rule trees, with equal indices, sources and targets at every node."""
    return (d.flavor is e.flavor and d.rule is e.rule and d.index == e.index
            and d.source == e.source and d.target == e.target
            and len(d.children) == len(e.children)
            and all(_same_tree(c, f) for c, f in zip(d.children, e.children)))


def _agrees_with_mask_oracle(t, flavor):
    r = len(redexes(t, base_of(flavor)))
    for cap in sorted({1, 3, 5, 2 ** r, 2 ** r + 1}):
        got = list(all_parallel_steps(t, flavor, cap))
        want = list(oracle_all_parallel_steps(t, flavor, cap))
        assert len(got) == len(want), (show(t), cap)
        for d, (sel, e) in zip(got, want):
            assert selection_of(d) == sel, show(t)
            assert _same_tree(d, e), show(t)
            assert show(d.source) == show(e.source) == show(t)
            assert show(d.target) == show(e.target)


class TestAgainstMaskOracle:
    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_same_steps_in_the_same_order(self, flavor):
        for t in terms_up_to(7):
            _agrees_with_mask_oracle(t, flavor)

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_same_order_with_redexes_on_both_sides(self, flavor):
        # an application with redexes on both sides has size 9 or more, so
        # only larger terms tell the argument's bits from the function's
        rng = random.Random(11)
        spec = EnumSpec(max_size=13)
        for _ in range(300):
            t = random_term(rng.randrange(2 ** 30), rng.randint(9, 13), spec)
            _agrees_with_mask_oracle(t, flavor)
        for text in (r"(\x.(\z.z) x) ((\z.z) y)", r"((\z.z) x) ((\z.z) (\z.z))"):
            _agrees_with_mask_oracle(p(text), flavor)

    def test_derive_matches_oracle(self, small_terms):
        for t in small_terms[::3]:
            for flavor in Flavor:
                for sel, e in oracle_all_parallel_steps(t, flavor):
                    assert _same_tree(derive(t, sel, flavor), e), show(t)

    def test_identity_allocates_no_term(self, small_terms):
        def reuses_source(d):
            return d.target is d.source and all(reuses_source(c) for c in d.children)

        for t in small_terms[::5]:
            for flavor in Flavor:
                d = identity_derivation(t, flavor)
                assert d.source is t and reuses_source(d)
                assert next(all_parallel_steps(t, flavor)).target is t

    def test_steps_share_the_source(self):
        t = p(r"(\x.(\z.z) x) ((\z.z) y)")
        assert all(d.source is t for d in all_parallel_steps(t, Flavor.CBN))


class TestSubstParallel:
    def test_variable_hit_gives_substituend_index(self):
        d1 = identity_derivation(p("x"), Flavor.CBN)
        s = p(r"(\z.z) ((\z.z) (\z.z))")
        d2 = derive(s, [()], Flavor.CBN)
        combined = subst_parallel(d1, "x", d2, Flavor.CBN)
        assert combined.index == d2.index == 1
        assert alpha_eq(combined.source, s)

    def test_variable_missed_gives_zero(self):
        d1 = identity_derivation(p("y"), Flavor.CBN)
        d2 = derive(p(r"(\z.z) (\z.z)"), [()], Flavor.CBN)
        combined = subst_parallel(d1, "x", d2, Flavor.CBN)
        assert combined.index == 0 and combined.target == p("y")

    def test_cbv_nonvalue_substituend_rejected(self):
        d1 = identity_derivation(p("x"), Flavor.CBV)
        bad = p(r"(\z.z) (\z.z)")
        with pytest.raises(NonValueError):
            subst_parallel(d1, "x", derive(bad, [], Flavor.CBV), Flavor.CBV)

    def test_mismatched_flavours_rejected(self):
        d1 = identity_derivation(p("x"), Flavor.CBN)
        d2 = identity_derivation(p(r"\z.z"), Flavor.CBV)
        with pytest.raises(FlavorMismatchError,
                           match="^derivation flavours cbn/cbv do not match cbn$"):
            subst_parallel(d1, "x", d2, Flavor.CBN)

    def test_leveled_flavor_rejected(self):
        d = identity_derivation(p("x"), Flavor.LEVELED)
        with pytest.raises(FlavorMismatchError):
            subst_parallel(d, "x", d, Flavor.LEVELED)

    @pytest.mark.parametrize("flavor", [Flavor.CBN, Flavor.CBV])
    def test_randomized_index_law(self, flavor):
        rng = random.Random(5 if flavor is Flavor.CBN else 6)
        spec = EnumSpec(max_size=8)
        for _ in range(150):
            t = random_term(rng.randrange(2 ** 30), rng.randint(3, 8), spec)
            s = random_term(rng.randrange(2 ** 30), rng.randint(2, 7), spec)
            if flavor is Flavor.CBV and not s.__class__.__name__ == "Lam":
                from essential_rewrite.terms import Lam
                s = Lam(s)
            positions = redexes(t, base_of(flavor))
            d1 = derive(t, [q for q in positions if rng.random() < 0.7], flavor)
            d2 = derive(s, [q for q in redexes(s, base_of(flavor)) if rng.random() < 0.7], flavor)
            name = rng.choice(("x", "y"))
            combined = subst_parallel(d1, name, d2, flavor)
            assert combined.index == d1.index + count_occurrences(d1.target, name) * d2.index
            assert alpha_eq(combined.source, substitute(t, name, d2.source))
            assert alpha_eq(combined.target, substitute(d1.target, name, d2.target))
            # independent bottom-up re-derivation from the induced selection
            again = derive(combined.source, selection_of(combined), flavor)
            assert again.index == combined.index
            assert alpha_eq(again.target, combined.target)


# Inductive definitions of the inessential parallel steps, written over the
# derivation tree as the congruence rules of each system.  The library derives
# the same predicate from the system's essential positions; these stay
# independent of that so that the comparison below can fail.


def _ines_head(d) -> bool:
    # never contracts the head redex: fine under an applied abstraction,
    # otherwise only the function side is constrained
    if d.rule is Rule.VAR:
        return True
    if d.rule is Rule.BETA:
        return False
    if d.rule is Rule.ABS:
        return _ines_head(d.children[0])
    left = d.children[0]
    return left.rule is Rule.ABS or _ines_head(left)


def _ines_weak(d) -> bool:
    # contractions are free under abstractions; spines of applications must
    # themselves be inessential on both sides
    if d.rule is Rule.VAR or d.rule is Rule.ABS:
        return True
    if d.rule is Rule.BETA:
        return False
    return _ines_weak(d.children[0]) and _ines_weak(d.children[1])


def _ines_lo(d) -> bool:
    if d.rule is Rule.VAR:
        return True
    if d.rule is Rule.BETA:
        return False
    if d.rule is Rule.ABS:
        return _ines_lo(d.children[0])
    left, right = d.children
    if left.rule is Rule.ABS:
        return True
    if is_neutral(left.source):
        # a neutral function side has no redexes, so the constraint moves right
        return _ines_lo(right)
    return _ines_lo(left)


def _ines_ll(d) -> bool:
    return d.index == INFINITY or d.index > least_level(d.source)


INESSENTIAL_ORACLES = {
    SystemId.HEAD: _ines_head,
    SystemId.WEAK_CBV: _ines_weak,
    SystemId.LO: _ines_lo,
    SystemId.LEAST_LEVEL: _ines_ll,
}


class TestInessentialRecognizers:
    def test_recognizer_matches_inductive_oracle(self):
        # every parallel step of every term up to size 7, and every residual
        # split leaves of one, for all four systems
        terms = terms_up_to(7)
        for system_id, oracle in INESSENTIAL_ORACLES.items():
            flavor = SYSTEMS[system_id].flavor
            for t in terms:
                for d in all_parallel_steps(t, flavor):
                    assert is_parallel_inessential(d, system_id) == oracle(d), show(t)
                    _, rest = split(d, system_id)
                    assert oracle(rest), f"split residual of {show(t)} is essential"

    def test_identity_is_inessential_everywhere(self, small_terms):
        for t in small_terms[::17]:
            assert is_parallel_inessential(identity_derivation(t, Flavor.CBN), SystemId.HEAD)
            assert is_parallel_inessential(identity_derivation(t, Flavor.CBN), SystemId.LO)
            assert is_parallel_inessential(identity_derivation(t, Flavor.CBV), SystemId.WEAK_CBV)
            assert is_parallel_inessential(identity_derivation(t, Flavor.LEVELED),
                                           SystemId.LEAST_LEVEL)

    def test_head_contraction_is_essential(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        d = derive(t, [()], Flavor.CBN)
        assert not is_parallel_inessential(d, SystemId.HEAD)

    def test_leveled_zero_on_zero_level_term(self):
        t = p(r"(\x.(\z.z) (\z.z)) y")
        d = derive(t, [()], Flavor.LEVELED)
        assert d.index == 0
        assert not is_parallel_inessential(d, SystemId.LEAST_LEVEL)

    def test_flavor_mismatch_raises(self):
        d = identity_derivation(p("x"), Flavor.CBN)
        with pytest.raises(FlavorMismatchError):
            is_parallel_inessential(d, SystemId.WEAK_CBV)

    def test_head_recognizer_matches_position_oracle(self, small_terms):
        from essential_rewrite import head_steps
        for t in small_terms[::2]:
            head_pos = {s.position for s, _ in head_steps(t)}
            for d in all_parallel_steps(t, Flavor.CBN):
                expected = not (selection_of(d) & head_pos)
                assert is_parallel_inessential(d, SystemId.HEAD) == expected

    def test_lo_recognizer_matches_position_oracle(self, small_terms):
        from essential_rewrite import lo_steps
        for t in small_terms[::2]:
            lo_pos = {s.position for s, _ in lo_steps(t)}
            for d in all_parallel_steps(t, Flavor.CBN):
                expected = not (selection_of(d) & lo_pos)
                assert is_parallel_inessential(d, SystemId.LO) == expected

    def test_weak_recognizer_matches_position_oracle(self, small_terms):
        for t in small_terms[::2]:
            for d in all_parallel_steps(t, Flavor.CBV):
                expected = all("B" in q for q in selection_of(d))
                assert is_parallel_inessential(d, SystemId.WEAK_CBV) == expected

    def test_leveled_index_is_least_selected_level(self, small_terms):
        for t in small_terms[::2]:
            for d in all_parallel_steps(t, Flavor.LEVELED):
                sel = selection_of(d)
                expected = min((position_level(q) for q in sel), default=INFINITY)
                assert d.index == expected
                inessential = d.index == INFINITY or d.index > least_level(t)
                assert is_parallel_inessential(d, SystemId.LEAST_LEVEL) == inessential


class TestParallelLevel:
    def test_identity_on_variable_is_infinite(self):
        assert parallel_level(identity_derivation(p("x"), Flavor.LEVELED)) == INFINITY

    def test_root_contraction_is_zero(self):
        d = derive(p(r"(\x.x) y"), [()], Flavor.LEVELED)
        assert parallel_level(d) == 0

    def test_application_minimum(self):
        # left side fires at level 3, right side at level 1: min(3, 1+1) = 2
        left = p(r"x (x (x ((\z.z) (\z.z))))")
        right = p(r"x ((\z.z) (\z.z))")
        t = parse(f"({show(left)}) ({show(right)})")
        d = derive(t, beta_redexes(t), Flavor.LEVELED)
        left_d, right_d = d.children
        assert left_d.index == 3 and right_d.index == 1
        assert parallel_level(d) == 2

    def test_non_leveled_rejected(self):
        with pytest.raises(FlavorMismatchError):
            parallel_level(identity_derivation(p("x"), Flavor.CBN))


class TestRealize:
    def test_replay_reaches_target(self, small_terms):
        for t in small_terms[::4]:
            for flavor in (Flavor.CBN, Flavor.CBV):
                for d in all_parallel_steps(t, flavor):
                    current = t
                    positions = realize(d)
                    assert len(positions) == len(selection_of(d))
                    for pos in positions:
                        current = step_at(current, pos, base_of(flavor))
                    assert alpha_eq(current, d.target)

    def test_step_count_bounded_by_index(self, small_terms):
        for t in small_terms[::4]:
            for d in all_parallel_steps(t, Flavor.CBN):
                n = len(realize(d))
                assert n <= d.index
                if d.index >= 1:
                    assert n >= 1

    def test_target_reachable_within_index_steps(self, small_terms):
        # the index sequentializes the step: target within index base steps
        for t in small_terms[::12]:
            g = explore(t, node_budget=2000, depth_budget=40)
            if g.truncated:
                continue
            for d in all_parallel_steps(t, Flavor.CBN):
                if d.index == 0:
                    continue
                assert path_exists(g, t, d.target, d.index) is not None

    def test_sequentialize_has_exactly_index_steps(self, small_terms):
        # the constructive witness: a base path of length exactly the index
        from essential_rewrite.parallel import sequentialize
        for t in small_terms[::4]:
            for flavor in Flavor:
                for d in all_parallel_steps(t, flavor):
                    path = sequentialize(d)
                    assert len(path) == sequential_index(d)
                    assert flavor is Flavor.LEVELED or len(path) == d.index
                    current = t
                    for pos in path:
                        current = step_at(current, pos, base_of(flavor))
                    assert alpha_eq(current, d.target)

    def test_sequentialize_duplicator_tower(self):
        # nested duplicators compound: contracting all three redexes costs
        # 1 + 2*(1 + 2*1) = 7 single steps even though only 3 were selected
        from essential_rewrite.parallel import sequentialize
        t = p(r"(\x.x x) ((\y.y y) ((\z.z z) (\w.w)))")
        d = derive(t, beta_redexes(t), Flavor.CBN)
        assert d.index == 7
        path = sequentialize(d)
        assert len(path) == 7 and len(realize(d)) == 3
        current = t
        for pos in path:
            current = step_at(current, pos)
        assert alpha_eq(current, d.target)


class TestParallelDiamond:
    def test_one_step_divergences_close_in_parallel(self):
        # sanity: erasing indices leaves classic parallel reduction, which
        # closes peaks of single steps in one parallel step each
        from conftest import terms_up_to
        cache = {}

        def parallel_targets(u):
            if u not in cache:
                cache[u] = {d.target for d in all_parallel_steps(u, Flavor.CBN)}
            return cache[u]

        for t in terms_up_to(7):
            reducts = [step_at(t, q) for q in beta_redexes(t)]
            for i, s1 in enumerate(reducts):
                for s2 in reducts[i + 1:]:
                    assert parallel_targets(s1) & parallel_targets(s2)


class TestSerialization:
    def test_json_tree(self):
        t = p(r"(\x.x x) ((\z.z) (\z.z))")
        d = derive(t, [(), ("R",)], Flavor.CBN)
        blob = json.dumps(d.to_json())
        data = json.loads(blob)
        assert data["rule"] == "beta" and data["index"] == 3
        assert [c["rule"] for c in data["children"]] == ["app", "beta"]

    def test_leveled_infinite_index_serializes(self):
        d = identity_derivation(p("x"), Flavor.LEVELED)
        assert d.to_json()["index"] == "inf"

    @pytest.mark.parametrize("flavor", list(Flavor))
    def test_pickled_tree_keeps_its_count(self, flavor):
        d = derive(p(r"(\x.x x) (\z.(\y.y) z)"), [(), ("R", "B")], flavor)
        back = pickle.loads(pickle.dumps(d))
        assert sequential_index(back) == sequential_index(d) == 3
        assert back.index == d.index and back.to_json() == d.to_json()
