"""Single-step relations: strategy steps, their complements, and levels."""

import random
import sys
from functools import partial

import pytest

import recursive

from essential_rewrite import (
    INFINITY,
    alpha_eq,
    beta_redexes,
    betav_redexes,
    head_steps,
    least_level,
    ll_steps,
    lo_steps,
    neg_head_steps,
    neg_ll_steps,
    neg_lo_steps,
    neg_weak_steps,
    step_at,
    substitute,
    weak_cbv_steps,
)
from essential_rewrite.engine import SYSTEMS
from essential_rewrite.enumeration import EnumSpec, random_term
from essential_rewrite.reductions import (
    Base,
    StepKind,
    SystemId,
    level_json,
    position_level,
    redexes,
)
from essential_rewrite.terms import (
    App,
    Free,
    InvalidPositionError,
    Lam,
    Var,
    is_normal,
    is_value,
)
from conftest import OMEGA, first_reduct, p, random_samples, row_steps, terms_up_to


# The recursive definitions of the redex lists and of the least level, kept
# as oracles for the loops behind `redexes` and `least_level`.

def oracle_beta_redexes(t, prefix=()):
    """Positions of all beta-redexes, outermost-leftmost first."""
    out = []
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            out.append(prefix)
        out.extend(oracle_beta_redexes(t.fun, prefix + ("L",)))
        out.extend(oracle_beta_redexes(t.arg, prefix + ("R",)))
    elif isinstance(t, Lam):
        out.extend(oracle_beta_redexes(t.body, prefix + ("B",)))
    return out


def oracle_betav_redexes(t, prefix=()):
    """Beta-redex positions whose argument is a value."""
    out = []
    if isinstance(t, App):
        if isinstance(t.fun, Lam) and is_value(t.arg):
            out.append(prefix)
        out.extend(oracle_betav_redexes(t.fun, prefix + ("L",)))
        out.extend(oracle_betav_redexes(t.arg, prefix + ("R",)))
    elif isinstance(t, Lam):
        out.extend(oracle_betav_redexes(t.body, prefix + ("B",)))
    return out


def oracle_weak_positions(t, prefix=()):
    """Weak call-by-value redex positions: beta-value redexes never under an
    abstraction."""
    out = []
    if isinstance(t, App):
        if isinstance(t.fun, Lam) and is_value(t.arg):
            out.append(prefix)
        out.extend(oracle_weak_positions(t.fun, prefix + ("L",)))
        out.extend(oracle_weak_positions(t.arg, prefix + ("R",)))
    return out


def oracle_neg_head_positions(t, prefix=()):
    """Inessential head redexes: inside an argument, or inside the body of
    an applied abstraction, under any number of binders and function sides."""
    out = set()
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            out.update(prefix + ("L", "B") + q for q in oracle_beta_redexes(t.fun.body))
        out.update(prefix + ("R",) + q for q in oracle_beta_redexes(t.arg))
        out.update(oracle_neg_head_positions(t.fun, prefix + ("L",)))
    elif isinstance(t, Lam):
        out.update(oracle_neg_head_positions(t.body, prefix + ("B",)))
    return out


def oracle_neg_weak_positions(t, prefix=()):
    """Inessential weak call-by-value redexes: beta-value redexes under a
    binder."""
    out = set()
    if isinstance(t, Lam):
        out.update(prefix + ("B",) + q for q in oracle_betav_redexes(t.body))
    elif isinstance(t, App):
        out.update(oracle_neg_weak_positions(t.fun, prefix + ("L",)))
        out.update(oracle_neg_weak_positions(t.arg, prefix + ("R",)))
    return out


def oracle_neg_lo_positions(t, prefix=()):
    """Inessential leftmost-outermost redexes: inside the body of an applied
    abstraction, or inside the argument of a function that is not neutral."""
    out = set()
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            out.update(prefix + ("L", "B") + q for q in oracle_beta_redexes(t.fun.body))
        if not recursive.is_neutral(t.fun):
            out.update(prefix + ("R",) + q for q in oracle_beta_redexes(t.arg))
        out.update(oracle_neg_lo_positions(t.fun, prefix + ("L",)))
        out.update(oracle_neg_lo_positions(t.arg, prefix + ("R",)))
    elif isinstance(t, Lam):
        out.update(oracle_neg_lo_positions(t.body, prefix + ("B",)))
    return out


def oracle_least_level(t):
    """Minimal number of argument-nestings containing a redex; inf if normal."""
    if isinstance(t, (Var, Free)):
        return INFINITY
    if isinstance(t, Lam):
        return oracle_least_level(t.body)
    if isinstance(t.fun, Lam):
        return 0
    return min(oracle_least_level(t.fun), oracle_least_level(t.arg) + 1)


def oracle_ll_positions(t):
    """Least-level redexes: the beta-redexes at the least level."""
    ll = oracle_least_level(t)
    return [pos for pos in oracle_beta_redexes(t) if position_level(pos) == ll]


def oracle_neg_ll_positions(t):
    """Inessential least-level redexes: the beta-redexes above the least level."""
    ll = oracle_least_level(t)
    return [pos for pos in oracle_beta_redexes(t) if position_level(pos) > ll]


def _nested_args(n):
    """x (I x) (I x) ... with n arguments."""
    t = p("x")
    for _ in range(n):
        t = App(t, p(r"(\z.z) x"))
    return t


def _nested_lo(n):
    """x (t (I y)) nested n deep from t = I z."""
    t = p(r"(\z.z) z")
    for _ in range(n):
        t = App(p("x"), App(t, p(r"(\z.z) y")))
    return t


class TestLevelArithmetic:
    def test_saturation(self):
        assert INFINITY + 1 == INFINITY

    def test_min_with_infinity_is_identity(self):
        assert min(3, INFINITY) == 3
        assert min(INFINITY, 0) == 0

    def test_total_order(self):
        assert 0 < 2 < INFINITY
        assert not INFINITY < INFINITY

    def test_repr(self):
        assert str(4) == "4" and str(INFINITY) == "inf"

    def test_json(self):
        assert level_json(4) == 4 and level_json(INFINITY) == "inf"


class TestRedexEnumeration:
    def test_i_ii_has_root_and_arg(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        assert beta_redexes(t) == [(), ("R",)]

    def test_normal_term_has_none(self):
        assert beta_redexes(p(r"\x.x")) == []

    def test_omega_root_only(self):
        assert beta_redexes(p(OMEGA)) == [()]

    def test_betav_requires_value_argument(self):
        assert betav_redexes(p(r"(\x.x) (y y)")) == []

    def test_betav_value_argument(self):
        assert betav_redexes(p(r"(\x.x) (\y.y)")) == [()]

    def test_betav_inner_redex_only(self):
        t = p(r"(\x.x) ((\y.y) (\z.z))")
        assert betav_redexes(t) == [("R",)]

    def test_order_is_preorder(self, small_terms):
        # enumeration order is exactly sorted position order
        for t in small_terms[::5]:
            got = beta_redexes(t)
            assert got == sorted(got)

    def test_normality_is_redex_freeness(self, small_terms):
        for t in small_terms:
            assert is_normal(t) == (not beta_redexes(t))

    def test_walk_matches_recursive_oracles(self):
        weak = SYSTEMS[SystemId.WEAK_CBV].positions
        for t in terms_up_to(8) + random_samples() + [p(r"(\x.(\y.y) x) ((\y.y) (\y.y))")]:
            beta = oracle_beta_redexes(t)
            betav = oracle_betav_redexes(t)
            assert beta_redexes(t) == redexes(t, Base.BETA) == beta
            assert betav_redexes(t) == redexes(t, Base.BETAV) == betav
            assert weak(t) == oracle_weak_positions(t)


    def test_context_rules_match_recursive_oracles(self):
        # each row's inessential redexes, in preorder, without repeats
        head, weak, lo = (SYSTEMS[s] for s in (SystemId.HEAD, SystemId.WEAK_CBV, SystemId.LO))
        args, nested = _nested_args(200), _nested_lo(200)
        old_limit = sys.getrecursionlimit()
        # the LO oracle's neutrality test recurses below its own frames
        sys.setrecursionlimit(5_000)
        try:
            for t in terms_up_to(8) + random_samples() + [args, nested]:
                assert head.neg_positions(t) == sorted(oracle_neg_head_positions(t))
                assert weak.neg_positions(t) == sorted(oracle_neg_weak_positions(t))
                assert lo.neg_positions(t) == sorted(oracle_neg_lo_positions(t))
        finally:
            sys.setrecursionlimit(old_limit)
        # every argument redex of x (I x)... is inessential for head, and
        # every I y of the nested shape for leftmost-outermost
        assert len(head.neg_positions(args)) == len(lo.neg_positions(nested)) == 200


class TestStepAt:
    def test_root_contraction(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        assert step_at(t, ()) == p(r"(\z.z) (\z.z)")

    def test_arg_contraction_same_reduct(self):
        # both redexes of I(II) coincidentally lead to the same term
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        assert step_at(t, ("R",)) == step_at(t, ())

    def test_omega_reproduces_itself(self):
        omega = p(OMEGA)
        assert alpha_eq(step_at(omega, ()), omega)

    def test_invalid_position_rejected(self):
        with pytest.raises(InvalidPositionError):
            step_at(p("x y"), ())

    def test_betav_rejects_nonvalue_argument(self):
        with pytest.raises(InvalidPositionError):
            step_at(p(r"(\x.x) (y y)"), (), Base.BETAV)


class TestHead:
    def test_head_step_examples(self):
        head = SystemId.HEAD
        assert first_reduct(head, p(r"(\z.z) (x ((\z.z) (\z.z)))")) == p(r"x ((\z.z) (\z.z))")
        assert first_reduct(head, p(r"x ((\z.z) (\z.z))")) is None
        assert first_reduct(head, p(r"\x.(\z.z) x")) == p(r"\x.x")

    def test_neg_head_examples(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        assert p(r"(\z.z) (\z.z)") in [u for _, u in neg_head_steps(t)]
        assert neg_head_steps(p("x")) == []
        t2 = p(r"(\x.(\z.z) (\z.z)) y")
        assert [u for _, u in neg_head_steps(t2)] == [p(r"(\x.\z.z) y")]

    def test_head_and_neg_head_can_meet(self):
        # the root and argument redexes of I(II) give the same reduct
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        head_reduct = first_reduct(SystemId.HEAD, t)
        assert head_reduct in [u for _, u in neg_head_steps(t)]

    def test_complement_of_head_position(self, small_terms):
        # rule-derived non-head steps are exactly all redexes but the head one
        for t in small_terms:
            head = {s.position for s, _ in head_steps(t)}
            neg = {s.position for s, _ in neg_head_steps(t)}
            assert neg == set(beta_redexes(t)) - head


class TestWeakCbv:
    def test_root_value_step(self):
        assert [u for _, u in weak_cbv_steps(p(r"(\x.x) (\y.y)"))] == [p(r"\y.y")]

    def test_never_under_abstraction(self):
        assert weak_cbv_steps(p(r"\x.(\z.z) (\z.z)")) == []

    def test_nondeterministic_application(self):
        t = p(r"((\z.z) (\z.z)) ((\z.z) (\z.z))")
        reducts = [u for _, u in weak_cbv_steps(t)]
        assert len(reducts) == 2
        assert reducts[0] == p(r"(\z.z) ((\z.z) (\z.z))")
        assert reducts[1] == p(r"((\z.z) (\z.z)) (\z.z)")

    def test_neg_weak_examples(self):
        assert [u for _, u in neg_weak_steps(p(r"\x.(\y.y) (\z.z)"))] == [p(r"\x.\z.z")]
        assert neg_weak_steps(p("x")) == []
        t = p(r"(\x.(\y.y) (\z.z)) w")
        assert [u for _, u in neg_weak_steps(t)] == [p(r"(\x.\z.z) w")]

    def test_complement_of_weak_positions(self, small_terms):
        # weak steps fire exactly at binder-free positions of beta-v redexes
        for t in small_terms:
            weak = {s.position for s, _ in weak_cbv_steps(t)}
            neg = {s.position for s, _ in neg_weak_steps(t)}
            all_v = set(betav_redexes(t))
            assert weak == {q for q in all_v if "B" not in q}
            assert neg == all_v - weak


class TestLeftmostOutermost:
    def test_lo_examples(self):
        assert first_reduct(SystemId.LO, p(r"x ((\z.z) y)")) == p("x y")
        t = p(r"x (x ((\z.z) (\z.z))) ((\z.z) (\z.z))")
        assert first_reduct(SystemId.LO, t) == p(r"x (x (\z.z)) ((\z.z) (\z.z))")
        assert first_reduct(SystemId.LO, p(r"(\x.(\z.z) (\z.z)) y")) == p(r"(\z.z) (\z.z)")

    def test_lo_absent_iff_normal(self, small_terms):
        for t in small_terms:
            assert (first_reduct(SystemId.LO, t) is None) == is_normal(t)

    def test_lo_is_first_redex_in_traversal_order(self, small_terms):
        for t in small_terms:
            positions = beta_redexes(t)
            got = {s.position for s, _ in lo_steps(t)}
            assert got == ({positions[0]} if positions else set())

    def test_lo_not_left_substitutive(self):
        # the motivating counterexample: substituting a self-applying function
        # turns the leftmost redex into the root
        t = p(r"x ((\z.z) y)")
        assert first_reduct(SystemId.LO, t) == p("x y")
        instance = substitute(t, "x", p(r"\z.z z"))
        assert first_reduct(SystemId.LO, instance) == p(r"((\z.z) y) ((\z.z) y)")

    def test_neg_lo_examples(self):
        t = p(r"(\x.(\z.z) (\z.z)) y")
        assert p(r"(\x.\z.z) y") in [u for _, u in neg_lo_steps(t)]
        assert neg_lo_steps(p("x y")) == []
        t2 = p(r"x (x ((\z.z) (\z.z))) ((\z.z) (\z.z))")
        assert p(r"x (x ((\z.z) (\z.z))) (\z.z)") in [u for _, u in neg_lo_steps(t2)]

    def test_complement_of_lo_position(self, small_terms):
        for t in small_terms:
            lo = {s.position for s, _ in lo_steps(t)}
            neg = {s.position for s, _ in neg_lo_steps(t)}
            assert neg == set(beta_redexes(t)) - lo


def _child_reads(call, *args):
    """`call(*args)`, and how many child nodes it read: each read of an
    application's `fun` or `arg`, or of an abstraction's `body`, counts."""
    count = [0]

    def counting(slot, node):
        count[0] += 1
        return slot.__get__(node)

    with pytest.MonkeyPatch.context() as patch:
        for cls, attr in ((App, "fun"), (App, "arg"), (Lam, "body")):
            patch.setattr(cls, attr, property(partial(counting, cls.__dict__[attr])))
        result = call(*args)
    return result, count[0]


class TestLeftmostCost:
    """LO `positions` reads each node a bounded number of times: the
    neutrality test at each argument side reads a flag, where it used to
    walk the whole function side, which made the search quadratic in depth.
    (`neg_positions` stays quadratic: the positions it returns are.)"""

    def test_nested_shape_reads_linearly_many_nodes(self):
        lo = SYSTEMS[SystemId.LO]
        reads = {}
        for n in (800, 3200):
            t = _nested_lo(n)
            got, reads[n] = _child_reads(lo.positions, t)
            old_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(20_000)  # the oracle takes a frame per node
            try:
                assert got == [recursive.leftmost_outermost(t)]
            finally:
                sys.setrecursionlimit(old_limit)
        # the walks of the function sides read about 16 times as many nodes
        # at 3200 deep as at 800
        assert reads[800] > 800 and reads[3200] <= 4 * reads[800]


class TestLeastLevel:
    def test_level_values(self):
        assert least_level(p("x")) == INFINITY
        assert least_level(p(r"(\x.(\z.z) (\z.z)) y")) == 0
        assert least_level(p(r"x (x ((\z.z) (\z.z))) ((\z.z) (\z.z))")) == 1

    def test_level_indexed_examples(self):
        t = p(r"(\x.(\z.z) (\z.z)) y")
        got = {(s.position, s.level) for s, _ in row_steps(SystemId.LEAST_LEVEL, t)}
        assert got == {((), 0), (("L", "B"), 0)}
        t2 = p(r"x ((\z.z) (\z.z))")
        got2 = [(s.position, s.level) for s, _ in row_steps(SystemId.LEAST_LEVEL, t2)]
        assert got2 == [(("R",), 1)]
        assert row_steps(SystemId.LEAST_LEVEL, p("x")) == []

    def test_ll_steps_examples(self):
        t = p(r"(\x.(\z.z) (\z.z)) y")
        assert p(r"(\x.\z.z) y") in [u for _, u in ll_steps(t)]
        t2 = p(r"x (x ((\z.z) (\z.z))) ((\z.z) (\z.z))")
        assert [u for _, u in ll_steps(t2)] == [p(r"x (x ((\z.z) (\z.z))) (\z.z)")]
        assert p(r"x (x (\z.z)) ((\z.z) (\z.z))") in [u for _, u in neg_ll_steps(t2)]

    def test_both_empty_on_normal_terms(self):
        assert ll_steps(p("x y")) == [] and neg_ll_steps(p("x y")) == []

    def test_incomparable_with_lo(self):
        # one direction: a least-level step that is not the leftmost one
        t = p(r"(\x.(\z.z) (\z.z)) y")
        inner = p(r"(\x.\z.z) y")
        assert inner in [u for _, u in ll_steps(t)]
        assert not alpha_eq(first_reduct(SystemId.LO, t), inner)
        # other direction: the leftmost step may sit above the least level
        t2 = p(r"x (x ((\z.z) (\z.z))) ((\z.z) (\z.z))")
        lo_reduct = first_reduct(SystemId.LO, t2)
        assert lo_reduct in [u for _, u in neg_ll_steps(t2)]
        assert lo_reduct not in [u for _, u in ll_steps(t2)]

    def test_loops_match_recursive_oracles(self):
        # the least level, and each redex list in preorder
        ll = SYSTEMS[SystemId.LEAST_LEVEL]
        for t in terms_up_to(8) + random_samples():
            assert least_level(t) == oracle_least_level(t)
            essential = oracle_ll_positions(t)
            assert ll.positions(t) == essential
            assert ll.neg_positions(t) == oracle_neg_ll_positions(t)
            steps = row_steps(SystemId.LEAST_LEVEL, t)
            assert [s.kind is StepKind.ESSENTIAL for s, _ in steps] == [
                pos in essential for pos in oracle_beta_redexes(t)]

    def test_computational_meaning(self, small_terms):
        # the least level is the least level of an actual step
        for t in small_terms:
            levels = [s.level for s, _ in row_steps(SystemId.LEAST_LEVEL, t)]
            assert least_level(t) == (min(levels) if levels else INFINITY)

    def test_ll_fullness(self, small_terms):
        for t in small_terms:
            assert bool(ll_steps(t)) == (not is_normal(t))

    def test_monotonicity(self, small_terms):
        for t in small_terms:
            ll = least_level(t)
            for _, u in row_steps(SystemId.LEAST_LEVEL, t):
                assert least_level(u) >= ll

    def test_invariance_under_inessential(self, small_terms):
        for t in small_terms:
            ll = least_level(t)
            for _, u in neg_ll_steps(t):
                assert least_level(u) == ll

    def test_shape_preservation(self, small_terms):
        # a positive-level essential step cannot create a root abstraction
        from essential_rewrite.terms import Lam
        for t in small_terms:
            if isinstance(t, Lam) or least_level(t) <= 0:
                continue
            for _, u in ll_steps(t):
                assert not isinstance(u, Lam)

    def test_substitutivity_by_level(self):
        # a step keeps its level under substitution of a free variable
        rng = random.Random(11)
        spec = EnumSpec(max_size=9)
        checked = 0
        for i in range(300):
            t = random_term(rng.randrange(2 ** 30), rng.randint(4, 9), spec)
            s = random_term(rng.randrange(2 ** 30), rng.randint(1, 6), spec)
            for step, u in row_steps(SystemId.LEAST_LEVEL, t):
                t_sub = substitute(t, "x", s)
                u_sub = substitute(u, "x", s)
                assert alpha_eq(step_at(t_sub, step.position), u_sub)
                assert position_level(step.position) == step.level
                checked += 1
        assert checked > 100


class TestDecompositions:
    def test_each_base_step_classified_once(self, small_terms):
        # positions of beta (resp. beta-v) split between strategy and complement
        from collections import Counter
        pairs = [
            (beta_redexes, Base.BETA, head_steps, neg_head_steps),
            (beta_redexes, Base.BETA, lo_steps, neg_lo_steps),
            (beta_redexes, Base.BETA, ll_steps, neg_ll_steps),
            (betav_redexes, Base.BETAV, weak_cbv_steps, neg_weak_steps),
        ]
        for t in small_terms[::3]:
            for enum, base, ess, ines in pairs:
                whole = Counter((q, step_at(t, q, base)) for q in enum(t))
                parts = Counter((s.position, u) for s, u in ess(t))
                parts += Counter((s.position, u) for s, u in ines(t))
                assert whole == parts
