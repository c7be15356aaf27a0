"""Term syntax: parsing, printing, substitution and the structural predicates."""

import random
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from essential_rewrite import EnumSpec, enumerate_terms, random_term, terms
from essential_rewrite.engine import SYSTEMS
from essential_rewrite.reductions import Base, step_at
from essential_rewrite.terms import (
    App,
    BODY,
    Free,
    InvalidPositionError,
    LEFT,
    Lam,
    ParseError,
    RIGHT,
    Var,
    alpha_eq,
    bound_positions,
    count_bound,
    count_occurrences,
    free_names,
    instantiate,
    is_locally_closed,
    is_neutral,
    is_normal,
    is_value,
    parse,
    parse_position,
    replace_at,
    shift,
    show,
    show_steps,
    size,
    substitute,
    subterm_at,
)
import recursive
from conftest import OMEGA, eager_run, p, random_samples, subterms, terms_up_to, under_binders


class TestParse:
    def test_identity(self):
        assert parse(r"\x.x") == Lam(Var(0))

    def test_omega_spelling(self):
        omega_half = Lam(App(Var(0), Var(0)))
        assert parse(r"(\x.x x)(\x.x x)") == App(omega_half, omega_half)

    def test_application_associates_left(self):
        assert parse("x y z") == App(App(Free("x"), Free("y")), Free("z"))

    def test_lambda_body_extends_right(self):
        assert parse(r"\x.x x") == Lam(App(Var(0), Var(0)))

    def test_unicode_sigil(self):
        assert parse("λx.x") == parse(r"\x.x")

    def test_primed_identifiers(self):
        assert parse("x' y0") == App(Free("x'"), Free("y0"))

    def test_free_variables_allowed(self):
        assert parse("x") == Free("x")

    @pytest.mark.parametrize("bad, offset", [
        ("(x", 2),          # unclosed paren
        ("\\x x", 3),       # missing dot
        ("x )", 2),         # stray paren
        ("\\.x", 1),        # missing binder
        ("x $", 2),         # bad character
    ])
    def test_errors_carry_byte_offsets(self, bad, offset):
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert err.value.offset == offset


class TestShow:
    def test_identity(self):
        assert show(parse(r"\x.x")) == r"\x.x"

    def test_left_nested_application_unparenthesized(self):
        assert show(parse("x y z")) == "x y z"

    def test_right_nested_application_parenthesized(self):
        assert show(parse("x (y z)")) == "x (y z)"

    def test_lambda_in_function_position(self):
        assert show(parse(r"(\x.x) y")) == r"(\x.x) y"

    def test_roundtrip_small_sweep(self):
        # print-parse identity, up to alpha, for every term up to size 9
        for t in terms_up_to(9):
            assert parse(show(t)) == t

    def test_roundtrip_after_contraction(self):
        # reducts mix hints and free names in ways enumeration never produces
        from essential_rewrite.reductions import beta_redexes, step_at
        for t in terms_up_to(7):
            for pos in beta_redexes(t):
                u = step_at(t, pos)
                assert parse(show(u)) == u


def oracle_show(t) -> str:
    """The rendering `show` must reproduce: free names of every subterm are
    collected up front, and each binder avoids the free names of its body
    and every enclosing binder name."""
    names: dict[int, frozenset[str]] = {}

    def collect(u) -> frozenset[str]:
        got = names.get(id(u))
        if got is not None:
            return got
        if isinstance(u, Free):
            result = frozenset((u.name,))
        elif isinstance(u, Var):
            result = frozenset()
        elif isinstance(u, Lam):
            result = collect(u.body)
        else:
            result = collect(u.fun) | collect(u.arg)
        names[id(u)] = result
        return result

    collect(t)
    out: list[str] = []
    _oracle_emit(t, [], names, out)
    return "".join(out)


def _oracle_fresh(hint: str, avoid) -> str:
    name = hint if hint else "x"
    while name in avoid:
        name += "'"
    return name


def _oracle_emit(t, env: list[str], names, out: list[str]) -> None:
    if isinstance(t, Var):
        if t.index < len(env):
            out.append(env[-1 - t.index])
        else:
            out.append(f"?{t.index}")
    elif isinstance(t, Free):
        out.append(t.name)
    elif isinstance(t, Lam):
        name = _oracle_fresh(t.hint, names[id(t.body)] | set(env))
        out.append(f"\\{name}.")
        env.append(name)
        _oracle_emit(t.body, env, names, out)
        env.pop()
    else:
        if isinstance(t.fun, Lam):
            out.append("(")
            _oracle_emit(t.fun, env, names, out)
            out.append(")")
        else:
            _oracle_emit(t.fun, env, names, out)
        out.append(" ")
        if isinstance(t.arg, (Lam, App)):
            out.append("(")
            _oracle_emit(t.arg, env, names, out)
            out.append(")")
        else:
            _oracle_emit(t.arg, env, names, out)


# binder hints that collide with a free name of the body, with a free name
# elsewhere in the term only, or with an enclosing binder; dangling indices
HINT_COLLISIONS = [
    Lam(App(Var(0), Free("x")), "x"),
    Lam(App(Var(0), Free("x'")), "x"),
    Lam(Lam(App(Var(0), Free("x")), "x"), "x"),
    App(Free("x"), Lam(Var(0), "x")),
    App(App(Free("x"), Lam(Lam(Var(1), "x"), "y")), Free("y")),
    Lam(Lam(Lam(App(Var(2), Var(0)), "x"), "x"), "x"),
    Lam(Lam(App(App(Var(1), Var(0)), Free("x'")), "x"), "x"),
    App(Lam(Lam(App(Var(1), Free("y")), "y"), "x"), Lam(Var(0), "y")),
    Lam(Var(0), ""),
    Lam(Lam(App(Var(0), Free("x")), ""), ""),
    Lam(Var(3), "x"),
    App(Var(0), Lam(App(Var(1), Var(0)), "y")),
    Lam(App(Var(1), Lam(Var(2), "x")), "x"),
]

_hints = st.sampled_from(["x", "y", "z", ""])
_leaves = st.one_of(st.builds(Var, st.integers(0, 3)),
                    st.builds(Free, st.sampled_from(["x", "y", "z", "x'"])))
_hinted_terms = st.recursive(
    _leaves,
    lambda sub: st.one_of(st.builds(Lam, sub, _hints), st.builds(App, sub, sub)),
    max_leaves=12)


class TestShowOracle:
    def test_every_small_term(self):
        for t in terms_up_to(7):
            assert show(t) == oracle_show(t)

    @pytest.mark.parametrize("t", HINT_COLLISIONS, ids=oracle_show)
    def test_hint_collisions(self, t):
        assert show(t) == oracle_show(t)

    @settings(max_examples=400, deadline=None)
    @given(_hinted_terms)
    def test_random_hints(self, t):
        assert show(t) == oracle_show(t)


class TestSubstitute:
    def test_single_occurrence(self):
        assert substitute(Free("x"), "x", p(r"\y.y")) == p(r"\y.y")

    def test_capture_forces_renaming(self):
        # (\y.x)[x := y] binds nothing: the result keeps y free
        result = substitute(p(r"\y.x"), "x", Free("y"))
        assert result == Lam(Free("y"))
        assert not alpha_eq(result, p(r"\y.y"))
        # and the printer must not let the binder capture the free y
        assert parse(show(result)) == result

    def test_duplication(self):
        ii = p(r"(\z.z) (\z.z)")
        assert substitute(App(Free("x"), Free("x")), "x", ii) == App(ii, ii)

    def test_no_occurrences_is_identity(self, small_terms):
        for t in small_terms[:500]:
            if count_occurrences(t, "q") == 0:
                assert alpha_eq(substitute(t, "q", p(OMEGA)), t)

    def test_occurrence_arithmetic(self, small_terms):
        # counting y in t[x := s] splits into t's and s's contributions
        s = p(r"x y (\z.y)")
        for t in small_terms[::7]:
            expected = (count_occurrences(t, "y")
                        + count_occurrences(t, "x") * count_occurrences(s, "y"))
            assert count_occurrences(substitute(t, "x", s), "y") == expected


class TestCounting:
    def test_two_occurrences(self):
        assert count_occurrences(App(Free("x"), Free("x")), "x") == 2

    def test_bound_does_not_count(self):
        assert count_occurrences(p(r"\x.x"), "x") == 0

    def test_mixed_term(self):
        # independent hand count: x (\y.x y) x has three free x's
        t = p(r"x (\y.x y) x")

        def naive(term):
            if isinstance(term, Free):
                return 1 if term.name == "x" else 0
            if isinstance(term, Lam):
                return naive(term.body)
            if isinstance(term, App):
                return naive(term.fun) + naive(term.arg)
            return 0

        assert count_occurrences(t, "x") == naive(t) == 3

    def test_count_bound(self):
        assert count_bound(parse(r"\x.x x").body) == 2
        assert count_bound(parse(r"\x.\y.x").body) == 1


class TestAlphaEq:
    def test_renamed_binders_equal(self):
        assert alpha_eq(p(r"\x.x"), p(r"\y.y"))

    def test_different_structure(self):
        assert not alpha_eq(p(r"\x.\y.x"), p(r"\a.\b.b"))

    def test_distinct_free_names(self):
        assert not alpha_eq(Free("x"), Free("y"))


class TestPredicates:
    def test_values(self):
        assert is_value(p(r"\x.x"))
        assert is_value(Free("x"))
        assert not is_value(p(r"(\z.z) (\z.z)"))

    def test_neutral_and_normal(self):
        t = p(r"x (\y.y)")
        assert is_neutral(t) and is_normal(t)

    def test_abstraction_normal_not_neutral(self):
        t = p(r"\x.x")
        assert is_normal(t) and not is_neutral(t)

    def test_redex_neither(self):
        t = p(r"(\x.x) y")
        assert not is_normal(t) and not is_neutral(t)


class TestSize:
    def test_variable(self):
        assert size(Free("x")) == 1

    def test_identity(self):
        assert size(p(r"\x.x")) == 2

    def test_omega(self):
        # 1 application node plus twice (lambda + application + 2 variables)
        assert size(p(OMEGA)) == 9


class TestPositions:
    def test_subterm_and_replace(self):
        t = p(r"x (y z)")
        assert subterm_at(t, ("R", "L")) == Free("y")
        assert replace_at(t, ("R", "L"), Free("w")) == p("x (w z)")

    def test_invalid_position(self):
        with pytest.raises(InvalidPositionError):
            subterm_at(Free("x"), ("L",))

    @pytest.mark.parametrize("find", [
        lambda t, pos: subterm_at(t, pos),
        lambda t, pos: replace_at(t, pos, Free("w")),
    ])
    def test_invalid_position_is_named_whole(self, find):
        # the message names the position given, not the part left where
        # the descent stopped
        with pytest.raises(InvalidPositionError, match=r"^no subterm at R\.R\.L$"):
            find(p(r"x (y z)"), ("R", "R", "L"))

    def test_parse_position(self):
        assert parse_position("L.B.R") == ("L", "B", "R")
        assert parse_position("") == ()
        assert parse_position("root") == ()
        with pytest.raises(InvalidPositionError):
            parse_position("L.Q")


class TestInstantiate:
    def test_contracts_redex(self):
        t = p(r"(\x.x x) y")
        assert instantiate(t.fun.body, t.arg) == p("y y")

    def test_under_binder_shifts(self):
        # (\x.\y.x) z reduces to \y.z: the substituted z must not bind to y
        t = p(r"(\x.\y.x) z")
        assert instantiate(t.fun.body, t.arg) == p(r"\y.z")

    def test_free_names_never_captured(self):
        t = p(r"(\x.\y.x y) (y y)")
        contracted = instantiate(t.fun.body, t.arg)
        assert contracted == Lam(App(App(Free("y"), Free("y")), Var(0)))
        assert "y" in free_names(contracted)

    def test_bound_argument_shifts_under_inner_binders(self):
        # contracting under an outer binder pushes a bound argument below a
        # fresh binder; its index must grow to keep pointing at the outer one
        t = p(r"\y.(\x.\w.x) y")
        redex = t.body
        assert instantiate(redex.fun.body, redex.arg) == p(r"\y.\w.y").body


# The copying definitions `shift`, `instantiate` and `is_locally_closed` had
# before every node recorded its loose bound: the oracles the sharing ones
# must agree with.


def oracle_shift(t, by, cutoff=0):
    """Add `by` to every dangling index >= cutoff, copying every node."""
    if isinstance(t, Var):
        return Var(t.index + by) if t.index >= cutoff else t
    if isinstance(t, Free):
        return t
    if isinstance(t, Lam):
        return Lam(oracle_shift(t.body, by, cutoff + 1), t.hint)
    return App(oracle_shift(t.fun, by, cutoff), oracle_shift(t.arg, by, cutoff))


def oracle_instantiate(body, arg):
    def go(t, depth):
        if isinstance(t, Var):
            if t.index == depth:
                return arg if depth == 0 else oracle_shift(arg, depth)
            if t.index > depth:
                return Var(t.index - 1)
            return t
        if isinstance(t, Free):
            return t
        if isinstance(t, Lam):
            return Lam(go(t.body, depth + 1), t.hint)
        return App(go(t.fun, depth), go(t.arg, depth))

    return go(body, 0)


def oracle_is_locally_closed(t, depth=0):
    if isinstance(t, Var):
        return t.index < depth
    if isinstance(t, Free):
        return True
    if isinstance(t, Lam):
        return oracle_is_locally_closed(t.body, depth + 1)
    return oracle_is_locally_closed(t.fun, depth) and oracle_is_locally_closed(t.arg, depth)


def oracle_loose(t):
    """1 + the greatest index dangling out of `t`, else 0."""
    def greatest(u, depth):  # the greatest index less `depth`, -1 if none
        if isinstance(u, Var):
            return u.index - depth
        if isinstance(u, Free):
            return -1
        if isinstance(u, Lam):
            return greatest(u.body, depth + 1)
        return max(greatest(u.fun, depth), greatest(u.arg, depth))

    return max(greatest(t, 0) + 1, 0)


class TestLooseBound:
    @pytest.mark.parametrize("pool", [("x", "y"), ()])
    def test_small_terms_against_the_oracle(self, pool):
        for u in subterms(enumerate_terms(EnumSpec(max_size=7, free_names=pool))):
            assert u.loose == oracle_loose(u)
            for depth in range(3):
                closed = is_locally_closed(under_binders(u, depth))
                assert closed == oracle_is_locally_closed(u, depth)

    def test_random_terms_against_the_oracle(self):
        for u in subterms(random_samples()):
            assert u.loose == oracle_loose(u)
            for depth in range(3):
                closed = is_locally_closed(under_binders(u, depth))
                assert closed == oracle_is_locally_closed(u, depth)

    def test_constructors(self):
        assert [Var(2).loose, Free("x").loose] == [3, 0]
        assert [Lam(Var(0)).loose, Lam(Var(2)).loose, Lam(Free("x")).loose] == [0, 2, 0]
        assert [App(Var(0), Var(3)).loose, App(Var(1), Free("x")).loose] == [4, 2]


# bodies and arguments: every subterm of the small terms and of the samples
_BODIES = subterms(terms_up_to(6))
_ARGS = subterms(terms_up_to(4))
_SAMPLES = subterms(random_samples())


class TestSharing:
    """`shift` and `instantiate` return a subterm they would leave alone as
    it is, and otherwise agree with the copying oracles."""

    @pytest.mark.parametrize("terms", [_BODIES, _SAMPLES], ids=["small", "random"])
    def test_shift(self, terms):
        for t in terms:
            # under k binders, `t` is shifted from the cutoff k
            for cutoff in range(3):
                u = under_binders(t, cutoff)
                for by in (1, 2):
                    shifted = shift(u, by)
                    assert shifted == under_binders(oracle_shift(t, by, cutoff), cutoff)
                    if t.loose <= cutoff:
                        assert shifted is u

    def test_instantiate_small_terms(self):
        for body in _BODIES:
            for arg in _ARGS:
                assert instantiate(body, arg) == oracle_instantiate(body, arg)

    def test_instantiate_random_redexes(self):
        redexes = [t for t in _SAMPLES if isinstance(t, App) and isinstance(t.fun, Lam)]
        assert redexes
        for t in redexes:
            assert instantiate(t.fun.body, t.arg) == oracle_instantiate(t.fun.body, t.arg)
        for body in _SAMPLES:
            for arg in _ARGS:
                assert instantiate(body, arg) == oracle_instantiate(body, arg)

    def test_closed_argument_is_held_at_every_occurrence(self):
        closed = [arg for arg in _ARGS if arg.loose == 0]
        under_binders = 0
        for body in _BODIES:
            occurrences = list(bound_positions(body))
            under_binders += sum(BODY in pos for pos in occurrences)
            for arg in closed:
                result = instantiate(body, arg)
                assert all(subterm_at(result, pos) is arg for pos in occurrences)
        assert under_binders

    def test_closed_argument_under_inner_binders(self):
        arg = p(r"\z.z z")
        result = instantiate(p(r"\x.\y.x (\w.y x) x").body, arg)
        assert result == p(r"\y.(\z.z z) (\w.y (\z.z z)) (\z.z z)")
        assert result.body.fun.fun is arg and result.body.arg is arg
        assert result.body.fun.arg.body.arg is arg

    def test_untouched_subterms_are_kept(self):
        # the identity neither holds the substituted index nor one past it
        body = p(r"\x.\y.x (\z.z)").body.body
        result = instantiate(body, Free("a"))
        assert result.arg is body.arg


# the six `reduce` systems: the four strategies' rows, then plain beta and
# beta-value reduction
_STRATEGIES = list(SYSTEMS.values())
_REDUCE_SYSTEMS = _STRATEGIES + [Base.BETA, Base.BETAV]


def _run(t, system, fuel):
    """Each step's position and whole term after it, in the run of
    `system` from `t` built on whole terms (`eager_run`)."""
    return [(step.position, u) for step, u in eager_run(t, system, fuel)[0]]


@pytest.fixture
def redraws(monkeypatch):
    """Every term whose free names `show_steps` reads: it reads those of a
    root only when it renders the whole of it."""
    read = []
    real = terms.free_names

    def spy(t):
        read.append(t)
        return real(t)

    monkeypatch.setattr(terms, "free_names", spy)
    return read


def _rendered_whole(read, steps):
    return [u for u in read if any(u is root for _, root in steps)]


def _rehint(t, rng):
    """`t` with binder hints drawn from a small pool, so hints collide with
    free names, with each other and with primed names."""
    if isinstance(t, Lam):
        return Lam(_rehint(t.body, rng), rng.choice(["x", "y", "x'", ""]))
    if isinstance(t, App):
        return App(_rehint(t.fun, rng), _rehint(t.arg, rng))
    return t


class TestShowSteps:
    """`show_steps` prints each term of a reduction exactly as `show` and
    the oracle do, splicing where it can."""

    def check(self, t, system, read=None):
        fired = _run(t, system, 20)
        want = [show(t)] + [show(u) for _, u in fired]
        assert want == [oracle_show(t)] + [oracle_show(u) for _, u in fired]
        if read is not None:
            read.clear()
        assert list(show_steps(t, fired)) == want
        return fired

    @pytest.mark.parametrize("pool", [("x", "y"), ("x",), ()])
    def test_every_small_term_under_every_system(self, pool, redraws):
        for t in enumerate_terms(EnumSpec(max_size=7, free_names=pool)):
            for system in _REDUCE_SYSTEMS:
                fired = self.check(t, system, redraws)
                if not pool:
                    # no free name, so no step of a closed term renders it whole
                    assert _rendered_whole(redraws, fired) == []

    def test_random_terms_under_every_strategy(self):
        rng = random.Random(8)
        for _ in range(3000):
            t = random_term(rng.randrange(2 ** 30), rng.randint(8, 25),
                            EnumSpec(max_size=25))
            t = _rehint(t, rng)
            for system in _STRATEGIES:
                self.check(t, system)

    def test_erased_free_name_renames_a_binder_on_the_path(self):
        t = Lam(App(Lam(Var(1)), Free("x")), "x")
        fired = _run(t, Base.BETA, 5)
        assert list(show_steps(t, fired)) == ["\\x'.(\\x.x') x", "\\x.x"]

    @pytest.mark.parametrize("t, whole", [
        # binders named against a free name of their bodies, above a step
        # that keeps the free names: spliced, with the names read back
        (p(r"x (\x.(\y.y) x)"), False),
        (Lam(App(Free("x"), App(Lam(Var(0), "y"), Var(0))), "x"), False),
        # a name whose text a dot would cut short is not read back
        (Lam(App(Free("a.b"), App(Lam(Var(0), "y"), Var(0))), "a.b"), True),
    ])
    def test_names_chosen_against_free_names(self, t, whole, redraws):
        fired = _run(t, Base.BETA, 5)
        want = [show(t)] + [show(u) for _, u in fired]
        redraws.clear()
        assert list(show_steps(t, fired)) == want
        assert (_rendered_whole(redraws, fired) != []) == whole

    @pytest.mark.parametrize("text, expected", [
        # a RIGHT redex contracts to a variable: its parentheses go
        (r"x ((\y.y) z)", ["x ((\\y.y) z)", "x z"]),
        # a LEFT redex contracts to an abstraction: parentheses appear
        (r"(\y.y) (\z.z) w", ["(\\y.y) (\\z.z) w", "(\\z.z) w", "w"]),
    ])
    def test_parentheses_follow_the_parent(self, text, expected, redraws):
        t = p(text)
        fired = _run(t, Base.BETA, 5)
        redraws.clear()
        assert list(show_steps(t, fired)) == expected
        assert _rendered_whole(redraws, fired) == []

    @pytest.mark.parametrize("start, step, text", [
        # differs off the path: the function beside the replaced argument
        (r"x ((\y.y) z)", lambda t: ((RIGHT,), App(Free("w"), Free("z"))), "w z"),
        # ... or the argument beside the replaced function
        (r"(\y.y) z x", lambda t: ((LEFT,), App(Free("z"), Free("w"))), "z w"),
        # a binder on the path changes its hint
        (r"\v.(\y.y) z", lambda t: ((BODY,), Lam(Free("z"), "w")), "\\w.z"),
        # only the path changed, but a free name turned up that the binder
        # around it must now avoid
        (r"\v.x ((\y.y) z)",
         lambda t: ((BODY, RIGHT), Lam(App(t.body.fun, Free("v")), "v")), "\\v'.x v"),
    ], ids=["off-path-right", "off-path-left", "hint", "new-free-name"])
    def test_other_changes_render_the_whole_term(self, start, step, text, redraws):
        t = p(start)
        steps = [step(t)]
        want = [show(t), text]
        redraws.clear()
        assert list(show_steps(t, steps)) == want
        assert _rendered_whole(redraws, steps) == [steps[0][1]]

    def test_steps_no_strategy_takes(self, redraws):
        """Steps at positions no `reduce` system fires at still splice."""
        v, iz = Var(0), App(Lam(Var(0), "y"), Free("z"))
        a = Lam(Var(0), "s")
        cases = [
            # one Var object beside the path under two different binders
            (Lam(App(Lam(App(v, iz), "long"), App(v, iz)), "s"),
             [(BODY, LEFT, BODY, RIGHT), (BODY, RIGHT, RIGHT)]),
            # inside the function of a redex
            (p(r"(\x.(\y.y) x) w"), [(LEFT, BODY)]),
        ]
        for t, positions in cases:
            steps = []
            for pos in positions:
                steps.append((pos, step_at(steps[-1][1] if steps else t, pos)))
            want = [show(t)] + [show(u) for _, u in steps]
            redraws.clear()
            assert list(show_steps(t, steps)) == want
            assert _rendered_whole(redraws, steps) == []
        # the contracted redex's argument, put under a binder of the reduct
        t = App(Free("f"), App(Lam(Var(0), "y"), a))
        steps = [((RIGHT,), App(t.fun, Lam(a, "s")))]
        assert list(show_steps(t, steps)) == ["f ((\\y.y) (\\s.s))", "f (\\s.\\s'.s')"]


# environments to measure a subterm in: the empty one, where its indices
# dangle, and ones whose names clash with the hints x, y and x' and with
# the free names x and y
_MEASURE_ENVS = [[], ["x"], ["y", "x"], ["x", "x'", "y"]]


def _scope(env):
    scope = terms._Scope()
    scope.update(env)
    return scope


def _env_named(env_id, base, env_ids):
    """The binder names the environment id `env_id` stands for, where id 0
    stands for `base`."""
    outer = {i: key for key, i in env_ids.items()}
    names = []
    while env_id:
        env_id, name = outer[env_id]
        names.append(name)
    return base + names[::-1]


class TestMeasure:
    """`_measure` adds up the width of a subterm's text from its children's
    widths, and it agrees with the oracle, which renders the text."""

    def check(self, subterms_, term_free):
        for base in _MEASURE_ENVS:
            widths, env_ids, new_ids = {}, {}, count(1)
            for u in subterms_:
                env, in_scope = list(base), _scope(base)
                try:
                    want = recursive.width(u, list(base), _scope(base), term_free)
                except terms._Redraw:
                    # a free name outside `term_free`
                    with pytest.raises(terms._Redraw):
                        terms._measure(u, env, in_scope, term_free, 0, widths, env_ids, new_ids)
                    continue
                got = terms._measure(u, env, in_scope, term_free, 0, widths, env_ids, new_ids)
                assert got == want
                assert env == base and in_scope == set(base)
                if type(u) in (App, Lam):
                    assert widths[(id(u), 0)] == (u, want)
            # every node entered, under a binder of a measured subterm too,
            # has its width in the environment its id stands for
            for (key, env_id), (node, w) in widths.items():
                env = _env_named(env_id, base, env_ids)
                assert key == id(node) and w == recursive.width(node, env, _scope(env), term_free)

    @pytest.mark.parametrize("pool, term_free", [
        (("x", "y"), {"x", "y"}),
        # y missing, and x' a candidate name checked against a body's names
        (("x", "y"), {"x", "x'"}),
        ((), set()),
        ((), {"x", "x'"}),
    ])
    def test_every_subterm_of_small_terms(self, pool, term_free):
        terms_ = list(enumerate_terms(EnumSpec(max_size=7, free_names=pool)))
        self.check(subterms(terms_), frozenset(term_free))

    def test_random_hints(self):
        rng = random.Random(5)
        terms_ = [_rehint(t, rng) for t in random_samples()]
        self.check(subterms(terms_), frozenset({"x", "y", "x'"}))
