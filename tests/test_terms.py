"""Term syntax: parsing, printing, substitution and the structural predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from essential_rewrite.terms import (
    App,
    Free,
    InvalidPositionError,
    Lam,
    ParseError,
    Var,
    alpha_eq,
    count_bound,
    count_occurrences,
    free_names,
    instantiate,
    is_neutral,
    is_normal,
    is_value,
    parse,
    parse_position,
    replace_at,
    show,
    size,
    substitute,
    subterm_at,
)
from conftest import OMEGA, p, terms_up_to


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
