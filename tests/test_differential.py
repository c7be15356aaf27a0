"""Differential check of the core pipeline against a named-variable evaluator.

The reference implementation below uses explicit variable names and
rename-on-capture substitution, sharing no code with the package's nameless
terms.  Agreement of normal forms over every weakly normalizing small term
cross-validates parsing, substitution and the leftmost-outermost strategy in
one sweep.
"""

import itertools

from essential_rewrite import (
    EnumSpec,
    Outcome,
    SystemId,
    alpha_eq,
    enumerate_terms,
    explore,
    normalize,
    parse,
    show,
)
from essential_rewrite.terms import Free, Lam, Term, Var
from graph_deciders import Decision, weakly_normalizing

_fresh_counter = itertools.count()


def to_named(t: Term, env=()):
    if isinstance(t, Var):
        return ("var", env[-1 - t.index])
    if isinstance(t, Free):
        return ("var", t.name)
    if isinstance(t, Lam):
        name = f"b{next(_fresh_counter)}"
        return ("lam", name, to_named(t.body, env + (name,)))
    return ("app", to_named(t.fun, env), to_named(t.arg, env))


def named_free(t):
    kind = t[0]
    if kind == "var":
        return {t[1]}
    if kind == "lam":
        return named_free(t[2]) - {t[1]}
    return named_free(t[1]) | named_free(t[2])


def named_subst(t, name, s):
    kind = t[0]
    if kind == "var":
        return s if t[1] == name else t
    if kind == "app":
        return ("app", named_subst(t[1], name, s), named_subst(t[2], name, s))
    binder, body = t[1], t[2]
    if binder == name:
        return t
    if binder in named_free(s) and name in named_free(body):
        fresh = f"r{next(_fresh_counter)}"
        body = named_subst(body, binder, ("var", fresh))
        binder = fresh
    return ("lam", binder, named_subst(body, name, s))


def named_lo_step(t):
    """Contract the leftmost-outermost redex, or return None."""
    kind = t[0]
    if kind == "var":
        return None
    if kind == "lam":
        inner = named_lo_step(t[2])
        return None if inner is None else ("lam", t[1], inner)
    fun, arg = t[1], t[2]
    if fun[0] == "lam":
        return named_subst(fun[2], fun[1], arg)
    inner = named_lo_step(fun)
    if inner is not None:
        return ("app", inner, arg)
    inner = named_lo_step(arg)
    return None if inner is None else ("app", fun, inner)


def named_normal_form(t, fuel=500):
    for _ in range(fuel):
        nxt = named_lo_step(t)
        if nxt is None:
            return t
        t = nxt
    raise AssertionError("reference evaluator ran out of fuel")


def named_show(t):
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "lam":
        return f"\\{t[1]}.{named_show(t[2])}"
    fun = named_show(t[1])
    if t[1][0] == "lam":
        fun = f"({fun})"
    arg = named_show(t[2])
    if t[2][0] != "var":
        arg = f"({arg})"
    return f"{fun} {arg}"


def test_lo_normal_forms_agree_with_named_evaluator():
    checked = 0
    for t in enumerate_terms(EnumSpec(max_size=8)):
        graph = explore(t, node_budget=4000, depth_budget=40)
        if weakly_normalizing(graph) is not Decision.YES:
            continue
        trace, outcome = normalize(t, SystemId.LO, fuel=500)
        assert outcome is Outcome.NORMAL_FORM
        reference = parse(named_show(named_normal_form(to_named(t))))
        assert alpha_eq(trace.end, reference), show(t)
        checked += 1
    assert checked > 5000


def test_named_roundtrip_is_faithful():
    # the translation itself must preserve alpha-equivalence
    for t in enumerate_terms(EnumSpec(max_size=7)):
        assert alpha_eq(parse(named_show(to_named(t))), t)
