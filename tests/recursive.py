"""The recursive definitions the package's loops replaced, kept as oracles.

Each function here recurses on the depth of a term, a derivation or a
requested size, as the package did before every such walk became a loop over
an explicit stack.  `test_loops.py` checks that each loop agrees with its
original; deep inputs need a raised recursion limit here.  `width` is
the render-to-measure definition that `show_spliced`'s measuring walk
replaced, kept as the oracle `test_terms.py` checks the walk against.
"""

from __future__ import annotations

import random

from essential_rewrite.parallel import (
    Flavor,
    ParDerivation,
    Rule,
    _abs,
    _app,
    _beta,
    _var,
    is_value,
)
from essential_rewrite.reductions import level_json
from essential_rewrite.terms import (
    App,
    BODY,
    Free,
    LEFT,
    Lam,
    ParseError,
    RIGHT,
    Var,
    _Redraw,
    _emitter,
    _tokenize,
    free_names,
)

# ---------------------------------------------------------------------------
# terms


def equal(s, t) -> bool:
    """Structural equality, as `Lam.__eq__` and `App.__eq__` recursed."""
    if s is t:
        return True
    if type(s) is not type(t):
        return False
    if type(s) is Lam:
        return equal(s.body, t.body)
    if type(s) is App:
        return equal(s.fun, t.fun) and equal(s.arg, t.arg)
    return s == t


def size(t) -> int:
    if isinstance(t, (Var, Free)):
        return 1
    if isinstance(t, Lam):
        return 1 + size(t.body)
    return 1 + size(t.fun) + size(t.arg)


def substitute(t, name, replacement):
    if isinstance(t, Var):
        return t
    if isinstance(t, Free):
        return replacement if t.name == name else t
    if isinstance(t, Lam):
        body = substitute(t.body, name, replacement)
        return t if body is t.body else Lam(body, t.hint)
    fun = substitute(t.fun, name, replacement)
    arg = substitute(t.arg, name, replacement)
    return t if fun is t.fun and arg is t.arg else App(fun, arg)


def count_occurrences(t, name) -> int:
    if isinstance(t, Free):
        return 1 if t.name == name else 0
    if isinstance(t, Lam):
        return count_occurrences(t.body, name)
    if isinstance(t, App):
        return count_occurrences(t.fun, name) + count_occurrences(t.arg, name)
    return 0


def count_bound(t, index=0) -> int:
    if isinstance(t, Var):
        return 1 if t.index == index else 0
    if isinstance(t, Lam):
        return count_bound(t.body, index + 1)
    if isinstance(t, App):
        return count_bound(t.fun, index) + count_bound(t.arg, index)
    return 0


def shift(t, by, cutoff=0):
    """The sharing `shift`: a subterm with no index >= cutoff is kept."""
    if t.loose <= cutoff:
        return t
    if isinstance(t, Var):
        return Var(t.index + by)
    if isinstance(t, Lam):
        return Lam(shift(t.body, by, cutoff + 1), t.hint)
    return App(shift(t.fun, by, cutoff), shift(t.arg, by, cutoff))


def instantiate(body, arg):
    """The sharing `instantiate`: a subterm with no index reaching the
    binder is kept, and so is a locally closed `arg`."""

    def go(t, depth):
        if t.loose <= depth:
            return t
        if isinstance(t, Var):
            if t.index == depth:
                return arg if depth == 0 else shift(arg, depth)
            return Var(t.index - 1)
        if isinstance(t, Lam):
            return Lam(go(t.body, depth + 1), t.hint)
        return App(go(t.fun, depth), go(t.arg, depth))

    return go(body, 0)


def bound_positions(t, index=0, prefix=()):
    if isinstance(t, Var):
        if t.index == index:
            yield prefix
    elif isinstance(t, Lam):
        yield from bound_positions(t.body, index + 1, prefix + (BODY,))
    elif isinstance(t, App):
        yield from bound_positions(t.fun, index, prefix + (LEFT,))
        yield from bound_positions(t.arg, index, prefix + (RIGHT,))


def is_neutral(t) -> bool:
    if isinstance(t, (Var, Free)):
        return True
    if isinstance(t, App):
        return is_neutral(t.fun) and is_normal(t.arg)
    return False


def is_normal(t) -> bool:
    if isinstance(t, Lam):
        return is_normal(t.body)
    return is_neutral(t)


def leftmost_outermost(t):
    """The position of the first beta-redex of `t` in preorder, or None: the
    leftmost-outermost redex by its definition, with no neutrality test."""
    if isinstance(t, Lam):
        pos = leftmost_outermost(t.body)
        return None if pos is None else (BODY,) + pos
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            return ()
        for tag, child in ((LEFT, t.fun), (RIGHT, t.arg)):
            pos = leftmost_outermost(child)
            if pos is not None:
                return (tag,) + pos
    return None


def parse(text):
    tokens = list(_tokenize(text))
    term, at = _parse_term(text, tokens, 0, [])
    if at != len(tokens):
        raise ParseError("unexpected input after term", text, tokens[at][2])
    return term


def _parse_term(text, tokens, at, env):
    if at < len(tokens) and tokens[at][0] == "lam":
        if at + 1 >= len(tokens) or tokens[at + 1][0] != "ident":
            raise ParseError("expected binder name after lambda", text,
                             tokens[at][2] + 1 if at + 1 >= len(tokens) else tokens[at + 1][2])
        name = tokens[at + 1][1]
        if at + 2 >= len(tokens) or tokens[at + 2][0] != ".":
            raise ParseError("expected '.' after binder", text,
                             len(text) if at + 2 >= len(tokens) else tokens[at + 2][2])
        body, at = _parse_term(text, tokens, at + 3, env + [name])
        return Lam(body, name), at
    return _parse_app(text, tokens, at, env)


def _parse_app(text, tokens, at, env):
    atom, at = _parse_atom(text, tokens, at, env)
    while at < len(tokens) and tokens[at][0] in ("ident", "("):
        right, at = _parse_atom(text, tokens, at, env)
        atom = App(atom, right)
    return atom, at


def _parse_atom(text, tokens, at, env):
    if at >= len(tokens):
        raise ParseError("unexpected end of input", text, len(text))
    kind, value, idx = tokens[at]
    if kind == "ident":
        for depth, binder in enumerate(reversed(env)):
            if binder == value:
                return Var(depth), at + 1
        return Free(value), at + 1
    if kind == "(":
        term, at = _parse_term(text, tokens, at + 1, env)
        if at >= len(tokens) or tokens[at][0] != ")":
            raise ParseError("expected ')'", text, len(text) if at >= len(tokens) else tokens[at][2])
        return term, at + 1
    raise ParseError(f"unexpected token {value!r}", text, idx)


def show(t) -> str:
    out: list[str] = []
    emitter(out, [], set(), free_names(t))(t)
    return "".join(out)


def emitter(out, env, in_scope, term_free, shared=None, shared_text=None):
    """The recursive emitter, with its one-prime-at-a-time `fresh`."""
    append = out.append
    depth = len(env)

    def emit(u):
        kind = type(u)
        if kind is Var:
            i = u.index
            append(env[-1 - i] if i < len(env) else f"?{i}")
        elif kind is Free:
            if u.name not in term_free:
                raise _Redraw(u.name)
            append(u.name)
        elif u is shared and len(env) == depth:
            append(shared_text())
        elif kind is Lam:
            name = u.hint or "x"
            if name in in_scope or name in term_free:
                name = fresh(name, in_scope, term_free, u.body)
            append(f"\\{name}.")
            env.append(name)
            in_scope.add(name)
            emit(u.body)
            env.pop()
            in_scope.discard(name)
        else:
            fun, arg = u.fun, u.arg
            if type(fun) is Lam:
                append("(")
                emit(fun)
                append(") ")
            else:
                emit(fun)
                append(" ")
            kind = type(arg)
            if kind is Lam or kind is App:
                append("(")
                emit(arg)
                append(")")
            else:
                emit(arg)

    return emit


def fresh(name, in_scope, term_free, body):
    body_free = None
    while True:
        if name not in in_scope:
            if name not in term_free:
                return name
            if body_free is None:
                body_free = free_names(body)
            if name not in body_free:
                return name
        name += "'"


def width(u, env, in_scope, term_free) -> int:
    """The width of the text the emitter writes for `u`: the lengths of its
    pieces, rendered and added up."""
    out: list[str] = []
    _emitter(out, env, in_scope, term_free)(u)
    return sum(map(len, out))


# ---------------------------------------------------------------------------
# parallel


def derive(t, sel, flavor):
    """`parallel._derive`: the derivation contracting the (valid) `sel`."""
    if not sel:
        return identity_derivation(t, flavor)
    if () in sel:
        body = derive(t.fun.body, _strip(sel, (LEFT, BODY)), flavor)
        arg = derive(t.arg, _strip(sel, (RIGHT,)), flavor)
        return _beta(flavor, t, body, arg)
    if isinstance(t, Lam):
        return _abs(flavor, t, derive(t.body, _strip(sel, (BODY,)), flavor))
    left = derive(t.fun, _strip(sel, (LEFT,)), flavor)
    right = derive(t.arg, _strip(sel, (RIGHT,)), flavor)
    return _app(flavor, t, left, right)


def _strip(sel, prefix):
    k = len(prefix)
    return frozenset(p[k:] for p in sel if p[:k] == prefix)


def identity_derivation(t, flavor):
    if isinstance(t, Lam):
        return _abs(flavor, t, identity_derivation(t.body, flavor))
    if isinstance(t, App):
        return _app(flavor, t, identity_derivation(t.fun, flavor),
                    identity_derivation(t.arg, flavor))
    return _var(flavor, t)


def all_parallel_steps(t, flavor, cap=2 ** 14):
    from itertools import islice
    return islice(_combine(t, flavor, cap), cap)


def _combine(t, flavor, cap):
    if isinstance(t, Lam):
        for child in list(all_parallel_steps(t.body, flavor, cap)):
            yield _abs(flavor, t, child)
    elif isinstance(t, App):
        args = list(all_parallel_steps(t.arg, flavor, cap))
        fun = t.fun
        if isinstance(fun, Lam):
            redex = flavor is not Flavor.CBV or is_value(t.arg)
            bodies = list(all_parallel_steps(fun.body, flavor, cap))
            lams = [_abs(flavor, fun, body) for body in bodies]
            for arg in args:
                for body, lam in zip(bodies, lams):
                    yield _app(flavor, t, lam, arg)
                    if redex:
                        yield _beta(flavor, t, body, arg)
        else:
            funs = list(all_parallel_steps(fun, flavor, cap))
            for arg in args:
                for left in funs:
                    yield _app(flavor, t, left, arg)
    else:
        yield _var(flavor, t)


def sequential_index(d: ParDerivation) -> int:
    if d.rule is Rule.VAR:
        return 0
    if d.rule is Rule.ABS:
        return sequential_index(d.children[0])
    if d.rule is Rule.APP:
        return sequential_index(d.children[0]) + sequential_index(d.children[1])
    body, arg = d.children
    return sequential_index(body) + count_bound(body.target) * sequential_index(arg) + 1


def graft(d, name, d2, flavor):
    """`parallel._graft`: every VAR leaf on `name` replaced by `d2`."""
    if d.rule is Rule.VAR:
        return d2 if d.source == Free(name) else d
    if d.rule is Rule.ABS:
        child = graft(d.children[0], name, d2, flavor)
        return _abs(flavor, Lam(child.source, d.source.hint), child)
    left = graft(d.children[0], name, d2, flavor)
    right = graft(d.children[1], name, d2, flavor)
    if d.rule is Rule.APP:
        return _app(flavor, App(left.source, right.source), left, right)
    return _beta(flavor, App(Lam(left.source, d.source.fun.hint), right.source), left, right)


def realize(d) -> list:
    out: list = []
    _realize(d, (), out)
    return out


def _realize(d, prefix, out):
    if d.rule is Rule.ABS:
        _realize(d.children[0], prefix + (BODY,), out)
    elif d.rule is Rule.APP:
        _realize(d.children[0], prefix + (LEFT,), out)
        _realize(d.children[1], prefix + (RIGHT,), out)
    elif d.rule is Rule.BETA:
        _realize(d.children[0], prefix + (LEFT, BODY), out)
        _realize(d.children[1], prefix + (RIGHT,), out)
        out.append(prefix)


def sequentialize(d) -> list:
    out: list = []
    _sequentialize(d, (), out)
    return out


def _sequentialize(d, prefix, out):
    if d.rule is Rule.ABS:
        _sequentialize(d.children[0], prefix + (BODY,), out)
    elif d.rule is Rule.APP:
        _sequentialize(d.children[0], prefix + (LEFT,), out)
        _sequentialize(d.children[1], prefix + (RIGHT,), out)
    elif d.rule is Rule.BETA:
        body, arg = d.children
        out.append(prefix)
        _sequentialize(body, prefix, out)
        arg_steps: list = []
        _sequentialize(arg, (), arg_steps)
        for occurrence in bound_positions(body.target):
            out.extend(prefix + occurrence + q for q in arg_steps)


def to_json(d) -> dict:
    return {
        "rule": d.rule.value,
        "flavor": d.flavor.value,
        "index": level_json(d.index),
        "children": [to_json(c) for c in d.children],
    }


# ---------------------------------------------------------------------------
# enumeration


def exact(n, depth, pool, memo):
    """`enumeration._exact`: every term of size `n` under `depth` binders."""
    key = (n, depth)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out = []
    if n == 1:
        out.extend(Var(i) for i in range(depth))
        out.extend(Free(name) for name in pool)
    else:
        out.extend(Lam(body) for body in exact(n - 1, depth + 1, pool, memo))
        for left_size in range(1, n - 1):
            rights = exact(n - 1 - left_size, depth, pool, memo)
            for fun in exact(left_size, depth, pool, memo):
                out.extend(App(fun, arg) for arg in rights)
    memo[key] = out
    return out


def random_term(seed, target_size, pool=("x", "y")):
    """`enumeration.random_term` on a spec with free-name pool `pool`."""
    return _random(random.Random(seed), target_size, 0, pool)


def _random(rng, n, depth, pool):
    leaves = depth + len(pool)
    if n == 1:
        i = rng.randrange(leaves)
        return Var(i) if i < depth else Free(pool[i - depth])
    choices = []
    if n >= 2:
        choices.append("lam")
    if n >= 3 and (leaves > 0 or n >= 5):
        choices.append("app")
        choices.append("app")
    kind = rng.choice(choices)
    if kind == "lam":
        return Lam(_random(rng, n - 1, depth + 1, pool))
    lo = 1 if leaves > 0 else 2
    hi = n - 1 - lo
    left = rng.randint(lo, hi)
    return App(
        _random(rng, left, depth, pool),
        _random(rng, n - 1 - left, depth, pool),
    )
