"""Reference checks that do not reuse the code being timed.

Every check here walks terms with an explicit stack, so it never recurses on
term depth, and none of it calls the package's strategy, enumeration or
equality code: the counting recurrence, the Church-numeral printer, the
structural equality and the essential-step classifiers are written out again.
"""

from __future__ import annotations

import re
from functools import lru_cache

_BINDER = r"([A-Za-z][A-Za-z0-9']*)"
_TWO_BINDERS = re.compile(r"\\" + _BINDER + r"\.\\" + _BINDER + r"\.(.*)", re.S)
_ONE_BINDER = re.compile(r"\\" + _BINDER + r"\.(.*)", re.S)


def church_text(n: int, f: str, x: str) -> str:
    """The printed form of the Church numeral n with binders f and x."""
    return f"\\{f}.\\{x}.{church_body(n, f, x)}"


def church_body(n: int, f: str, x: str) -> str:
    if n == 0:
        return x
    if n == 1:
        return f"{f} {x}"
    return f"{f} (" * (n - 1) + f"{f} {x}" + ")" * (n - 1)


def is_church_numeral(text: str, n: int) -> bool:
    """Is `text` the printed form of the Church numeral n, up to binder names?"""
    match = _TWO_BINDERS.fullmatch(text)
    if match is None:
        return False
    f, x, body = match.groups()
    return f != x and body == church_body(n, f, x)


def is_identity(text: str) -> bool:
    """Is `text` the printed identity `\\a.a`, up to the binder name?"""
    match = _ONE_BINDER.fullmatch(text)
    return match is not None and match.group(2) == match.group(1)


def term_count(max_size: int, names: int) -> int:
    """Number of alpha-distinct terms of size <= max_size over `names` free
    names, by the textbook recurrence on de Bruijn terms."""

    @lru_cache(maxsize=None)
    def count(n: int, depth: int) -> int:
        if n == 1:
            return depth + names
        total = count(n - 1, depth + 1)
        for left in range(1, n - 1):
            total += count(left, depth) * count(n - 1 - left, depth)
        return total

    return sum(count(n, 0) for n in range(1, max_size + 1))


# ---------------------------------------------------------------------------
# Terms of the package, read through their fields only


def same_term(a, b) -> bool:
    """Structural equality of two nameless terms, without recursion."""
    stack = [(a, b)]
    while stack:
        s, t = stack.pop()
        if s is t:
            continue
        kind = type(s).__name__
        if kind != type(t).__name__:
            return False
        if kind == "Var":
            if s.index != t.index:
                return False
        elif kind == "Free":
            if s.name != t.name:
                return False
        elif kind == "Lam":
            stack.append((s.body, t.body))
        else:
            stack.append((s.fun, t.fun))
            stack.append((s.arg, t.arg))
    return True


def _is_redex(t) -> bool:
    return type(t).__name__ == "App" and type(t.fun).__name__ == "Lam"


def _is_value(t) -> bool:
    return type(t).__name__ != "App"


def _preorder(t):
    """(position, subterm) pairs in preorder, leftmost-outermost first."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        kind = type(u).__name__
        if kind == "Lam":
            stack.append((pos + ("B",), u.body))
        elif kind == "App":
            stack.append((pos + ("R",), u.arg))
            stack.append((pos + ("L",), u.fun))


def _subterm(t, pos):
    for tag in pos:
        t = t.body if tag == "B" else t.fun if tag == "L" else t.arg
    return t


def _head_redex(t):
    pos = ()
    while True:
        kind = type(t).__name__
        if kind == "Lam":
            pos, t = pos + ("B",), t.body
        elif kind == "App":
            if type(t.fun).__name__ == "Lam":
                return pos
            pos, t = pos + ("L",), t.fun
        else:
            return None


def is_essential(system: str, t, pos) -> bool:
    """Whether contracting the redex at `pos` is an essential step of `system`.

    head: the head redex; lo: the first redex in preorder; weak-cbv: a
    beta-value redex under no abstraction; ll: a redex crossing as few
    argument sides as any redex of the term.
    """
    if system == "head":
        return _head_redex(t) == pos
    if system == "lo":
        return next(p for p, u in _preorder(t) if _is_redex(u)) == pos
    if system == "weak-cbv":
        return "B" not in pos and _is_value(_subterm(t, pos).arg)
    least = min(p.count("R") for p, u in _preorder(t) if _is_redex(u))
    return pos.count("R") == least
