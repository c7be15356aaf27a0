"""Lambda-term syntax.

Terms use a locally nameless representation: bound variables are de Bruijn
indices, free variables carry names.  Alpha-equivalence is therefore plain
structural equality, and substituting a (locally closed) term for a free name
can never capture.  Binders keep the surface name around as a printing hint;
the hint is ignored by equality and hashing.
"""

from __future__ import annotations

from typing import Iterator


class Term:
    """Base class for lambda terms; concrete nodes are Var, Free, Lam, App."""

    __slots__ = ()

    def __str__(self) -> str:
        return show(self)

    def __repr__(self) -> str:
        return f"<{show(self)}>"


class Var(Term):
    """Bound variable, as the de Bruijn index of its binder."""

    __slots__ = ("index", "_hash")

    def __init__(self, index: int):
        self.index = index
        self._hash = hash(("v", index))

    def __eq__(self, other):
        return type(other) is Var and other.index == self.index

    def __hash__(self):
        return self._hash


class Free(Term):
    """Free variable with a global name."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("f", name))

    def __eq__(self, other):
        return type(other) is Free and other.name == self.name

    def __hash__(self):
        return self._hash


class Lam(Term):
    """Abstraction; `hint` is the preferred surface name for the binder."""

    __slots__ = ("body", "hint", "_hash")

    def __init__(self, body: Term, hint: str = "x"):
        self.body = body
        self.hint = hint
        self._hash = hash(("l", body._hash))

    def __eq__(self, other):
        return type(other) is Lam and other.body == self.body

    def __hash__(self):
        return self._hash


class App(Term):
    """Application, left-associative in the surface syntax."""

    __slots__ = ("fun", "arg", "_hash")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        self._hash = hash(("a", fun._hash, arg._hash))

    def __eq__(self, other):
        return type(other) is App and other.fun == self.fun and other.arg == self.arg

    def __hash__(self):
        return self._hash


def alpha_eq(t: Term, s: Term) -> bool:
    """Alpha-equivalence; structural equality of the nameless form."""
    return t == s


def size(t: Term) -> int:
    """Node count: variables are 1, Lam adds 1 to its body, App adds 1."""
    if isinstance(t, (Var, Free)):
        return 1
    if isinstance(t, Lam):
        return 1 + size(t.body)
    return 1 + size(t.fun) + size(t.arg)


def free_names(t: Term) -> frozenset[str]:
    out: set[str] = set()
    pending = [t]
    while pending:
        u = pending.pop()
        while True:
            kind = type(u)
            if kind is App:
                pending.append(u.arg)
                u = u.fun
            elif kind is Lam:
                u = u.body
            else:
                if kind is Free:
                    out.add(u.name)
                break
    return frozenset(out)


def is_locally_closed(t: Term, depth: int = 0) -> bool:
    """True iff every de Bruijn index points at an enclosing binder."""
    if isinstance(t, Var):
        return t.index < depth
    if isinstance(t, Free):
        return True
    if isinstance(t, Lam):
        return is_locally_closed(t.body, depth + 1)
    return is_locally_closed(t.fun, depth) and is_locally_closed(t.arg, depth)


def is_closed(t: Term) -> bool:
    return not free_names(t) and is_locally_closed(t)


# ---------------------------------------------------------------------------
# Substitution


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Replace every free occurrence of `name` in `t` by `replacement`.

    Capture-free by construction: binders are indices, so the free names of
    `replacement` cannot be caught by them.
    """
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


def count_occurrences(t: Term, name: str) -> int:
    """Number of free occurrences of `name` in `t`."""
    if isinstance(t, Free):
        return 1 if t.name == name else 0
    if isinstance(t, Lam):
        return count_occurrences(t.body, name)
    if isinstance(t, App):
        return count_occurrences(t.fun, name) + count_occurrences(t.arg, name)
    return 0


def count_bound(t: Term, index: int = 0) -> int:
    """Occurrences in `t` of the dangling de Bruijn index `index`."""
    if isinstance(t, Var):
        return 1 if t.index == index else 0
    if isinstance(t, Lam):
        return count_bound(t.body, index + 1)
    if isinstance(t, App):
        return count_bound(t.fun, index) + count_bound(t.arg, index)
    return 0


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every dangling index >= cutoff."""
    if isinstance(t, Var):
        return Var(t.index + by) if t.index >= cutoff else t
    if isinstance(t, Free):
        return t
    if isinstance(t, Lam):
        return Lam(shift(t.body, by, cutoff + 1), t.hint)
    return App(shift(t.fun, by, cutoff), shift(t.arg, by, cutoff))


def instantiate(body: Term, arg: Term) -> Term:
    """Substitute `arg` for the binder of the abstraction whose body this is.

    This is the contraction of a redex: App(Lam(body), arg) -> instantiate(body, arg).
    """

    def go(t: Term, depth: int) -> Term:
        if isinstance(t, Var):
            if t.index == depth:
                return arg if depth == 0 else shift(arg, depth)
            if t.index > depth:
                return Var(t.index - 1)
            return t
        if isinstance(t, Free):
            return t
        if isinstance(t, Lam):
            return Lam(go(t.body, depth + 1), t.hint)
        return App(go(t.fun, depth), go(t.arg, depth))

    return go(body, 0)


# ---------------------------------------------------------------------------
# Positions

# A position is a path of direction tags from the root:
#   "L" = function side of an application, "R" = argument side, "B" = under a binder.
# Tuples of tags sort in leftmost-outermost (preorder) order.
Position = tuple[str, ...]

LEFT, RIGHT, BODY = "L", "R", "B"


class InvalidPositionError(ValueError):
    pass


def subterm_at(t: Term, pos: Position) -> Term:
    for tag in pos:
        if tag == LEFT and isinstance(t, App):
            t = t.fun
        elif tag == RIGHT and isinstance(t, App):
            t = t.arg
        elif tag == BODY and isinstance(t, Lam):
            t = t.body
        else:
            raise InvalidPositionError(f"no subterm at {format_position(pos)}")
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    if not pos:
        return new
    tag = pos[0]
    if tag == LEFT and isinstance(t, App):
        return App(replace_at(t.fun, pos[1:], new), t.arg)
    if tag == RIGHT and isinstance(t, App):
        return App(t.fun, replace_at(t.arg, pos[1:], new))
    if tag == BODY and isinstance(t, Lam):
        return Lam(replace_at(t.body, pos[1:], new), t.hint)
    raise InvalidPositionError(f"no subterm at {format_position(pos)}")


def bound_positions(t: Term, index: int = 0, prefix: Position = ()) -> Iterator[Position]:
    """Positions of the dangling index `index`, in preorder."""
    if isinstance(t, Var):
        if t.index == index:
            yield prefix
    elif isinstance(t, Lam):
        yield from bound_positions(t.body, index + 1, prefix + (BODY,))
    elif isinstance(t, App):
        yield from bound_positions(t.fun, index, prefix + (LEFT,))
        yield from bound_positions(t.arg, index, prefix + (RIGHT,))


def format_position(pos: Position) -> str:
    return ".".join(pos) if pos else "root"


def parse_position(text: str) -> Position:
    text = text.strip()
    if text in ("", "root"):
        return ()
    tags = tuple(text.split("."))
    for tag in tags:
        if tag not in (LEFT, RIGHT, BODY):
            raise InvalidPositionError(f"bad position tag {tag!r} in {text!r}")
    return tags


# ---------------------------------------------------------------------------
# Structural predicates


def is_value(t: Term) -> bool:
    """Variables and abstractions are values; applications are not."""
    return isinstance(t, (Var, Free, Lam))


def is_neutral(t: Term) -> bool:
    """Neutral = a variable, or a neutral term applied to a normal one."""
    if isinstance(t, (Var, Free)):
        return True
    if isinstance(t, App):
        return is_neutral(t.fun) and is_normal(t.arg)
    return False


def is_normal(t: Term) -> bool:
    """No beta-redex anywhere: neutral, or an abstraction over a normal body."""
    if isinstance(t, Lam):
        return is_normal(t.body)
    return is_neutral(t)


# ---------------------------------------------------------------------------
# Parsing

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789'")
_LAMBDA_SIGILS = ("\\", "λ")


class ParseError(ValueError):
    """Syntax error; `offset` is the byte offset of the offending character."""

    def __init__(self, message: str, text: str, index: int):
        self.offset = len(text[:index].encode("utf-8"))
        super().__init__(f"{message} at byte {self.offset}")


def parse(text: str) -> Term:
    """Parse the surface syntax.

    Grammar: term := lam | app ; lam := ("\\" | "λ") IDENT "." term ;
    app := atom+ (left-associative) ; atom := IDENT | "(" term ")".
    Free variables are allowed; both lambda sigils are accepted.
    """
    tokens = list(_tokenize(text))
    term, at = _parse_term(text, tokens, 0, [])
    if at != len(tokens):
        raise ParseError("unexpected input after term", text, tokens[at][2])
    return term


def _tokenize(text: str):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _LAMBDA_SIGILS:
            yield ("lam", c, i)
            i += 1
        elif c in "().":
            yield (c, c, i)
            i += 1
        elif c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            yield ("ident", text[i:j], i)
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", text, i)


def _parse_term(text: str, tokens, at: int, env: list[str]):
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


def _parse_app(text: str, tokens, at: int, env: list[str]):
    atom, at = _parse_atom(text, tokens, at, env)
    while at < len(tokens) and tokens[at][0] in ("ident", "("):
        right, at = _parse_atom(text, tokens, at, env)
        atom = App(atom, right)
    return atom, at


def _parse_atom(text: str, tokens, at: int, env: list[str]):
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


# ---------------------------------------------------------------------------
# Printing


def show(t: Term) -> str:
    """Minimal-parentheses rendering; parse(show(t)) is alpha-equivalent to t.

    Binder hints are kept where possible and primed when they would capture a
    free name of the body or shadow an enclosing binder.
    """
    # A hint can only capture a free name of the whole term, so the free names
    # of a body are needed only at a binder whose candidate name is one of
    # those; closed terms never need them.  Binder names in scope are
    # distinct (a clash is primed away), so one set tracks them.
    term_free = free_names(t)
    env: list[str] = []
    in_scope: set[str] = set()
    out: list[str] = []
    append = out.append

    def emit(u: Term) -> None:
        kind = type(u)
        if kind is Var:
            i = u.index
            # a dangling index appears in internal subterms only
            append(env[-1 - i] if i < len(env) else f"?{i}")
        elif kind is Free:
            append(u.name)
        elif kind is Lam:
            name = u.hint or "x"
            if name in in_scope or name in term_free:
                name = _fresh(name, in_scope, term_free, u.body)
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

    emit(t)
    return "".join(out)


def _fresh(name: str, in_scope: set[str], term_free: frozenset[str], body: Term) -> str:
    """First of name, name', name'', ... neither in scope nor free in `body`."""
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
