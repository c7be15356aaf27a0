"""Lambda-term syntax.

Terms use a locally nameless representation: bound variables are de Bruijn
indices, free variables carry names.  Alpha-equivalence is therefore plain
structural equality, and substituting a (locally closed) term for a free name
can never capture.  Binders keep the surface name around as a printing hint;
the hint is ignored by equality and hashing.

Every node records `loose`, one more than the greatest de Bruijn index that
dangles out of it (0 when it is locally closed), the loose bound-variable
range of Lean 4 (de Moura & Ullrich, CADE 2021).  `shift` and `instantiate`
return a subterm whose indices they would leave alone as it is, so a closed
argument is shared, not copied, at every occurrence of its variable.  Beside
it every node records `normal`, whether it is beta-normal (no abstraction
applied anywhere in it), a cached flag of the same kind: a variable is
normal, an abstraction is as normal as its body, and an application is
normal when both sides are and its function side is no abstraction.  The
redex searches of reductions.py read it to skip normal subterms, and
`is_normal` and `is_neutral` read only it.  A stale parent on a zipper path
(reductions.Walk) still holds the child a step replaced, so its flag is
stale too: the searches read the flag of live nodes only.

No function here recurses on the depth of a term: each walk is a loop that
goes down function sides and bodies itself and keeps a stack of the
argument sides still to visit, or of the ancestors still to rebuild.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Callable, Iterable, Iterator


class Term:
    """Base class for lambda terms; concrete nodes are Var, Free, Lam, App.

    `loose` is 1 + the greatest index dangling out of the term, else 0, and
    `normal` tells whether the term is beta-normal.
    """

    __slots__ = ()
    loose: int
    normal: bool

    def __str__(self) -> str:
        return show(self)

    def __repr__(self) -> str:
        return f"<{show(self)}>"


class Var(Term):
    """Bound variable, as the de Bruijn index of its binder."""

    __slots__ = ("index", "loose", "_hash")
    normal = True

    def __init__(self, index: int):
        self.index = index
        self.loose = index + 1
        self._hash = hash(("v", index))

    def __eq__(self, other):
        return type(other) is Var and other.index == self.index

    def __hash__(self):
        return self._hash


class Free(Term):
    """Free variable with a global name."""

    __slots__ = ("name", "loose", "_hash")
    normal = True

    def __init__(self, name: str):
        self.name = name
        self.loose = 0
        self._hash = hash(("f", name))

    def __eq__(self, other):
        return type(other) is Free and other.name == self.name

    def __hash__(self):
        return self._hash


class Lam(Term):
    """Abstraction; `hint` is the preferred surface name for the binder."""

    __slots__ = ("body", "hint", "loose", "normal", "_hash")

    def __init__(self, body: Term, hint: str = "x"):
        self.body = body
        self.hint = hint
        loose = body.loose
        self.loose = loose - 1 if loose else 0
        self.normal = body.normal
        self._hash = hash(("l", body._hash))

    def __eq__(self, other):
        # shared subterms make the identity test pay
        return self is other or type(other) is Lam and _same(self, other)

    def __hash__(self):
        return self._hash


class App(Term):
    """Application, left-associative in the surface syntax."""

    __slots__ = ("fun", "arg", "loose", "normal", "_hash")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        left, right = fun.loose, arg.loose
        self.loose = left if left > right else right
        self.normal = fun.normal and arg.normal and type(fun) is not Lam
        self._hash = hash(("a", fun._hash, arg._hash))

    def __eq__(self, other):
        return self is other or type(other) is App and _same(self, other)

    def __hash__(self):
        return self._hash


def _same(s: Term, t: Term) -> bool:
    """Structural equality of two terms of one type, hints ignored."""
    if s._hash != t._hash:
        return False
    pending = []  # pairs of arguments still to compare
    while True:
        if s is not t:
            kind = type(s)
            if kind is not type(t):
                return False
            if kind is App:
                pending.append((s.arg, t.arg))
                s, t = s.fun, t.fun
                continue
            if kind is Lam:
                s, t = s.body, t.body
                continue
            if kind is Var:
                if s.index != t.index:
                    return False
            elif s.name != t.name:
                return False
        if not pending:
            return True
        s, t = pending.pop()


def alpha_eq(t: Term, s: Term) -> bool:
    """Alpha-equivalence; structural equality of the nameless form."""
    return t == s


def _nodes(t: Term) -> Iterator[Term]:
    """Every node of `t`, in preorder."""
    pending = [t]
    while pending:
        u = pending.pop()
        yield u
        if type(u) is App:
            pending += (u.arg, u.fun)
        elif type(u) is Lam:
            pending.append(u.body)


def size(t: Term) -> int:
    """Node count: variables are 1, Lam adds 1 to its body, App adds 1."""
    return sum(1 for _ in _nodes(t))


def free_names(t: Term) -> frozenset[str]:
    return frozenset(u.name for u in _nodes(t) if type(u) is Free)


def is_locally_closed(t: Term) -> bool:
    """True iff every de Bruijn index points at a binder of `t`."""
    return t.loose == 0


def is_closed(t: Term) -> bool:
    return not free_names(t) and is_locally_closed(t)


# ---------------------------------------------------------------------------
# Substitution


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Replace every free occurrence of `name` in `t` by `replacement`.

    Capture-free by construction: binders are indices, so the free names of
    `replacement` cannot be caught by them.
    """
    # at depth -inf no subterm counts as locally closed: every leaf is seen
    return _map_open(t, -math.inf, lambda u, depth: (
        replacement if type(u) is Free and u.name == name else u))


def count_occurrences(t: Term, name: str) -> int:
    """Number of free occurrences of `name` in `t`."""
    return sum(type(u) is Free and u.name == name for u in _nodes(t))


def count_bound(t: Term) -> int:
    """Occurrences in `t` of the dangling de Bruijn index 0."""
    n = 0
    pending = [(t, 0)]
    while pending:
        u, i = pending.pop()
        # a subterm under d binders holds index d only if its bound is past it
        while u.loose > i:
            kind = type(u)
            if kind is App:
                pending.append((u.arg, i))
                u = u.fun
            elif kind is Lam:
                u = u.body
                i += 1
            else:
                n += u.index == i
                break
    return n


def _map_open(t: Term, depth: int | float, leaf: Callable[[Term, int], Term]) -> Term:
    """`t` with each leaf `u` that is not locally closed under the `depth`
    binders around `t` and the d binders of `t` above it replaced by
    `leaf(u, depth + d)`.  A subterm without such a leaf is returned as it
    is, and so is a node whose children come back as they are."""
    # `path` holds each ancestor still to rebuild with the side the loop
    # took down from it (LEFT or BODY) or, once its function side is
    # rebuilt, that new function side
    path: list[tuple[Term, object]] = []
    node = t
    while True:
        if node.loose > depth:
            kind = type(node)
            if kind is App:
                path.append((node, LEFT))
                node = node.fun
                continue
            if kind is Lam:
                path.append((node, BODY))
                node = node.body
                depth += 1
                continue
            node = leaf(node, depth)
        while path:
            parent, tag = path.pop()
            if tag is LEFT:
                path.append((parent, node))
                node = parent.arg
                break
            if tag is BODY:
                depth -= 1
                node = parent if node is parent.body else Lam(node, parent.hint)
            else:
                node = parent if tag is parent.fun and node is parent.arg else App(tag, node)
        else:
            return node


def shift(t: Term, by: int) -> Term:
    """Add `by` to every dangling index; a subterm with no such index is
    returned as it is."""
    return _map_open(t, 0, lambda u, depth: Var(u.index + by))


def instantiate(body: Term, arg: Term) -> Term:
    """Substitute `arg` for the binder of the abstraction whose body this is.

    This is the contraction of a redex: App(Lam(body), arg) -> instantiate(body, arg).
    A subterm of `body` with no index reaching that binder or past it is
    returned as it is, and so is a locally closed `arg` at every occurrence.
    """

    def leaf(u: Var, depth: int) -> Term:
        # the index reaches the binder (depth) or one outside it
        if u.index == depth:
            return arg if depth == 0 else shift(arg, depth)
        return Var(u.index - 1)

    return _map_open(body, 0, leaf)


# ---------------------------------------------------------------------------
# Positions

# A position is a path of direction tags from the root:
#   "L" = function side of an application, "R" = argument side, "B" = under a binder.
# Tuples of tags sort in leftmost-outermost (preorder) order.
Position = tuple[str, ...]

LEFT, RIGHT, BODY = "L", "R", "B"


class InvalidPositionError(ValueError):
    pass


# A zipper (Huet, "The Zipper", JFP 1997) is a subterm plus its path from
# the root, a list of (parent, tag) pairs: the subterm is parent.fun,
# parent.arg or parent.body for tag LEFT, RIGHT or BODY.  Neither the descent
# nor the rebuild recurses on the depth of the term.
Path = list[tuple[Term, str]]


def path_to(t: Term, pos: Position) -> tuple[Term, Path]:
    """The subterm of `t` at `pos`, with its path from the root."""
    path: Path = []
    for tag in pos:
        kind = type(t)
        if tag == LEFT and kind is App:
            path.append((t, LEFT))
            t = t.fun
        elif tag == RIGHT and kind is App:
            path.append((t, RIGHT))
            t = t.arg
        elif tag == BODY and kind is Lam:
            path.append((t, BODY))
            t = t.body
        else:
            raise InvalidPositionError(f"no subterm at {format_position(pos)}")
    return t, path


def plug(parent: Term, tag: str, child: Term) -> Term:
    """`parent` with its `tag` child replaced by `child`."""
    if tag is LEFT:
        return App(child, parent.arg)
    if tag is RIGHT:
        return App(parent.fun, child)
    return Lam(child, parent.hint)


def rebuild(node: Term, path: Path, depth: int | None = None) -> Term:
    """Plug `node` in at `depth` along `path` (by default at its end) and
    rebuild the ancestors above it bottom-up, updating `path` in place to
    lead from the new root to `node`.  Returns the new root."""
    # the body of `plug`, inlined: `normalize` rebuilds every ancestor of
    # every step (a million on Church 2^10), and the call cost a tenth of it
    for i in reversed(range(len(path) if depth is None else depth)):
        parent, tag = path[i]
        if tag is LEFT:
            node = App(node, parent.arg)
        elif tag is RIGHT:
            node = App(parent.fun, node)
        else:
            node = Lam(node, parent.hint)
        path[i] = (node, tag)
    return node


def subterm_at(t: Term, pos: Position) -> Term:
    return path_to(t, pos)[0]


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    return rebuild(new, path_to(t, pos)[1])


def bound_positions(t: Term) -> Iterator[Position]:
    """Positions of the dangling index 0, in preorder."""
    # `tags` is the position of `u`, and `pending` holds each argument still
    # to visit with the index it may hold and the depth of its application
    tags, pending = [], []
    u, i = t, 0
    while True:
        if u.loose > i:
            kind = type(u)
            if kind is App:
                pending.append((u.arg, i, len(tags)))
                tags.append(LEFT)
                u = u.fun
                continue
            if kind is Lam:
                tags.append(BODY)
                u = u.body
                i += 1
                continue
            if u.index == i:
                yield tuple(tags)
        if not pending:
            return
        u, i, depth = pending.pop()
        del tags[depth:]
        tags.append(RIGHT)


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
    """Neutral = a variable, or a neutral term applied to a normal one: a
    normal term that is not an abstraction.  Reads one flag."""
    return type(t) is not Lam and t.normal


def is_normal(t: Term) -> bool:
    """No beta-redex anywhere: neutral, or an abstraction over a normal body.
    Reads the flag the node was built with."""
    return t.normal


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
    end = len(tokens)
    # the binders around the term being read: their number, and for each
    # name the numbers of binders outside each of its binders, innermost last
    depth = 0
    bound: dict[str, list[int]] = {}
    # what the term being read lies in, innermost last: the name of the
    # abstraction it is the body of, or a parenthesis, as a list holding the
    # atoms read before it in its application (None if it is the first)
    frames: list = []
    fun = None  # the atoms read so far of the application being read
    at = 0
    while True:
        # a term starts: its binders, then an atom
        while at < end and tokens[at][0] == "lam":
            if at + 1 >= end or tokens[at + 1][0] != "ident":
                raise ParseError("expected binder name after lambda", text,
                                 tokens[at][2] + 1 if at + 1 >= end else tokens[at + 1][2])
            name = tokens[at + 1][1]
            if at + 2 >= end or tokens[at + 2][0] != ".":
                raise ParseError("expected '.' after binder", text,
                                 len(text) if at + 2 >= end else tokens[at + 2][2])
            bound.setdefault(name, []).append(depth)
            depth += 1
            frames.append(name)
            at += 3
        if at >= end:
            raise ParseError("unexpected end of input", text, len(text))
        kind, value, idx = tokens[at]
        at += 1
        if kind == "(":
            frames.append([fun])
            fun = None
            continue
        if kind != "ident":
            raise ParseError(f"unexpected token {value!r}", text, idx)
        binders = bound.get(value)
        atom = Var(depth - 1 - binders[-1]) if binders else Free(value)
        # The atom ends the application unless another atom follows.  An
        # application ends the bodies around it, then the term in a
        # parenthesis, which is an atom in turn.
        while True:
            fun = atom if fun is None else App(fun, atom)
            if at < end and tokens[at][0] in ("ident", "("):
                break
            atom = fun
            while frames and type(frames[-1]) is str:
                name = frames.pop()
                bound[name].pop()
                depth -= 1
                atom = Lam(atom, name)
            if not frames:
                if at != end:
                    raise ParseError("unexpected input after term", text, tokens[at][2])
                return atom
            if at >= end or tokens[at][0] != ")":
                raise ParseError("expected ')'", text, len(text) if at >= end else tokens[at][2])
            at += 1
            (fun,) = frames.pop()


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


# ---------------------------------------------------------------------------
# Printing


def show(t: Term) -> str:
    """Minimal-parentheses rendering; parse(show(t)) is alpha-equivalent to t.

    Binder hints are kept where possible and primed when they would capture a
    free name of the body or shadow an enclosing binder.
    """
    out: list[str] = []
    _emitter(out, [], _Scope(), free_names(t))(t)
    return "".join(out)


class _Redraw(Exception):
    """Raised by `show_spliced` when a step cannot be spliced into the old
    text, and by the emitter when a free name turns up it was not told of."""


class _Scope(set):
    """The names of the binders in scope, which are distinct.  A hint's
    primed names are built once per scope and kept, so passing the k names
    of one hint in scope costs k lookups, not the k² characters of building
    and hashing each anew."""

    __slots__ = ("_primed",)

    def __init__(self):
        super().__init__()
        self._primed: dict[str, list[str]] = {}

    def candidates(self, name: str) -> Iterator[str]:
        """name, name', name'', ..."""
        primed = self._primed.setdefault(name, [name])
        for i in count():
            if i == len(primed):
                primed.append(primed[-1] + "'")
            yield primed[i]


_CLOSE = ")"  # a closing parenthesis still to write, told apart by identity


def _emitter(out: list[str], env: list[str], in_scope: _Scope,
             term_free: frozenset[str], shared: Term | None = None,
             shared_text: Callable[[], str] | None = None) -> Callable[[Term], None]:
    """The printing rules of `show`: a function that appends the text of a
    subterm to `out`.  `env` lists the names of the binders around the
    subterm, innermost last, and `in_scope` holds the same names; both are
    restored after each call.  `term_free` must hold every free name of the
    whole term, and may hold more without changing the text; a free name
    outside it raises `_Redraw`.  Where the `shared` term occurs under no
    binder of the subterm, the text `shared_text()` returns is copied in
    place of rendering it.
    """
    # A hint can only capture a free name of the whole term, so the free names
    # of a body are needed only at a binder whose candidate name is one of
    # those; closed terms never need them.  Binder names in scope are
    # distinct (a clash is primed away), so one set tracks them.
    append = out.append
    depth = len(env)

    def emit(u: Term) -> None:
        # what is still to write after the subterm at hand, last first: an
        # argument with the text before it, a closing parenthesis, or None
        # for the end of a binder's scope
        pending: list = []
        while True:
            kind = type(u)
            if kind is Var:
                i = u.index
                # a dangling index appears in internal subterms only
                append(env[-1 - i] if i < len(env) else f"?{i}")
            elif kind is Free:
                if u.name not in term_free:
                    raise _Redraw(u.name)
                append(u.name)
            elif u is shared and len(env) == depth:
                append(shared_text())
            elif kind is Lam:
                name = _binder_name(u, in_scope, term_free)
                append(f"\\{name}.")
                env.append(name)
                in_scope.add(name)
                pending.append(None)
                u = u.body
                continue
            else:
                fun, arg = u.fun, u.arg
                kind = type(fun)
                if kind is Lam:
                    append("(")
                    pending.append((arg, ") "))
                    u = fun
                    continue
                if kind is App:
                    pending.append((arg, " "))
                    u = fun
                    continue
                # a variable applied: written here, and the argument next
                if kind is Var:
                    i = fun.index
                    append(env[-1 - i] if i < len(env) else f"?{i}")
                else:
                    if fun.name not in term_free:
                        raise _Redraw(fun.name)
                    append(fun.name)
                kind = type(arg)
                if kind is Lam or kind is App:
                    append(" (")
                    pending.append(_CLOSE)
                else:
                    append(" ")
                u = arg
                continue
            while pending:
                item = pending.pop()
                if item is None:
                    in_scope.discard(env.pop())
                elif item is _CLOSE:
                    append(item)
                else:
                    u, gap = item
                    kind = type(u)
                    if kind is Lam or kind is App:
                        append(gap + "(")
                        pending.append(_CLOSE)
                    else:
                        append(gap)
                    break
            else:
                return

    return emit


def _binder_name(u: Lam, in_scope: _Scope, term_free: frozenset[str]) -> str:
    """The name `show` gives the binder of `u`: the first of its hint h (or
    x), h', h'', ... neither in scope nor free in its body."""
    name = u.hint or "x"
    if name not in in_scope and name not in term_free:
        return name
    body_free = None
    for name in in_scope.candidates(name):
        if name not in in_scope:
            if name not in term_free:
                return name
            if body_free is None:
                body_free = free_names(u.body)
            if name not in body_free:
                return name


# ---------------------------------------------------------------------------
# Printing a reduction sequence
#
# A step replaces one subterm, and everything off the path to it keeps its
# text.  So the text of each term is the text before it with one span
# replaced, as in an edit of a rope (Boehm, Atkinson & Plass, "Ropes: an
# alternative to strings", SP&E 1995), here one flat string cut and joined
# at two offsets.  `show_spliced` prints a reduction from its steps alone,
# as a strategy run (reductions.StepStream) fires them without building the
# whole terms; `show_steps` prints one given by its whole terms, checking
# first that each differs from the one before only at its step.


def show_steps(start: Term, steps: Iterable[tuple[Position, Term]]) -> Iterator[str]:
    """`show(start)`, then `show(root)` for each `(position, root)` of
    `steps`, each printed by editing the text before it.

    When `root` is the term before it with only its subterm at `position`
    replaced, as after a reduction step there, the step is printed by
    `show_spliced`.  Any other step renders the whole term.
    """
    last = start

    def replacements() -> Iterator[tuple[Position | None, Term]]:
        nonlocal last
        for pos, root in steps:
            new = _replaced_at(last, root, pos)
            last = root
            yield (pos, new) if new is not None else (None, root)

    return show_spliced(start, replacements(), lambda taken: last)


def _replaced_at(old: Term, new: Term, pos: Position) -> Term | None:
    """The subterm of `new` at `pos`, if `new` is `old` with only that
    subterm replaced; None otherwise."""
    for tag in pos:
        kind = type(old)
        if type(new) is not kind:
            return None
        if kind is App and tag == LEFT and new.arg is old.arg:
            old, new = old.fun, new.fun
        elif kind is App and tag == RIGHT and new.fun is old.fun:
            old, new = old.arg, new.arg
        elif kind is Lam and tag == BODY and new.hint == old.hint:
            old, new = old.body, new.body
        else:
            return None
    return new


def show_spliced(start: Term, steps: Iterable[tuple[Position | None, Term]],
                 root: Callable[[int], Term]) -> Iterator[str]:
    """`show(start)`, then the text of each term after it, given by the step
    `(position, new)` that leads to it: the term before with its subterm at
    `position` replaced by `new`, or any term where `position` is None.
    `root(n)` returns the whole term after the first `n` steps.

    Only `new` is rendered and spliced into the old text.  The offsets found
    along one step's path serve the next step down to where the two paths
    part; below that, the walk adds up the widths of the siblings it passes.
    Each width is measured from the widths of the node's children, never
    rendered, and a memo keeps it per node and environment.  The whole
    term, `root(n)` after step `n`, is rendered for a step with no
    position, a step that erases or adds a free name below a binder whose
    name was chosen against the free names of its body (the binder may gain
    or lose a prime), or a free name that was not in the term before.
    """
    env: list[str] = []  # names of the binders on the path, innermost last
    in_scope = _Scope()
    # text width by (id, environment id) of a subterm; each entry keeps its
    # term alive, so ids stay unique
    widths: dict[tuple[int, int], tuple[Term, int]] = {}
    env_ids: dict[tuple[int, str], int] = {}  # (outer environment, name) -> id
    new_ids = count(1)  # 0 is the empty environment
    tracked: frozenset[str] = frozenset()  # holds every free name of the term
    # one frame for each depth of the last step's path: (the node, where its
    # text starts after any parentheses its parent adds, how many characters
    # follow it, the id of its environment, how many binders above it have a
    # name chosen against the free names of their bodies).  Above the last
    # step the nodes are stale: each has the constructor and hint of the
    # term's node there, and its children off the path are the term's, but
    # its child on the path may be one that a step has since replaced.  Every
    # parenthesis counted on the way down is read from `_in_parens`.
    frames: list[tuple[Term, int, int, int, int]] = []

    def width(u: Term, env_id: int) -> int:
        return _measure(u, env, in_scope, tracked, env_id, widths, env_ids, new_ids)

    def redraw(whole: Term) -> str:
        nonlocal tracked
        tracked = free_names(whole)
        env.clear()
        in_scope.clear()
        frames[:] = [(whole, 0, 0, 0, 0)]
        out: list[str] = []
        _emitter(out, env, in_scope, tracked)(whole)
        return "".join(out)

    text = redraw(start)
    path: Position = ()
    yield text
    for taken, (pos, new) in enumerate(steps, 1):
        try:
            if pos is None:
                raise _Redraw
            k = len(pos)
            c = len(path)
            if pos[:c] != path:
                # the new path does not go on from the last one: find where
                # they part
                c, common = 0, min(k, c)
                while c < common and pos[c] == path[c]:
                    c += 1
            node, s, a, env_id, n_avoiding = frames[c]
            if c < len(path):
                # The last path goes on below depth c, so the node there may
                # be stale: rebuild it from the last step's subterm up.
                child = frames[-1][0]
                for i in range(len(path) - 1, c, -1):
                    child = plug(frames[i][0], path[i], child)
                node = plug(node, path[c], child)
            binders = pos[:c].count(BODY)
            for name in env[binders:]:
                in_scope.discard(name)
            del env[binders:], frames[c:]
            for i in range(c, k):
                frames.append((node, s, a, env_id, n_avoiding))
                tag = pos[i]
                if tag == BODY:
                    name = node.hint or "x"
                    if name in in_scope:
                        name = next(c for c in in_scope.candidates(name) if c not in in_scope)
                    if name in tracked:
                        # the name depends on the free names of the body, so
                        # read it from the text: it ends at the first dot
                        shown = text[s + 1:text.find(".", s + 1)]
                        if (not shown.startswith(name) or shown[len(name):].strip("'")
                                or shown in in_scope):
                            raise _Redraw
                        name = shown
                        n_avoiding += 1
                    s += len(name) + 2
                    env.append(name)
                    in_scope.add(name)
                    key = (env_id, name)
                    env_id = env_ids.get(key) or env_ids.setdefault(key, next(new_ids))
                    node = node.body
                elif tag == LEFT:
                    w = width(node.arg, env_id)
                    p = _in_parens(node.fun, LEFT)
                    s += p
                    a += p + 1 + w + 2 * _in_parens(node.arg, RIGHT)
                    node = node.fun
                else:
                    w = width(node.fun, env_id)
                    p = _in_parens(node.arg, RIGHT)
                    s += 2 * _in_parens(node.fun, LEFT) + w + 1 + p
                    a += p
                    node = node.arg
            old = node
            if n_avoiding and free_names(old) != free_names(new):
                raise _Redraw  # a binder on the path may gain or lose a prime
            tag = pos[-1] if pos else BODY  # the root, like a body, takes no parentheses
            was, now = _in_parens(old, tag), _in_parens(new, tag)
            lo, hi = s - was, len(text) - a + was
            # a contracted redex's argument keeps its old text where the
            # reduct holds the same object in the same environment; with no
            # argument (None) no subterm is shared
            arg = old.arg if type(old) is App else None
            end = hi - was - _in_parens(arg, RIGHT)
            out = ["("] if now else []
            _emitter(out, env, in_scope, tracked, arg,
                     lambda: text[end - width(arg, env_id):end])(new)
            if now:
                out.append(")")
            text = text[:lo] + "".join(out) + text[hi:]
            frames.append((new, lo + now, a - was + now, env_id, n_avoiding))
            path = pos
            # more widths than characters: most are of nodes the term lost
            if len(widths) > len(text):
                widths.clear()
                env_ids.clear()
        except _Redraw:
            text, path = redraw(root(taken)), ()
        yield text


def _measure(u: Term, env: list[str], in_scope: _Scope, term_free: frozenset[str],
             env_id: int, widths: dict[tuple[int, int], tuple[Term, int]],
             env_ids: dict[tuple[int, str], int], new_ids: Iterator[int]) -> int:
    """The width of the text `_emitter(out, env, in_scope, term_free)`
    writes for `u`, added up from the widths of its children: no text is
    written.  `env_id` is the id of the environment `env`.  Each App and Lam
    node of `u` is looked up in `widths`, and entered there when measured,
    under (id(node), environment id); the environment ids below a binder of
    `u` are interned in `env_ids`, new ones drawn from `new_ids`.  A free
    name outside `term_free` raises `_Redraw`; else `env` and `in_scope`
    are restored.
    """
    done: list[int] = []  # widths of the subterms measured, innermost last
    # subterms still to measure, and parents waiting for their children's
    # widths as (node, binder name or None, environment id)
    pending: list = [u]
    while pending:
        u = pending.pop()
        kind = type(u)
        if kind is tuple:
            u, name, env_id = u
            w = done.pop()
            if name is None:
                w += done.pop() + (3 if type(u.fun) is Lam else 1)
                kind = type(u.arg)
                if kind is Lam or kind is App:
                    w += 2
            else:
                in_scope.discard(env.pop())
                w += len(name) + 2
            widths[(id(u), env_id)] = (u, w)
            done.append(w)
        elif kind is Var:
            i = u.index
            done.append(len(env[-1 - i]) if i < len(env) else len(str(i)) + 1)
        elif kind is Free:
            if u.name not in term_free:
                raise _Redraw(u.name)
            done.append(len(u.name))
        else:
            entry = widths.get((id(u), env_id))
            if entry is not None:
                done.append(entry[1])
            elif kind is App:
                pending += ((u, None, env_id), u.arg, u.fun)
            else:
                name = _binder_name(u, in_scope, term_free)
                pending += ((u, name, env_id), u.body)
                env.append(name)
                in_scope.add(name)
                key = (env_id, name)
                env_id = env_ids.get(key) or env_ids.setdefault(key, next(new_ids))
    return done.pop()


def _in_parens(u: Term, tag: str) -> bool:
    """Does `show` put `u` in parentheses as its parent's `tag` child?"""
    kind = type(u)
    return kind is Lam and tag != BODY or kind is App and tag == RIGHT
