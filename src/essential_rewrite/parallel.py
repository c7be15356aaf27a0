"""Indexed parallel reduction as explicit derivation trees.

A parallel step contracts a chosen set of redexes of its source term
simultaneously.  Steps are driven by explicit redex selections (any subset of
the source's redex positions), which makes enumeration, equality and index
recomputation deterministic.

Every node carries its sequential count, the length of a canonical
sequentialization of the step: 0 is the identity, 1 is exactly one base
step, and a redex node costs the body steps, the argument steps once per
surviving binder occurrence, plus one.  Three flavours share the tree shape
and differ in the index decoration:

* CBN / CBV: the index is the count.
* LEVELED: the index is the least level among the contracted redexes
  (infinite when nothing is contracted).

A sweep (`engine._sweep`) opens a derivation table for its length, so that
a subterm the enumerator shares between terms has its parallel steps built
once per sweep rather than once per term holding it.  Entries are keyed by
the subterm's id: each holds derivations whose source is that subterm, so
the subterm stays alive while the table does and no id is reused, and no
term is hashed or compared.  `all_parallel_steps` reads and fills it;
`_derive` reads identity derivations from it.  Only application children
get entries (the argument, the function side, and a redex's body): the
enumerator builds applications as products of shared lists, but gives each
other body exactly one abstraction, whose entry would never be read again.
Outside a sweep there is no table.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator

from .reductions import (
    Base,
    INFINITY,
    beta_redexes,
    betav_redexes,
    least_level,  # unused here; bench/tracing.py binds it
    level_json,
)
from .terms import (
    App,
    BODY,
    Free,
    LEFT,
    Lam,
    Position,
    RIGHT,
    Term,
    bound_positions,
    count_bound,
    format_position,
    instantiate,
    is_neutral,  # unused here; bench/tracing.py binds it
    is_value,
)


class Flavor(Enum):
    CBN = "cbn"
    CBV = "cbv"
    LEVELED = "leveled"


class Rule(Enum):
    VAR = "var"
    ABS = "abs"
    APP = "app"
    BETA = "beta"


# The members as module names: reading one off its class costs about 0.1 µs
# on Python 3.11, and the node builders and walks below read them per node.
_CBV, _LEVELED = Flavor.CBV, Flavor.LEVELED
_VAR_RULE, _ABS_RULE, _APP_RULE, _BETA_RULE = Rule.VAR, Rule.ABS, Rule.APP, Rule.BETA


class InvalidSelectionError(ValueError):
    pass


class NonValueError(InvalidSelectionError):
    """CBV requires values where it substitutes."""


class FlavorMismatchError(ValueError):
    pass


class ParDerivation:
    """One node of a parallel-step derivation.

    `children` is () for VAR, (body,) for ABS, (left, right) for APP and
    (body, argument) for BETA.  Sources and targets of inner nodes may carry
    dangling indices pointing at binders crossed higher in the tree.

    `count` is the node's sequential count, summed from its children's here.
    `index` is the given one, or the count where it is given as None.
    """

    __slots__ = ("flavor", "rule", "children", "source", "target", "index", "count")

    def __init__(self, flavor: Flavor, rule: Rule, children: tuple,
                 source: Term, target: Term, index):
        self.flavor = flavor
        self.rule = rule
        self.children = children
        self.source = source
        self.target = target
        if rule is _APP_RULE:
            count = children[0].count + children[1].count
        elif rule is _BETA_RULE:
            body, arg = children
            count = body.count + count_bound(body.target) * arg.count + 1
        else:
            count = children[0].count if children else 0
        self.count = count
        self.index = count if index is None else index

    def __repr__(self):
        return f"<{self.rule.value} {self.source!r} => {self.target!r} @ {self.index}>"

    def to_json(self):
        root: dict = {}
        pending = [(self, root)]  # each node with the dict to fill in for it
        while pending:
            d, out = pending.pop()
            children = [{} for _ in d.children]
            out.update(rule=d.rule.value, flavor=d.flavor.value, index=level_json(d.index),
                       children=children)
            pending += zip(d.children, children)
        return root


# The node builders take the node's source term.  When every child's target
# is the child's source, the node's target is its source, so an identity
# derivation allocates no term.  They give a LEVELED node its least level and
# a CBN/CBV node None, which makes its index its count.


def _var(flavor: Flavor, t: Term) -> ParDerivation:
    return ParDerivation(flavor, _VAR_RULE, (), t, t, INFINITY if flavor is _LEVELED else None)


def _abs(flavor: Flavor, t: Lam, child: ParDerivation) -> ParDerivation:
    target = t if child.target is t.body else Lam(child.target, t.hint)
    return ParDerivation(flavor, _ABS_RULE, (child,), t, target,
                         child.index if flavor is _LEVELED else None)


def _app(flavor: Flavor, t: App, left: ParDerivation, right: ParDerivation) -> ParDerivation:
    if left.target is t.fun and right.target is t.arg:
        target = t
    else:
        target = App(left.target, right.target)
    return ParDerivation(flavor, _APP_RULE, (left, right), t, target,
                         min(left.index, right.index + 1) if flavor is _LEVELED else None)


def _beta(flavor: Flavor, t: App, body: ParDerivation, arg: ParDerivation) -> ParDerivation:
    if flavor is _CBV and not is_value(t.arg):
        raise NonValueError("selected redex has a non-value argument")
    return ParDerivation(flavor, _BETA_RULE, (body, arg), t,
                         instantiate(body.target, arg.target), 0 if flavor is _LEVELED else None)


# The sweep's derivation tables, one per flavour, each a dict from a
# subterm's id to the first `_STEP_CAP` steps from it; None outside a sweep.
_TABLES: ContextVar[dict | None] = ContextVar("_TABLES", default=None)
_STEP_CAP = 2 ** 14


@contextmanager
def _derivation_table():
    """Share the parallel steps of shared subterms until the block exits."""
    token = _TABLES.set({})
    try:
        yield
    finally:
        _TABLES.reset(token)


def _table(flavor: Flavor) -> dict[int, list[ParDerivation]] | None:
    tables = _TABLES.get()
    return None if tables is None else tables.setdefault(flavor, {})


def derive(t: Term, selection: Iterable[Position], flavor: Flavor) -> ParDerivation:
    """The unique derivation from `t` contracting exactly `selection`.

    Raises InvalidSelectionError if a position is not a redex of the base
    reduction the flavour pairs with (beta for CBN/LEVELED, beta-v for CBV).
    """
    sel = frozenset(tuple(p) for p in selection)
    valid = set(beta_redexes(t) if flavor is not Flavor.CBV else betav_redexes(t))
    bad = sel - valid
    if bad:
        pos = sorted(bad)[0]
        if flavor is Flavor.CBV and pos in set(beta_redexes(t)):
            raise NonValueError(f"redex at {format_position(pos)} has a non-value argument")
        raise InvalidSelectionError(f"{format_position(pos)} is not a redex position")
    return _derive(t, sel, flavor)


def _derive(t: Term, sel: Iterable[Position], flavor: Flavor) -> ParDerivation:
    """The derivation from `t` contracting `sel`, a set of redex positions."""
    # The selection as a trie: a dict from each tag to the trie of the
    # positions that go on with it, holding None where a position ends.
    # A subterm with no selected position below it has the trie None.
    trie = None
    for pos in sel:
        node = trie = trie or {}
        for tag in pos:
            node = node.setdefault(tag, {})
        node[None] = None
    # The nodes in preorder, each contracted redex followed by None: a loop
    # goes down first children (the body of a contracted redex, a function
    # side, a body) and `pending` holds each second child with its trie.
    # Taken in reverse, the nodes come after their children, whose
    # derivations are then the last ones built, the first child's on top.
    # In a sweep, an unselected subterm with steps in the table stands in
    # the list as its identity derivation, the first of those steps.
    shared = _table(flavor)
    nodes: list[Term | ParDerivation | None] = []
    pending = [(t, trie)]
    while pending:
        u, trie = pending.pop()
        while True:
            if shared is not None and trie is None and id(u) in shared:
                nodes.append(shared[id(u)][0])
                break
            nodes.append(u)
            kind = type(u)
            if trie is not None and None in trie:
                nodes.append(None)
                pending.append((u.arg, trie.get(RIGHT)))
                trie = trie.get(LEFT)
                u, trie = u.fun.body, trie and trie.get(BODY)
            elif kind is App:
                pending.append((u.arg, trie and trie.get(RIGHT)))
                u, trie = u.fun, trie and trie.get(LEFT)
            elif kind is Lam:
                u, trie = u.body, trie and trie.get(BODY)
            else:
                break
    built: list[ParDerivation] = []
    contracted = False
    for u in reversed(nodes):
        kind = type(u)
        if kind is App:
            first = built.pop()
            build = _beta if contracted else _app
            built.append(build(flavor, u, first, built.pop()))
            contracted = False
        elif kind is Lam:
            built.append(_abs(flavor, u, built.pop()))
        elif u is None:
            contracted = True
        else:
            built.append(u if kind is ParDerivation else _var(flavor, u))
    return built[0]


def identity_derivation(t: Term, flavor: Flavor) -> ParDerivation:
    """The identity derivation on t."""
    return _derive(t, frozenset(), flavor)


def selection_of(d: ParDerivation) -> frozenset[Position]:
    """The redex positions of the source that the derivation contracts."""
    return frozenset(realize(d))


def contracts(d: ParDerivation, pos: Position) -> bool:
    """Does the derivation contract the redex of its source at `pos`?

    `pos` must be a redex position of d.source; the walk follows it down the
    tree without building the whole selection.
    """
    return _node_at(d, pos).rule is _BETA_RULE


def _node_at(d: ParDerivation, pos: Position) -> ParDerivation:
    """The node of `d` whose source is the subterm of d.source at `pos`,
    which is not the abstraction of a contracted redex."""
    i = 0
    while i < len(pos):
        if d.rule is _BETA_RULE and pos[i] == LEFT:
            d, i = d.children[0], i + 2  # L.B steps into the contracted body
        else:
            d, i = d.children[pos[i] == RIGHT], i + 1
    return d


def all_parallel_steps(t: Term, flavor: Flavor) -> Iterator[ParDerivation]:
    """Every parallel step from t, as derivations, capped at `_STEP_CAP` of them.

    Selections come in the order of bit masks over the redex list in
    traversal order, so the identity derivation comes first: the root
    redex's bit varies fastest, then the body's or the function's bits, then
    the argument's.  Each subterm's derivations are built once and shared by
    every step that contains them, and in a sweep by every term that
    contains the subterm's object.
    """
    return islice(_combine(t, flavor), _STEP_CAP)


def _combine(t: Term, flavor: Flavor) -> Iterator[ParDerivation]:
    # The first `_STEP_CAP` steps of each subterm below `t` that its steps are
    # made of, listed children first (the reverse of a preorder) in
    # `steps`, by the subterm's id: a subterm object met twice is listed once.
    # In a sweep, the steps of each application child (an argument, a
    # function side, a redex's body) come from the table if they are there,
    # and the child is not walked, else they go into it.  Other bodies do
    # not: the enumerator gives each body one abstraction, so their entries
    # would not be read again.
    shared = _table(flavor)
    steps: dict[int, list[ParDerivation]] = {}
    order: list[tuple[Term, bool]] = []
    pending = [(t, False)]
    while pending:
        u, child = pending.pop()
        if child and shared is not None and id(u) in shared:
            steps[id(u)] = shared[id(u)]
            continue
        order.append((u, child))
        kind = type(u)
        if kind is Lam:
            pending.append((u.body, False))
        elif kind is App:
            fun = u.fun
            # an abstraction in function position is built from its body's
            # steps, as the redex needs them
            pending.append((fun.body if type(fun) is Lam else fun, True))
            pending.append((u.arg, True))
    for u, child in reversed(order[1:]):
        if id(u) not in steps:
            steps[id(u)] = list(islice(_steps_over(u, flavor, steps), _STEP_CAP))
        if child and shared is not None:
            shared[id(u)] = steps[id(u)]
    yield from _steps_over(t, flavor, steps)


def _steps_over(t: Term, flavor: Flavor, steps) -> Iterator[ParDerivation]:
    """The steps from `t` in the order of `all_parallel_steps`, made from
    those of its children in `steps` (keyed by id).  The combined order is a
    mixed radix with the argument's steps as the most significant digit, so
    the first n outputs use only the first n steps of each child."""
    kind = type(t)
    if kind is Lam:
        for child in steps[id(t.body)]:
            yield _abs(flavor, t, child)
    elif kind is App:
        args = steps[id(t.arg)]
        fun = t.fun
        if type(fun) is Lam:
            redex = flavor is not _CBV or is_value(t.arg)
            bodies = steps[id(fun.body)]
            lams = [_abs(flavor, fun, body) for body in bodies]
            for arg in args:
                for body, lam in zip(bodies, lams):
                    yield _app(flavor, t, lam, arg)
                    if redex:
                        yield _beta(flavor, t, body, arg)
        else:
            funs = steps[id(fun)]
            for arg in args:
                for left in funs:
                    yield _app(flavor, t, left, arg)
    else:
        yield _var(flavor, t)


def sequential_index(d: ParDerivation) -> int:
    """The CBN/CBV-style index of any derivation tree, whatever its flavour:
    the sequential count its root carries, which is a CBN or CBV tree's own
    index."""
    return d.count


def parallel_level(d: ParDerivation) -> int | float:
    """The least level contracted by a LEVELED derivation."""
    if d.flavor is not Flavor.LEVELED:
        raise FlavorMismatchError("parallel_level needs a LEVELED derivation")
    return d.index


# ---------------------------------------------------------------------------
# Substitutivity


def subst_parallel(d1: ParDerivation, name: str, d2: ParDerivation,
                   flavor: Flavor) -> ParDerivation:
    """Combine a step on t with a step on s into a step on t[name := s].

    Every leaf of d1 standing on the free variable `name` is replaced by a
    copy of d2; the rest of the tree is rebuilt around it.  The resulting
    index is the substitutivity sum: d1's index plus d2's index once per
    occurrence of `name` in d1's target (the index suites verify this).
    """
    if flavor not in (Flavor.CBN, Flavor.CBV):
        raise FlavorMismatchError("substitutivity indexes exist for CBN and CBV only")
    if d1.flavor is not flavor or d2.flavor is not flavor:
        raise FlavorMismatchError(
            f"derivation flavours {d1.flavor.value}/{d2.flavor.value} do not match {flavor.value}")
    if flavor is Flavor.CBV and not is_value(d2.source):
        raise NonValueError("CBV substituends must be values")
    return _graft(d1, name, d2, flavor)


def _graft(d: ParDerivation, name: str, d2: ParDerivation, flavor: Flavor) -> ParDerivation:
    # down first children in a loop; `path` holds each node still to
    # rebuild, with its first child's result once that is built
    leaf = Free(name)
    path: list[tuple[ParDerivation, ParDerivation | None]] = []
    while True:
        while d.children:
            path.append((d, None))
            d = d.children[0]
        result = d2 if d.source == leaf else d
        while path:
            d, first = path.pop()
            if d.rule is _ABS_RULE:
                result = _abs(flavor, Lam(result.source, d.source.hint), result)
            elif first is None:
                path.append((d, result))
                d = d.children[1]
                break
            elif d.rule is _APP_RULE:
                result = _app(flavor, App(first.source, result.source), first, result)
            else:
                result = _beta(flavor, App(Lam(first.source, d.source.fun.hint), result.source),
                               first, result)
        else:
            return result


# ---------------------------------------------------------------------------
# Sequentialization


def realize(d: ParDerivation) -> list[Position]:
    """Replay the derivation as single steps, innermost-first, left to right.

    Contracting the returned positions in order (on the evolving term) leads
    from d.source to d.target; the list length is the number of redexes the
    derivation contracts.
    """
    # The positions come in post-order, each redex after its body and its
    # argument: the reverse of a preorder that takes second children first.
    # `tags` is the position of `d`, and `pending` holds each first child
    # still to visit with the depth of its parent and the tags down to it.
    out: list[Position] = []
    tags: list[str] = []
    pending: list[tuple[ParDerivation, int, tuple[str, ...]]] = []
    while True:
        rule = d.rule
        if rule is _ABS_RULE:
            tags.append(BODY)
            d = d.children[0]
        elif rule is _APP_RULE:
            first, d = d.children
            pending.append((first, len(tags), (LEFT,)))
            tags.append(RIGHT)
        elif rule is _BETA_RULE:
            out.append(tuple(tags))
            first, d = d.children
            pending.append((first, len(tags), (LEFT, BODY)))
            tags.append(RIGHT)
        elif pending:
            d, depth, down = pending.pop()
            del tags[depth:]
            tags += down
        else:
            out.reverse()
            return out


def sequentialize(d: ParDerivation) -> list[Position]:
    """Replay the derivation as exactly sequential_index(d) base steps.

    Each contracted redex fires first, then the body's steps happen in place,
    then the argument's steps run once under every surviving binder
    occurrence.  This is the sequentialization the CBN/CBV index counts, so
    the returned list has exactly that length (duplicated argument work and
    all), unlike `realize`, which fires each selected redex once.
    """
    out: list[Position] = []
    # `pending` holds, last first, a derivation still to replay with the
    # list of tags its position is read from, the length to cut that list
    # to, the tags to add and the list its steps go to; or, after a redex's
    # argument, the copies of the argument's steps to make at the binder
    # occurrences
    pending: list[tuple] = [(d, [], 0, (), out)]
    while pending:
        item = pending.pop()
        if len(item) == 4:
            prefix, target, arg_steps, into = item
            for occurrence in bound_positions(target):
                into.extend(prefix + occurrence + q for q in arg_steps)
            continue
        d, tags, depth, down, into = item
        del tags[depth:]
        tags += down
        while d.rule is not _VAR_RULE:
            if d.rule is _ABS_RULE:
                tags.append(BODY)
                d = d.children[0]
            elif d.rule is _APP_RULE:
                pending.append((d.children[1], tags, len(tags), (RIGHT,), into))
                tags.append(LEFT)
                d = d.children[0]
            else:
                # the contractum sits where the redex was, so body steps
                # keep its position; the argument's steps are made apart,
                # from the empty position, then copied
                d, arg = d.children
                prefix = tuple(tags)
                into.append(prefix)
                arg_steps: list[Position] = []
                pending.append((prefix, d.target, arg_steps, into))
                pending.append((arg, [], 0, (), arg_steps))
    return out


def base_of(flavor: Flavor) -> Base:
    return Base.BETAV if flavor is Flavor.CBV else Base.BETA
