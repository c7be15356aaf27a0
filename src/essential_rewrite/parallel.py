"""Indexed parallel reduction as explicit derivation trees.

A parallel step contracts a chosen set of redexes of its source term
simultaneously.  Steps are driven by explicit redex selections (any subset of
the source's redex positions), which makes enumeration, equality and index
recomputation deterministic.

Three flavours share the tree shape and differ in the index decoration:

* CBN / CBV: the index counts a canonical sequentialization of the step, so 0
  is the identity, 1 is exactly one base step, and a redex node costs the body
  steps, the argument steps once per surviving binder occurrence, plus one.
* LEVELED: the index is the least level among the contracted redexes
  (infinite when nothing is contracted).
"""

from __future__ import annotations

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
    """

    __slots__ = ("flavor", "rule", "children", "source", "target", "index")

    def __init__(self, flavor: Flavor, rule: Rule, children: tuple,
                 source: Term, target: Term, index):
        self.flavor = flavor
        self.rule = rule
        self.children = children
        self.source = source
        self.target = target
        self.index = index

    def __repr__(self):
        return f"<{self.rule.value} {self.source!r} => {self.target!r} @ {self.index}>"

    def to_json(self):
        return {
            "rule": self.rule.value,
            "flavor": self.flavor.value,
            "index": level_json(self.index),
            "children": [c.to_json() for c in self.children],
        }


# The node builders take the node's source term.  When every child's target
# is the child's source, the node's target is its source, so an identity
# derivation allocates no term.


def _var(flavor: Flavor, t: Term) -> ParDerivation:
    return ParDerivation(flavor, Rule.VAR, (), t, t, INFINITY if flavor is Flavor.LEVELED else 0)


def _abs(flavor: Flavor, t: Lam, child: ParDerivation) -> ParDerivation:
    target = t if child.target is t.body else Lam(child.target, t.hint)
    return ParDerivation(flavor, Rule.ABS, (child,), t, target, child.index)


def _app(flavor: Flavor, t: App, left: ParDerivation, right: ParDerivation) -> ParDerivation:
    if flavor is Flavor.LEVELED:
        index = min(left.index, right.index + 1)
    else:
        index = left.index + right.index
    if left.target is t.fun and right.target is t.arg:
        target = t
    else:
        target = App(left.target, right.target)
    return ParDerivation(flavor, Rule.APP, (left, right), t, target, index)


def _beta(flavor: Flavor, t: App, body: ParDerivation, arg: ParDerivation) -> ParDerivation:
    if flavor is Flavor.CBV and not is_value(t.arg):
        raise NonValueError("selected redex has a non-value argument")
    if flavor is Flavor.LEVELED:
        index = 0
    else:
        index = body.index + count_bound(body.target) * arg.index + 1
    return ParDerivation(flavor, Rule.BETA, (body, arg), t,
                         instantiate(body.target, arg.target), index)


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


def _derive(t: Term, sel: frozenset[Position], flavor: Flavor) -> ParDerivation:
    if not sel:
        return identity_derivation(t, flavor)
    if () in sel:
        body = _derive(t.fun.body, _strip(sel, (LEFT, BODY)), flavor)
        arg = _derive(t.arg, _strip(sel, (RIGHT,)), flavor)
        return _beta(flavor, t, body, arg)
    if isinstance(t, Lam):
        return _abs(flavor, t, _derive(t.body, _strip(sel, (BODY,)), flavor))
    left = _derive(t.fun, _strip(sel, (LEFT,)), flavor)
    right = _derive(t.arg, _strip(sel, (RIGHT,)), flavor)
    return _app(flavor, t, left, right)


def identity_derivation(t: Term, flavor: Flavor) -> ParDerivation:
    """The identity derivation on t."""
    if isinstance(t, Lam):
        return _abs(flavor, t, identity_derivation(t.body, flavor))
    if isinstance(t, App):
        return _app(flavor, t, identity_derivation(t.fun, flavor),
                    identity_derivation(t.arg, flavor))
    return _var(flavor, t)


def _strip(sel: frozenset[Position], prefix: Position) -> frozenset[Position]:
    k = len(prefix)
    return frozenset(p[k:] for p in sel if p[:k] == prefix)


def selection_of(d: ParDerivation) -> frozenset[Position]:
    """The redex positions of the source that the derivation contracts."""
    return frozenset(realize(d))


def contracts(d: ParDerivation, pos: Position) -> bool:
    """Does the derivation contract the redex of its source at `pos`?

    `pos` must be a redex position of d.source; the walk follows it down the
    tree without building the whole selection.
    """
    i = 0
    while i < len(pos):
        if d.rule is Rule.BETA and pos[i] == LEFT:
            d, i = d.children[0], i + 2  # L.B steps into the contracted body
        else:
            d, i = d.children[pos[i] == RIGHT], i + 1
    return d.rule is Rule.BETA


def all_parallel_steps(t: Term, flavor: Flavor, cap: int = 2 ** 14) -> Iterator[ParDerivation]:
    """Every parallel step from t, as derivations, capped at `cap` of them.

    Selections come in the order of bit masks over the redex list in
    traversal order, so the identity derivation comes first: the root
    redex's bit varies fastest, then the body's or the function's bits, then
    the argument's.  Each subterm's derivations are built once and shared by
    every step that contains them.
    """
    return islice(_combine(t, flavor, cap), cap)


def _combine(t: Term, flavor: Flavor, cap: int) -> Iterator[ParDerivation]:
    # The combined order is a mixed radix with the argument's steps as the
    # most significant digit, so the first `cap` outputs use only the first
    # `cap` steps of each child.
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
    """The CBN/CBV-style index of any derivation tree, whatever its flavour."""
    if d.rule is Rule.VAR:
        return 0
    if d.rule is Rule.ABS:
        return sequential_index(d.children[0])
    if d.rule is Rule.APP:
        return sequential_index(d.children[0]) + sequential_index(d.children[1])
    body, arg = d.children
    return sequential_index(body) + count_bound(body.target) * sequential_index(arg) + 1


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
    if d.rule is Rule.VAR:
        return d2 if d.source == Free(name) else d
    if d.rule is Rule.ABS:
        child = _graft(d.children[0], name, d2, flavor)
        return _abs(flavor, Lam(child.source, d.source.hint), child)
    left = _graft(d.children[0], name, d2, flavor)
    right = _graft(d.children[1], name, d2, flavor)
    if d.rule is Rule.APP:
        return _app(flavor, App(left.source, right.source), left, right)
    return _beta(flavor, App(Lam(left.source, d.source.fun.hint), right.source), left, right)


# ---------------------------------------------------------------------------
# Sequentialization


def realize(d: ParDerivation) -> list[Position]:
    """Replay the derivation as single steps, innermost-first, left to right.

    Contracting the returned positions in order (on the evolving term) leads
    from d.source to d.target; the list length is the number of redexes the
    derivation contracts.
    """
    out: list[Position] = []
    _realize(d, (), out)
    return out


def _realize(d: ParDerivation, prefix: Position, out: list[Position]) -> None:
    if d.rule is Rule.ABS:
        _realize(d.children[0], prefix + (BODY,), out)
    elif d.rule is Rule.APP:
        _realize(d.children[0], prefix + (LEFT,), out)
        _realize(d.children[1], prefix + (RIGHT,), out)
    elif d.rule is Rule.BETA:
        _realize(d.children[0], prefix + (LEFT, BODY), out)
        _realize(d.children[1], prefix + (RIGHT,), out)
        out.append(prefix)


def sequentialize(d: ParDerivation) -> list[Position]:
    """Replay the derivation as exactly sequential_index(d) base steps.

    Each contracted redex fires first, then the body's steps happen in place,
    then the argument's steps run once under every surviving binder
    occurrence.  This is the sequentialization the CBN/CBV index counts, so
    the returned list has exactly that length (duplicated argument work and
    all), unlike `realize`, which fires each selected redex once.
    """
    out: list[Position] = []
    _sequentialize(d, (), out)
    return out


def _sequentialize(d: ParDerivation, prefix: Position, out: list[Position]) -> None:
    if d.rule is Rule.ABS:
        _sequentialize(d.children[0], prefix + (BODY,), out)
    elif d.rule is Rule.APP:
        _sequentialize(d.children[0], prefix + (LEFT,), out)
        _sequentialize(d.children[1], prefix + (RIGHT,), out)
    elif d.rule is Rule.BETA:
        body, arg = d.children
        out.append(prefix)
        # the contractum sits where the redex was, so body steps keep prefix
        _sequentialize(body, prefix, out)
        arg_steps: list[Position] = []
        _sequentialize(arg, (), arg_steps)
        for occurrence in bound_positions(body.target):
            out.extend(prefix + occurrence + q for q in arg_steps)


def base_of(flavor: Flavor) -> Base:
    return Base.BETAV if flavor is Flavor.CBV else Base.BETA
