"""Single-step reduction relations.

Plain beta and beta-value contraction, the essential and inessential redex
positions of the four strategies (head, weak call-by-value,
leftmost-outermost, least-level), and levels.  `redexes` and the head and
leftmost-outermost searches are loops of their own; `least_level` is the
search of the least-level walk.  Everything that addresses a redex by its
position goes through the zipper of terms.py: `path_to` leads to the redex
and `rebuild` plugs its reduct in.  So
`step_at` contracts one redex, `reducts` lists one-step reducts, and
`redexes_where` lists the redexes in a system's inessential contexts, told
by a rule on their paths (`_head_context`, `_weak_context`, `_lo_context`).
Every search reads the `normal` flag of the nodes it meets (terms.py): it
never enters a normal subterm, which holds no redex, and the neutrality
test of `_leftmost_positions` and `_lo_context` reads one flag.  So
`_leftmost_positions` takes time linear in the depth of the term; a row's
`neg_positions` stays quadratic, as the positions it returns are.  A `Walk`
finds and fires a strategy's steps one at a time on a zipper (`Walk.steps`).
Between steps the parents on its path are stale, each still holding the
child the step replaced, and a parent is rebuilt from its live child
(`plug`) only when the walk climbs out of it; the whole term is built only
when asked for.  Each system's steps are built from these positions by its
`SYSTEMS` row (engine.py).

Every enumerator returns steps sorted by position, which coincides with
leftmost-outermost traversal order, so step lists and traces are reproducible.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .terms import (
    App,
    BODY,
    InvalidPositionError,
    LEFT,
    Lam,
    Path,
    Position,
    RIGHT,
    Term,
    format_position,
    instantiate,
    is_neutral,
    is_value,
    path_to,
    plug,
    rebuild,
    replace_at,  # unused here; bench/tracing.py binds it
)


class Base(Enum):
    """Which contraction rule applications fire under."""

    BETA = "beta"
    BETAV = "betav"


class SystemId(Enum):
    HEAD = "head"
    WEAK_CBV = "weak-cbv"
    LO = "lo"
    LEAST_LEVEL = "ll"


class StepKind(Enum):
    ESSENTIAL = "essential"
    INESSENTIAL = "inessential"
    PLAIN = "plain"


# The member as a module name: reading it off its class costs about 0.1 µs
# on Python 3.11, and `admits` reads it per redex candidate.
_BETA = Base.BETA

# A level is a natural number, and a normal term's least level is infinite.
INFINITY = math.inf


def level_json(level: int | float) -> int | str:
    """A level as JSON: the number, or "inf"."""
    return "inf" if level == INFINITY else level


class Step(NamedTuple):
    """One reduction step: where it fired, how it is classified, and (for the
    least-level system) the level of the contracted redex."""

    position: Position
    kind: StepKind
    level: int | None = None

    def to_json(self):
        out = {"position": ".".join(self.position), "kind": self.kind.value}
        if self.level is not None:
            out["level"] = level_json(self.level)
        return out


# ---------------------------------------------------------------------------
# Contraction


def step_at(t: Term, pos: Position, base: Base = Base.BETA) -> Term:
    """Contract exactly the redex at `pos`."""
    sub, path = path_to(t, pos)
    if not (type(sub) is App and type(sub.fun) is Lam):
        raise InvalidPositionError(f"no redex at {format_position(pos)}")
    if base is Base.BETAV and not is_value(sub.arg):
        raise InvalidPositionError(f"argument at {format_position(pos)} is not a value")
    return rebuild(instantiate(sub.fun.body, sub.arg), path)


# ---------------------------------------------------------------------------
# Redex enumeration and one-pass strategy steps on a zipper
#
# A step contracts the redex its path (terms.Path) leads to and rebuilds at
# most its ancestors (a walk: only those it climbs out of), and none of
# these loops recurses on the depth of the term.


def admits(t: Term, base: Base) -> bool:
    """Is `t` a redex of `base`: a beta-redex, whose argument is a value for
    beta-value reduction?"""
    return type(t) is App and type(t.fun) is Lam and (base is _BETA or is_value(t.arg))


class Walk(NamedTuple):
    """Which redex a strategy fires next, found by one preorder walk.

    The redex found is the least position the strategy would list: a walk
    over `base` BETAV admits only beta-value redexes, a `weak` walk never
    enters an abstraction (weak call-by-value), a `spine_only` walk stays on
    the function spine (head reduction), and a `leveled` walk takes the
    first redex crossing the fewest argument sides (least-level reduction).
    With no flag set it fires the first redex in preorder: leftmost-outermost
    reduction for BETA, plain beta-value reduction for BETAV.
    `EssentialSystem.walk` (engine.py) derives each strategy's walk from its
    row.

    A run (`steps`) keeps the path to its last reduct as a zipper whose
    parents are stale: each still holds the child the step replaced.  A
    parent is rebuilt from its live child (`plug`) only when the walk climbs
    out of it, so a step below the last one rebuilds nothing, and the whole
    term is built only when it is asked for.  The walk never enters a
    normal subtree, and it reads that flag on live nodes only: a stale
    parent's flag is stale too, so it is rebuilt before the walk goes on
    to its argument side.
    """

    base: Base = Base.BETA
    weak: bool = False
    spine_only: bool = False
    leveled: bool = False

    def find(self, node: Term, path: Path, level: int = 0, least: int = 0,
             dirty: int = 0) -> tuple[Term, Path, int | float, int]:
        """The first admitted redex in `node`'s subtree or, failing that, in
        the right siblings along `path`, as `(redex, path, level, dirty)`;
        when there is none, the root the walk climbed back to, an empty path
        and level INFINITY.  `level` is the level of `node`, the number of
        RIGHT tags on its path, and the first `dirty` entries of `path` are
        stale parents, as in the path returned; the walk rebuilds each one
        it climbs out of.  A leveled walk returns the first redex of least
        level; told that none lies below level `least`, it stops at the
        first one at that level.  Started below the root, it must be told
        too that none lies at level `least` or below before `node` in
        preorder; it searches the rest of the term and, finding none at
        level `least` there, the whole term again.  Consumes `path`."""
        base, binders, args, leveled = self.base, not self.weak, not self.spine_only, self.leveled
        restart = leveled and bool(path)
        # a leveled walk prunes every subtree at or above the least level
        # found so far
        bound = sys.maxsize
        best = None
        while True:
            # a normal subtree holds no redex
            if level < bound and not node.normal:
                kind = type(node)
                if kind is App:
                    if admits(node, base):
                        if not leveled or level == least:
                            return node, path, level, dirty
                        best, bound = (node, path.copy(), level, dirty), level
                    else:
                        path.append((node, LEFT))
                        node = node.fun
                        continue
                elif kind is Lam and binders:
                    path.append((node, BODY))
                    node = node.body
                    continue
            # climb to the nearest right sibling still to visit
            while True:
                if not path:
                    if not restart:
                        return best or (node, path, INFINITY, 0)
                    # no redex lies at level `least` or below: the least level
                    # grew, and its first redex may lie before the start
                    restart, best, bound, least = False, None, sys.maxsize, least + 1
                    break
                parent, tag = path.pop()
                if dirty and dirty > len(path):
                    parent = plug(parent, tag, node)
                    dirty -= 1
                node = parent
                if tag is RIGHT:
                    level -= 1
                elif tag is LEFT and args and level + 1 < bound and not parent.arg.normal:
                    path.append((parent, RIGHT))
                    node = parent.arg
                    level += 1
                    break

    def steps(self, t: Term, fuel: int) -> StepStream:
        """The run of up to `fuel` steps from `t`, fired as it is iterated."""
        return StepStream(self, t, fuel)

    def _resume(self, reduct: Term, path: Path, level: int,
                dirty: int) -> tuple[Term, Path, int | float, int]:
        """`find`'s answer after a step that left `reduct` at `level` at the
        end of `path`, whose first `dirty` entries are stale."""
        # Every node before the reduct in preorder is unchanged and no redex
        # (for a leveled walk: none at the fired level or below), and an
        # ancestor's redex status depends on its children's types only: of
        # the ancestors, only the reduct's parent can have changed.  The
        # test reads the reduct, as the parent may still hold the redex.  A
        # parent that became a redex is built from the reduct; the next step
        # replaces it, so no ancestor is rebuilt.
        if path:
            parent, tag = path[-1]
            if tag is not BODY:
                fun, arg = (reduct, parent.arg) if tag is LEFT else (parent.fun, reduct)
                if type(fun) is Lam and (self.base is _BETA or is_value(arg)):
                    path.pop()
                    return App(fun, arg), path, level - (tag is RIGHT), min(dirty, len(path))
        return self.find(reduct, path, level, least=level, dirty=dirty)


class StepStream:
    """The steps of a walk from a term, fired one at a time as the stream is
    iterated, once: a second iteration raises RuntimeError, as the stream
    holds only the state its first one left.  Each step is
    `(position, reduct)`: the reduct replaces the redex at that position.

    Between steps the path to the last reduct is a zipper with stale
    parents (see `Walk`), and no whole term is built; `root()` builds the
    whole term after the steps so far.  When the iteration ends, `exhausted`
    tells whether a redex was left as the fuel ran out.
    """

    def __init__(self, walk: Walk, t: Term, fuel: int):
        self.walk, self.fuel = walk, fuel
        self.exhausted = False
        self._iterated = False
        # the zipper: the live node at the end of `path`, whose first
        # `dirty` entries are stale
        self._node: Term = t
        self._path: Path = []
        self._dirty = 0

    def __iter__(self) -> Iterator[tuple[Position, Term]]:
        if self._iterated:
            raise RuntimeError("a step stream can be iterated only once")
        self._iterated = True
        return self._fire()

    def _fire(self) -> Iterator[tuple[Position, Term]]:
        walk = self.walk
        node, path, level, dirty = walk.find(self._node, [])
        for _ in range(self.fuel):
            if level == INFINITY:
                break
            reduct = instantiate(node.fun.body, node.arg)
            self._node, self._path, self._dirty = reduct, path, len(path)
            yield _position(path), reduct
            node, path, level, dirty = walk._resume(reduct, path, level, self._dirty)
        self._node, self._path, self._dirty = node, path, dirty
        self.exhausted = level != INFINITY

    def root(self) -> Term:
        """The whole term after the steps so far: the stale parents on the
        path, rebuilt bottom-up and live from then on."""
        path, dirty = self._path, self._dirty
        self._dirty = 0
        return rebuild(path[dirty][0] if dirty < len(path) else self._node, path, dirty)


def _position(path: Path) -> Position:
    return tuple(map(itemgetter(1), path))


def redexes(t: Term, base: Base, binders: bool = True) -> list[Position]:
    """Positions of all `base` redexes of `t`, outermost-leftmost first;
    without `binders`, only those under no abstraction."""
    # no generator, as sweeps call this on many tiny terms: `tags` is the
    # position of `node`, and `pending` holds each argument still to visit
    # with the depth of its application; a normal node holds no redex, so
    # the loop treats it as a leaf
    out, tags, pending = [], [], []
    node = t
    while True:
        if not node.normal:
            if type(node) is App:
                if admits(node, base):
                    out.append(tuple(tags))
                if not node.arg.normal:
                    pending.append((node.arg, len(tags)))
                tags.append(LEFT)
                node = node.fun
                continue
            if binders:
                tags.append(BODY)
                node = node.body
                continue
        if pending:
            node, depth = pending.pop()
            del tags[depth:]
            tags.append(RIGHT)
        else:
            return out


def redexes_where(t: Term, base: Base, rule: Callable[[Path], bool]) -> list[Position]:
    """Positions of the `base` redexes of `t` whose path from the root
    satisfies `rule`, outermost-leftmost first."""
    return [pos for pos in redexes(t, base) if rule(path_to(t, pos)[1])]


def beta_redexes(t: Term) -> list[Position]:
    """Positions of all beta-redexes, outermost-leftmost first."""
    return redexes(t, Base.BETA)


def betav_redexes(t: Term) -> list[Position]:
    """Beta-redex positions whose argument is a value."""
    return redexes(t, Base.BETAV)


def reducts(t: Term, base: Base) -> Iterator[tuple[Position, Term]]:
    """Each `base` redex of `t` in preorder (the order of `redexes`), with
    the term it contracts to: `(p, step_at(t, p, base))` for every `p` in
    `redexes(t, base)`, each rebuilding only the ancestors of its redex."""
    for pos in redexes(t, base):
        redex, path = path_to(t, pos)
        yield pos, rebuild(instantiate(redex.fun.body, redex.arg), path)


# ---------------------------------------------------------------------------
# Head reduction
#
# The essential redex is `_leftmost_positions(t, arguments=False)`.


def _head_context(path: Path) -> bool:
    """Is a redex at the end of `path` inessential for head reduction: inside
    an argument, or inside the body of an applied abstraction?"""
    return any(tag is RIGHT or tag is LEFT and type(parent.fun) is Lam
               for parent, tag in reversed(path))


# ---------------------------------------------------------------------------
# Weak call-by-value reduction
#
# The essential redexes are the beta-value redexes under no abstraction,
# `redexes(t, Base.BETAV, binders=False)`.


def _weak_context(path: Path) -> bool:
    """Is a redex at the end of `path` inessential for weak call-by-value
    reduction: under a binder?"""
    return any(tag is BODY for _, tag in reversed(path))


# ---------------------------------------------------------------------------
# Leftmost-outermost reduction


def _leftmost_positions(t: Term, arguments: bool = True) -> list[Position]:
    """The leftmost-outermost redex or, without `arguments`, the head redex:
    the leftmost-outermost one in no argument."""
    tags = []
    while True:
        if t.normal:
            return []
        if type(t) is Lam:
            tags.append(BODY)
            t = t.body
        elif type(t.fun) is Lam:
            return [tuple(tags)]
        elif arguments and t.fun.normal:
            # the function side, no abstraction, is normal and so neutral:
            # the step is on the argument side
            tags.append(RIGHT)
            t = t.arg
        else:
            tags.append(LEFT)
            t = t.fun


def _lo_context(path: Path) -> bool:
    """Is a redex at the end of `path` inessential for leftmost-outermost
    reduction: inside the body of an applied abstraction, or inside the
    argument of a function that is not neutral?"""
    return any(tag is LEFT and type(parent.fun) is Lam
               or tag is RIGHT and not is_neutral(parent.fun)
               for parent, tag in reversed(path))


# ---------------------------------------------------------------------------
# Least-level reduction


_LEAST_LEVEL_WALK = Walk(leveled=True)


def least_level(t: Term) -> int | float:
    """Minimal number of argument-nestings containing a redex; inf if normal:
    the level of the redex the least-level walk finds first."""
    return _LEAST_LEVEL_WALK.find(t, [])[2]


def position_level(pos: Position) -> int:
    """Level of a redex: how many argument sides its position crosses."""
    return pos.count(RIGHT)


def _ll_positions(t: Term, above: bool = False) -> list[Position]:
    """The beta-redexes at the least level or, `above` it, the others."""
    positions = beta_redexes(t)
    levels = [position_level(pos) for pos in positions]
    least = min(levels, default=0)
    return [pos for pos, level in zip(positions, levels) if (level > least) is above]


_neg_ll_positions = partial(_ll_positions, above=True)
