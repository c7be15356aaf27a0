"""Essential/inessential reduction engines and the property harness.

An essential system pairs a base reduction (beta or beta-value) with a
distinguished sub-relation: head, weak call-by-value, leftmost-outermost or
least-level steps.  This module makes the standard rearrangement results
about such systems executable:

* `split` peels essential steps off a parallel step until only an
  inessential parallel step remains,
* `merge` absorbs an essential step following an inessential parallel step
  into a single parallel step,
* `factorize` rewrites an arbitrary reduction sequence into essential steps
  followed by inessential ones by iterating merge and split,
* `normalize` runs a strategy to its (essential) normal form and records
  the run, each step's position and reduct, without its whole terms,
* `check_property` / `check_normalization` sweep every term up to a size
  bound through one loop (`check_property` serial or over a process pool)
  and report the first counterexample, if any; a sweep that met no
  relevant term, or an inconclusive one, is INCONCLUSIVE.
"""

from __future__ import annotations

import gc
import os
import random
from collections import deque
from collections.abc import Sequence
from contextlib import contextmanager, nullcontext
from enum import Enum
from functools import cached_property, partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .enumeration import EnumSpec, enumerate_terms, random_term
from .graphs import explore
from .parallel import (
    Flavor,
    FlavorMismatchError,
    InvalidSelectionError,
    ParDerivation,
    _derivation_table,
    _derive,
    _node_at,
    all_parallel_steps,
    base_of,
    contracts,
    derive,
    realize,
    selection_of,
    sequential_index,
    subst_parallel,
)
from .reductions import (
    Base,
    INFINITY,
    Step,
    StepKind,
    SystemId,
    Walk,
    _head_context,
    _leftmost_positions,
    _ll_positions,
    _lo_context,
    _neg_ll_positions,
    _weak_context,
    beta_redexes,
    betav_redexes,
    least_level,
    position_level,
    redexes,
    redexes_where,
    reducts,
    step_at,
)
from .terms import (
    InvalidPositionError,
    Lam,
    Position,
    Term,
    alpha_eq,
    bound_positions,
    count_occurrences,
    format_position,
    is_neutral,  # unused here; bench/tracing.py binds it
    is_normal,
    is_value,
    show,
    show_spliced,
    show_steps,
    substitute,
)


class NotInessentialError(ValueError):
    pass


class NotComposableError(ValueError):
    pass


class InvalidTraceError(ValueError):
    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


# The members as module names: reading one off its class costs about 0.1 µs
# on Python 3.11, and the row's methods read them per step.
_ESSENTIAL, _INESSENTIAL = StepKind.ESSENTIAL, StepKind.INESSENTIAL
_LEVELED = Flavor.LEVELED


class Outcome(Enum):
    NORMAL_FORM = "normal-form"
    ESSENTIAL_NORMAL = "essential-normal"
    FUEL_EXHAUSTED = "fuel-exhausted"


class _Row(NamedTuple):
    id: SystemId
    flavor: Flavor
    positions: Callable[[Term], list[Position]]
    neg_positions: Callable[[Term], Iterable[Position]]
    name: str
    terminal: Callable[[Term], bool]
    spine_only: bool = False
    closed_only: bool = False


class EssentialSystem(_Row):
    """A base reduction split into essential and inessential steps.

    `positions(t)` lists t's essential redexes in traversal order; everything
    essential is derived from it.  `neg_positions(t)`, the inessential
    redexes, is defined separately so that the decomposition check has teeth.
    `spine_only` marks a strategy that only contracts on the function spine
    (head reduction); it is what tells head from leftmost-outermost to
    `walk`.  The normalization theorem is read from the row too: a maximal
    essential sequence must end in a term `terminal` accepts, `name` names
    the strategy in messages, and `closed_only` restricts the sweep to
    closed terms.  A subclass of its fields' named tuple, it caches walks.
    """

    @cached_property
    def base(self) -> Base:
        """The base reduction, which the flavor determines."""
        return base_of(self.flavor)

    @cached_property
    def walk(self) -> Walk:
        """The strategy's fast path, derived from the row: the redex it finds
        first is `min(positions(t))`, and `normalize` and `reduce` step with
        it."""
        return Walk(self.base, weak=self.flavor is Flavor.CBV, spine_only=self.spine_only,
                    leveled=self.flavor is Flavor.LEVELED)

    @cached_property
    def base_walk(self) -> Walk:
        """Plain `base` reduction: fires the first redex in preorder."""
        return Walk(self.base)

    def essential_steps(self, t: Term) -> list[tuple[Step, Term]]:
        return self._steps(t, self.positions(t), StepKind.ESSENTIAL)

    def inessential_steps(self, t: Term) -> list[tuple[Step, Term]]:
        return self._steps(t, self.neg_positions(t), StepKind.INESSENTIAL)

    def _steps(self, t: Term, positions, kind: StepKind) -> list[tuple[Step, Term]]:
        return [(Step(pos, kind, self.level_of(pos)), step_at(t, pos, self.base))
                for pos in sorted(set(positions))]

    def classify(self, t: Term, pos: Position) -> StepKind:
        return _ESSENTIAL if pos in self.positions(t) else _INESSENTIAL

    def make_step(self, t: Term, pos: Position) -> Step:
        return Step(pos, self.classify(t, pos), self.level_of(pos))

    def level_of(self, pos: Position):
        # leveled systems record the level of every step they take
        return position_level(pos) if self.flavor is _LEVELED else None

    def base_normal(self, t: Term) -> bool:
        """Has `t` no `base` redex?  A beta-normal term has none, and under
        beta every other term has one."""
        return t.normal or self.base is not Base.BETA and self.base_walk.find(t, [])[2] == INFINITY

    def outcome(self, end: Term, exhausted: bool) -> Outcome:
        """How a run of the strategy ended at `end`, with or without a
        redex left when its fuel ran out."""
        if exhausted:
            return Outcome.FUEL_EXHAUSTED
        return Outcome.NORMAL_FORM if self.base_normal(end) else Outcome.ESSENTIAL_NORMAL


def _any_term(t: Term) -> bool:
    """Head reduction accepts any end term: a head normal form."""
    return True


SYSTEMS: dict[SystemId, EssentialSystem] = {
    SystemId.HEAD: EssentialSystem(SystemId.HEAD, Flavor.CBN,
                                   partial(_leftmost_positions, arguments=False),
                                   partial(redexes_where, base=Base.BETA, rule=_head_context),
                                   "head", _any_term, spine_only=True),
    SystemId.WEAK_CBV: EssentialSystem(SystemId.WEAK_CBV, Flavor.CBV,
                                       partial(redexes, base=Base.BETAV, binders=False),
                                       partial(redexes_where, base=Base.BETAV,
                                               rule=_weak_context),
                                       "weak CbV", is_value, closed_only=True),
    SystemId.LO: EssentialSystem(SystemId.LO, Flavor.CBN,
                                 _leftmost_positions,
                                 partial(redexes_where, base=Base.BETA, rule=_lo_context),
                                 "leftmost-outermost", is_normal),
    SystemId.LEAST_LEVEL: EssentialSystem(SystemId.LEAST_LEVEL, Flavor.LEVELED,
                                          _ll_positions, _neg_ll_positions,
                                          "least-level", is_normal),
}

# Each system's steps by name, for the package's exports and bench/tracing.py.
head_steps = SYSTEMS[SystemId.HEAD].essential_steps
neg_head_steps = SYSTEMS[SystemId.HEAD].inessential_steps
weak_cbv_steps = SYSTEMS[SystemId.WEAK_CBV].essential_steps
neg_weak_steps = SYSTEMS[SystemId.WEAK_CBV].inessential_steps
lo_steps = SYSTEMS[SystemId.LO].essential_steps
neg_lo_steps = SYSTEMS[SystemId.LO].inessential_steps
ll_steps = SYSTEMS[SystemId.LEAST_LEVEL].essential_steps
neg_ll_steps = SYSTEMS[SystemId.LEAST_LEVEL].inessential_steps


def get_system(sys) -> EssentialSystem:
    if isinstance(sys, EssentialSystem):
        return sys
    if isinstance(sys, SystemId):
        return SYSTEMS[sys]
    if isinstance(sys, str):
        return SYSTEMS[SystemId(sys)]
    raise TypeError(f"not a system: {sys!r}")


# ---------------------------------------------------------------------------
# Traces


class Trace:
    """A reduction sequence: each step with the whole term after it.

    `split`, `factorize` and `trace_from_positions` build one from a list of
    `(Step, term)` pairs.  `normalize` returns a `RecordedTrace` instead,
    which reads the same and builds those terms only when they are read."""

    __slots__ = ("start", "steps")

    def __init__(self, start: Term, steps: Sequence[tuple[Step, Term]]):
        self.start, self.steps = start, steps

    @property
    def end(self) -> Term:
        return self.steps[-1][1] if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)

    def records(self) -> Iterator[Step]:
        """Each step, without the term after it."""
        return (step for step, _ in self.steps)

    def texts(self) -> Iterator[str]:
        """`show` of the start, then of each step's reduct, each printed by
        `show_steps`: a reduct that replaces only the subterm at its step's
        position is spliced into the text before it."""
        return show_steps(self.start, [(step.position, u) for step, u in self.steps])

    def to_json(self) -> dict:
        start, *texts = self.texts()
        return {"start": start, "steps": steps_to_json(self.records(), texts)}


class RecordedTrace(Sequence):
    """The trace of a walk's run from `start`, as `normalize` records it:
    fired to its end and kept as its step stream yields it, each step's
    position and reduct (`fired`), plus the finished stream, whose `root()`
    is the last term (`end`).

    It is its own `steps`: a read-only sequence of `(Step, root)` pairs, as
    in an eager `Trace`, that holds no whole term between the start and the
    end.  Its length, end, texts and JSON build none.  Every other root is
    built by one replay of the run, which goes on from the last step read
    and starts again from `start` only when an earlier step is asked for.
    """

    def __init__(self, walk: Walk, start: Term, fuel: int, kind: StepKind):
        self.start, self.kind, self._leveled = start, kind, walk.leveled
        self._stream = walk.steps(start, fuel)
        self.fired: list[tuple[Position, Term]] = list(self._stream)
        self._replay = None  # a stream replaying the run, and its iterator
        self._taken = 0  # the number of steps the replay has fired

    @property
    def steps(self) -> RecordedTrace:
        return self

    @property
    def exhausted(self) -> bool:
        """Was a redex left when the fuel ran out?"""
        return self._stream.exhausted

    @cached_property
    def end(self) -> Term:
        """The last term, built by the stream on the first read."""
        return self._stream.root()

    def __len__(self) -> int:
        return len(self.fired)

    def __getitem__(self, i):
        if isinstance(i, slice):
            # read in ascending order, on one replay, whatever the slice's step
            ks = range(*i.indices(len(self.fired)))
            steps = [self[k] for k in sorted(ks)]
            return steps[::-1] if ks.step < 0 else steps
        k = i + len(self.fired) if i < 0 else i
        if not 0 <= k < len(self.fired):
            raise IndexError("trace step index out of range")
        return self._step(self.fired[k][0]), self.root_after(k + 1)

    def __reversed__(self) -> Iterator[tuple[Step, Term]]:
        # blocks of about √n steps from the end, each read on one replay
        size = int(len(self.fired) ** 0.5) + 1
        for stop in range(len(self.fired), 0, -size):
            yield from reversed(self[max(0, stop - size):stop])

    def _step(self, pos: Position) -> Step:
        return Step(pos, self.kind, position_level(pos) if self._leveled else None)

    def levels(self) -> Iterator[int | None]:
        """The level of each step's redex: None unless the walk is leveled."""
        if not self._leveled:
            return repeat(None, len(self.fired))
        return (position_level(pos) for pos, _ in self.fired)

    def records(self) -> Iterator[Step]:
        """Each step, without the term after it."""
        return (self._step(pos) for pos, _ in self.fired)

    def root_after(self, taken: int) -> Term:
        """The whole term after the first `taken` steps."""
        if taken == len(self.fired):
            return self.end
        if self._replay is None or self._taken > taken:
            replay = self._stream.walk.steps(self.start, len(self.fired))
            self._replay, self._taken = (replay, iter(replay)), 0
        replay, steps = self._replay
        deque(islice(steps, taken - self._taken), maxlen=0)  # fire them unread
        self._taken = taken
        return replay.root()

    def texts(self) -> Iterator[str]:
        """`show` of the start and of each term after it, printed from the
        recorded steps by `show_spliced`; a step it cannot splice is printed
        from the root after it."""
        return show_spliced(self.start, self.fired, self.root_after)

    to_json = Trace.to_json


class Factorization(NamedTuple):
    """Essential prefix then inessential suffix, same endpoints as the input."""

    essential: Trace
    inessential: Trace

    def validate(self) -> None:
        if not alpha_eq(self.essential.end, self.inessential.start):
            raise InvalidTraceError("factorization prefix and suffix do not meet")
        for step, _ in self.essential.steps:
            if step.kind is not StepKind.ESSENTIAL:
                raise InvalidTraceError("prefix contains a non-essential step")
        for step, _ in self.inessential.steps:
            if step.kind is not StepKind.INESSENTIAL:
                raise InvalidTraceError("suffix contains a non-inessential step")

    def to_json(self) -> dict:
        return {part: trace.to_json() for part, trace in self._asdict().items()}


def steps_to_json(steps: Iterable[Step], texts: list[str]) -> list[dict]:
    """Each step's JSON with its reduct's text, `texts` in the order of `steps`."""
    return [dict(step.to_json(), term=text) for step, text in zip(steps, texts)]


# ---------------------------------------------------------------------------
# Split


def _essential_redex(d: ParDerivation, sys) -> Optional[Position]:
    """The first essential redex of d's source that d contracts, or None if d
    is an inessential parallel step.  Peeling it first decreases the
    sequential index by exactly one (the indexed-split property)."""
    return next((pos for pos in get_system(sys).positions(d.source) if contracts(d, pos)), None)


def is_parallel_inessential(d: ParDerivation, sys) -> bool:
    """Is the derivation an inessential parallel step of the given system,
    that is, does it contract none of the essential redexes of its source?"""
    system = get_system(sys)
    if d.flavor is not system.flavor:
        raise FlavorMismatchError(
            f"{system.id.value} expects {system.flavor.value} derivations, got {d.flavor.value}")
    return _essential_redex(d, system) is None


def _residual(d: ParDerivation, pos: Position, flavor: Flavor) -> ParDerivation:
    """The derivation left over after firing the selected redex at `pos` first.

    Selections outside the redex stay put; selections in its body keep their
    paths; selections in its argument reappear once per binder occurrence.
    The new selection is valid by construction, so it is not checked.
    """
    body, arg = _node_at(d, pos).children
    body_sel, arg_sel = realize(body), realize(arg)
    new_sel = {p for p in realize(d) if p[:len(pos)] != pos}
    new_sel.update(pos + q for q in body_sel)
    new_sel.update(pos + o + r for o in bound_positions(body.source) for r in arg_sel)
    return _derive(step_at(d.source, pos, base_of(flavor)), new_sel, flavor)


def _peel(d: ParDerivation, system: EssentialSystem):
    """Each essential redex `split` fires, in order, with the derivation left
    after it.  Each round decreases the sequential index by exactly one,
    which bounds the loop."""
    for _ in range(sequential_index(d) + 1):
        pos = _essential_redex(d, system)
        if pos is None:
            return
        d = _residual(d, pos, system.flavor)
        yield pos, d
    raise AssertionError("split did not terminate within its index bound")


def split(d: ParDerivation, sys) -> tuple[Trace, ParDerivation]:
    """Decompose a parallel step into essential steps and an inessential rest."""
    system = get_system(sys)
    if d.flavor is not system.flavor:
        raise FlavorMismatchError(
            f"{system.id.value} splits {system.flavor.value} derivations, got {d.flavor.value}")
    steps: list[tuple[Step, Term]] = []
    rest = d
    # `_essential_redex` found each position among the essential ones
    for pos, rest in _peel(d, system):
        # the residual's source is the reduct: the redex is contracted once
        steps.append((Step(pos, _ESSENTIAL, system.level_of(pos)), rest.source))
    return Trace(d.source, steps), rest


# ---------------------------------------------------------------------------
# Merge


def merge(d: ParDerivation, e: tuple[Step, Term], sys) -> ParDerivation:
    """Absorb an essential step taken after an inessential parallel step.

    The result is the parallel step from d's source that additionally
    contracts the essential redex; its target is the essential step's target.
    """
    system = get_system(sys)
    if not is_parallel_inessential(d, system):
        raise NotInessentialError("merge needs an inessential parallel step")
    step, target = e
    # a wrong reduct at an essential position misses the merged target below
    if step.position not in system.positions(d.target):
        raise NotComposableError(
            f"{show(target)} is not an essential reduct of {show(d.target)} "
            f"at {format_position(step.position)}")
    try:
        merged = derive(d.source, selection_of(d) | {step.position}, system.flavor)
    except InvalidSelectionError as exc:
        raise NotComposableError(str(exc)) from exc
    if not alpha_eq(merged.target, target):
        raise NotComposableError("merged derivation misses the essential target")
    return merged


# ---------------------------------------------------------------------------
# Factorization


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block, then restore the
    caller's setting.  Term nodes never form cycles, so the collections a
    long run of allocations triggers would find nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def factorize(trace: Trace, sys) -> Factorization:
    """Rearrange a base-step sequence into essential then inessential steps.

    Each inessential input step is lifted to a one-redex parallel step, then
    pushed to the right over the essential steps after it: merging with the
    next essential step and splitting the result moves essential work to the
    front while leaving a smaller inessential remainder.  The remainders are
    finally expanded back into single inessential steps.  The cyclic garbage
    collector is paused while it runs.
    """
    system = get_system(sys)
    items = _lift(trace, system)

    e_steps: deque[tuple[Step, Term]] = deque()
    residuals: deque[ParDerivation] = deque()
    for item in reversed(items):
        if isinstance(item, tuple):
            e_steps.appendleft(item)
        else:
            d = item
            pushed: list[tuple[Step, Term]] = []
            for e in e_steps:
                merged = merge(d, e, system)
                prefix, d = split(merged, system)
                pushed.extend(prefix.steps)
            e_steps = deque(pushed)
            residuals.appendleft(d)

    essential = Trace(trace.start, list(e_steps))
    middle = essential.end
    i_steps: list[tuple[Step, Term]] = []
    current = middle
    for d in residuals:
        if not alpha_eq(d.source, current):
            raise InvalidTraceError("inessential remainder does not compose")
        expanded = trace_from_positions(current, realize(d), system)
        i_steps += expanded.steps
        current = expanded.end
    result = Factorization(essential, Trace(middle, i_steps))
    if not alpha_eq(result.inessential.end, trace.end):
        raise InvalidTraceError("factorization changed the endpoint")
    result.validate()
    return result


def _trace_step(current: Term, pos: Position, base: Base, i: int) -> Term:
    """Contract the `base` redex at `pos` of `current`, the source of the
    trace's step `i`; InvalidTraceError if there is none."""
    try:
        return step_at(current, pos, base)
    except InvalidPositionError:
        raise InvalidTraceError(
            f"step {i + 1}: no {base.value} redex at "
            f"{format_position(pos)} in {show(current)}", index=i) from None


def _lift(trace: Trace, system: EssentialSystem):
    """Validate a base trace and lift each step to an E item or a parallel
    inessential derivation."""
    items = []
    current = trace.start
    for i, (step, target) in enumerate(trace.steps):
        real = _trace_step(current, step.position, system.base, i)
        if not alpha_eq(real, target):
            raise InvalidTraceError(f"step {i + 1}: recorded reduct does not match", index=i)
        lifted = system.make_step(current, step.position)
        if lifted.kind is _ESSENTIAL:
            items.append((lifted, target))
        else:
            items.append(derive(current, {step.position}, system.flavor))
        current = target
    return items


def trace_from_positions(start: Term, positions: list[Position], sys) -> Trace:
    """Build a validated trace by contracting the given positions in order."""
    system = get_system(sys)
    steps: list[tuple[Step, Term]] = []
    current = start
    for i, pos in enumerate(positions):
        target = _trace_step(current, pos, system.base, i)
        steps.append((system.make_step(current, pos), target))
        current = target
    return Trace(start, steps)


# ---------------------------------------------------------------------------
# Normalization


@_collector_paused()
def normalize(t: Term, sys, fuel: int = 1000) -> tuple[RecordedTrace, Outcome]:
    """Run the essential strategy until it halts or the fuel runs out.

    Head and leftmost-outermost are deterministic; for the other systems the
    first step in traversal order is taken (the diamond property makes the
    choice irrelevant for termination and length).  `sys` may also be a
    `Base`: the run is then plain beta or beta-value reduction, which fires
    the first redex in preorder, its steps are PLAIN, and it ends in a
    normal form or with its fuel exhausted.

    The run is recorded as its step stream fires it (`RecordedTrace`): the
    trace keeps each step's position and reduct and the last term, and
    builds the terms in between, on one replay of the run, only when its
    steps are read.  The cyclic garbage collector is paused while the run
    is fired.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if isinstance(sys, Base):
        trace = RecordedTrace(Walk(sys), t, fuel, StepKind.PLAIN)
        return trace, Outcome.FUEL_EXHAUSTED if trace.exhausted else Outcome.NORMAL_FORM
    system = get_system(sys)
    # each step fires the least essential position, found by the system's walk
    trace = RecordedTrace(system.walk, t, fuel, _ESSENTIAL)
    return trace, system.outcome(trace.end, trace.exhausted)


# ---------------------------------------------------------------------------
# Property harness


class Report(NamedTuple):
    """The verdict of one sweep.  `checked_count` counts the relevant terms
    examined, a counterexample included: every term for a property, those
    the theorem's hypothesis holds for in a normalization check, and never
    an inconclusive one.  A sweep with an inconclusive term, or with no
    relevant term, is INCONCLUSIVE, and `counterexample` gives the reason."""

    property: str
    system: str
    size_bound: int
    checked_count: int
    result: str  # PASS | FAIL | INCONCLUSIVE
    counterexample: Optional[str] = None

    def to_json(self) -> dict:
        return {key: value for key, value in self._asdict().items() if value is not None}


class _Inconclusive(str):
    """A verdict of `_sweep`: why a term was cut off before it was decided."""


# Determinism, fullness, decomposition and the emptiness tests of persistence
# and of the normalization hypothesis compare positions only, so they read
# positions and contract nothing.


def _check_determinism(system: EssentialSystem, t: Term) -> Optional[str]:
    if len(set(system.positions(t))) > 1:
        return f"{show(t)} has several essential steps"
    return None


def _check_diamond(system: EssentialSystem, t: Term) -> Optional[str]:
    targets = [u for _, u in system.essential_steps(t)]
    closures: list[set[Term] | None] = [None] * len(targets)

    def closure(i: int) -> set[Term]:
        # each target's one-step closure, listed on its first need only
        if closures[i] is None:
            closures[i] = {v for _, v in system.essential_steps(targets[i])}
        return closures[i]

    for i, s in enumerate(targets):
        for j in range(i + 1, len(targets)):
            u = targets[j]
            if alpha_eq(s, u):
                continue
            if not closure(i) & closure(j):
                return f"{show(t)} diverges to {show(s)} / {show(u)} without closing"
    return None


def _check_persistence(system: EssentialSystem, t: Term) -> Optional[str]:
    if not system.positions(t):
        return None
    for _, u in system.inessential_steps(t):
        if not system.positions(u):
            return f"the essential step of {show(t)} is lost by passing to {show(u)}"
    return None


def _check_fullness(system: EssentialSystem, t: Term) -> Optional[str]:
    has_essential = bool(system.positions(t))
    if has_essential != (not system.base_normal(t)):
        return f"fullness fails on {show(t)}"
    return None


def _check_decomposition(system: EssentialSystem, t: Term) -> Optional[str]:
    # a step is determined by its position, and a system's steps are its
    # positions without repeats: they partition the redexes when the redex
    # list has no repeats, no position is both, and together they are all
    base = redexes(t, system.base)
    whole, ess, ines = set(base), set(system.positions(t)), set(system.neg_positions(t))
    if len(whole) != len(base) or not ess.isdisjoint(ines) or ess | ines != whole:
        return f"essential and inessential steps do not partition the redexes of {show(t)}"
    return None


def _check_ll_monotone(system: EssentialSystem, t: Term) -> Optional[str]:
    ll = least_level(t)
    for _, u in reducts(t, system.base):
        if least_level(u) < ll:
            return f"step from {show(t)} to {show(u)} lowered the least level"
    return None


def _check_ll_invariant(system: EssentialSystem, t: Term) -> Optional[str]:
    ll = least_level(t)
    for _, u in system.inessential_steps(t):
        if least_level(u) != ll:
            return f"inessential step from {show(t)} to {show(u)} changed the least level"
    return None


def _check_merge(system: EssentialSystem, t: Term) -> Optional[str]:
    for d in all_parallel_steps(t, system.flavor):
        if not is_parallel_inessential(d, system):
            continue
        for s, u in system.essential_steps(d.target):
            try:
                merged = merge(d, (s, u), system)
            except (NotComposableError, InvalidSelectionError) as exc:
                return f"merge failed on {show(t)}: {exc}"
            if not (alpha_eq(merged.source, t) and alpha_eq(merged.target, u)):
                return f"merge produced wrong endpoints on {show(t)}"
    return None


def _check_split(system: EssentialSystem, t: Term) -> Optional[str]:
    for d in all_parallel_steps(t, system.flavor):
        try:
            prefix, rest = split(d, system)
        except AssertionError as overrun:  # raised by `_peel`, the only assertion
            return f"{overrun} on {show(t)}"
        if not alpha_eq(prefix.start, t):
            return f"split moved the start of {show(t)}"
        current = t
        for s, u in prefix.steps:
            if system.classify(current, s.position) is not _ESSENTIAL:
                return f"split emitted a non-essential step on {show(t)}"
            current = u
        if not alpha_eq(rest.source, current):
            return f"split prefix and residual do not meet on {show(t)}"
        if not is_parallel_inessential(rest, system):
            return f"split residual is not inessential on {show(t)}"
        if not alpha_eq(rest.target, d.target):
            return f"split changed the target of {show(t)}"
    return None


def _check_indexed_split(system: EssentialSystem, t: Term) -> Optional[str]:
    for d in all_parallel_steps(t, system.flavor):
        index = sequential_index(d)
        for _, current in _peel(d, system):
            if sequential_index(current) != index - 1:
                return (f"peeling the essential redex of {show(t)} changed the index by "
                        f"{index - sequential_index(current)}")
            index -= 1
    return None


PROPERTY_CHECKS = {
    "determinism": (_check_determinism, (SystemId.HEAD, SystemId.LO)),
    "diamond": (_check_diamond, (SystemId.WEAK_CBV, SystemId.LEAST_LEVEL)),
    "persistence": (_check_persistence, tuple(SystemId)),
    "fullness": (_check_fullness, (SystemId.LO, SystemId.LEAST_LEVEL)),
    "decomposition": (_check_decomposition, tuple(SystemId)),
    "merge": (_check_merge, tuple(SystemId)),
    "split": (_check_split, tuple(SystemId)),
    "indexed-split": (_check_indexed_split, tuple(SystemId)),
    "ll-monotone": (_check_ll_monotone, (SystemId.LEAST_LEVEL,)),
    "ll-invariant": (_check_ll_invariant, (SystemId.LEAST_LEVEL,)),
}


class UnsupportedPropertyError(ValueError):
    pass


def check_property(prop: str, sys, size_bound: int = 8,
                   free_names: tuple[str, ...] = ("x", "y"),
                   workers: int = 1) -> Report:
    """Exhaustively check one property of one system on all terms up to a size."""
    system = get_system(sys)
    try:
        checker, supported = PROPERTY_CHECKS[prop]
    except KeyError:
        raise UnsupportedPropertyError(f"unknown property {prop!r}") from None
    if system.id not in supported:
        raise UnsupportedPropertyError(
            f"property {prop!r} is not claimed for system {system.id.value!r}")
    return _sweep(prop, system, EnumSpec(max_size=size_bound, free_names=free_names),
                  partial(checker, system), workers)


@_collector_paused()
def _sweep(prop: str, system: EssentialSystem, spec: EnumSpec, check, workers: int = 1) -> Report:
    """Report on `check(t)` for every term `spec` enumerates: None passes
    `t`, a message fails it, False skips it as irrelevant and an
    `_Inconclusive` counts it as cut off.  Each check returns the first
    verdict it meets, so a counterexample found before a budget is hit is a
    failure, and so is a split that overruns its index bound.  With
    `workers > 1` a process pool runs the checks, so `check` and its
    verdicts must pickle.  The loop runs in a derivation table (see
    `parallel`), so the parallel steps of a subterm that terms share are
    built once; it is gone on every exit."""
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    terms = list(enumerate_terms(spec))
    if workers == 1:
        pool, run = nullcontext(), map
    else:
        # imported here: at module level it would slow every CLI start several-fold
        from concurrent.futures import ProcessPoolExecutor
        # the pool forks all its processes at its first task, each a copy of
        # this one holding every term: at most one per CPU
        workers = min(workers, os.cpu_count() or 1)
        pool = ProcessPoolExecutor(workers)
        run = partial(pool.map, chunksize=max(1, len(terms) // (workers * 8)))
    checked, inconclusive, reason = 0, 0, None
    with pool, _derivation_table():
        # only this loop holds the verdicts: leaving it at a failure drops
        # them, which cancels the chunks no worker has started
        for t, verdict in zip(terms, run(check, terms)):
            if verdict is None:
                checked += 1
            elif isinstance(verdict, _Inconclusive):
                inconclusive += 1
                reason = reason or f"{show(t)}: {verdict}"
            elif verdict is not False:
                return Report(prop, system.id.value, spec.max_size, checked + 1, "FAIL", verdict)
    if inconclusive:
        reason += f" ({inconclusive} {'term' if inconclusive == 1 else 'terms'} inconclusive)"
    elif not checked:
        reason = "no term satisfied the theorem's hypothesis"
    result = "PASS" if reason is None else "INCONCLUSIVE"
    return Report(prop, system.id.value, spec.max_size, checked, result, reason)


# ---------------------------------------------------------------------------
# Normalization checks


def check_normalization(sys, size_bound: int = 8, fuel: int = 1000,
                        node_budget: int = 20000, depth_budget: int = 64) -> Report:
    """Desk-scale normalization theorems, one rule for every system.

    A term is relevant when its explored base graph holds an essential-normal
    term, and inconclusive when the graph is cut off before one.  Then every
    maximal essential sequence from it must be finite, all of one length of
    at most `fuel` steps, and end in a term the row's `terminal` accepts.
    Budget hits (the first one is reported, with how many terms hit one) and
    sweeps where no term is relevant yield INCONCLUSIVE, not PASS.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if node_budget <= 0 or depth_budget <= 0:
        raise ValueError("budgets must be positive")
    system = get_system(sys)
    spec = EnumSpec(max_size=size_bound, closed_only=system.closed_only)
    return _sweep("normalization", system, spec,
                  partial(_normalization_verdict, system, fuel, node_budget, depth_budget))


def _normalization_verdict(system: EssentialSystem, fuel: int, node_budget: int,
                           depth_budget: int, t: Term):
    """`_check_normalization_on_graph` as a verdict of `_sweep`, with no
    graph for a base-normal `t`: that is its own whole graph, so it is
    relevant and its one maximal sequence is empty."""
    # the walk stops at the first redex rather than list them all
    if system.base_normal(t):
        return None if system.terminal(t) else _halts_badly(system.name, t, t)
    return _check_normalization_on_graph(system, t, fuel, node_budget, depth_budget)


def _check_normalization_on_graph(system: EssentialSystem, t: Term, fuel: int,
                                  node_budget: int, depth_budget: int):
    """The rule of `check_normalization` for `t`, read off its explored base
    graph, as a verdict of `_sweep`: False when `t` is not relevant, an
    `_Inconclusive` when the graph is cut off before its relevance is
    decided, else the verdict of `_uniform_terminal`: a counterexample it
    finds before a budget is hit is a failure."""
    graph = explore(t, system.base, node_budget=node_budget, depth_budget=depth_budget)
    # on a whole graph a node without out-edges is normal, so essential-normal
    whole = not graph.truncated
    if not (whole and any(not out for out in graph.edges.values())
            or any(not system.positions(n) for n in graph.nodes)):
        # an essential-normal term may lie beyond the cut
        return False if whole else _Inconclusive(
            f"{system.base.value} graph search hit a budget before an essential-normal term")

    def successors(u: Term) -> list[Term]:
        # a whole graph's edges hold every base step of u in preorder, the
        # order of its essential steps; a truncated graph may lack them
        if not whole:
            return [v for _, v in system.essential_steps(u)]
        essential = set(system.positions(u))
        return [v for step, v in graph.edges[u] if step.position in essential]
    return _uniform_terminal(t, successors, system.terminal, fuel, node_budget, system.name)


def _uniform_terminal(t: Term, successors, terminal_ok, fuel: int, budget: int, what: str):
    """All maximal essential sequences from t are finite, of one length of at
    most `fuel` steps, and end in a term `terminal_ok` accepts.  A verdict of
    `_sweep`, returned where the search meets it: a failure message at the
    first bad end, loop or term whose successors' lengths differ, an
    `_Inconclusive` at the first sequence longer than `fuel` or search
    larger than `budget` terms, else None.  So a counterexample met before
    a bound is hit is a failure.

    A post-order walk over an explicit stack, like every walk of the
    package: the sequences can run as long as `fuel` allows.
    """
    lengths: dict[Term, int] = {}
    children: dict[Term, list[Term]] = {}
    on_path: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if expanded:
            on_path.discard(u)
            below = {lengths[v] for v in children.pop(u)}
            if len(below) != 1:
                return f"{what} sequences from {show(t)} have different lengths"
            lengths[u] = below.pop() + 1
            continue
        if u in lengths:
            continue
        if len(lengths) + len(on_path) >= budget:
            return _Inconclusive(f"{what} graph search hit the node budget")
        nexts = successors(u)
        if not nexts:
            if not terminal_ok(u):
                return _halts_badly(what, t, u)
            lengths[u] = 0
            continue
        # on_path is the sequence from t to u; the first sequence walked
        # is walked whole, so a length shared by all is bounded here
        if len(on_path) >= fuel:
            return _Inconclusive(f"{what} reduction hit the fuel bound")
        on_path.add(u)
        children[u] = nexts
        stack.append((u, True))
        for v in nexts:
            if v in on_path:
                return f"{what} reduction loops below {show(t)}"
            if v not in lengths:
                stack.append((v, False))
    return None


def _halts_badly(what: str, t: Term, u: Term) -> str:
    return f"{what} reduction from {show(t)} halts at the bad term {show(u)}"


# ---------------------------------------------------------------------------
# Substitutivity sweep


# sampled terms have between 4 and `max_size` nodes
SUBST_INDEX_MIN_SIZE = 4


def check_subst_index(flavor: Flavor, samples: int = 500, seed: int = 0,
                      max_size: int = 9) -> Report:
    """Randomized check of the substitutivity index law.

    Combines two random parallel steps through a substitution and verifies
    the combined index both against the closed formula and against a full
    re-derivation from the induced redex selection.
    """
    if flavor not in (Flavor.CBN, Flavor.CBV):
        raise UnsupportedPropertyError("substitutivity indexes exist for CBN and CBV")
    if max_size < SUBST_INDEX_MIN_SIZE:
        raise ValueError(f"max_size must be at least {SUBST_INDEX_MIN_SIZE}, got {max_size}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    rng = random.Random(seed)
    spec = EnumSpec(max_size=max_size)
    checked = 0
    for _ in range(samples):
        t = random_term(rng.randrange(2 ** 30),
                        rng.randint(SUBST_INDEX_MIN_SIZE, max_size), spec)
        d1 = _random_derivation(rng, t, flavor)
        s = _random_substituend(rng, flavor, spec, max_size)
        d2 = _random_derivation(rng, s, flavor)
        name = rng.choice(("x", "y"))
        combined = subst_parallel(d1, name, d2, flavor)
        checked += 1
        expected = d1.index + count_occurrences(d1.target, name) * d2.index
        failure = None
        if combined.index != expected:
            failure = (f"index {combined.index} instead of {expected} substituting "
                       f"{name} := {show(s)} in {show(t)}")
        elif not alpha_eq(combined.source, substitute(t, name, s)):
            failure = f"wrong source substituting {name} := {show(s)} in {show(t)}"
        elif not alpha_eq(combined.target, substitute(d1.target, name, d2.target)):
            failure = f"wrong target substituting {name} := {show(s)} in {show(t)}"
        else:
            rederived = derive(combined.source, selection_of(combined), flavor)
            if rederived.index != combined.index or not alpha_eq(rederived.target, combined.target):
                failure = (f"re-derivation disagrees substituting {name} := {show(s)} "
                           f"in {show(t)}")
        if failure is not None:
            return Report("subst-index", flavor.value, max_size, checked, "FAIL", failure)
    result, reason = ("PASS", None) if checked else ("INCONCLUSIVE", "no samples drawn")
    return Report("subst-index", flavor.value, max_size, checked, result, reason)


def _random_derivation(rng: random.Random, t: Term, flavor: Flavor) -> ParDerivation:
    positions = beta_redexes(t) if flavor is not Flavor.CBV else betav_redexes(t)
    sel = [p for p in positions if rng.random() < 0.6]
    return derive(t, sel, flavor)


def _random_substituend(rng: random.Random, flavor: Flavor, spec: EnumSpec,
                        max_size: int) -> Term:
    s = random_term(rng.randrange(2 ** 30), rng.randint(2, max_size - 1), spec)
    if flavor is Flavor.CBV and not is_value(s):
        s = Lam(s, "v")  # dangling-free wrapper: any abstraction is a value
    return s
