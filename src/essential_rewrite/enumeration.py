"""Exhaustive and random generation of lambda terms.

The enumerator produces every alpha-distinct term up to a size bound, in a
deterministic size-then-structure order, over a fixed pool of free names.
Generated terms share subterm objects aggressively, which keeps the sweeps
used by the property checkers cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .terms import App, Free, Lam, Term, Var


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: size bound, allowed free names (each given once,
    or terms would repeat), closedness."""

    max_size: int
    free_names: tuple[str, ...] = ("x", "y")
    closed_only: bool = False

    def __post_init__(self):
        for i, name in enumerate(self.free_names):
            if name in self.free_names[:i]:
                raise ValueError(f"free name {name!r} is given twice")

    def pool(self) -> tuple[str, ...]:
        return () if self.closed_only else self.free_names


def enumerate_terms(spec: EnumSpec) -> Iterator[Term]:
    """All alpha-distinct terms of size <= spec.max_size, smaller sizes first."""
    if spec.max_size < 1:
        raise ValueError("max_size must be >= 1")
    memo: dict[tuple[int, int], list[Term]] = {}
    for n in range(1, spec.max_size + 1):
        yield from _exact(n, 0, spec.pool(), memo)


def count_terms(spec: EnumSpec) -> dict[int, int]:
    """Term counts by exact size, from the same lists as the enumerator."""
    if spec.max_size < 1:
        raise ValueError("max_size must be >= 1")
    memo: dict[tuple[int, int], list[Term]] = {}
    return {n: len(_exact(n, 0, spec.pool(), memo)) for n in range(1, spec.max_size + 1)}


def _exact(n: int, depth: int, pool: tuple[str, ...], memo) -> list[Term]:
    """Every term of size `n` under `depth` binders, in `memo` by (n, depth)."""
    # each list is built once the lists it is made of are in `memo`:
    # `pending` holds the keys still to build, the one at the end first
    pending = [(n, depth)]
    while pending:
        key = pending[-1]
        if key in memo:
            pending.pop()
            continue
        m, d = key
        parts = [(m - 1, d + 1)] + [(k, d) for k in range(1, m - 1)] if m > 1 else []
        missing = [part for part in parts if part not in memo]
        if missing:
            pending += missing
            continue
        pending.pop()
        out: list[Term] = []
        if m == 1:
            out.extend(Var(i) for i in range(d))
            out.extend(Free(name) for name in pool)
        else:
            out.extend(Lam(body) for body in memo[m - 1, d + 1])
            for left_size in range(1, m - 1):
                rights = memo[m - 1 - left_size, d]
                for fun in memo[left_size, d]:
                    out.extend(App(fun, arg) for arg in rights)
        memo[key] = out
    return memo[n, depth]


def random_term(seed: int, target_size: int, spec: EnumSpec | None = None) -> Term:
    """Reproducible pseudo-random term of exactly `target_size` nodes."""
    if spec is None:
        spec = EnumSpec(max_size=target_size)
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    if not spec.pool() and target_size < 2:
        raise ValueError("no closed term has size 1")
    rng = random.Random(seed)
    return _random(rng, target_size, 0, spec.pool())


def _random(rng: random.Random, n: int, depth: int, pool: tuple[str, ...]) -> Term:
    # The draws are made in preorder, each node's before its children's and
    # a function side's before its argument's.  `path` holds each node still
    # to build: None for an abstraction, the size and depth of its argument
    # for an application whose function side is being drawn, and then that
    # function side.
    path: list = []
    while True:
        leaves = depth + len(pool)
        if n == 1:
            i = rng.randrange(leaves)
            t = Var(i) if i < depth else Free(pool[i - depth])
        else:
            # an application needs both sides buildable: size-1 sides need a
            # leaf in scope; it is drawn twice as often, so that terms are
            # not lambda towers
            app = n >= 3 and (leaves > 0 or n >= 5)
            if rng.choice(("lam", "app", "app") if app else ("lam",)) == "lam":
                path.append(None)
                n -= 1
                depth += 1
                continue
            lo = 1 if leaves > 0 else 2
            hi = n - 1 - lo
            left = rng.randint(lo, hi)
            path.append((n - 1 - left, depth))
            n = left
            continue
        while path:
            frame = path.pop()
            if frame is None:
                t = Lam(t)
                depth -= 1
            elif type(frame) is tuple:
                path.append(t)
                n, depth = frame
                break
            else:
                t = App(frame, t)
        else:
            return t
