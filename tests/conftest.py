"""Shared helpers for the test suite."""

import random

import pytest

from essential_rewrite import SYSTEMS, App, EnumSpec, Lam, enumerate_terms, parse, random_term

# the identity combinator, spelled out since the grammar has no constants
I = r"(\z.z)"
OMEGA = r"(\x.x x) (\x.x x)"


def p(text: str):
    return parse(text)


def first_reduct(system_id, t):
    """The reduct of the first essential step of `t` in the system's row, or
    None if `t` is essential-normal."""
    return next((u for _, u in SYSTEMS[system_id].essential_steps(t)), None)


def row_steps(system_id, t):
    """The essential and inessential steps of `t` in the system's row, merged
    by position."""
    row = SYSTEMS[system_id]
    return sorted(row.essential_steps(t) + row.inessential_steps(t),
                  key=lambda step: step[0].position)


def terms_up_to(size: int, closed_only: bool = False):
    return list(enumerate_terms(EnumSpec(max_size=size, closed_only=closed_only)))


def random_samples():
    """300 random terms of size 9 to 13: an application with redexes on both
    sides needs size 9, so only these tell the order of the two sides."""
    rng = random.Random(3)
    spec = EnumSpec(max_size=13)
    return [random_term(rng.randrange(2 ** 30), rng.randint(9, 13), spec)
            for _ in range(300)]


def subterms(terms):
    """Every distinct subterm object of `terms`; most have dangling indices."""
    seen, pending = {}, list(terms)
    while pending:
        u = pending.pop()
        if id(u) not in seen:
            seen[id(u)] = u
            if isinstance(u, Lam):
                pending.append(u.body)
            elif isinstance(u, App):
                pending += [u.fun, u.arg]
    return list(seen.values())


@pytest.fixture(scope="session")
def small_terms():
    """Every term of size <= 6 over free names {x, y}; includes closed terms."""
    return terms_up_to(6)
