"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
runtime.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from collections import Counter

from essential_rewrite import (
    Base,
    EnumSpec,
    INFINITY,
    StepKind,
    SystemId,
    alpha_eq,
    check_normalization,
    check_property,
    check_subst_index,
    derive,
    enumerate_terms,
    explore,
    factorize,
    head_steps,
    least_level,
    ll_steps,
    neg_head_steps,
    neg_ll_steps,
    neg_lo_steps,
    neg_weak_steps,
    parse,
    random_term,
    sequential_index,
    show,
    step_at,
    substitute,
    weak_cbv_steps,
)
from essential_rewrite.engine import SYSTEMS, Trace, _essential_redex, _residual
from essential_rewrite.parallel import Flavor, base_of
from essential_rewrite.reductions import redexes, reducts
from essential_rewrite.terms import Lam
from conftest import first_reduct
from graph_deciders import path_exists


def report(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.time() - started:.1f}s]")


def test_criterion_1_paper_example_regressions():
    started = time.time()
    I = r"(\z.z)"

    # I(II) contracts to II both at the root and inside the argument
    t = parse(f"{I} ({I} {I})")
    ii = parse(f"{I} {I}")
    assert alpha_eq(first_reduct(SystemId.HEAD, t), ii)
    assert ii in [u for _, u in neg_head_steps(t)]

    # head reduction from I(x(II)) stops at x(II); a plain beta path reaches x I
    t = parse(f"{I} (x ({I} {I}))")
    head_end = first_reduct(SystemId.HEAD, t)
    assert alpha_eq(head_end, parse(f"x ({I} {I})"))
    assert first_reduct(SystemId.HEAD, head_end) is None
    g = explore(t, Base.BETA)
    beta_end = parse(f"x {I}")
    assert path_exists(g, t, beta_end, 2) is not None
    assert not alpha_eq(head_end, beta_end)

    # leftmost-outermost on x(Iy), and on its substitution instance
    t = parse(f"x ({I} y)")
    assert alpha_eq(first_reduct(SystemId.LO, t), parse("x y"))
    instance = substitute(t, "x", parse(r"\w.w w"))
    root_reduct = step_at(instance, ())
    assert alpha_eq(first_reduct(SystemId.LO, instance), root_reduct)

    # least levels of the three reference terms
    assert least_level(parse("x")) == INFINITY
    t0 = parse(f"(\\x.{I} {I}) y")
    assert least_level(t0) == 0
    t1 = parse(f"x (x ({I} {I})) ({I} {I})")
    assert least_level(t1) == 1

    # incomparability witnesses, in both directions
    inner = parse(f"(\\x.{I}) y")
    assert inner in [u for _, u in ll_steps(t0)]
    assert not alpha_eq(first_reduct(SystemId.LO, t0), inner)

    lo_reduct = first_reduct(SystemId.LO, t1)
    assert alpha_eq(lo_reduct, parse(f"x (x {I}) ({I} {I})"))
    assert lo_reduct in [u for _, u in neg_ll_steps(t1)]
    assert lo_reduct not in [u for _, u in ll_steps(t1)]
    assert [u for _, u in ll_steps(t1)] == [parse(f"x (x ({I} {I})) {I}")]

    assert time.time() - started < 1.0
    report(1, "paper-example regression", started)


def test_criterion_2_decomposition_suites():
    started = time.time()
    terms = list(enumerate_terms(EnumSpec(max_size=9)))
    suites = [
        ("head", Base.BETA, head_steps, neg_head_steps),
        ("lo", Base.BETA, SYSTEMS[SystemId.LO].essential_steps, neg_lo_steps),
        ("ll", Base.BETA, ll_steps, neg_ll_steps),
        ("weak-cbv", Base.BETAV, weak_cbv_steps, neg_weak_steps),
    ]
    for name, base, essential, inessential in suites:
        for t in terms:
            whole = Counter((q, step_at(t, q, base)) for q in redexes(t, base))
            parts = Counter((s.position, u) for s, u in essential(t))
            parts += Counter((s.position, u) for s, u in inessential(t))
            assert whole == parts, f"{name} decomposition fails on {show(t)}"
    assert time.time() - started < 120
    report(2, f"decomposition suites on {len(terms)} terms", started)


def test_criterion_3_essential_system_suites():
    started = time.time()
    jobs = [
        ("determinism", SystemId.HEAD), ("determinism", SystemId.LO),
        ("diamond", SystemId.WEAK_CBV), ("diamond", SystemId.LEAST_LEVEL),
        ("persistence", SystemId.HEAD), ("persistence", SystemId.WEAK_CBV),
        ("persistence", SystemId.LO), ("persistence", SystemId.LEAST_LEVEL),
        ("fullness", SystemId.LO), ("fullness", SystemId.LEAST_LEVEL),
        ("ll-monotone", SystemId.LEAST_LEVEL), ("ll-invariant", SystemId.LEAST_LEVEL),
    ]
    for prop, system in jobs:
        result = check_property(prop, system, size_bound=9)
        assert result.result == "PASS", f"{prop}/{system.value}: {result.counterexample}"

    # shape preservation: a positive-least-level essential step never turns a
    # non-abstraction into an abstraction
    for t in enumerate_terms(EnumSpec(max_size=9)):
        if isinstance(t, Lam) or least_level(t) <= 0:
            continue
        for _, u in ll_steps(t):
            assert not isinstance(u, Lam), f"shape preservation fails on {show(t)}"

    report(3, "essential-system suites at size 9", started)


def test_criterion_4_substitutivity_index_law():
    started = time.time()
    for flavor in (Flavor.CBN, Flavor.CBV):
        result = check_subst_index(flavor, samples=500, seed=20260810)
        assert result.result == "PASS", result.counterexample
        assert result.checked_count == 500
    assert time.time() - started < 30
    report(4, "substitutivity index law, 500 samples per flavor", started)


def test_criterion_5_factorization_soundness():
    started = time.time()
    cap_per_system = 50000
    terms = list(enumerate_terms(EnumSpec(max_size=7)))
    for system_id in SystemId:
        system = SYSTEMS[system_id]
        factored = 0
        for t in terms:
            stack = [(t, [])]
            while stack and factored < cap_per_system:
                term, steps = stack.pop()
                if steps:
                    trace = Trace(t, steps)
                    result = factorize(trace, system)
                    assert alpha_eq(result.essential.start, t)
                    assert alpha_eq(result.inessential.end, trace.end)
                    assert result.essential.end == result.inessential.start
                    assert all(s.kind is StepKind.ESSENTIAL
                               for s, _ in result.essential.steps)
                    assert all(s.kind is StepKind.INESSENTIAL
                               for s, _ in result.inessential.steps)
                    factored += 1
                if len(steps) == 4:
                    continue
                for q, u in reducts(term, system.base):
                    s = system.make_step(term, q)
                    stack.append((u, steps + [(s, u)]))
        # the whole sequence space fits under the sampling cap: full coverage
        assert 0 < factored < cap_per_system
    assert time.time() - started < 600
    report(5, "factorization soundness, all sequences <= 4 from terms <= 7", started)


def test_criterion_6_indexed_split_law():
    started = time.time()
    rng = random.Random(1311)
    spec = EnumSpec(max_size=9)
    plans = [(Flavor.CBN, SystemId.HEAD), (Flavor.CBN, SystemId.LO),
             (Flavor.CBV, SystemId.WEAK_CBV)]
    sampled = 0
    graphs = {}
    while sampled < 1000:
        t = random_term(rng.randrange(2 ** 30), rng.randint(4, 9), spec)
        flavor, system_id = plans[sampled % len(plans)]
        positions = redexes(t, base_of(flavor))
        d = derive(t, [q for q in positions if rng.random() < 0.8], flavor)
        n = d.index
        if not 1 <= n <= 6:
            continue
        sampled += 1

        # every split iteration lowers the index by exactly one
        current, index = d, n
        while True:
            pos = _essential_redex(current, system_id)
            if pos is None:
                break
            current = _residual(current, pos, flavor)
            assert sequential_index(current) == index - 1, show(t)
            index -= 1

        # and the parallel target is reachable in at most n base steps
        key = (t, flavor)
        if key not in graphs:
            graphs[key] = explore(t, base_of(flavor), node_budget=4000, depth_budget=12)
        assert path_exists(graphs[key], t, d.target, n) is not None, show(t)
    report(6, "indexed split law, 1000 sampled derivations", started)


def test_criterion_7_normalization_theorems():
    started = time.time()
    plans = [(SystemId.HEAD, 8), (SystemId.LO, 8),
             (SystemId.LEAST_LEVEL, 8), (SystemId.WEAK_CBV, 10)]
    for system_id, size in plans:
        result = check_normalization(system_id, size_bound=size, fuel=1000,
                                     node_budget=20000)
        assert result.result == "PASS", f"{system_id.value}: {result.counterexample}"
        assert result.checked_count > 0
    assert time.time() - started < 600
    report(7, "normalization theorems at desk scale", started)
