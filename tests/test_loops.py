"""Every loop that replaced a recursion on depth agrees with its recursive
original, kept in `recursive.py`: on all terms up to size 8, on the random
samples, and on every parallel step of those terms in each flavour, within a
sweep's derivation table too.  So does every node's `normal` flag, whichever
builder made the node."""

import json
import pickle
import random
import sys

import pytest

import recursive
from essential_rewrite import parallel
from essential_rewrite.engine import SYSTEMS
from essential_rewrite.enumeration import EnumSpec, _exact, enumerate_terms, random_term
from essential_rewrite.parallel import (
    Flavor,
    all_parallel_steps,
    derive,
    identity_derivation,
    realize,
    selection_of,
    sequential_index,
    sequentialize,
    subst_parallel,
)
from essential_rewrite.reductions import Base, Walk, reducts
from essential_rewrite.terms import (
    App,
    BODY,
    Free,
    LEFT,
    Lam,
    ParseError,
    RIGHT,
    Var,
    bound_positions,
    count_bound,
    count_occurrences,
    instantiate,
    is_neutral,
    is_normal,
    parse,
    path_to,
    plug,
    rebuild,
    shift,
    show,
    size,
    substitute,
)
from conftest import random_samples, subterms, terms_up_to, under_binders

TERMS = terms_up_to(8) + random_samples()
SUBTERMS = subterms(TERMS)


def same_derivation(d, e) -> bool:
    """The two derivation trees have the same rules, flavours, indices,
    sources and targets, node for node."""
    pending = [(d, e)]
    while pending:
        d, e = pending.pop()
        if (d.rule, d.flavor, d.index, len(d.children)) != (
                e.rule, e.flavor, e.index, len(e.children)):
            return False
        if not (recursive.equal(d.source, e.source) and recursive.equal(d.target, e.target)):
            return False
        pending += zip(d.children, e.children)
    return True


@pytest.fixture(scope="module", params=list(Flavor), ids=lambda f: f.value)
def steps(request):
    """The flavour and every parallel step of every term, by the recursive
    original of `all_parallel_steps`."""
    flavor = request.param
    return flavor, [(t, list(recursive.all_parallel_steps(t, flavor))) for t in TERMS]


class TestTermLoops:
    def test_size_and_predicates(self):
        for t in SUBTERMS:
            assert size(t) == recursive.size(t)
            assert is_normal(t) == recursive.is_normal(t)
            assert is_neutral(t) == recursive.is_neutral(t)

    def test_counts_and_bound_positions(self):
        for t in SUBTERMS:
            for name in ("x", "y", "z"):
                assert count_occurrences(t, name) == recursive.count_occurrences(t, name)
            # index k of `t` is the dangling index 0 of `t` under k binders
            for index in range(3):
                u = under_binders(t, index)
                assert count_bound(u) == recursive.count_bound(t, index)
                assert (list(bound_positions(u))
                        == list(recursive.bound_positions(t, index, (BODY,) * index)))

    def test_equality(self):
        # each term against its neighbours, and against an equal copy that
        # shares no node with it
        copies = [parse(show(t)) for t in TERMS]
        for t, u, copy in zip(TERMS, TERMS[1:] + TERMS[:1], copies):
            assert (t == u) == recursive.equal(t, u)
            assert t is not copy and t == copy and copy == t
        for t in SUBTERMS[:3000]:
            for u in SUBTERMS[:40]:
                assert (t == u) == recursive.equal(t, u)
        # leaves whose hashes collide, made so by hand, still differ
        a, b, c, d = Var(0), Var(1), Free("p"), Free("q")
        b._hash, d._hash = a._hash, c._hash
        assert App(a, c) != App(b, c) and Lam(App(c, c)) != Lam(App(c, d))

    def test_substitute(self):
        for t in SUBTERMS:
            for name, replacement in (("x", Free("z")), ("y", Lam(App(Var(0), Var(1)))),
                                      ("z", Var(0))):
                got = substitute(t, name, replacement)
                want = recursive.substitute(t, name, replacement)
                assert recursive.equal(got, want)
                assert (got is t) == (want is t)

    def test_shift_and_instantiate(self):
        args = subterms(terms_up_to(4))
        for t in SUBTERMS:
            # under k binders, `t` is shifted from the cutoff k
            for cutoff in range(3):
                u = under_binders(t, cutoff)
                got, want = shift(u, 2), recursive.shift(t, 2, cutoff)
                assert recursive.equal(got, under_binders(want, cutoff))
                assert (got is u) == (want is t)
        for t in SUBTERMS[::5]:
            for arg in args[::3]:
                got, want = instantiate(t, arg), recursive.instantiate(t, arg)
                assert recursive.equal(got, want) and (got is t) == (want is t)

    def test_show_and_parse(self):
        for t in TERMS:
            text = show(t)
            assert text == recursive.show(t)
            got, want = parse(text), recursive.parse(text)
            # binder names are kept as hints, which only the text shows
            assert recursive.equal(got, want) and show(got) == show(want) == text

    def test_parse_errors(self):
        """Every prefix of a printed term, and each with a stray token put
        in, parses or fails alike, at the same byte offset."""
        for t in TERMS[::13]:
            text = show(t)
            for i in range(len(text) + 1):
                for extra in ("", ")", "(", ".", "\\", "λ"):
                    source = text[:i] + extra + text[i:] if extra else text[:i]
                    assert _outcome(parse, source) == _outcome(recursive.parse, source), source

    def test_one_hint_nested_2000_deep(self):
        """Each binder name is picked in time linear in its length: the 2000
        binders of one hint print as a, a', a'', ... as they did."""
        t = App(Lam(Var(0), "y"), Free("z"))
        for _ in range(2000):
            t = Lam(t, "a")
        text = show(t)
        assert text.startswith("\\a.\\a'.\\a''.") and text.endswith(".(\\y.y) z")
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)  # the oracle takes a frame per binder
        try:
            assert text == recursive.show(t)
        finally:
            sys.setrecursionlimit(old_limit)


def _outcome(parser, text):
    try:
        return show(parser(text))
    except ParseError as exc:
        return str(exc), exc.offset


class TestParallelLoops:
    def test_all_parallel_steps(self, steps, monkeypatch):
        flavor, expected = steps
        for t, want in expected:
            got = list(all_parallel_steps(t, flavor))
            assert len(got) == len(want) and all(map(same_derivation, got, want))
        # the cap takes the first steps of every subterm
        monkeypatch.setattr(parallel, "_STEP_CAP", 3)
        for t, want in expected[::17]:
            got = list(all_parallel_steps(t, flavor))
            capped = list(recursive.all_parallel_steps(t, flavor, cap=3))
            assert len(got) == len(capped) and all(map(same_derivation, got, capped))

    def test_derive_and_identity(self, steps):
        flavor, expected = steps
        for t, derivations in expected:
            assert same_derivation(identity_derivation(t, flavor),
                                   recursive.identity_derivation(t, flavor))
            for d in derivations:
                sel = selection_of(d)
                assert same_derivation(derive(t, sel, flavor), recursive.derive(t, sel, flavor))

    def test_steps_in_a_derivation_table(self, steps):
        # as in a sweep: the first pass fills the table, the second reads it
        flavor, expected = steps
        expected = [(t, want) for t, want in expected if size(t) <= 7]
        with parallel._derivation_table():
            for _ in range(2):
                for t, want in expected:
                    got = list(all_parallel_steps(t, flavor))
                    assert len(got) == len(want) and all(map(same_derivation, got, want))
                    assert same_derivation(identity_derivation(t, flavor),
                                           recursive.identity_derivation(t, flavor))
                    for d in got:
                        sel = selection_of(d)
                        assert same_derivation(derive(t, sel, flavor),
                                               recursive.derive(t, sel, flavor))
            (table,) = parallel._TABLES.get().values()
            # an entry's first step is the identity, which `_derive` reads
            for key, entry in table.items():
                assert key == id(entry[0].source)
                assert identity_derivation(entry[0].source, flavor) is entry[0]
        assert parallel._TABLES.get() is None

    def test_index_positions_and_json(self, steps):
        flavor, expected = steps
        for _, derivations in expected:
            for d in derivations:
                # the oracle walks the tree, where CBN and CBV read the index
                assert sequential_index(d) == recursive.sequential_index(d)
                assert realize(d) == recursive.realize(d)
                assert sequentialize(d) == recursive.sequentialize(d)
                # the same keys in the same order
                assert json.dumps(d.to_json()) == json.dumps(recursive.to_json(d))

    @pytest.mark.parametrize("flavor", [Flavor.CBN, Flavor.CBV], ids=lambda f: f.value)
    def test_graft(self, flavor):
        # CBV substitutes values only
        substituends = [d for t in TERMS[:40] for d in all_parallel_steps(t, flavor)
                        if flavor is Flavor.CBN or isinstance(t, Lam)][::3]
        assert substituends
        for t in TERMS[::7]:
            for d in all_parallel_steps(t, flavor):
                for d2 in substituends:
                    assert same_derivation(subst_parallel(d, "x", d2, flavor),
                                           recursive.graft(d, "x", d2, flavor))


class TestEnumerationLoops:
    @pytest.mark.parametrize("pool", [("x", "y"), ()])
    def test_exact(self, pool):
        memo, oracle_memo = {}, {}
        for n in range(1, 9):
            got = _exact(n, 0, pool, memo)
            want = recursive.exact(n, 0, pool, oracle_memo)
            assert len(got) == len(want) and all(map(recursive.equal, got, want))
        # the same lists are built, and no others
        assert memo.keys() == oracle_memo.keys()

    def test_random_term_for_every_seed(self):
        rng = random.Random(5)
        for seed in range(3000):
            n = rng.randint(1, 40)
            for pool, closed in ((("x", "y"), False), ((), True)):
                if closed and n < 2:
                    continue
                spec = EnumSpec(max_size=n, closed_only=closed)
                got = random_term(seed, n, spec)
                want = recursive.random_term(seed, n, pool)
                assert recursive.equal(got, want) and size(got) == n


def assert_flags(terms):
    """Every node of `terms` carries the `normal` flag the recursive
    `is_normal` computes for it."""
    for u in subterms(terms):
        assert u.normal is recursive.is_normal(u), show(u)


def positions(t):
    """The position of every node of `t`."""
    out, pending = [], [(t, ())]
    while pending:
        u, pos = pending.pop()
        out.append(pos)
        if type(u) is App:
            pending += ((u.fun, pos + (LEFT,)), (u.arg, pos + (RIGHT,)))
        elif type(u) is Lam:
            pending.append((u.body, pos + (BODY,)))
    return out


class TestNormalFlag:
    """Each node records whether it is beta-normal when it is built: the
    flag must be the recursive `is_normal` of the node, whichever builder
    made it."""

    @pytest.mark.parametrize("spec", [
        EnumSpec(max_size=8, free_names=()),
        EnumSpec(max_size=8, free_names=("x",)),
        EnumSpec(max_size=8, free_names=("x", "y")),
        EnumSpec(max_size=8, closed_only=True),
    ], ids=["no-names", "one-name", "two-names", "closed"])
    def test_enumerated_terms_and_their_reducts(self, spec):
        terms = list(enumerate_terms(spec))
        assert_flags(terms)
        for base in Base:
            assert_flags([u for t in terms for _, u in reducts(t, base)])

    def test_kernel_builders(self):
        redex = App(Lam(Var(0)), Free("z"))
        # a normal and a non-normal replacement for each builder
        news = (Free("z"), redex)
        args = subterms(terms_up_to(4))[::9] + [redex]
        built = [parse(show(t)) for t in TERMS]
        for t in SUBTERMS[::7]:
            built += [shift(under_binders(t, cutoff), 2) for cutoff in range(3)]
            built += [substitute(t, name, new) for name in ("x", "y") for new in news]
            built += [instantiate(t, arg) for arg in args]
            for pos in positions(t):
                for new in news:
                    _, path = path_to(t, pos)
                    built += [plug(parent, tag, new) for parent, tag in path]
                    built.append(rebuild(new, path))
        assert_flags(built)

    @pytest.mark.parametrize("flavor", list(Flavor), ids=lambda f: f.value)
    def test_parallel_step_targets(self, flavor):
        assert_flags([d.target for t in TERMS for d in all_parallel_steps(t, flavor)])

    def test_stream_roots_of_a_church_run(self):
        # c_3 c_2, with the identity applied for the weak systems
        church = [r"(\f.\x." + "f (" * k + "x" + ")" * k + ")" for k in (3, 2)]
        t = parse(" ".join(church) + r" (\z.z)")
        walks = [row.walk for row in SYSTEMS.values()] + [Walk(base) for base in Base]
        for walk in walks:
            stream = walk.steps(t, 10_000)
            fired = 0
            for _, reduct in stream:
                # each root rebuilds the stale parents the stream keeps
                assert_flags([reduct, stream.root()])
                fired += 1
            assert fired and not stream.exhausted

    def test_pickle_round_trip(self):
        # how `check --parallel` sends terms to its workers
        for t in TERMS[::5]:
            back = pickle.loads(pickle.dumps(t))
            assert back == t
            assert_flags([back])
