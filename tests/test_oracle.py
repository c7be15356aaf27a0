"""Ground-truth machinery: enumeration, random generation, reduction graphs."""

import sys

import pytest

from essential_rewrite import (
    Base,
    EnumSpec,
    count_terms,
    enumerate_terms,
    explore,
    random_term,
    show,
    step_at,
)
from essential_rewrite.reductions import StepKind, redexes
from essential_rewrite.terms import App, Free, Lam, Var, is_closed, is_locally_closed, size
from conftest import OMEGA, p, terms_up_to
from graph_deciders import Decision, path_exists, strongly_normalizing, weakly_normalizing


def independent_counts(max_size: int, names: int, closed: bool):
    """Term counts by the textbook recurrence on de Bruijn terms: a term of
    size n at binder depth d is a variable (n = 1), an abstraction over a term
    at depth d+1, or an application splitting the remaining size."""
    from functools import lru_cache

    pool = 0 if closed else names

    @lru_cache(maxsize=None)
    def count(n, d):
        if n == 1:
            return d + pool
        total = count(n - 1, d + 1)
        for a in range(1, n - 1):
            total += count(a, d) * count(n - 1 - a, d)
        return total

    return {n: count(n, 0) for n in range(1, max_size + 1)}


class TestEnumeration:
    def test_single_variable(self):
        assert list(enumerate_terms(EnumSpec(1, free_names=("x",)))) == [Free("x")]

    def test_smallest_closed_term(self):
        got = list(enumerate_terms(EnumSpec(2, closed_only=True)))
        assert got == [Lam(Var(0))]

    def test_closed_counts_match_recurrence(self):
        got = count_terms(EnumSpec(7, closed_only=True))
        assert got == independent_counts(7, 0, closed=True)
        # frozen values, computed once with the recurrence above
        assert [got[n] for n in range(1, 8)] == [0, 1, 2, 4, 13, 42, 139]

    def test_open_counts_match_recurrence(self):
        got = count_terms(EnumSpec(7))
        assert got == independent_counts(7, 2, closed=False)
        assert [got[n] for n in range(1, 8)] == [2, 3, 8, 26, 87, 324, 1261]

    def test_no_alpha_duplicates(self):
        terms = list(enumerate_terms(EnumSpec(6)))
        assert len(terms) == len(set(terms))

    def test_sizes_nondecreasing_and_bounded(self):
        sizes = [size(t) for t in enumerate_terms(EnumSpec(5))]
        assert sizes == sorted(sizes) and max(sizes) == 5

    def test_deterministic_order(self):
        first = list(enumerate_terms(EnumSpec(4)))
        second = list(enumerate_terms(EnumSpec(4)))
        assert first == second
        assert [show(t) for t in first[:5]] == ["x", "y", r"\x.x", r"\x'.x", r"\x.y"]

    @pytest.mark.parametrize("names", [("x", "x"), ("x", "y", "x")])
    def test_repeated_free_name_rejected(self, names):
        # terms are alpha-distinct only over distinct names
        with pytest.raises(ValueError, match="free name 'x' is given twice"):
            EnumSpec(2, free_names=names)

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_size_below_one_rejected(self, max_size):
        with pytest.raises(ValueError, match="max_size must be >= 1"):
            list(enumerate_terms(EnumSpec(max_size)))
        with pytest.raises(ValueError, match="max_size must be >= 1"):
            count_terms(EnumSpec(max_size))

    def test_closed_terms_are_closed(self):
        assert all(is_closed(t) for t in enumerate_terms(EnumSpec(6, closed_only=True)))


class TestRandomTerm:
    def test_reproducible(self):
        a = random_term(7, 12)
        b = random_term(7, 12)
        assert a == b

    def test_closed_only(self):
        for seed in range(30):
            t = random_term(seed, 10, EnumSpec(10, closed_only=True))
            assert is_closed(t)

    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="target_size must be >= 1"):
            random_term(7, 0)

    @pytest.mark.parametrize("spec", [EnumSpec(1, closed_only=True), EnumSpec(1, free_names=())],
                             ids=["closed-only", "no-free-names"])
    def test_closed_size_one_rejected(self, spec):
        with pytest.raises(ValueError, match="no closed term has size 1"):
            random_term(7, 1, spec)

    def test_size_sweep(self):
        for seed in range(1000):
            t = random_term(seed, 20)
            assert size(t) == 20
            assert is_locally_closed(t)


class TestExplore:
    def test_normal_form_is_a_single_node(self):
        g = explore(p(r"\x.x"))
        assert len(list(g.nodes)) == 1 and not g.truncated
        assert g.edges[p(r"\x.x")] == []

    def test_omega_self_loop(self):
        omega = p(OMEGA)
        g = explore(omega)
        assert list(g.nodes) == [omega]
        assert [u for _, u in g.edges[omega]] == [omega]
        assert not g.truncated

    def test_i_ii_reaches_identity(self):
        # (\z.z) ((\z.z) (\z.z)) -> (\z.z) (\z.z) by two different steps,
        # then -> \z.z: three alpha-distinct nodes in all
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        g = explore(t)
        assert not g.truncated
        assert len(list(g.nodes)) == 3
        assert p(r"\z.z") in g.nodes
        assert len(g.edges[t]) == 2

    @pytest.mark.parametrize("budgets", [{"node_budget": 0}, {"depth_budget": 0}],
                             ids=["nodes", "depth"])
    def test_budget_below_one_rejected(self, budgets):
        with pytest.raises(ValueError, match="budgets must be positive"):
            explore(p(r"(\x.x) y"), **budgets)

    def test_truncation_flags(self):
        t = p(r"(\x.x x) (\x.x x x)")  # grows forever
        g = explore(t, node_budget=5, depth_budget=64)
        assert g.truncated

    def test_depth_truncation(self):
        # (\z.z) ((\z.z) y) takes two steps to y, both of its redexes
        # contracting to (\z.z) y: a depth budget of 1 keeps that node unexpanded
        t = p(r"(\z.z) ((\z.z) y)")
        g = explore(t, depth_budget=1)
        assert g.truncated
        assert list(g.nodes) == [t, p(r"(\z.z) y")]
        assert g.edges[p(r"(\z.z) y")] == []
        assert not explore(t, depth_budget=3).truncated

    def test_normal_form_at_the_depth_bound(self):
        # the last node, y, lies at depth 2 and needs no expansion
        g = explore(p(r"(\z.z) ((\z.z) y)"), depth_budget=2)
        assert not g.truncated
        assert weakly_normalizing(g) is Decision.YES
        assert strongly_normalizing(g) is Decision.YES

    def test_json_adjacency_export(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        data = explore(t).to_json()
        assert data["root"] == r"(\z.z) ((\z.z) (\z.z))"
        assert not data["truncated"]
        assert data["nodes"][r"(\z.z) (\z.z)"] == [
            {"step": {"position": "", "kind": "plain"}, "to": r"\z.z"}]

    def test_edges_closed_under_step(self, small_terms):
        for t in small_terms[::11]:
            g = explore(t, node_budget=500, depth_budget=30)
            if g.truncated:
                continue
            for node, out in g.edges.items():
                expected = {(pos, step_at(node, pos)) for pos in redexes(node, Base.BETA)}
                assert {(s.position, u) for s, u in out} == expected
                assert all(u in g.edges for _, u in out)

    @pytest.mark.parametrize("base", list(Base))
    def test_edges_are_the_contractions_of_every_redex(self, base):
        for t in terms_up_to(8):
            out = explore(t, base, depth_budget=1).edges[t]
            expected = [(q, step_at(t, q, base)) for q in redexes(t, base)]
            assert [(s.position, u) for s, u in out] == expected, show(t)
            assert all(s.kind is StepKind.PLAIN for s, _ in out)
            assert [show(u) for _, u in out] == [show(u) for _, u in expected]

    def test_redex_under_many_binders_at_default_recursion_limit(self):
        t = App(Lam(Var(0), "y"), Free("z"))
        for _ in range(20_000):
            t = Lam(t, "w")
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            g = explore(t)
        finally:
            sys.setrecursionlimit(old_limit)
        assert len(g.edges) == 2 and not g.truncated
        assert len(g.edges[t][0][0].position) == 20_000


class TestNormalizationDecisions:
    def test_omega_diverges(self):
        g = explore(p(OMEGA))
        assert weakly_normalizing(g) is Decision.NO
        assert strongly_normalizing(g) is Decision.NO

    def test_erasing_redex_weakly_but_not_strongly(self):
        t = p(r"(\x.y) ((\x.x x) (\x.x x))")
        g = explore(t)
        assert weakly_normalizing(g) is Decision.YES
        assert strongly_normalizing(g) is Decision.NO

    def test_identity_both(self):
        g = explore(p(r"\x.x"))
        assert weakly_normalizing(g) is Decision.YES
        assert strongly_normalizing(g) is Decision.YES

    def test_truncated_is_unknown(self):
        g = explore(p(r"(\x.x x) (\x.x x x)"), node_budget=5)
        assert weakly_normalizing(g) is Decision.UNKNOWN
        assert strongly_normalizing(g) is Decision.UNKNOWN


class TestPathExists:
    def test_self_path_is_empty(self):
        t = p(r"\x.x")
        assert path_exists(explore(t), t, t, 3) == []

    def test_short_path_found(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        g = explore(t)
        path = path_exists(g, t, p(r"\z.z"), 2)
        assert path is not None and len(path) == 2

    def test_unrelated_target_absent(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        g = explore(t)
        assert path_exists(g, t, p("x y"), 10) is None

    def test_max_len_respected(self):
        t = p(r"(\z.z) ((\z.z) (\z.z))")
        g = explore(t)
        assert path_exists(g, t, p(r"\z.z"), 1) is None
