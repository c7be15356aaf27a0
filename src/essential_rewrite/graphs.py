"""Bounded exploration of reduction graphs.

The graph of all reducts of a term (alpha-deduplicated) is the ground truth
the normalization checker compares the essential strategies against; a graph
is whole only when exploration finished inside its budgets.
"""

from __future__ import annotations

from collections import deque

from .reductions import (
    Base,
    Step,
    StepKind,
    reducts,
    redexes,
    step_at,  # unused here; bench/tracing.py binds it
)
from .terms import Term, show


class ReductionGraph:
    __slots__ = ("root", "base", "edges", "truncated")

    def __init__(self, root: Term, base: Base):
        self.root, self.base, self.truncated = root, base, False
        # alpha-canonical nodes; the nameless term is its own canonical form
        self.edges: dict[Term, list[tuple[Step, Term]]] = {root: []}

    @property
    def nodes(self):
        return self.edges.keys()

    def to_json(self):
        return {
            "root": show(self.root),
            "base": self.base.value,
            "truncated": self.truncated,
            "nodes": {
                show(t): [{"step": s.to_json(), "to": show(u)} for (s, u) in out]
                for t, out in self.edges.items()
            },
        }


def explore(t: Term, base: Base = Base.BETA, node_budget: int = 20000,
            depth_budget: int = 64) -> ReductionGraph:
    """BFS over reducts with alpha-deduplication, stopping at the budgets."""
    if node_budget <= 0 or depth_budget <= 0:
        raise ValueError("budgets must be positive")
    g = ReductionGraph(t, base)
    queue: deque[tuple[Term, int]] = deque([(t, 0)])
    while queue:
        term, depth = queue.popleft()
        if depth >= depth_budget:
            # the node stays unexpanded: the graph is cut off unless it is normal
            if redexes(term, base):
                g.truncated = True
            continue
        out = []
        for pos, target in reducts(term, base):
            out.append((Step(pos, StepKind.PLAIN), target))
            if target not in g.edges:
                if len(g.edges) >= node_budget:
                    g.truncated = True
                    continue
                g.edges[target] = []
                queue.append((target, depth + 1))
        g.edges[term] = out
    return g
