"""Bounded exploration of reduction graphs.

The graph of all reducts of a term (alpha-deduplicated) is the ground truth
the strategy and normalization checkers compare against: weak and strong
normalization become reachability and acyclicity queries, decided only when
exploration finished inside its budgets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .reductions import (
    Base,
    Step,
    StepKind,
    reducts,
    redexes,
    step_at,  # unused here; bench/tracing.py binds it
)
from .terms import Term, show


class Decision(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass
class ReductionGraph:
    root: Term
    base: Base
    # alpha-canonical nodes; the nameless term is its own canonical form
    edges: dict[Term, list[tuple[Step, Term]]] = field(default_factory=dict)
    truncated: bool = False

    @property
    def nodes(self):
        return self.edges.keys()

    def normal_nodes(self) -> list[Term]:
        return [t for t, out in self.edges.items() if not out]

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
    g = ReductionGraph(root=t, base=base)
    queue: deque[tuple[Term, int]] = deque([(t, 0)])
    g.edges[t] = []
    seen = {t}
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
            if target not in seen:
                if len(seen) >= node_budget:
                    g.truncated = True
                    continue
                seen.add(target)
                g.edges[target] = []
                queue.append((target, depth + 1))
        g.edges[term] = out
    return g


def weakly_normalizing(g: ReductionGraph) -> Decision:
    """Is some normal form reachable?  Decided only on untruncated graphs."""
    if g.truncated:
        return Decision.UNKNOWN
    return Decision.YES if g.normal_nodes() else Decision.NO


def strongly_normalizing(g: ReductionGraph) -> Decision:
    """Are all reduction sequences finite?  Acyclicity of the full graph."""
    if g.truncated:
        return Decision.UNKNOWN
    return Decision.NO if _has_cycle(g) else Decision.YES


def _has_cycle(g: ReductionGraph) -> bool:
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {n: WHITE for n in g.edges}
    for start in g.edges:
        if colour[start] != WHITE:
            continue
        stack = [(start, iter(g.edges[start]))]
        colour[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for _, nxt in it:
                if colour[nxt] == GREY:
                    return True
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(g.edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return False


def path_exists(g: ReductionGraph, src: Term, dst: Term, max_len: int):
    """A base-step path from src to dst of length <= max_len, if one exists.

    Returns the path as a list of (Step, Term) entries, empty for src == dst,
    or None when no such path lies within the explored graph.
    """
    if src not in g.edges:
        raise KeyError(f"{show(src)} is not a node of the graph")
    if src == dst:
        return []
    best: dict[Term, tuple[Term, Step]] = {}
    frontier = [src]
    for _ in range(max_len):
        nxt = []
        for node in frontier:
            for step, target in g.edges.get(node, ()):
                if target == src or target in best:
                    continue
                best[target] = (node, step)
                if target == dst:
                    return _rebuild(best, src, dst)
                nxt.append(target)
        frontier = nxt
        if not frontier:
            break
    return None


def _rebuild(best, src, dst):
    path = []
    node = dst
    while node != src:
        prev, step = best[node]
        path.append((step, node))
        node = prev
    path.reverse()
    return path
