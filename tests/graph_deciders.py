"""Oracles on explored reduction graphs: weak and strong normalization as
reachability and acyclicity queries, and bounded path search.

They are decided only on graphs that exploration finished inside its budgets,
and they share nothing with the normalization checker, which reads the graph
through the essential strategies instead.
"""

from enum import Enum

from essential_rewrite import ReductionGraph, Term, show


class Decision(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def normal_nodes(g: ReductionGraph) -> list[Term]:
    return [t for t, out in g.edges.items() if not out]


def weakly_normalizing(g: ReductionGraph) -> Decision:
    """Is some normal form reachable?  Decided only on untruncated graphs."""
    if g.truncated:
        return Decision.UNKNOWN
    return Decision.YES if normal_nodes(g) else Decision.NO


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
    best = {}
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
