"""Bipartite matching primitives for diagonal assignment and scheduling.

All vertex ids are 1-based.  Results are deterministic: adjacency lists are
kept sorted and the search loops break ties by ascending index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "BipartiteGraph",
    "Matching",
    "MatchingInfeasibleError",
    "max_matching",
    "d_disjoint_matchings",
    "regular_decompose",
]


class MatchingInfeasibleError(RuntimeError):
    """The requested matching structure does not exist in the given graph."""


@dataclass
class BipartiteGraph:
    """Bipartite graph with sides X (size nx) and Y (size ny).

    adj[x-1] lists the Y-neighbors of x, sorted ascending, no duplicates.
    """

    nx: int
    ny: int
    adj: list[list[int]]

    def __post_init__(self):
        if len(self.adj) != self.nx:
            raise ValueError(f"adjacency has {len(self.adj)} rows, expected nx={self.nx}")
        for x, row in enumerate(self.adj, start=1):
            if any(not 1 <= y <= self.ny for y in row):
                raise ValueError(f"neighbor of x={x} out of range 1..{self.ny}")
            if len(set(row)) != len(row):
                raise ValueError(f"duplicate edge at x={x}")
            row.sort()

    def y_degrees(self) -> list[int]:
        deg = [0] * (self.ny + 1)
        for row in self.adj:
            for y in row:
                deg[y] += 1
        return deg[1:]


@dataclass
class Matching:
    """Set of vertex-disjoint edges, stored as (x, y) pairs sorted by x."""

    pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def x_vertices(self) -> set[int]:
        return {x for x, _ in self.pairs}

    def y_vertices(self) -> set[int]:
        return {y for _, y in self.pairs}


_UNMATCHED = 0


def max_matching(graph: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching via Hopcroft-Karp."""
    nx = graph.nx
    adj = graph.adj
    inf = float("inf")
    pair_x = [_UNMATCHED] * (nx + 1)
    pair_y = [_UNMATCHED] * (graph.ny + 1)
    dist = [inf] * (nx + 1)

    def bfs() -> bool:
        queue: deque[int] = deque()
        for x in range(1, nx + 1):
            if pair_x[x] == _UNMATCHED:
                dist[x] = 0
                queue.append(x)
            else:
                dist[x] = inf
        reached = inf
        while queue:
            x = queue.popleft()
            if dist[x] < reached:
                for y in adj[x - 1]:
                    px = pair_y[y]
                    if px == _UNMATCHED:
                        reached = dist[x] + 1
                    elif dist[px] == inf:
                        dist[px] = dist[x] + 1
                        queue.append(px)
        return reached != inf

    def dfs(x: int) -> bool:
        for y in adj[x - 1]:
            px = pair_y[y]
            if px == _UNMATCHED or (dist[px] == dist[x] + 1 and dfs(px)):
                pair_x[x] = y
                pair_y[y] = x
                return True
        dist[x] = inf
        return False

    while bfs():
        for x in range(1, nx + 1):
            if pair_x[x] == _UNMATCHED:
                dfs(x)
    return Matching([(x, pair_x[x]) for x in range(1, nx + 1) if pair_x[x] != _UNMATCHED])


def d_disjoint_matchings(graph: BipartiteGraph, d: int) -> list[Matching]:
    """d edge-disjoint matchings, each covering every X vertex exactly once.

    Each X vertex is replicated d times and a single maximum matching of the
    replicated graph is split by copy index.  Raises MatchingInfeasibleError
    when the replicated matching is not X-perfect, which signals that the
    caller's degree structure does not support d matchings.
    """
    if d < 1:
        raise ValueError(f"d={d} must be positive")
    big_adj = []
    for row in graph.adj:
        big_adj.extend(list(row) for _ in range(d))
    big = BipartiteGraph(graph.nx * d, graph.ny, big_adj)
    matched = max_matching(big)
    if matched.size != graph.nx * d:
        raise MatchingInfeasibleError(
            f"replicated matching covered {matched.size} of {graph.nx * d} copies; "
            f"{d} disjoint X-covering matchings do not exist"
        )
    result = [Matching() for _ in range(d)]
    for big_x, y in matched.pairs:
        x = (big_x - 1) // d + 1
        copy = (big_x - 1) % d
        result[copy].pairs.append((x, y))
    for m in result:
        m.pairs.sort()
    return result


def regular_decompose(graph: BipartiteGraph, d: int) -> list[Matching]:
    """Partition the edges of a d-regular bipartite graph into d perfect matchings.

    By König's theorem such a graph always has a perfect matching, and
    removing one leaves a (d-1)-regular graph.  The matchings are peeled off
    one working copy of the graph, so the caller's graph is left unchanged.
    Removing edges keeps every row sorted, so each Hopcroft-Karp run sees the
    same graph it would see on a freshly built copy.
    """
    if graph.nx != graph.ny:
        raise ValueError(f"sides differ: nx={graph.nx}, ny={graph.ny}")
    if any(len(row) != d for row in graph.adj):
        raise ValueError(f"graph is not {d}-regular on X")
    if any(deg != d for deg in graph.y_degrees()):
        raise ValueError(f"graph is not {d}-regular on Y")

    work = BipartiteGraph(graph.nx, graph.ny, [list(row) for row in graph.adj])
    result = []
    for _ in range(d):
        m = max_matching(work)
        if m.size != graph.nx:
            raise RuntimeError("perfect matching extraction failed on a regular bipartite graph")
        for x, y in m.pairs:
            work.adj[x - 1].remove(y)
        result.append(m)
    return result
