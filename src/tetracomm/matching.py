"""Bipartite matching primitives for diagonal assignment and scheduling.

``max_matching`` is Hopcroft-Karp; ``d_disjoint_matchings`` runs it once on
a replicated graph.  ``regular_decompose`` edge-colours a d-regular
bipartite graph with d perfect matchings: an even degree splits along Euler
partitions into two regular halves in linear time (H. N. Gabow, *Using
Euler partitions to edge color bipartite multigraphs*, 1976), so
Hopcroft-Karp runs only where the degree is odd, once per subgraph, to take
one perfect matching off.

All vertex ids are 1-based.  Results are deterministic: adjacency lists are
kept sorted and the search loops break ties by ascending index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

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
    The rows may be given as lists or as one 2-D integer array (every x of
    one degree); the graph keeps sorted list copies of them, so the
    caller's rows are left unchanged.  A neighbour outside 1..ny or a
    repeated one raises ValueError naming the first such row.
    """

    nx: int
    ny: int
    adj: list[list[int]]

    def __post_init__(self):
        if len(self.adj) != self.nx:
            raise ValueError(f"adjacency has {len(self.adj)} rows, expected nx={self.nx}")
        clean = False
        if isinstance(self.adj, np.ndarray):
            if self.adj.ndim != 2:
                raise ValueError(f"adjacency array must be 2-D, got {self.adj.ndim}-D")
            # all rows in one numpy pass; equal neighbours sort next to each other
            rows = np.sort(self.adj, axis=1)
            clean = not (np.any((rows < 1) | (rows > self.ny)) or np.any(rows[:, 1:] == rows[:, :-1]))
            self.adj = rows.tolist()
        else:
            self.adj = [sorted(row) for row in self.adj]
        # Python lists are checked as they are, which costs less than converting them;
        # an array that failed its check is walked too, to name the first bad row
        if not clean:
            for x, row in enumerate(self.adj, start=1):
                if row and not 1 <= row[0] <= row[-1] <= self.ny:
                    raise ValueError(f"neighbor of x={x} out of range 1..{self.ny}")
                if len(set(row)) != len(row):
                    raise ValueError(f"duplicate edge at x={x}")


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
    big = BipartiteGraph(graph.nx * d, graph.ny, [row for row in graph.adj for _ in range(d)])
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


def _partners(order: np.ndarray, size: int) -> np.ndarray:
    """partner[e]: the edge next to e in order, which pairs off its edges two by two.

    Edges outside order are their own partners.
    """
    pairs = order.reshape(-1, 2)
    partner = np.arange(size)
    partner[pairs[:, 0]] = pairs[:, 1]
    partner[pairs[:, 1]] = pairs[:, 0]
    return partner


def _cycle_min(sigma: np.ndarray) -> np.ndarray:
    """label[e]: the least edge index on e's cycle of the permutation sigma.

    Pointer doubling: after k rounds label[e] is the least index among the
    first 2^k edges of the walk from e.  A round that changes no label
    means 2^k already covers every cycle.
    """
    label = np.arange(len(sigma))
    step = sigma
    while True:
        nxt = np.minimum(label, label[step])
        if np.array_equal(nxt, label):
            return label
        label, step = nxt, step[step]


def _split(order: np.ndarray, half: np.ndarray, groups: int, n: int, d: int) -> np.ndarray:
    """Regroup order, d edges per (group, vertex) block, by half.

    Every block holds d/2 edges of each half, so masking keeps the blocks
    aligned; group g becomes groups 2g (half 0) and 2g+1 (half 1).
    """
    blocks = order.reshape(groups, n, d)
    upper = half[blocks]
    shape = (groups, 1, n, d // 2)
    return np.concatenate([blocks[~upper].reshape(shape), blocks[upper].reshape(shape)], axis=1).ravel()


def regular_decompose(graph: BipartiteGraph, d: int) -> list[Matching]:
    """Partition the edges of a d-regular bipartite graph into d perfect matchings.

    The edges are coloured level by level.  At every level they fall into
    groups, each a regular bipartite graph of the current degree d on all
    the vertices; at first the one group is the whole graph.

    * d odd: a regular bipartite graph has a perfect matching (König's
      theorem), and no Euler split exists, since a vertex of odd degree
      cannot give each half the same number of edges.  So one Hopcroft-Karp
      run per group finds a perfect matching.  It becomes an output matching
      and is removed, which leaves every group (d-1)-regular.
    * d even: pair the edges at each vertex of a group two by two.  Each
      edge then has one partner through its X end and one through its Y
      end, and these links close into cycles of even length (an Euler
      partition, H. N. Gabow 1976).  Every other edge of a cycle gives each
      vertex d/2 edges of each half, so every group splits into two
      d/2-regular groups.  The two halves of a cycle are the two cycles of
      sigma = pair_y o pair_x, told apart by their least edge index.  All
      groups are split in one numpy pass.
    * d = 1: every group is a perfect matching.

    Two index arrays list the edges by (group, x) and by (group, y), d edges
    to a block, so pairing takes consecutive entries and regrouping is one
    masked reshape; no pass sorts.  Hopcroft-Karp runs only at odd levels,
    once per group.  The matchings come out by level and group, each sorted
    by x.  The caller's graph is left unchanged.
    """
    if graph.nx != graph.ny:
        raise ValueError(f"sides differ: nx={graph.nx}, ny={graph.ny}")
    if any(len(row) != d for row in graph.adj):
        raise ValueError(f"graph is not {d}-regular on X")
    n = graph.nx
    y = np.fromiter(chain.from_iterable(graph.adj), dtype=np.int64, count=n * d)
    if np.any(np.bincount(y, minlength=n + 1)[1:] != d):
        raise ValueError(f"graph is not {d}-regular on Y")

    # edge e joins x = e // d + 1 to y[e]
    by_x = np.arange(len(y))
    by_y = np.argsort(y, kind="stable")
    groups = 1
    result: list[Matching] = []
    while d > 1:
        if d % 2:
            live = np.ones(len(y), dtype=bool)
            for edges in by_x.reshape(groups, n, d):
                rows = y[edges]
                m = max_matching(BipartiteGraph(n, n, rows))
                if m.size != n:
                    raise RuntimeError("perfect matching extraction failed on a regular bipartite graph")
                # x's matched edge is where its row holds its partner
                partner = np.array([my for _, my in m.pairs])
                live[edges[np.arange(n), np.argmax(rows == partner[:, None], axis=1)]] = False
                result.append(m)
            by_x, by_y = by_x[live[by_x]], by_y[live[by_y]]
            d -= 1
        pair_x = _partners(by_x, len(y))
        label = _cycle_min(_partners(by_y, len(y))[pair_x])
        half = label < label[pair_x]
        by_x, by_y = _split(by_x, half, groups, n, d), _split(by_y, half, groups, n, d)
        groups *= 2
        d //= 2
    if d == 1:
        xs = range(1, n + 1)
        result += [Matching(list(zip(xs, row))) for row in y[by_x].reshape(groups, n).tolist()]
    return result
