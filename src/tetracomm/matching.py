"""Bipartite matching primitives for diagonal assignment and scheduling.

``max_matching`` is Hopcroft-Karp; ``d_disjoint_matchings`` runs the same
search once on a replicated graph whose copies share their row lists.
``regular_decompose`` edge-colours a d-regular bipartite multigraph, given
as an (n, d) array of edge ends, with d perfect matchings of edge ids: an
even degree splits along Euler partitions into two regular halves in linear
time (H. N. Gabow, *Using Euler partitions to edge color bipartite
multigraphs*, 1976), so Hopcroft-Karp runs only where the degree is odd,
once per subgraph, to take one perfect matching off.  Parallel edges are
kept apart by their ids, so the schedule's orbit multigraphs and plain
graphs go through the same colouring.

All vertex ids are 1-based, so 0 never names a vertex.  Graphs and results
are integer arrays: a matching is a mate array whose entry x-1 is x's
partner, or 0 when x is unmatched.  Results are deterministic: the search
loops break ties by ascending index, and ``BipartiteGraph`` keeps its rows
sorted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BipartiteGraph",
    "MatchingInfeasibleError",
    "max_matching",
    "d_disjoint_matchings",
    "regular_decompose",
]


class MatchingInfeasibleError(RuntimeError):
    """The requested matching structure does not exist in the given graph."""


@dataclass
class BipartiteGraph:
    """Bipartite graph with sides X (size nx) and Y (size ny), every x of one degree.

    adj is an (nx, deg) int64 array: row x-1 lists the Y-neighbours of x,
    sorted ascending, no duplicates.  It is a sorted copy of the rows given,
    so the caller's rows are left unchanged.  Ragged rows, a neighbour
    outside 1..ny or a repeated one raise ValueError, the last two naming
    the first such row.
    """

    nx: int
    ny: int
    adj: np.ndarray

    def __post_init__(self):
        if len(self.adj) != self.nx:
            raise ValueError(f"adjacency has {len(self.adj)} rows, expected nx={self.nx}")
        rows = np.asarray(self.adj, dtype=np.int64)  # ragged rows raise ValueError here
        if rows.ndim != 2:
            raise ValueError(f"adjacency array must be 2-D, got {rows.ndim}-D")
        # equal neighbours sort next to each other
        self.adj = rows = np.sort(rows, axis=1)
        out = np.any((rows < 1) | (rows > self.ny), axis=1)
        bad = np.flatnonzero(out | np.any(rows[:, 1:] == rows[:, :-1], axis=1))
        if len(bad):
            x = int(bad[0])
            if out[x]:
                raise ValueError(f"neighbor of x={x + 1} out of range 1..{self.ny}")
            raise ValueError(f"duplicate edge at x={x + 1}")


def _hopcroft_karp(adj: list[list[int]], ny: int) -> np.ndarray:
    """The mate array of a maximum matching of the rows adj, X vertex x owning row x-1.

    Rows list Y ids in 1..ny and are only read, so one list may stand for
    several rows.  Augmenting paths are searched depth first on an explicit
    stack, so a long path cannot reach the recursion limit.

    The search starts with its greedy phase.  While nothing is matched,
    every x is free at distance 0 and every edge ends at a free y, so a
    first breadth-first pass would only rescan every edge to learn whether
    any row is non-empty, and the augment pass after it could follow no
    matched edge: it would match each x in turn to the first free y in its
    row.  That pass runs first, with no search before it.
    """
    nx = len(adj)
    inf = float("inf")
    pair_x = [0] * (nx + 1)
    pair_y = [0] * (ny + 1)
    dist = [inf] * (nx + 1)

    def bfs() -> bool:
        queue: deque[int] = deque()
        for x in range(1, nx + 1):
            if pair_x[x] == 0:
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
                    if px == 0:
                        reached = dist[x] + 1
                    elif dist[px] == inf:
                        dist[px] = dist[x] + 1
                        queue.append(px)
        return reached != inf

    def augment(root: int) -> None:
        # x and ys are the end of the path and the rest of its row; stack holds
        # (x, ys, y) for every x before it, y being the edge the path goes on by
        x, ys = root, iter(adj[root - 1])
        stack: list[tuple] = []
        while True:
            for y in ys:
                px = pair_y[y]
                if px == 0:
                    pair_x[x] = y
                    pair_y[y] = x
                    for u, _, v in stack:
                        pair_x[u] = v
                        pair_y[v] = u
                    return
                if dist[px] == dist[x] + 1:
                    stack.append((x, ys, y))
                    x, ys = px, iter(adj[px - 1])
                    break
            else:
                dist[x] = inf
                if not stack:
                    return
                x, ys, _ = stack.pop()

    for x, row in enumerate(adj, start=1):
        for y in row:
            if pair_y[y] == 0:
                pair_x[x] = y
                pair_y[y] = x
                break
    while bfs():
        for x in range(1, nx + 1):
            if pair_x[x] == 0:
                augment(x)
    return np.array(pair_x[1:], dtype=np.int64)


def max_matching(graph: BipartiteGraph) -> np.ndarray:
    """Maximum-cardinality matching via Hopcroft-Karp, as a length-nx mate array.

    mate[x-1] is x's partner, or 0 if x is unmatched.
    """
    return _hopcroft_karp(graph.adj.tolist(), graph.ny)


def d_disjoint_matchings(adj: list[list[int]], ny: int, d: int) -> np.ndarray:
    """d edge-disjoint matchings, each covering every X vertex exactly once.

    adj holds X vertex x's row of Y ids in 1..ny at entry x-1, rows of any
    length, as ``_hopcroft_karp`` takes them.  Returns a (d, nx) array: row
    c is the c-th matching's mate array.  Each X vertex is replicated d
    times and a single maximum matching of the replicated graph is split by
    copy index.  The copies share x's row list, so no row is copied.
    Raises MatchingInfeasibleError when the replicated matching is not
    X-perfect, which signals that the caller's degree structure does not
    support d matchings.
    """
    if d < 1:
        raise ValueError(f"d={d} must be positive")
    # copy c of x is vertex (x-1)d + c + 1 of the replicated graph
    mate = _hopcroft_karp([row for row in adj for _ in range(d)], ny)
    matched = np.count_nonzero(mate)
    if matched != len(adj) * d:
        raise MatchingInfeasibleError(
            f"replicated matching covered {matched} of {len(adj) * d} copies; "
            f"{d} disjoint X-covering matchings do not exist"
        )
    return mate.reshape(len(adj), d).T


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


def regular_decompose(adj) -> np.ndarray:
    """Partition the edges of a d-regular bipartite multigraph into d perfect matchings.

    adj is an (n, d) integer array: row x-1 lists the Y ends of x's d
    edges, each in 1..n, and a repeated end is a parallel edge.  Edge e is
    entry e of adj.ravel(), joining x = e // d + 1 to y = adj.ravel()[e].
    Returns a (d, n) array of edge ids: row c holds the c-th matching's
    edge of every x, so adj.ravel()[edges[c]] is its mate array.  Raises
    ValueError unless every end is in 1..n and every y has degree d.

    The edges are coloured level by level.  At every level they fall into
    groups, each a regular bipartite multigraph of the current degree d on
    all the vertices; at first the one group is the whole graph.

    * d odd: a regular bipartite multigraph has a perfect matching
      (König's theorem), and no Euler split exists, since a vertex of odd
      degree cannot give each half the same number of edges.  So one
      Hopcroft-Karp run per group finds a perfect matching on the group's
      rows, parallel edges and all.  x's matched edge is the first edge of
      its row that ends at its mate.  It becomes an output matching and is
      removed, which leaves every group (d-1)-regular.
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
    masked reshape; no pass sorts.  The matchings come out by level and
    group.  The caller's array is left unchanged.
    """
    y = np.asarray(adj, dtype=np.int64)
    if y.ndim != 2:
        raise ValueError(f"adjacency array must be 2-D, got {y.ndim}-D")
    n, d = y.shape
    y = y.ravel()
    if np.any((y < 1) | (y > n)):
        raise ValueError(f"an edge end is out of range 1..{n}")
    if np.any(np.bincount(y, minlength=n + 1)[1:] != d):
        raise ValueError(f"graph is not {d}-regular on Y")

    # edge e joins x = e // d + 1 to y[e]
    by_x = np.arange(len(y))
    by_y = np.argsort(y, kind="stable")
    groups = 1
    result = [np.zeros((0, n), dtype=np.int64)]
    while d > 1:
        if d % 2:
            blocks = by_x.reshape(groups, n, d)
            rows = y[blocks]
            mates = np.array([_hopcroft_karp(group, n) for group in rows.tolist()]).reshape(groups, n)
            if not mates.all():
                raise RuntimeError("perfect matching extraction failed on a regular bipartite graph")
            first = np.argmax(rows == mates[:, :, None], axis=2)
            matched = np.take_along_axis(blocks, first[:, :, None], axis=2)[:, :, 0]
            live = np.ones(len(y), dtype=bool)
            live[matched] = False
            result.append(matched)
            by_x, by_y = by_x[live[by_x]], by_y[live[by_y]]
            d -= 1
        pair_x = _partners(by_x, len(y))
        label = _cycle_min(_partners(by_y, len(y))[pair_x])
        half = label < label[pair_x]
        by_x, by_y = _split(by_x, half, groups, n, d), _split(by_y, half, groups, n, d)
        groups *= 2
        d //= 2
    if d == 1:
        result.append(by_x.reshape(groups, n))
    return np.concatenate(result)
