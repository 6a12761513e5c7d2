from itertools import combinations

import pytest

from tetracomm import steiner
from tetracomm.cli import fixtures_dir
from tetracomm.matching import (
    BipartiteGraph,
    MatchingInfeasibleError,
    d_disjoint_matchings,
    max_matching,
    regular_decompose,
)


def k22():
    return BipartiteGraph(2, 2, [[1, 2], [1, 2]])


def is_matching(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    return len(set(xs)) == len(xs) and len(set(ys)) == len(ys)


def hall_condition_ok(graph, scale=1):
    """Brute-force Hall check: scale*|W| <= |N(W)| for every W (small graphs only)."""
    for size in range(1, graph.nx + 1):
        for subset in combinations(range(1, graph.nx + 1), size):
            nbrs = set()
            for x in subset:
                nbrs.update(graph.adj[x - 1])
            if scale * len(subset) > len(nbrs):
                return False
    return True


# ---------------------------------------------------------------------------
# maximum matching
# ---------------------------------------------------------------------------


def test_k22_matching_size_two():
    m = max_matching(k22())
    assert m.size == 2
    assert is_matching(m.pairs)


def test_star_matching_size_one():
    m = max_matching(BipartiteGraph(1, 3, [[1, 2, 3]]))
    assert m.size == 1


def test_empty_graph():
    assert max_matching(BipartiteGraph(2, 2, [[], []])).size == 0


def test_central_assignment_graph_has_full_matching():
    system = steiner.load(fixtures_dir() / "steiner_10_4_3.txt")
    blocks = system.blocks
    adj = [[p for p in range(1, 31) if i in blocks[p - 1]] for i in range(1, 11)]
    g = BipartiteGraph(10, 30, adj)
    assert hall_condition_ok(g)  # oracle: a size-10 matching must exist
    assert max_matching(g).size == 10


def test_matching_deterministic():
    g1 = BipartiteGraph(3, 3, [[1, 2], [2, 3], [1, 3]])
    g2 = BipartiteGraph(3, 3, [[1, 2], [2, 3], [1, 3]])
    assert max_matching(g1).pairs == max_matching(g2).pairs


def test_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, [[1, 1]])  # duplicate edge
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, [[3]])  # out of range
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [[1]])  # row count mismatch


# ---------------------------------------------------------------------------
# d disjoint X-covering matchings
# ---------------------------------------------------------------------------


def test_k24_two_disjoint_covering_matchings():
    g = BipartiteGraph(2, 4, [[1, 2, 3, 4], [1, 2, 3, 4]])
    mats = d_disjoint_matchings(g, 2)
    assert len(mats) == 2
    seen_y = set()
    for m in mats:
        assert m.x_vertices() == {1, 2}
        assert is_matching(m.pairs)
        seen_y.update(m.y_vertices())
    # the construction never reuses a Y vertex, so the blocks it hands out
    # across matchings are all distinct
    assert len(seen_y) == 4


def test_k22_infeasible_when_y_side_too_small():
    # Hall condition of the replication construction: d|W| <= |N(W)| fails
    # for W = X (2*2 = 4 > 2), so no two disjoint X-covering, Y-disjoint
    # matchings exist
    with pytest.raises(MatchingInfeasibleError):
        d_disjoint_matchings(k22(), 2)
    with pytest.raises(MatchingInfeasibleError):
        d_disjoint_matchings(k22(), 3)


def test_noncentral_assignment_graph_three_matchings():
    system = steiner.load(fixtures_dir() / "steiner_10_4_3.txt")
    blocks = system.blocks
    nc = []
    for a in range(2, 11):
        for b in range(1, a):
            nc.append((a, a, b))
            nc.append((a, b, b))
    idx = {blk: t + 1 for t, blk in enumerate(nc)}
    adj = []
    for p in range(30):
        row = []
        for a, b in combinations(blocks[p], 2):
            row.extend([idx[(b, b, a)], idx[(b, a, a)]])
        adj.append(sorted(row))
    g = BipartiteGraph(30, len(nc), adj)
    mats = d_disjoint_matchings(g, 3)
    assert len(mats) == 3
    used = set()
    for m in mats:
        assert m.x_vertices() == set(range(1, 31))
        assert is_matching(m.pairs)
        for e in m.pairs:
            assert e not in used
            used.add(e)


# ---------------------------------------------------------------------------
# regular decomposition
# ---------------------------------------------------------------------------


def test_k33_decomposes_into_three_perfect_matchings():
    g = BipartiteGraph(3, 3, [[1, 2, 3]] * 3)
    mats = regular_decompose(g, 3)
    assert len(mats) == 3
    all_edges = [e for m in mats for e in m.pairs]
    assert len(all_edges) == 9
    assert len(set(all_edges)) == 9
    for m in mats:
        assert m.size == 3 and is_matching(m.pairs)


def test_permutation_graph_is_its_own_decomposition():
    g = BipartiteGraph(3, 3, [[2], [3], [1]])
    mats = regular_decompose(g, 1)
    assert len(mats) == 1
    assert mats[0].pairs == [(1, 2), (2, 3), (3, 1)]


def test_two_regular_cycle_splits_into_two_perfect_matchings():
    # 8-cycle on 4+4 vertices
    g = BipartiteGraph(4, 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    mats = regular_decompose(g, 2)
    assert len(mats) == 2
    edge_sets = [set(m.pairs) for m in mats]
    assert edge_sets[0].isdisjoint(edge_sets[1])
    for m in mats:
        assert m.size == 4 and is_matching(m.pairs)
    # brute-force oracle: the cycle has exactly two perfect matchings
    expected = [{(1, 1), (2, 2), (3, 3), (4, 4)}, {(1, 2), (2, 3), (3, 4), (4, 1)}]
    assert edge_sets in ([expected[0], expected[1]], [expected[1], expected[0]])


def test_regular_decompose_leaves_graph_unchanged():
    g = BipartiteGraph(4, 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    before = [list(row) for row in g.adj]
    regular_decompose(g, 2)
    assert g.adj == before


def test_regular_decompose_rejects_irregular():
    with pytest.raises(ValueError):
        regular_decompose(BipartiteGraph(2, 2, [[1, 2], [1]]), 2)
    with pytest.raises(ValueError):
        regular_decompose(BipartiteGraph(2, 3, [[1], [2]]), 1)


def test_d_disjoint_deterministic():
    g1 = BipartiteGraph(2, 4, [[1, 2, 3, 4], [1, 2, 3, 4]])
    g2 = BipartiteGraph(2, 4, [[1, 2, 3, 4], [1, 2, 3, 4]])
    assert [m.pairs for m in d_disjoint_matchings(g1, 2)] == [m.pairs for m in d_disjoint_matchings(g2, 2)]
