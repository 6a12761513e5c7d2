from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hopcroft_karp_bfs_first

from tetracomm import matching, partition, steiner
from tetracomm.cli import fixtures_dir
from tetracomm.matching import (
    BipartiteGraph,
    MatchingInfeasibleError,
    birkhoff_decompose,
    d_disjoint_matchings,
    max_matching,
    regular_decompose,
)
from tetracomm.partition import build_partition
from tetracomm.schedule import build_demands, build_schedule


def k22():
    return BipartiteGraph(2, 2, np.array([[1, 2], [1, 2]]))


def is_matching(mate):
    """No Y vertex is the partner of two X vertices; 0 marks an unmatched x."""
    ys = mate[mate > 0]
    return len(np.unique(ys)) == len(ys)


def edges(mates) -> list[tuple[int, int]]:
    """The (x, y) edges of every row of a (k, nx) mate array, unmatched x left out."""
    return [(x, y) for row in np.atleast_2d(mates).tolist() for x, y in enumerate(row, start=1) if y]


def hall_condition_ok(graph, scale=1):
    """Brute-force Hall check: scale*|W| <= |N(W)| for every W (small graphs only)."""
    for size in range(1, graph.nx + 1):
        for subset in combinations(range(1, graph.nx + 1), size):
            nbrs = set()
            for x in subset:
                nbrs.update(graph.adj[x - 1].tolist())
            if scale * len(subset) > len(nbrs):
                return False
    return True


# ---------------------------------------------------------------------------
# maximum matching
# ---------------------------------------------------------------------------


def test_k22_matching_size_two():
    mate = max_matching(k22())
    assert mate.dtype == np.int64 and mate.shape == (2,)
    assert np.count_nonzero(mate) == 2
    assert is_matching(mate)


def test_star_matching_size_one():
    mate = max_matching(BipartiteGraph(1, 3, np.array([[1, 2, 3]])))
    assert mate.tolist() == [1]
    assert max_matching(BipartiteGraph(2, 1, np.array([[1], [1]]))).tolist() == [1, 0]


def test_empty_graph():
    assert max_matching(BipartiteGraph(2, 2, np.zeros((2, 0), dtype=np.int64))).tolist() == [0, 0]


def test_central_assignment_graph_has_full_matching():
    system = steiner.load(fixtures_dir() / "steiner_10_4_3.txt")
    blocks = system.blocks
    adj = np.array([[p for p in range(1, 31) if i in blocks[p - 1]] for i in range(1, 11)])
    g = BipartiteGraph(10, 30, adj)
    assert hall_condition_ok(g)  # oracle: a size-10 matching must exist
    assert np.count_nonzero(max_matching(g)) == 10


def test_matching_deterministic():
    g1 = BipartiteGraph(3, 3, np.array([[1, 2], [2, 3], [1, 3]]))
    g2 = BipartiteGraph(3, 3, np.array([[1, 2], [2, 3], [1, 3]]))
    assert np.array_equal(max_matching(g1), max_matching(g2))


def test_long_augmenting_path_needs_no_recursion():
    # x_i -> {i, i+1}, x_n -> {1, 2}: the greedy phase leaves x_n free, and its
    # one augmenting path runs through every other vertex
    n = 20_000
    adj = np.array([[i, i + 1] for i in range(1, n)] + [[1, 2]])
    mate = max_matching(BipartiteGraph(n, n, adj))
    assert np.array_equal(np.sort(mate), np.arange(1, n + 1))
    assert np.all(np.any(adj == mate[:, None], axis=1))


def test_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, np.array([[1, 1]]))  # duplicate edge
    with pytest.raises(ValueError):
        BipartiteGraph(1, 2, np.array([[3]]))  # out of range
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, np.array([[1]]))  # row count mismatch


def test_ragged_adjacency_raises():
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [[1, 2], [1]])
    with pytest.raises(ValueError):
        BipartiteGraph(3, 2, [[2, 1], [], [1]])


def test_graph_leaves_the_callers_rows_unchanged():
    adj = np.array([[2, 1], [1, 2]])
    g = BipartiteGraph(2, 2, adj)
    assert adj.tolist() == [[2, 1], [1, 2]]
    assert g.adj is not adj
    assert g.adj.tolist() == [[1, 2], [1, 2]]


@pytest.mark.parametrize(
    "adj,message",
    [
        ([[1, 1]], "duplicate edge at x=1"),
        ([[3]], "neighbor of x=1 out of range 1..2"),
        ([[0, 1]], "neighbor of x=1 out of range 1..2"),
        ([[2, 1], [2, 2], [5, 5]], "duplicate edge at x=2"),
        ([[1, 2], [5, 2], [2, 2]], "neighbor of x=2 out of range 1..2"),
        ([[2, 1], [-1, -1], [1, 1]], "neighbor of x=2 out of range 1..2"),
        ([[2, 1], [1, 2], [9, 9]], "neighbor of x=3 out of range 1..2"),
        ([[1, 2], [2, 2], [5, 1]], "duplicate edge at x=2"),
        ([[1, 2], [0, 2], [1, 1]], "neighbor of x=2 out of range 1..2"),
    ],
)
def test_graph_validation_names_the_first_bad_row(adj, message):
    with pytest.raises(ValueError, match=f"^{message}$".replace(".", r"\.")):
        BipartiteGraph(len(adj), 2, np.array(adj))


def test_graph_from_a_2d_array_keeps_sorted_rows():
    rows = np.array([[3, 1, 2], [2, 3, 1]])
    g = BipartiteGraph(2, 3, rows)
    assert g.adj.dtype == np.int64
    assert g.adj.tolist() == [[1, 2, 3], [1, 2, 3]]
    assert rows.tolist() == [[3, 1, 2], [2, 3, 1]]
    assert np.array_equal(g.adj, BipartiteGraph(2, 3, rows.tolist()).adj)
    with pytest.raises(ValueError, match="duplicate edge at x=2"):
        BipartiteGraph(2, 3, np.array([[1, 2], [3, 3]]))
    with pytest.raises(ValueError, match="adjacency has 2 rows"):
        BipartiteGraph(3, 3, rows)
    with pytest.raises(ValueError, match="adjacency array must be 2-D, got 1-D"):
        BipartiteGraph(3, 3, np.array([1, 2, 3]))


# ---------------------------------------------------------------------------
# d disjoint X-covering matchings
# ---------------------------------------------------------------------------


def test_k24_two_disjoint_covering_matchings():
    g = BipartiteGraph(2, 4, np.array([[1, 2, 3, 4], [1, 2, 3, 4]]))
    mates = d_disjoint_matchings(g, 2)
    assert mates.shape == (2, 2)
    for mate in mates:
        assert mate.all()  # covers x = 1 and 2
        assert is_matching(mate)
    # the construction never reuses a Y vertex, so the blocks it hands out
    # across matchings are all distinct
    assert len(set(mates.ravel().tolist())) == 4


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
    g = BipartiteGraph(30, len(nc), np.array(adj))
    mates = d_disjoint_matchings(g, 3)
    assert mates.shape == (3, 30)
    for mate in mates:
        assert mate.all()  # covers x = 1..30
        assert is_matching(mate)
    used = edges(mates)
    assert len(set(used)) == len(used) == 90
    assert all(y in adj[x - 1] for x, y in used)


# ---------------------------------------------------------------------------
# regular decomposition
# ---------------------------------------------------------------------------


def test_k33_decomposes_into_three_perfect_matchings():
    g = BipartiteGraph(3, 3, np.array([[1, 2, 3]] * 3))
    mates = regular_decompose(g)
    assert mates.shape == (3, 3)
    all_edges = edges(mates)
    assert len(all_edges) == 9
    assert len(set(all_edges)) == 9
    for mate in mates:
        assert mate.all() and is_matching(mate)


def test_permutation_graph_is_its_own_decomposition():
    g = BipartiteGraph(3, 3, np.array([[2], [3], [1]]))
    assert regular_decompose(g).tolist() == [[2, 3, 1]]


def test_two_regular_cycle_splits_into_two_perfect_matchings():
    # 8-cycle on 4+4 vertices
    g = BipartiteGraph(4, 4, np.array([[1, 2], [2, 3], [3, 4], [1, 4]]))
    mates = regular_decompose(g)
    assert mates.shape == (2, 4)
    edge_sets = [set(edges(mate)) for mate in mates]
    assert edge_sets[0].isdisjoint(edge_sets[1])
    for mate in mates:
        assert mate.all() and is_matching(mate)
    # brute-force oracle: the cycle has exactly two perfect matchings
    expected = [{(1, 1), (2, 2), (3, 3), (4, 4)}, {(1, 2), (2, 3), (3, 4), (4, 1)}]
    assert edge_sets in ([expected[0], expected[1]], [expected[1], expected[0]])


def test_regular_decompose_leaves_graph_unchanged():
    g = BipartiteGraph(4, 4, np.array([[1, 2], [2, 3], [3, 4], [1, 4]]))
    before = g.adj.copy()
    regular_decompose(g)
    assert np.array_equal(g.adj, before)


def test_regular_decompose_rejects_irregular():
    with pytest.raises(ValueError, match="not 1-regular on Y"):
        regular_decompose(BipartiteGraph(2, 2, np.array([[1], [1]])))
    with pytest.raises(ValueError, match="sides differ"):
        regular_decompose(BipartiteGraph(2, 3, np.array([[1], [2]])))


def test_regular_decompose_of_a_degree_zero_graph_is_empty():
    mates = regular_decompose(BipartiteGraph(5, 5, np.zeros((5, 0), dtype=np.int64)))
    assert mates.shape == (0, 5)
    assert mates.dtype == np.int64


def test_d_disjoint_deterministic():
    g1 = BipartiteGraph(2, 4, np.array([[1, 2, 3, 4], [1, 2, 3, 4]]))
    g2 = BipartiteGraph(2, 4, np.array([[1, 2, 3, 4], [1, 2, 3, 4]]))
    assert np.array_equal(d_disjoint_matchings(g1, 2), d_disjoint_matchings(g2, 2))


@st.composite
def x_regular_graphs(draw):
    """(graph, d): nx rows of k distinct neighbours in 1..ny, and a copy count d."""
    ny = draw(st.integers(1, 12))
    k = draw(st.integers(0, ny))
    rows = draw(st.lists(st.permutations(range(1, ny + 1)), min_size=1, max_size=8))
    return BipartiteGraph(len(rows), ny, np.array([row[:k] for row in rows]).reshape(len(rows), k)), draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(x_regular_graphs())
def test_d_disjoint_equals_one_matching_of_the_replicated_graph(case):
    # the replicated graph d_disjoint_matchings searches without building it
    graph, d = case
    mate = max_matching(BipartiteGraph(graph.nx * d, graph.ny, np.repeat(graph.adj, d, axis=0)))
    if mate.all():
        assert np.array_equal(d_disjoint_matchings(graph, d), mate.reshape(graph.nx, d).T)
    else:
        with pytest.raises(MatchingInfeasibleError):
            d_disjoint_matchings(graph, d)


@st.composite
def regular_graphs(draw):
    """(d, adj): x is joined to perm[x + s mod n] for d distinct shifts s."""
    n = draw(st.integers(1, 40))
    powers = [2**k for k in range(n.bit_length())]
    d = draw(st.one_of(st.just(1), st.just(n), st.sampled_from(powers), st.integers(1, n)))
    shifts = draw(st.permutations(range(n)))[:d]
    perm = draw(st.permutations(range(1, n + 1)))
    return d, np.array([sorted(perm[(x + s) % n] for s in shifts) for x in range(n)])


@settings(max_examples=150, deadline=None)
@given(regular_graphs())
def test_regular_decompose_colours_every_edge_once(case):
    d, adj = case
    n = len(adj)
    g = BipartiteGraph(n, n, adj)
    mates = regular_decompose(g)
    assert mates.shape == (d, n)
    for mate in mates:
        assert sorted(mate.tolist()) == list(range(1, n + 1))  # perfect
    colored = edges(mates)
    assert len(colored) == n * d
    assert set(colored) == {(x, y) for x, row in enumerate(adj.tolist(), start=1) for y in row}
    assert np.array_equal(g.adj, adj)
    assert np.array_equal(regular_decompose(BipartiteGraph(n, n, adj.copy())), mates)


def counting_max_matching(monkeypatch) -> list:
    calls = []
    real = matching.max_matching

    def counted(graph):
        calls.append(graph.nx)
        return real(graph)

    monkeypatch.setattr(matching, "max_matching", counted)
    return calls


def test_even_power_degree_needs_no_maximum_matching(monkeypatch):
    calls = counting_max_matching(monkeypatch)
    n = 12
    g = BipartiteGraph(n, n, np.array([[(x + s) % n + 1 for s in range(8)] for x in range(n)]))
    assert len(regular_decompose(g)) == 8
    assert calls == []


def recorded_searches(monkeypatch) -> list:
    """The (rows, ny, mate) of every Hopcroft-Karp search from now on, rows copied as they were passed."""
    calls = []
    real = matching._hopcroft_karp

    def recording(adj, ny):
        rows = [list(row) for row in adj]
        mate = real(adj, ny)
        calls.append((rows, ny, mate))
        return mate

    monkeypatch.setattr(matching, "_hopcroft_karp", recording)
    return calls


def test_q7_schedule_runs_hopcroft_karp_only_at_odd_degrees(monkeypatch):
    # the q=7 layers have degrees 196 and 48, and no P-vertex graph is searched
    # at any degree: Hopcroft-Karp runs only on the orbit multigraphs, 14 orbits
    # a side, once per Birkhoff round
    demands = build_demands(build_partition(steiner.construct_spherical(7)))
    calls = counting_max_matching(monkeypatch)
    searches = recorded_searches(monkeypatch)
    assert len(build_schedule(demands).steps) == 244
    assert calls == []
    assert {(len(rows), ny) for rows, ny, _ in searches} == {(14, 14)}
    assert len(searches) == 127


# ---------------------------------------------------------------------------
# greedy-first Hopcroft-Karp against the BFS-first search
# ---------------------------------------------------------------------------


@st.composite
def ragged_rows(draw):
    """(rows, ny): up to 10 rows of distinct neighbours in 1..ny, any lengths, empty rows and nx = 0 included."""
    ny = draw(st.integers(0, 12))
    row = st.lists(st.integers(1, ny), unique=True, max_size=ny) if ny else st.just([])
    return draw(st.lists(row, max_size=10)), ny


@settings(max_examples=100, deadline=None)
@given(ragged_rows())
def test_greedy_first_search_equals_the_bfs_first_search(case):
    rows, ny = case
    assert np.array_equal(matching._hopcroft_karp(rows, ny), hopcroft_karp_bfs_first(rows, ny))


def test_greedy_first_search_on_graphs_without_edges():
    for rows, ny in [([], 0), ([], 5), ([[], []], 3), ([[], [2], []], 2)]:
        assert np.array_equal(matching._hopcroft_karp(rows, ny), hopcroft_karp_bfs_first(rows, ny))


def recorded_graphs(monkeypatch, owner, name) -> list:
    """The graphs (and any further arguments) that owner.name is called with from now on."""
    calls = []
    real = getattr(owner, name)

    def recording(graph, *args):
        calls.append((graph, *args))
        return real(graph, *args)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_greedy_first_search_on_the_odd_level_schedule_graphs(q, monkeypatch):
    # the spherical schedules search only the support of their orbit multigraphs
    demands = build_demands(build_partition(steiner.construct_spherical(q)))
    searches = recorded_searches(monkeypatch)
    build_schedule(demands)
    assert searches
    for rows, ny, mate in searches:
        assert np.array_equal(mate, hopcroft_karp_bfs_first(rows, ny))


@pytest.mark.parametrize("name", ["steiner_8_4_3.txt", "steiner_10_4_3.txt"])
def test_greedy_first_search_on_the_fixture_schedule_graphs(name, monkeypatch):
    # design files are edge-coloured, with one search per odd-degree subgraph
    demands = build_demands(build_partition(steiner.load(fixtures_dir() / name)))
    calls = recorded_graphs(monkeypatch, matching, "max_matching")
    build_schedule(demands)
    assert calls
    for (graph,) in calls:
        rows = graph.adj.tolist()
        assert np.array_equal(matching._hopcroft_karp(rows, graph.ny), hopcroft_karp_bfs_first(rows, graph.ny))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_greedy_first_search_on_the_replicated_partition_graphs(q, monkeypatch):
    calls = recorded_graphs(monkeypatch, partition, "d_disjoint_matchings")
    build_partition(steiner.construct_spherical(q))
    (graph, d), = calls
    rows = [row for row in graph.adj.tolist() for _ in range(d)]
    assert np.array_equal(matching._hopcroft_karp(rows, graph.ny), hopcroft_karp_bfs_first(rows, graph.ny))


# ---------------------------------------------------------------------------
# Birkhoff decomposition
# ---------------------------------------------------------------------------


@st.composite
def regular_multigraphs(draw):
    """An (n, n) weight matrix: the sum of d permutation matrices, repeats allowed."""
    n = draw(st.integers(0, 9))
    d = draw(st.integers(0, 12))
    weights = np.zeros((n, n), dtype=np.int64)
    for _ in range(d):
        weights[np.arange(n), draw(st.permutations(range(n)))] += 1
    return weights


@settings(max_examples=150, deadline=None)
@given(regular_multigraphs())
def test_birkhoff_decompose_sums_back_to_the_weights(weights):
    n = len(weights)
    mates, counts = birkhoff_decompose(weights)
    assert mates.shape == (len(counts), n) and mates.dtype == counts.dtype == np.int64
    assert np.all(counts > 0) and len(counts) <= n * n
    total = np.zeros_like(weights)
    for mate, w in zip(mates, counts):
        assert sorted(mate.tolist()) == list(range(1, n + 1))  # perfect
        total[np.arange(n), mate - 1] += w
    assert np.array_equal(total, weights)
    again = birkhoff_decompose(weights.copy())
    assert np.array_equal(again[0], mates) and np.array_equal(again[1], counts)


def test_birkhoff_decompose_takes_the_least_weight_of_each_matching():
    # x takes the least free y of its row first, so the identity comes first, weight 3
    mates, counts = birkhoff_decompose([[3, 1], [1, 3]])
    assert mates.tolist() == [[1, 2], [2, 1]]
    assert counts.tolist() == [3, 1]


@pytest.mark.parametrize(
    "weights",
    [[[1, 0, 0], [0, 1, 0]], [[2, -1], [-1, 2]], [[1, 1], [0, 1]], [[2, 0], [0, 1]], [1, 2]],
    ids=["not-square", "negative", "unequal-columns", "unequal-rows", "one-dimensional"],
)
def test_birkhoff_decompose_rejects_unbalanced_weights(weights):
    with pytest.raises(ValueError):
        birkhoff_decompose(weights)
