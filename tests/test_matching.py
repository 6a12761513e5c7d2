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


def coloured_edges(adj, colours) -> list[tuple[int, int]]:
    """The (x, y) edges of every colour of regular_decompose's edge ids, by colour then x."""
    d = np.shape(adj)[1]
    return [(e // d + 1, int(np.ravel(adj)[e])) for row in colours.tolist() for e in row]


def assert_perfect_colours(adj, colours):
    """Every edge id once, and every colour a perfect matching with x's own edge at entry x-1."""
    n, d = np.shape(adj)
    assert colours.shape == (d, n) and colours.dtype == np.int64
    assert sorted(colours.ravel().tolist()) == list(range(n * d))
    for row in colours:
        assert np.array_equal(row // d, np.arange(n))  # x's edge leaves x
        assert sorted(np.ravel(adj)[row].tolist()) == list(range(1, n + 1))  # perfect


def test_k33_decomposes_into_three_perfect_matchings():
    adj = np.array([[1, 2, 3]] * 3)
    colours = regular_decompose(adj)
    assert colours.shape == (3, 3)
    all_edges = coloured_edges(adj, colours)
    assert len(all_edges) == 9
    assert len(set(all_edges)) == 9
    assert_perfect_colours(adj, colours)


def test_permutation_graph_is_its_own_decomposition():
    adj = np.array([[2], [3], [1]])
    colours = regular_decompose(adj)
    assert colours.tolist() == [[0, 1, 2]]
    assert adj.ravel()[colours].tolist() == [[2, 3, 1]]


def test_two_regular_cycle_splits_into_two_perfect_matchings():
    # 8-cycle on 4+4 vertices
    adj = np.array([[1, 2], [2, 3], [3, 4], [1, 4]])
    colours = regular_decompose(adj)
    assert colours.shape == (2, 4)
    assert_perfect_colours(adj, colours)
    edge_sets = [set(coloured_edges(adj, row[None])) for row in colours]
    # brute-force oracle: the cycle has exactly two perfect matchings
    expected = [{(1, 1), (2, 2), (3, 3), (4, 4)}, {(1, 2), (2, 3), (3, 4), (4, 1)}]
    assert edge_sets in ([expected[0], expected[1]], [expected[1], expected[0]])


def test_regular_decompose_leaves_graph_unchanged():
    adj = np.array([[2, 1], [2, 3], [3, 4], [4, 1]])
    before = adj.copy()
    regular_decompose(adj)
    assert np.array_equal(adj, before)


def test_regular_decompose_rejects_irregular():
    with pytest.raises(ValueError, match="not 1-regular on Y"):
        regular_decompose(np.array([[1], [1]]))
    with pytest.raises(ValueError, match="not 2-regular on Y"):
        regular_decompose(np.array([[1, 1], [2, 1]]))
    # two rows are two Y vertices, so an end 3 names no vertex
    with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
        regular_decompose(np.array([[1], [3]]))
    with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
        regular_decompose(np.array([[0, 1], [2, 2]]))
    with pytest.raises(ValueError, match="must be 2-D"):
        regular_decompose(np.array([1, 2]))


def test_regular_decompose_of_a_degree_zero_graph_is_empty():
    colours = regular_decompose(np.zeros((5, 0), dtype=np.int64))
    assert colours.shape == (0, 5)
    assert colours.dtype == np.int64


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


@st.composite
def regular_multigraphs(draw):
    """(d, adj): the sum of d random permutations, x joined to perm[x] for each, repeats allowed."""
    n = draw(st.integers(0, 9))
    d = draw(st.integers(0, 12))
    perms = [draw(st.permutations(range(1, n + 1))) for _ in range(d)]
    return d, np.array(perms, dtype=np.int64).reshape(d, n).T


@settings(max_examples=150, deadline=None)
@given(st.one_of(regular_graphs(), regular_multigraphs()))
def test_regular_decompose_colours_every_edge_once(case):
    d, adj = case
    before = adj.copy()
    colours = regular_decompose(adj)
    assert_perfect_colours(adj, colours)
    assert np.array_equal(adj, before)
    assert np.array_equal(regular_decompose(adj.copy()), colours)


def recorded_searches(monkeypatch, owner=matching) -> list:
    """The (rows, ny, mate) of every Hopcroft-Karp search owner makes from now on, rows copied as they were passed."""
    calls = []
    real = matching._hopcroft_karp

    def recording(adj, ny):
        rows = [list(row) for row in adj]
        mate = real(adj, ny)
        calls.append((rows, ny, mate))
        return mate

    monkeypatch.setattr(owner, "_hopcroft_karp", recording)
    return calls


def test_even_power_degree_needs_no_maximum_matching(monkeypatch):
    searches = recorded_searches(monkeypatch)
    n = 12
    assert len(regular_decompose(np.array([[(x + s) % n + 1 for s in range(8)] for x in range(n)]))) == 8
    assert searches == []


def test_q7_schedule_runs_hopcroft_karp_only_at_odd_degrees(monkeypatch):
    # the q=7 layers have degrees 196 = 4·49 and 48 = 16·3, and no P-vertex
    # graph is searched at any degree: Hopcroft-Karp runs only on the orbit
    # multigraphs, 14 orbits a side, once per group at an odd level:
    # 4 + 4·16 groups for 196 (degrees 49 and 3) and 16 for 48 (degree 3)
    demands = build_demands(build_partition(steiner.construct_spherical(7)))
    calls = recorded_graphs(monkeypatch, matching, "max_matching")
    searches = recorded_searches(monkeypatch)
    assert len(build_schedule(demands).steps) == 244
    assert calls == []
    assert {(len(rows), ny) for rows, ny, _ in searches} == {(14, 14)}
    assert len(searches) == 84


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
    # design files are coloured on trivial orbits, one search per odd-degree subgraph
    demands = build_demands(build_partition(steiner.load(fixtures_dir() / name)))
    searches = recorded_searches(monkeypatch)
    build_schedule(demands)
    assert searches
    for rows, ny, mate in searches:
        assert np.array_equal(mate, hopcroft_karp_bfs_first(rows, ny))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_greedy_first_search_on_the_replicated_partition_graphs(q, monkeypatch):
    # one search on the orbit graph: q copies of each of the e·q processor orbits' rows
    system = steiner.construct_spherical(q)
    searches = recorded_searches(monkeypatch, partition)
    build_partition(system)
    (rows, ny, mate), = searches
    e = 2 if q % 2 else 1
    assert len(rows) == e * q * q and ny == system.n * (system.n - 1)
    assert all(rows[c] == rows[c - c % q] for c in range(len(rows)))
    assert np.array_equal(mate, hopcroft_karp_bfs_first(rows, ny))
