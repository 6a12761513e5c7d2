import copy
import dataclasses
import re
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import all_lower_blocks, block_tuples, build_partition_by_lookup, tb3, validate_partition_by_loops

from tetracomm import steiner
from tetracomm.cli import fixtures_dir
from tetracomm.partition import (
    BlockIndex,
    DesignUnsuitableError,
    VectorLayout,
    build_partition,
    noncentral_blocks,
    owned_blocks,
    pad_dimension,
    storage_count,
    validate_partition,
    vector_layout,
)


@pytest.fixture(scope="module")
def part_q2():
    return build_partition(steiner.construct_spherical(2))


@pytest.fixture(scope="module")
def part_q3():
    return build_partition(steiner.construct_spherical(3))


@pytest.fixture(scope="module")
def part_fixture_10():
    return build_partition(steiner.load(fixtures_dir() / "steiner_10_4_3.txt"))


@pytest.fixture(scope="module")
def part_fixture_8():
    return build_partition(steiner.load(fixtures_dir() / "steiner_8_4_3.txt"))


# ---------------------------------------------------------------------------
# tetrahedral blocks
# ---------------------------------------------------------------------------


def test_tb3_example_four_indices():
    assert tb3({1, 4, 6, 8}) == {
        BlockIndex(6, 4, 1),
        BlockIndex(8, 4, 1),
        BlockIndex(8, 6, 1),
        BlockIndex(8, 6, 4),
    }


def test_tb3_single_triple():
    assert tb3({1, 2, 3}) == {BlockIndex(3, 2, 1)}


def test_tb3_second_example():
    assert tb3({1, 2, 6, 10}) == {
        BlockIndex(6, 2, 1),
        BlockIndex(10, 2, 1),
        BlockIndex(10, 6, 1),
        BlockIndex(10, 6, 2),
    }


def test_tb3_size_is_binomial():
    assert len(tb3(range(1, 8))) == comb(7, 3)


def test_block_census():
    m = 10
    blocks = list(all_lower_blocks(m))
    assert len(blocks) == m * (m + 1) * (m + 2) // 6
    kinds = Counter("central" if i == k else "off" if i > j > k else "noncentral" for i, j, k in blocks)
    assert kinds["off"] == comb(m, 3)
    assert kinds["noncentral"] == m * (m - 1)
    assert kinds["central"] == m
    assert len(noncentral_blocks(m)) == m * (m - 1)


# ---------------------------------------------------------------------------
# partition construction
# ---------------------------------------------------------------------------


def exact_partition_ok(part):
    counts = Counter()
    for p in range(1, part.P + 1):
        counts.update(tb3(part.R[p - 1]))
        counts.update(block_tuples(part.N[p - 1]))
        counts.update(part.D[p - 1])
    return counts == Counter(all_lower_blocks(part.m))


def locality_ok(part):
    for p in range(1, part.P + 1):
        owned = set(part.R[p - 1])
        for blk in block_tuples(part.N[p - 1]) + block_tuples(part.D[p - 1]):
            if not set(blk) <= owned:
                return False
    return True


@pytest.mark.parametrize("fixture_name", ["part_q2", "part_q3", "part_fixture_8"])
def test_partition_exact_and_local(fixture_name, request):
    part = request.getfixturevalue(fixture_name)
    assert exact_partition_ok(part)
    assert locality_ok(part)
    assert validate_partition(part) == []


def test_q3_shape(part_q3):
    assert part_q3.P == 30 and part_q3.m == 10 and part_q3.q == 3
    assert all(len(tb3(r)) == 4 for r in part_q3.R)
    assert all(len(n) == 3 for n in part_q3.N)
    assert sum(1 for d in part_q3.D if d) == 10


def test_q2_shape(part_q2):
    assert part_q2.P == 10 and part_q2.q == 2
    assert all(len(tb3(r)) == 1 for r in part_q2.R)
    assert all(len(n) == 2 for n in part_q2.N)
    assert sum(1 for d in part_q2.D if d) == 5


def test_fixture_8_shape(part_fixture_8):
    assert part_fixture_8.P == 14 and part_fixture_8.q is None
    assert all(len(n) == 4 for n in part_fixture_8.N)
    assert sum(1 for d in part_fixture_8.D if d) == 8


def test_fixture_10_row_block_sets(part_fixture_10):
    assert part_fixture_10.Q[2] == (1, 5, 6, 7, 13, 14, 15, 21, 22, 23, 24, 25)
    assert all(len(q) == 12 for q in part_fixture_10.Q)


def test_group_size_matches_counting_rule(part_q3, part_fixture_8):
    for part in (part_q3, part_fixture_8):
        m, r = part.m, part.r
        assert part.group_size == (m - 1) * (m - 2) // ((r - 1) * (r - 2))


def test_build_deterministic():
    system = steiner.construct_spherical(2)
    a = build_partition(system)
    b = build_partition(system)
    assert np.array_equal(a.N, b.N) and a.D == b.D and a.Q == b.Q
    assert a == b


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_build_equals_the_lookup_oracle(q):
    # the oracle matches the P-vertex graph and the build the orbit graph, so
    # a processor's non-central blocks may differ; all else is equal, and both are valid
    system = steiner.construct_spherical(q)
    part, oracle = build_partition(system), build_partition_by_lookup(system)
    fields = ("label", "m", "r", "P", "q", "R", "D", "Q")
    assert [getattr(part, name) for name in fields] == [getattr(oracle, name) for name in fields]
    assert validate_partition(part) == validate_partition(oracle) == []
    assert {len(blocks) for blocks in part.N} == {len(blocks) for blocks in oracle.N} == {q}


def pair_of(blk):
    """The ordered point pair (x, y) of a non-central block: (x, x, y) or (y, x, x)."""
    i, j, k = blk
    return (j, i) if j == k else (i, k)


def block_of(x, y):
    """The non-central block of the ordered point pair (x, y)."""
    return BlockIndex(max(x, y), x, min(x, y))


@pytest.mark.parametrize("q", [3, 4, 7])
def test_noncentral_blocks_follow_the_mobius_cycle(q):
    # the next processor of an orbit holds the image of every non-central block of the last one
    part = build_partition(steiner.construct_spherical(q))
    h, members = steiner.mobius_orbits(np.array(part.R) - 1, part.m)
    assert members.shape == ((2 if q % 2 else 1) * q, (q * q + 1) // (2 if q % 2 else 1))
    h = [0, *(h + 1).tolist()]  # 1-based points
    for row in members.tolist():
        for p, image in zip(row, row[1:] + row[:1]):
            moved = [block_of(h[x], h[y]) for x, y in map(pair_of, part.N[p - 1])]
            assert block_tuples(part.N[image - 1]) == sorted(moved)


def test_a_relabelled_design_takes_the_trivial_group():
    # the points renamed by a fixed random permutation: no Möbius cycle maps the blocks onto themselves
    system = steiner.construct_spherical(4)
    perm = (np.random.default_rng(26).permutation(system.n) + 1).tolist()
    blocks = sorted(tuple(sorted(perm[x - 1] for x in blk)) for blk in system.blocks)
    relabelled = steiner.SteinerSystem(system.n, system.r, blocks)
    assert steiner.verify(relabelled).passed
    assert steiner.mobius_orbits(np.array(blocks) - 1, system.n)[1].shape == (len(blocks), 1)
    part = build_partition(relabelled)
    assert validate_partition(part) == []
    assert part == build_partition_by_lookup(relabelled)


@pytest.mark.parametrize("name", ["steiner_10_4_3.txt", "steiner_8_4_3.txt"])
def test_build_equals_the_lookup_oracle_on_the_fixtures(name):
    system = steiner.load(fixtures_dir() / name)
    assert build_partition(system, label=name) == build_partition_by_lookup(system, label=name)


def test_noncentral_ids_are_arithmetic():
    m = 9
    for idx, (i, j, k) in enumerate(noncentral_blocks(m).tolist(), start=1):
        a = i
        assert idx == ((a - 1) * (a - 2) + k if j == k else (a - 1) * (a - 2) + (a - 1) + k)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 10, 17])
def test_noncentral_blocks_are_one_sorted_integer_table(m):
    listed = [blk for a in range(2, m + 1) for blk in [*((a, b, b) for b in range(1, a)), *((a, a, b) for b in range(1, a))]]
    table = noncentral_blocks(m)
    assert table.dtype == np.int64 and table.shape == (m * (m - 1), 3)
    assert block_tuples(table) == listed == sorted(listed)


@pytest.mark.parametrize("fixture_name", ["part_q2", "part_q3", "part_fixture_8", "part_fixture_10"])
def test_noncentral_blocks_are_one_table_ascending_per_processor(fixture_name, request):
    part = request.getfixturevalue(fixture_name)
    d = part.m * (part.m - 1) // part.P
    assert part.N.dtype == np.int64 and part.N.shape == (part.P, d, 3)
    assert all(block_tuples(rows) == sorted(block_tuples(rows)) for rows in part.N)


def as_lists(part):
    """A copy of part whose N is per-processor lists of BlockIndex, as a partition built by hand holds it."""
    return dataclasses.replace(part, N=[[BlockIndex(*blk) for blk in rows] for rows in part.N.tolist()])


@pytest.mark.parametrize("fixture_name", ["part_q3", "part_fixture_8"])
def test_the_table_reads_as_the_same_rows_in_lists(fixture_name, request):
    part = request.getfixturevalue(fixture_name)
    listed = as_lists(part)
    assert part == listed and listed == part
    assert validate_partition(listed) == validate_partition(part) == []
    assert owned_rows(listed) == owned_rows(part)
    assert listed.to_json_obj() == part.to_json_obj()
    other = as_lists(part)
    other.N[0][0], other.N[1][0] = other.N[1][0], other.N[0][0]
    assert part != other and other != part


@pytest.mark.parametrize(
    "rows",
    [[(1, 2)], [(2, 1, 1, 1)], [(2.0, 1.0, 1.0)], [("2", "1", "1")], [(2, 1, [1])], [(2**70, 1, 1)], 7, "211"],
    ids=["pair", "quadruple", "floats", "strings", "nested", "huge", "integer", "text"],
)
def test_noncentral_rows_that_are_not_integer_triples_raise_a_value_error_naming_n(part_q3, rows):
    bad = copy.deepcopy(part_q3)
    bad.N = list(bad.N)
    bad.N[0] = rows
    for reader in (validate_partition, owned_blocks):
        with pytest.raises(ValueError, match=r"^N is not a sequence of per-processor \(k, 3\) integer tables$"):
            reader(bad)
    for table in (None, 3, np.zeros((30, 3, 3)), np.zeros((30, 3), dtype=np.int64)):
        bad.N = table
        with pytest.raises(ValueError, match=r"^N is not"):
            validate_partition(bad)


def test_a_hand_built_partition_with_no_noncentral_blocks(part_q3):
    bad = copy.deepcopy(part_q3)
    bad.N = [[] for _ in range(bad.P)]
    problems = validate_partition(bad)
    assert problems == validate_partition_by_loops(bad)
    assert problems[0].startswith("unassigned blocks: [BlockIndex(i=2, j=1, k=1)")
    assert problems[-1] == "expected 3 non-central blocks per processor, got [0]"
    assert owned_rows(bad) == owned_rows_by_loops(bad)


def q2_blocks_with(e, block):
    blocks = list(steiner.construct_spherical(2).blocks)
    blocks[e] = block
    return blocks


@pytest.mark.parametrize(
    "blocks,message",
    [
        (q2_blocks_with(0, (3, 2, 1)), "block 1, (3, 2, 1), is not a strictly increasing 3-subset of 1..5"),
        (q2_blocks_with(0, (1, 1, 2)), "block 1, (1, 1, 2), is not"),
        (q2_blocks_with(4, (0, 2, 3)), "block 5, (0, 2, 3), is not"),
        (q2_blocks_with(9, (3, 4, 6)), "block 10, (3, 4, 6), is not"),
        (q2_blocks_with(2, (1, 2)), "block 3, (1, 2), is not"),
        (q2_blocks_with(2, (1, 2, 3, 4)), "block 3, (1, 2, 3, 4), is not"),
        ([], "the design has no blocks"),
    ],
)
def test_build_rejects_blocks_that_are_not_increasing_subsets(blocks, message):
    with pytest.raises(DesignUnsuitableError, match=re.escape(message)):
        build_partition(steiner.SteinerSystem(n=5, r=3, blocks=blocks))


def test_build_rejects_uneven_row_block_sharing():
    system = steiner.SteinerSystem(n=5, r=3, blocks=[(1, 2, 3), (1, 2, 4)])
    with pytest.raises(DesignUnsuitableError, match=r"^row-block sharing stage: \|Q_i\| is not uniform across row blocks$"):
        build_partition(system)


@pytest.mark.parametrize(
    "system,message",
    [
        # all ten pairs of 1..5 and the five of a cycle: every point in six, but 20 % 15 != 0
        (
            steiner.SteinerSystem(n=5, r=2, blocks=sorted([*combinations(range(1, 6), 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])),
            r"^non-central stage: 20 blocks do not divide evenly over 15 processors$",
        ),
        # three copies of (1, 2) share its two non-central blocks, two each are needed
        (
            steiner.SteinerSystem(n=4, r=2, blocks=[(1, 2)] * 3 + [(3, 4)] * 3),
            r"^non-central stage: replicated matching covered 4 of 12 copies; 2 disjoint X-covering matchings do not exist$",
        ),
    ],
)
def test_build_rejects_an_unbalanced_noncentral_stage(system, message):
    with pytest.raises(DesignUnsuitableError, match=message):
        build_partition(system)


def test_build_rejects_a_design_with_no_noncentral_blocks():
    system = steiner.SteinerSystem(n=1, r=1, blocks=[(1,)])
    with pytest.raises(DesignUnsuitableError, match=r"^non-central stage: m=1 points make no non-central blocks$"):
        build_partition(system)


def test_build_rejects_too_few_processors_for_the_central_blocks():
    system = steiner.SteinerSystem(n=4, r=4, blocks=[(1, 2, 3, 4)])
    with pytest.raises(DesignUnsuitableError, match=r"^central stage: only 1 of 4 central blocks could be assigned$"):
        build_partition(system)


def per_processor(part):
    """A deep copy of part whose N is a list of per-processor (k, 3) arrays, so one processor's rows can change length."""
    part = copy.deepcopy(part)
    part.N = list(part.N)
    return part


def test_validate_detects_corruption(part_q3):
    bad = per_processor(part_q3)
    bad.N[1] = np.concatenate([bad.N[1], bad.N[0][-1:]])
    bad.N[0] = bad.N[0][:-1]
    problems = validate_partition(bad)
    assert problems  # locality and/or balance violations reported


def swap_first_noncentral(part):
    # on the (P, d, 3) table itself: the swap keeps its shape
    part.N[[0, 1], 0] = part.N[[1, 0], 0]


def swap_first_noncentral_and_add_a_central(part):
    swap_first_noncentral(part)
    part.D[0].append(BlockIndex(5, 5, 5))


def duplicate_first_noncentral(part):
    part.N = list(part.N)
    part.N[1] = np.concatenate([part.N[1], part.N[0][:1]])


def drop_last_noncentral(part):
    part.N = list(part.N)
    part.N[0] = part.N[0][:-1]


CORRUPTIONS = {
    "duplicated": (
        duplicate_first_noncentral,
        [
            "blocks assigned more than once: [BlockIndex(i=2, j=1, k=1)]",
            "non-central loads are unbalanced: [3, 4]",
            "expected 3 non-central blocks per processor, got [3, 4]",
        ],
    ),
    "missing": (
        drop_last_noncentral,
        [
            "unassigned blocks: [BlockIndex(i=3, j=1, k=1)]",
            "non-central loads are unbalanced: [2, 3]",
            "expected 3 non-central blocks per processor, got [2, 3]",
        ],
    ),
    "locality": (
        swap_first_noncentral,
        ["locality violated at processor 1: block (4, 2, 2) not within [1, 2, 3, 10]"],
    ),
    "locality in N and D": (
        swap_first_noncentral_and_add_a_central,
        [
            "blocks assigned more than once: [BlockIndex(i=5, j=5, k=5)]",
            "locality violated at processor 1: block (4, 2, 2) not within [1, 2, 3, 10]",
            "locality violated at processor 1: block (5, 5, 5) not within [1, 2, 3, 10]",
            "processor 1 holds 2 central blocks",
        ],
    ),
    # in range but not lower: counted by id, not by the lower-tetrahedral index
    "upper": (
        lambda part: part.N.__setitem__((0, 0), [1, 2, 1]),
        [
            "blocks outside the lower tetrahedron: [BlockIndex(i=1, j=2, k=1)]",
            "unassigned blocks: [BlockIndex(i=2, j=1, k=1)]",
        ],
    ),
    "outside": (
        lambda part: part.D[0].append(BlockIndex(11, 1, 1)),
        [
            "blocks outside the lower tetrahedron: [BlockIndex(i=11, j=1, k=1)]",
            "locality violated at processor 1: block (11, 1, 1) not within [1, 2, 3, 10]",
            "processor 1 holds 2 central blocks",
        ],
    ),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_validate_problems_verbatim(part_q3, corruption):
    # pinned to the strings the Counter-of-BlockIndex implementation gave
    corrupt, expected = CORRUPTIONS[corruption]
    bad = copy.deepcopy(part_q3)
    corrupt(bad)
    assert validate_partition(bad) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_spherical_partitions_validate(q):
    part = build_partition(steiner.construct_spherical(q))
    assert validate_partition(part) == []
    assert {len(blocks) for blocks in part.N} == {q}


PART_Q3 = build_partition(steiner.construct_spherical(3))


def corrupt_partition(data, part):
    """A copy of part with one to three corruptions drawn from data, N as per-processor arrays."""
    part = per_processor(part)
    processor = st.integers(0, part.P - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["move", "duplicate", "drop", "outside", "central", "permute_q", "repeat_r"]))
        p, other = data.draw(processor), data.draw(processor)
        if kind == "outside":
            blk = data.draw(st.sampled_from([(11, 1, 1), (0, 0, 0), (1, 2, 3), (12, 12, 12), (5, 11, 2), (2, 1, 0)]))
            if data.draw(st.booleans()):
                part.N[p] = np.concatenate([part.N[p], [blk]])
            else:
                part.D[p].append(BlockIndex(*blk))
        elif kind == "central":
            part.D[p].append(BlockIndex(*[data.draw(st.integers(1, part.m))] * 3))
        elif kind == "permute_q":
            i = data.draw(st.integers(0, part.m - 1))
            part.Q[i] = tuple(data.draw(st.permutations(part.Q[i])))
        elif kind == "repeat_r":  # a row block listed twice in R_p makes some of its triples twice
            part.R[p] = tuple(sorted(part.R[p] + (data.draw(st.sampled_from(part.R[p])),)))
        elif len(part.N[p]):
            e = data.draw(st.integers(0, len(part.N[p]) - 1))
            blk = part.N[p][e].copy()
            if kind == "move":
                part.N[p] = np.delete(part.N[p], e, axis=0)
                part.N[other] = np.concatenate([part.N[other], [blk]])
            elif kind == "duplicate":
                part.N[other] = np.insert(part.N[other], data.draw(st.integers(0, len(part.N[other]))), blk, axis=0)
            else:
                part.N[p] = np.delete(part.N[p], e, axis=0)
    return part


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validate_matches_the_processor_loops_on_corrupted_partitions(data):
    part = corrupt_partition(data, PART_Q3)
    assert validate_partition(part) == validate_partition_by_loops(part)


def owned_rows(part) -> list[tuple[int, int, int, int]]:
    """owned_blocks(part) as (owner, i, j, k) tuples."""
    owner, blocks = owned_blocks(part)
    return [(p, *blk) for p, blk in zip(owner.tolist(), blocks.tolist())]


def owned_rows_by_loops(part) -> list[tuple[int, int, int, int]]:
    """Each processor's sorted(tb3(R_p)) + N_p + D_p, processor by processor."""
    return [
        (p, *blk)
        for p in range(1, len(part.R) + 1)
        for blk in sorted(tb3(part.R[p - 1])) + block_tuples(part.N[p - 1]) + block_tuples(part.D[p - 1])
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_owned_blocks_are_tb3_then_the_diagonal_blocks(q):
    part = build_partition(steiner.construct_spherical(q))
    owner, blocks = owned_blocks(part)
    assert owner.dtype == blocks.dtype == np.int64 and blocks.shape == (len(owner), 3)
    assert owned_rows(part) == owned_rows_by_loops(part)


def test_owned_blocks_on_the_fixture_designs(part_fixture_10, part_fixture_8):
    for part in (part_fixture_10, part_fixture_8):
        assert owned_rows(part) == owned_rows_by_loops(part)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_owned_blocks_match_the_processor_loops_on_corrupted_partitions(data):
    # corruptions include repeated row blocks in R_p and blocks outside 1..m
    part = corrupt_partition(data, PART_Q3)
    assert owned_rows(part) == owned_rows_by_loops(part)


# ---------------------------------------------------------------------------
# vector layout and padding
# ---------------------------------------------------------------------------


def test_layout_q2_n30(part_q2):
    lay = vector_layout(30, part_q2)
    assert lay == VectorLayout(n=30, m=5, b=6, chunk=1)
    # processor p holds one chunk of each row block of R_p: n / P = 3 rows
    assert all(lay.chunk * len(r) == 30 // part_q2.P for r in part_q2.R)


def test_layout_q3_values(part_q3):
    assert vector_layout(120, part_q3).chunk == 1
    assert vector_layout(120, part_q3).b == 12
    assert vector_layout(240, part_q3).chunk == 2


def test_layout_chunks_tile_each_row_block(part_q3):
    for n in (120, 240):
        lay = vector_layout(n, part_q3)
        assert all(lay.chunk * len(qi) == lay.b for qi in part_q3.Q)


def test_layout_divisibility_error_names_padding(part_q3):
    with pytest.raises(ValueError) as err:
        vector_layout(100, part_q3)
    assert "120" in str(err.value)


@pytest.mark.parametrize("n", [0, -10])
def test_nonpositive_dimension_rejected(part_q2, n):
    with pytest.raises(ValueError):
        pad_dimension(n, part_q2)
    with pytest.raises(ValueError):
        vector_layout(n, part_q2)


@pytest.mark.parametrize(
    "n,fixture_name,expected",
    [(100, "part_q3", 120), (120, "part_q3", 120), (29, "part_q2", 30), (1, "part_q2", 30)],
)
def test_pad_dimension(n, fixture_name, expected, request):
    assert pad_dimension(n, request.getfixturevalue(fixture_name)) == expected


# ---------------------------------------------------------------------------
# storage counts
# ---------------------------------------------------------------------------


def test_storage_counts_q3(part_q3):
    # direct evaluation of the per-block-kind element counts at b = 12
    with_central = 4 * 12**3 + 3 * (144 * 13 // 2) + (12 * 13 * 14 // 6)
    without_central = 4 * 12**3 + 3 * (144 * 13 // 2)
    assert with_central == 10084 and without_central == 9720
    for p in range(1, 31):
        expected = with_central if part_q3.D[p - 1] else without_central
        assert storage_count(part_q3, 120, p) == expected


def test_storage_counts_q2(part_q2):
    for p in range(1, 11):
        expected = 524 if part_q2.D[p - 1] else 468
        assert storage_count(part_q2, 30, p) == expected


@pytest.mark.parametrize("p", [0, 11])
def test_storage_count_rejects_a_processor_outside_1_to_P(part_q2, p):
    with pytest.raises(ValueError, match=rf"p={p} is outside 1\.\.10"):
        storage_count(part_q2, 30, p)


@pytest.mark.parametrize(
    "fixture_name,n",
    [("part_q2", 30), ("part_q3", 120), ("part_fixture_8", 56)],
)
def test_storage_sums_to_total_lower_tetrahedron(fixture_name, n, request):
    part = request.getfixturevalue(fixture_name)
    total = sum(storage_count(part, n, p) for p in range(1, part.P + 1))
    assert total == n * (n + 1) * (n + 2) // 6
