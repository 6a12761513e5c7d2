import dataclasses
import hashlib
import json
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracomm import partition, schedule, steiner
from tetracomm.cli import fixtures_dir
from tetracomm.keys import key_dtype
from tetracomm.partition import build_partition, pad_dimension, vector_layout
from tetracomm.schedule import (
    CommSchedule,
    alltoall_cost,
    build_demands,
    build_schedule,
    validate,
)
from tetracomm.simulator import verify_run
from tetracomm.tensor_core import random_symmetric, random_vector

from oracles import build_demands_by_intersection, demand_rows, demands_from_rows


@pytest.fixture(scope="module")
def part10():
    return build_partition(steiner.load(fixtures_dir() / "steiner_10_4_3.txt"))


@pytest.fixture(scope="module")
def part8():
    return build_partition(steiner.load(fixtures_dir() / "steiner_8_4_3.txt"))


@pytest.fixture(scope="module")
def part_q2():
    return build_partition(steiner.construct_spherical(2))


# ---------------------------------------------------------------------------
# demands
# ---------------------------------------------------------------------------


def test_processor_1_and_26_share_nothing(part10):
    demands = build_demands(part10)
    assert not np.any((demands.src == 1) & (demands.dst == 26))


def test_processor_1_single_block_partners(part10):
    demands = build_demands(part10)
    singles = demands.dst[(demands.src == 1) & (demands.shared == 1)]
    assert singles.tolist() == [8, 11, 16, 19, 21, 24, 27, 30]


def test_processor_1_two_block_partner_count(part10):
    demands = build_demands(part10)
    assert np.count_nonzero((demands.src == 1) & (demands.shared == 2)) == 18


def test_partner_counts_uniform_for_spherical(part10):
    q = part10.q
    demands = build_demands(part10)
    # count[p, k]: the partners with which p shares k blocks
    count = np.zeros((part10.P + 1, 3), dtype=np.int64)
    np.add.at(count, (demands.src, demands.shared), 1)
    assert np.all(count[1:, 2] == q * q * (q + 1) // 2)
    assert np.all(count[1:, 1] == q * q - 1)


def test_demand_symmetry(part10):
    demands = build_demands(part10)
    row = {(s, t): e for e, (s, t) in enumerate(zip(demands.src.tolist(), demands.dst.tolist()))}
    reverse = [row[t, s] for s, t in row]
    assert np.array_equal(demands.blocks[reverse], demands.blocks)


def test_shared_blocks_never_exceed_two(part10, part8):
    for part in (part10, part8):
        assert build_demands(part).shared.max() <= 2


@pytest.mark.parametrize(
    "make",
    [lambda q=q: steiner.construct_spherical(q) for q in (2, 3, 4, 5, 7)]
    + [lambda name=name: steiner.load(fixtures_dir() / name) for name in ("steiner_8_4_3.txt", "steiner_10_4_3.txt")],
    ids=["q2", "q3", "q4", "q5", "q7", "fixture8", "fixture10"],
)
def test_demands_equal_pairwise_intersection(make):
    part = build_partition(make())
    assert demand_rows(build_demands(part)) == build_demands_by_intersection(part)


def test_demand_table_layout(part_q2):
    demands = build_demands(part_q2)
    key = demands.src * (part_q2.P + 1) + demands.dst
    assert np.all(np.diff(key) > 0)
    assert demands.blocks.shape == (90, 2)
    # 1-based ids, each row ascending and padded with 0 after its shared count
    for row, k in zip(demands.blocks.tolist(), demands.shared.tolist()):
        assert row[k:] == [0] * (2 - k) and all(0 < a < b for a, b in zip(row[:k], row[1:k]))
    assert all(column.dtype == np.int64 for column in (demands.src, demands.dst, demands.blocks))


def test_from_rows_sorts_and_round_trips():
    rows = [(3, 1, (2,)), (1, 3, (2, 5)), (1, 2, (4,))]
    table = demands_from_rows(rows)
    assert demand_rows(table) == sorted(rows)
    assert table.blocks.tolist() == [[4, 0], [2, 5], [2, 0]]
    assert demand_rows(demands_from_rows(sorted(rows))) == sorted(rows)


@pytest.mark.parametrize(
    "row",
    [(1, 2, (0,)), (1, 2, (-1, 3)), (1, 2, (3, 2)), (1, 2, (2, 2)), (2, 2, (1,)), (0, 1, (1,))],
    ids=["block-0", "negative-block", "descending", "repeated", "self", "processor-0"],
)
def test_from_rows_rejects_rows_that_could_collide_with_padding(row):
    with pytest.raises(ValueError):
        demands_from_rows([(1, 3, (1,)), row])


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


@cache
def spherical_demands(q):
    part = build_partition(steiner.construct_spherical(q))
    return part, build_demands(part)


def step_count_formula(q):
    return (q**3 + 3 * q * q) // 2 - 1


@pytest.mark.parametrize("q,expected", [(2, 9), (3, 26), (4, 55), (5, 99), (7, 244), (8, 351), (9, 485)])
def test_spherical_step_counts(q, expected):
    assert step_count_formula(q) == expected
    part, demands = spherical_demands(q)
    sched = build_schedule(demands)
    assert len(sched.steps) == expected
    report = validate(sched, demands)
    assert report.passed
    # the layer meta of the P-vertex edge colouring too
    two, one = q * q * (q + 1) // 2, q * q - 1
    assert sched.meta == {
        "steps": expected,
        "layers": [
            {"shared_blocks": 2, "demands": part.P * two, "steps": two},
            {"shared_blocks": 1, "demands": part.P * one, "steps": one},
        ],
        "blocks_per_step": [2] * two + [1] * one,
    }
    # chunk 1 is n = m·|Q_i|, where every processor sends n(q+1)/(q²+1) - n/P words
    n = part.m * part.group_size
    assert set(report.send_volume.values()) == {n * (q + 1) // part.m - n // part.P}


def test_appendix_fixture_schedules_in_12_steps(part8):
    demands = build_demands(part8)
    sched = build_schedule(demands)
    assert len(sched.steps) == 12
    report = validate(sched, demands)
    assert report.passed
    # every partner pair shares exactly two row blocks in this design
    assert np.all(demands.shared == 2)


def test_two_block_layer_scheduled_before_one_block(part10):
    sched = build_schedule(build_demands(part10))
    sizes = sched.meta["blocks_per_step"]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes.count(2) == 18 and sizes.count(1) == 8


def test_schedule_deterministic(part_q2):
    demands = build_demands(part_q2)
    a = build_schedule(demands)
    b = build_schedule(demands)
    assert np.array_equal(a.steps, b.steps)


def test_steps_are_p_row_tables_sorted_by_sender(part10):
    # step[p - 1] is the receiver of sender p
    sched = build_schedule(build_demands(part10))
    assert all(step.dtype == np.int64 and step.shape == (30,) for step in sched.steps)


@pytest.fixture
def no_decompose(monkeypatch):
    """build_schedule must reject an irregular or asymmetric layer itself, before decomposing or reshaping it."""

    def unreachable(adj):
        raise AssertionError("regular_decompose reached")

    monkeypatch.setattr(schedule, "regular_decompose", unreachable)


def test_irregular_demands_raise(no_decompose):
    # hand-built demands with unequal degrees: 1->2, 1->3, 2->1, 3->1
    # (four rows over three processors: reshaping the layer to (3, 1) would fail first)
    demands = demands_from_rows(
        [
            (1, 2, (1,)),
            (1, 3, (1,)),
            (2, 1, (1,)),
            (3, 1, (1,)),
        ]
    )
    with pytest.raises(ValueError, match="layer of 1 shared blocks is not regular on processors 1..3"):
        build_schedule(demands)


def test_layer_that_leaves_out_a_processor_raises(no_decompose):
    # processors 2 and 3 exchange one block; processor 1 takes no part
    demands = demands_from_rows([(2, 3, (1,)), (3, 2, (1,))])
    with pytest.raises(ValueError, match="layer of 1 shared blocks is not regular on processors 1..3"):
        build_schedule(demands)


def test_asymmetric_regular_layer_raises(no_decompose):
    # i->i+1 and i->i+2 mod 5: two sends and two receives each, but no demand has its reverse
    demands = demands_from_rows([(i + 1, (i + s) % 5 + 1, (1,)) for i in range(5) for s in (1, 2)])
    with pytest.raises(ValueError, match="layer of 1 shared blocks is not symmetric"):
        build_schedule(demands)


def test_q2_step_list_pinned(part_q2):
    # receivers of senders 1..10 per step; pins the orbit colouring's order
    expected = [
        [5, 4, 2, 10, 6, 9, 1, 3, 7, 8],
        [7, 3, 8, 2, 1, 5, 9, 10, 6, 4],
        [8, 6, 1, 7, 4, 3, 2, 9, 10, 5],
        [3, 7, 6, 5, 10, 2, 4, 1, 8, 9],
        [4, 9, 5, 1, 3, 10, 8, 7, 2, 6],
        [2, 1, 9, 6, 8, 4, 10, 5, 3, 7],
        [9, 10, 4, 8, 7, 1, 6, 2, 5, 3],
        [10, 5, 7, 9, 2, 8, 3, 6, 4, 1],
        [6, 8, 10, 3, 9, 7, 5, 4, 1, 2],
    ]
    sched = build_schedule(build_demands(part_q2))
    assert [step.tolist() for step in sched.steps] == expected
    assert sched.meta["layers"] == [
        {"shared_blocks": 2, "demands": 60, "steps": 6},
        {"shared_blocks": 1, "demands": 30, "steps": 3},
    ]


def steps_sha256(steps) -> str:
    """sha256 over every step of the senders 1..P then the receiver row, as little-endian int64."""
    digest = hashlib.sha256()
    for step in steps:
        digest.update(np.arange(1, len(step) + 1).astype("<i8").tobytes())
        digest.update(step.astype("<i8").tobytes())
    return digest.hexdigest()


Q7_STEPS_SHA256 = "2415da858b9ffc2a159bd33636cf0f8d5e620cb7fb6b45db6ce53743d0e0210e"
# the 15 steps of q=4's one-share layer, whose degree is odd
Q4_ONE_SHARE_LAYER_SHA256 = "cf04e6bfce8cdffd26d3efef1eb05bf3d1e5b3e8e514287676f725d893f78658"


def test_q7_schedule_pinned():
    sched = build_schedule(build_demands(build_partition(steiner.construct_spherical(7))))
    assert len(sched.steps) == 244
    assert steps_sha256(sched.steps) == Q7_STEPS_SHA256


# (steps, digest) of the full spherical schedule at q = 4, 5, 8 and 9
SPHERICAL_STEPS_SHA256 = {
    4: (55, "31fb8b6360afe1d0b57ad8ffc18ccb473f6dafcec5e0af25a6af2a84dccf6d8b"),
    5: (99, "d45136c88c243ab2b6bd58ef5618e0c72bd7b866398aa2123ef36350a16ddb1c"),
    8: (351, "bf00a2d3663a98dccb9b908a8dd45ce07c37048f44a21769c983d2a1419eb2ac"),
    9: (485, "5b71f03f4a43f7202f53418eec804e42b058efb21de49ac96b5994a72d1a7eb1"),
}


@pytest.mark.parametrize("q", sorted(SPHERICAL_STEPS_SHA256))
def test_spherical_schedule_pinned(q):
    sched = build_schedule(spherical_demands(q)[1])
    assert (len(sched.steps), steps_sha256(sched.steps)) == SPHERICAL_STEPS_SHA256[q]


def demands_sha256(demands) -> str:
    """sha256 over the shapes and little-endian int64 bytes of src, dst and blocks."""
    digest = hashlib.sha256()
    for column in (demands.src, demands.dst, demands.blocks):
        digest.update(repr(column.shape).encode())
        digest.update(np.ascontiguousarray(column, dtype="<i8"))
    return digest.hexdigest()


def report_sha256(report) -> str:
    obj = {"report": report.to_json_obj(), "send_volume": report.send_volume}
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# (demands, steps, validate's report) at q = 11 and 13, whose set-up keys
# are 32-bit; a partition, demand, schedule or check change moves them
LARGE_SPHERICAL_SHA256 = {
    11: (
        "37644d955076cbf2425c1552e3797d404ca97fbbcef8ad93d7e2cb12df6e2816",
        846,
        "3b2bfd0f8182c2c9fa239e73abc9d5b9238f0e41e9ebc488da9de85ad6a488d4",
    ),
    13: (
        "65afd569202d74746198b7c99e4bfb7b8a5ed20bd86d43c27c4fbeb1157b955e",
        1351,
        "0c380b73a4661a2db1711c761e798128314653d134da25159916b9769b4c0d8e",
    ),
}


@pytest.mark.parametrize("q", sorted(LARGE_SPHERICAL_SHA256))
def test_large_spherical_demands_and_report_pinned(q):
    demands = build_demands(build_partition(steiner.construct_spherical(q)))
    assert {column.dtype for column in (demands.src, demands.dst, demands.blocks)} == {np.dtype(np.int64)}
    sched = build_schedule(demands)
    report = validate(sched, demands)
    got = (demands_sha256(demands), len(sched.steps), report_sha256(report))
    assert got == LARGE_SPHERICAL_SHA256[q]


# ---------------------------------------------------------------------------
# 64-bit keys: processor ids whose keys pass 2**32
# ---------------------------------------------------------------------------


def test_key_dtype_is_32_bit_below_2_to_the_32():
    assert key_dtype(0) is key_dtype(2**32 - 1) is np.uint32
    assert key_dtype(2**32) is key_dtype(2**40) is np.int64


def test_demands_of_processor_ids_past_32_bit_keys(part_q2):
    # q=2's processors 1..10 renumbered 65527..65536: the (src, dst, block) key needs 36 bits
    offset = 2**16 - part_q2.P
    big = dataclasses.replace(part_q2, P=2**16, Q=[tuple(p + offset for p in row) for row in part_q2.Q], orbits=None)
    small, demands = build_demands(part_q2), build_demands(big)
    assert [column.dtype for column in (demands.src, demands.dst, demands.blocks)] == [np.dtype(np.int64)] * 3
    assert np.array_equal(demands.src, small.src + offset) and np.array_equal(demands.dst, small.dst + offset)
    assert np.array_equal(demands.blocks, small.blocks)


def ring(P, shifts=(-1, 1)):
    """Demands p -> p + s (mod P) for both shifts s, block 1 each: a layer of degree 2, symmetric for (-1, 1)."""
    p = np.arange(1, P + 1)
    ends = np.sort(np.stack([(p - 1 + s) % P + 1 for s in shifts], axis=1), axis=1)
    return schedule.Demands(np.repeat(p, 2), ends.ravel(), np.ones((2 * P, 1), dtype=np.int64))


def test_schedule_checks_of_processor_ids_past_32_bit_keys():
    # at P = 2**16 the reverse, message and validation keys all pass 2**32
    assert key_dtype(2**16 * (2**16 + 1)) is np.int64
    results = []
    for P in (8, 2**16):
        demands = ring(P)
        sched = build_schedule(demands)
        report = validate(sched, demands, 3)
        src, dst, row = schedule.messages(sched.steps, demands)
        assert all(a.dtype == np.int64 for a in (src, dst, row, *sched.steps))
        assert np.array_equal(demands.src[row], src) and np.array_equal(demands.dst[row], dst)
        # processor 1 sends to itself instead of to 2
        broken = [np.r_[1, np.arange(3, P + 1), 1], np.r_[P, np.arange(1, P)]]
        problems = validate(CommSchedule(broken, demands), demands, 3).problems
        with pytest.raises(ValueError) as err:
            build_schedule(ring(P, (1, 2)))
        results.append((len(sched.steps), report.passed, set(report.send_volume.values()), problems, str(err.value)))
    assert results[0] == results[1]


def test_q4_odd_layer_pinned():
    sched = build_schedule(build_demands(build_partition(steiner.construct_spherical(4))))
    assert sched.meta["layers"][1] == {"shared_blocks": 1, "demands": 1020, "steps": 15}
    assert steps_sha256(sched.steps[40:]) == Q4_ONE_SHARE_LAYER_SHA256


def test_steps_are_contiguous_int64_rows():
    # a strided row makes every later stack of the steps several times slower
    sched = build_schedule(spherical_demands(4)[1])
    assert all(step.dtype == np.int64 and step.flags.c_contiguous for step in sched.steps)


# ---------------------------------------------------------------------------
# orbit schedules of the spherical designs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_cyclic_group_acts_freely_on_the_processors(q):
    part, demands = spherical_demands(q)
    members = part.orbits
    assert demands.orbits is members
    e = 2 if q % 2 else 1
    assert members.shape == (e * q, (q * q + 1) // e)
    assert sorted(members.ravel().tolist()) == list(range(1, part.P + 1))
    # π is h on the blocks: the next processor of an orbit holds the image of the last one's points
    g = steiner.mobius_cycle(q)
    h = g[g] if q % 2 else g
    R = np.array(part.R) - 1
    assert np.array_equal(R[np.roll(members, -1, axis=1) - 1], np.sort(h[R[members - 1]], axis=2))


def relabelled(system, perm):
    """The system with point x renamed perm[x - 1], blocks sorted."""
    blocks = sorted(tuple(sorted(perm[x - 1] for x in block)) for block in system.blocks)
    return steiner.SteinerSystem(system.n, system.r, blocks)


def trivial_design_demands(system):
    """The demands of system's partition, whose orbit table must be the (P, 1) column of ids 1..P."""
    assert steiner.verify(system).passed
    part = build_partition(system)
    assert part.orbits.tolist() == [[p] for p in range(1, part.P + 1)]
    return build_demands(part)


@pytest.mark.parametrize(
    "make",
    [
        lambda: trivial_design_demands(relabelled(steiner.construct_spherical(3), [2, 1, *range(3, 11)])),
        lambda: trivial_design_demands(steiner.load(fixtures_dir() / "steiner_8_4_3.txt")),
        lambda: trivial_design_demands(steiner.load(fixtures_dir() / "steiner_10_4_3.txt")),
        # no partition, so no orbit table: 1-2 and 3-4 share two blocks, every other pair one
        lambda: demands_from_rows(
            [(1, 2, (1, 2)), (3, 4, (3, 4)), (1, 3, (1,)), (1, 4, (2,)), (2, 3, (1,)), (2, 4, (2,))]
            + [(2, 1, (1, 2)), (4, 3, (3, 4)), (3, 1, (1,)), (4, 1, (2,)), (3, 2, (1,)), (4, 2, (2,))]
        ),
    ],
    ids=["q3-relabelled", "fixture8", "fixture10", "hand-written"],
)
def test_other_designs_fall_back_to_the_edge_colouring(make, monkeypatch):
    # trivial orbits, one per processor, so each layer's orbit graph is the P-vertex graph
    demands = make()
    P = demands.processors
    coloured = []
    real = schedule.regular_decompose
    monkeypatch.setattr(schedule, "regular_decompose", lambda adj: coloured.append(adj) or real(adj))
    sched = build_schedule(demands)
    assert len(coloured) == len(sched.meta["layers"])
    assert [adj.shape for adj in coloured] == [(P, layer["demands"] // P) for layer in sched.meta["layers"]]
    assert validate(sched, demands).passed


def test_the_design_is_recognised_once(monkeypatch):
    # GF(q^2) is built by the construction and by the partition's one mobius_orbits
    # call; build_schedule reads the orbit table the partition keeps
    calls = []
    real_orbits, real_generators = steiner.mobius_orbits, steiner._generators
    for module in (steiner, partition):  # partition imports mobius_orbits by name
        monkeypatch.setattr(module, "mobius_orbits", lambda *args: calls.append("mobius_orbits") or real_orbits(*args))
    monkeypatch.setattr(steiner, "_generators", lambda q: calls.append("_generators") or real_generators(q))
    part = build_partition(steiner.construct_spherical(3))
    layout = vector_layout(pad_dimension(1, part), part)
    verdict = verify_run(random_symmetric(layout.n, 1), random_vector(layout.n, 2), part, layout)
    assert verdict.passed, verdict.problems
    assert calls == ["_generators", "mobius_orbits", "_generators"]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_catches_duplicate_receiver(part_q2):
    demands = build_demands(part_q2)
    sched = build_schedule(demands)
    clash = sched.steps[0].copy()
    clash[0] = clash[1]
    report = validate(CommSchedule([clash] + sched.steps[1:], demands), demands)
    assert not report.passed
    assert any("receives" in p for p in report.problems)


def test_validate_catches_missing_coverage(part_q2):
    demands = build_demands(part_q2)
    report = validate(CommSchedule([], demands), demands)
    assert not report.passed
    assert any("scheduled 0 times" in p for p in report.problems)


# A valid q=2 schedule, the one the P-vertex edge colouring gave.  The
# verbatim problem tests break it rather than build_schedule's output, so
# they pin validate alone
Q2_COLOURED_STEPS = [
    [2, 3, 1, 5, 10, 4, 8, 9, 7, 6],
    [7, 6, 8, 2, 1, 9, 10, 5, 3, 4],
    [4, 9, 5, 7, 6, 3, 2, 1, 10, 8],
    [3, 1, 2, 6, 4, 10, 9, 7, 8, 5],
    [5, 4, 9, 10, 8, 2, 1, 3, 6, 7],
    [8, 7, 6, 1, 3, 5, 4, 10, 2, 9],
    [6, 5, 10, 8, 9, 7, 3, 2, 4, 1],
    [10, 8, 7, 9, 2, 1, 6, 4, 5, 3],
    [9, 10, 4, 3, 7, 8, 5, 6, 1, 2],
]


def test_q2_coloured_steps_are_valid(part_q2):
    demands = build_demands(part_q2)
    assert validate(CommSchedule([np.array(row) for row in Q2_COLOURED_STEPS], demands), demands).passed


# validate's problems for broken q=2 schedules at chunk=2; the dropped and
# duplicated strings are those the per-demand Counter implementation gave
LAST_STEP = [
    ("1->9", "(2,)"),
    ("2->10", "(4,)"),
    ("3->4", "(1,)"),
    ("4->3", "(1,)"),
    ("5->7", "(3,)"),
    ("6->8", "(5,)"),
    ("7->5", "(3,)"),
    ("8->6", "(5,)"),
    ("9->1", "(2,)"),
    ("10->2", "(4,)"),
]
VOLUME_OFF = "send_volume: processors whose scheduled send volume differs from demands: "


def last_step_problems(times):
    pairs = "; ".join(f"demand {pair} blocks {blocks} scheduled {times} times, expected 1" for pair, blocks in LAST_STEP)
    return ["demands_covered: " + pairs, VOLUME_OFF + "[1, 2, 3, 4, 5]"]


def broken_schedules(steps):
    # clash: sender 1 sends to sender 2's receiver 3 too.  extra: in the last
    # step sender 1 sends to 11, which is no processor, in place of 9
    clash, extra = steps[0].copy(), steps[-1].copy()
    clash[0], extra[0] = clash[1], 11
    return {
        "dropped": steps[:-1],
        "duplicated": steps + [steps[-1]],
        "clash": [clash] + steps[1:],
        "extra": steps[:-1] + [extra],
    }


EXPECTED_PROBLEMS = {
    "dropped": last_step_problems(0),
    "duplicated": last_step_problems(2),
    "clash": [
        "one_message_per_step: step 1: processor 3 receives 2 messages",
        "demands_covered: demand 1->2 blocks (1, 2) scheduled 0 times, expected 1; "
        "demand 1->3 blocks (1, 2) scheduled 2 times, expected 1",
    ],
    "extra": [
        "one_message_per_step: step 9: processor 1 sends to 11, outside 1..10",
        "demands_covered: demand 1->9 blocks (2,) scheduled 0 times, expected 1; "
        "scheduled transfer 1->11 has no matching demand",
        VOLUME_OFF + "[1]",
    ],
}


@pytest.mark.parametrize("broken", sorted(EXPECTED_PROBLEMS))
def test_validate_problems_verbatim(part_q2, broken):
    demands = build_demands(part_q2)
    bad = broken_schedules([np.array(row) for row in Q2_COLOURED_STEPS])[broken]
    report = validate(CommSchedule(bad, demands), demands, 2)
    assert report.problems == EXPECTED_PROBLEMS[broken]


@pytest.mark.parametrize(
    "row,problem",
    [
        ([2, 3, 1, 5, 10, 4, 8, 9, 7], "step 1: 9 senders, expected 10"),
        ([2, 3, 1, 5, 10, 4, 8, 9, 7, 6, 1], "step 1: 11 senders, expected 10"),
        ([0, 3, 1, 5, 10, 4, 8, 9, 7, 6], "step 1: processor 1 sends to 0, outside 1..10"),
        ([2, 3, 1, 5, 10, 4, 8, 9, 7, 10**12], f"step 1: processor 10 sends to {10**12}, outside 1..10"),
        ([1, 3, 2, 5, 10, 4, 8, 9, 7, 6], "step 1: processor 1 sends to itself"),
    ],
    ids=["short", "long", "receiver-0", "receiver-too-large", "self"],
)
def test_validate_names_the_step_of_a_malformed_row(part_q2, row, problem):
    # each row breaks the first step of a q=2 schedule; it fails a check, never indexing
    demands = build_demands(part_q2)
    steps = build_schedule(demands).steps
    check = validate(CommSchedule([np.array(row)] + steps[1:], demands), demands).check("one_message_per_step")
    assert not check.passed
    assert problem in check.detail.split("; ")


@cache
def spherical_schedule(q):
    _, demands = spherical_demands(q)
    return demands, build_schedule(demands).steps


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3]), data=st.data())
def test_any_step_order_is_valid(q, data):
    demands, steps = spherical_schedule(q)
    order = data.draw(st.permutations(range(len(steps))))
    assert validate(CommSchedule([steps[s] for s in order], demands), demands).passed


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3]), data=st.data())
def test_any_changed_row_fails_and_is_named(q, data):
    demands, steps = spherical_schedule(q)
    P = len(steps[0])
    s = data.draw(st.integers(0, len(steps) - 1))
    row = data.draw(
        st.one_of(st.permutations(steps[s].tolist()), st.lists(st.integers(-1, P + 2), max_size=P + 1)).filter(
            lambda row: row != steps[s].tolist()
        )
    )
    report = validate(CommSchedule(steps[:s] + [np.array(row, dtype=np.int64)] + steps[s + 1 :], demands), demands)
    assert not report.passed
    assert re.search(r"step \d+:|demand \d+->\d+", "; ".join(report.problems))


def test_validate_demands_that_share_no_block():
    # a demand row may list no block; its sender then sends 0 words
    demands = demands_from_rows([(1, 2, ()), (2, 1, ())])
    report = validate(build_schedule(demands), demands, 3)
    assert report.passed
    assert report.send_volume == {1: 0, 2: 0}


def test_validate_send_volumes(part_q2):
    demands = build_demands(part_q2)
    sched = build_schedule(demands)
    report = validate(sched, demands, chunk=1)
    # per vector: 2 blocks to 6 partners + 1 block to 3 partners
    assert all(v == 15 for v in report.send_volume.values())


def test_per_processor_volume_formula(part10):
    demands = build_demands(part10)
    volume = np.bincount(demands.src, weights=demands.shared, minlength=part10.P + 1)[1:]
    q, P = part10.q, part10.P
    n = 120
    expected = n * (q + 1) // (q * q + 1) - n // P
    assert np.all(volume * 1 == expected)  # chunk = 1 at n = 120


# ---------------------------------------------------------------------------
# all-to-all cost model
# ---------------------------------------------------------------------------


def test_alltoall_cost_q3():
    part = build_partition(steiner.construct_spherical(3))
    cost = alltoall_cost(part, 120)
    assert cost == 58
    # closed form: 2n/(q+1) * (1 - 1/P)
    assert cost == 2 * 120 * (30 - 1) // (4 * 30)


def test_alltoall_cost_q2(part_q2):
    assert alltoall_cost(part_q2, 30) == 18


def test_alltoall_vs_p2p_ratio_q3():
    part = build_partition(steiner.construct_spherical(3))
    demands = build_demands(part)
    p2p_per_vector = int(demands.shared[demands.src == 1].sum())
    assert p2p_per_vector == 44
    assert alltoall_cost(part, 120) == 58
    # the collective moves more words than the matched point-to-point plan
    assert 58 / 44 > 1


def test_alltoall_requires_valid_layout(part_q2):
    with pytest.raises(ValueError):
        alltoall_cost(part_q2, 31)


def test_schedule_json_shape(part_q2):
    demands = build_demands(part_q2)
    sched = build_schedule(demands)
    obj = sched.to_json_obj()
    assert set(obj) == {"meta", "steps"}
    first = obj["steps"][0][0]
    assert set(first) == {"src", "dst", "blocks"}
