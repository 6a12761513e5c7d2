from collections import Counter

import pytest

from tetracomm import steiner
from tetracomm.cli import fixtures_dir
from tetracomm.partition import build_partition
from tetracomm.schedule import (
    CommSchedule,
    TransferDemand,
    alltoall_cost,
    build_demands,
    build_schedule,
    validate,
)


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
    assert not [d for d in build_demands(part10) if d.src == 1 and d.dst == 26]


def test_processor_1_single_block_partners(part10):
    singles = sorted(d.dst for d in build_demands(part10) if d.src == 1 and len(d.blocks) == 1)
    assert singles == [8, 11, 16, 19, 21, 24, 27, 30]


def test_processor_1_two_block_partner_count(part10):
    assert sum(1 for d in build_demands(part10) if d.src == 1 and len(d.blocks) == 2) == 18


def test_partner_counts_uniform_for_spherical(part10):
    q = part10.q
    demands = build_demands(part10)
    for p in range(1, part10.P + 1):
        two = sum(1 for d in demands if d.src == p and len(d.blocks) == 2)
        one = sum(1 for d in demands if d.src == p and len(d.blocks) == 1)
        assert two == q * q * (q + 1) // 2
        assert one == q * q - 1


def test_demand_symmetry(part10):
    demands = {(d.src, d.dst): d.blocks for d in build_demands(part10)}
    for (src, dst), blocks in demands.items():
        assert demands[(dst, src)] == blocks


def test_shared_blocks_never_exceed_two(part10, part8):
    for part in (part10, part8):
        assert all(len(d.blocks) <= 2 for d in build_demands(part))


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def step_count_formula(q):
    return (q**3 + 3 * q * q) // 2 - 1


@pytest.mark.parametrize("q,expected", [(2, 9), (3, 26), (4, 55)])
def test_spherical_step_counts(q, expected):
    assert step_count_formula(q) == expected
    part = build_partition(steiner.construct_spherical(q))
    demands = build_demands(part)
    sched = build_schedule(demands)
    assert len(sched.steps) == expected
    assert validate(sched, demands).passed


def test_appendix_fixture_schedules_in_12_steps(part8):
    demands = build_demands(part8)
    sched = build_schedule(demands)
    assert len(sched.steps) == 12
    report = validate(sched, demands)
    assert report.passed
    # every partner pair shares exactly two row blocks in this design
    assert all(len(d.blocks) == 2 for d in demands)


def test_two_block_layer_scheduled_before_one_block(part10):
    sched = build_schedule(build_demands(part10))
    sizes = sched.meta["blocks_per_step"]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes.count(2) == 18 and sizes.count(1) == 8


def test_schedule_deterministic(part_q2):
    demands = build_demands(part_q2)
    a = build_schedule(demands)
    b = build_schedule(demands)
    assert a.steps == b.steps


def test_irregular_demands_raise():
    # hand-built demands with unequal degrees: 1->2, 1->3, 2->1, 3->1
    demands = [
        TransferDemand(1, 2, (1,)),
        TransferDemand(1, 3, (1,)),
        TransferDemand(2, 1, (1,)),
        TransferDemand(3, 1, (1,)),
    ]
    with pytest.raises(ValueError, match="regular"):
        build_schedule(demands)


def test_q2_step_list_pinned(part_q2):
    # receivers of senders 1..10 per step; pins the decomposition order
    expected = [
        [2, 1, 5, 6, 3, 4, 8, 7, 10, 9],
        [3, 4, 1, 2, 6, 5, 9, 10, 7, 8],
        [4, 3, 2, 1, 8, 9, 10, 5, 6, 7],
        [5, 9, 8, 7, 1, 10, 4, 3, 2, 6],
        [7, 6, 9, 5, 10, 3, 2, 1, 8, 4],
        [8, 7, 6, 10, 4, 2, 1, 9, 3, 5],
        [6, 5, 10, 8, 9, 7, 3, 2, 4, 1],
        [9, 10, 4, 3, 7, 8, 5, 6, 1, 2],
        [10, 8, 7, 9, 2, 1, 6, 4, 5, 3],
    ]
    sched = build_schedule(build_demands(part_q2))
    assert all([d.src for d in step] == list(range(1, 11)) for step in sched.steps)
    assert [[d.dst for d in step] for step in sched.steps] == expected
    assert sched.meta["layers"] == [
        {"shared_blocks": 2, "demands": 60, "steps": 6},
        {"shared_blocks": 1, "demands": 30, "steps": 3},
    ]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_catches_duplicate_receiver(part_q2):
    demands = build_demands(part_q2)
    sched = build_schedule(demands)
    d0 = sched.steps[0][0]
    clash = next(d for d in demands if d.dst == d0.dst and d != d0)
    bad = CommSchedule(steps=[list(sched.steps[0]) + [clash]] + sched.steps[1:], meta={})
    report = validate(bad, demands)
    assert not report.passed
    assert any("receives" in p for p in report.problems)


def test_validate_catches_missing_coverage(part_q2):
    demands = build_demands(part_q2)
    report = validate(CommSchedule(steps=[], meta={}), demands)
    assert not report.passed
    assert any("scheduled 0 times" in p for p in report.problems)


def test_validate_send_volumes(part_q2):
    demands = build_demands(part_q2)
    sched = build_schedule(demands)
    report = validate(sched, demands, chunk=1)
    # per vector: 2 blocks to 6 partners + 1 block to 3 partners
    assert all(v == 15 for v in report.send_volume.values())


def test_per_processor_volume_formula(part10):
    demands = build_demands(part10)
    volume = Counter()
    for d in demands:
        volume[d.src] += len(d.blocks)
    q, P = part10.q, part10.P
    n = 120
    expected = n * (q + 1) // (q * q + 1) - n // P
    assert all(v * 1 == expected for v in volume.values())  # chunk = 1 at n = 120


# ---------------------------------------------------------------------------
# all-to-all cost model
# ---------------------------------------------------------------------------


def test_alltoall_cost_q3():
    part = build_partition(steiner.construct_spherical(3))
    cost = alltoall_cost(part, 120)
    assert cost.per_vector == 58
    assert cost.both_vectors == 116
    # closed form: 2n/(q+1) * (1 - 1/P)
    assert cost.per_vector == 2 * 120 * (30 - 1) // (4 * 30)


def test_alltoall_cost_q2(part_q2):
    cost = alltoall_cost(part_q2, 30)
    assert cost.per_vector == 18
    assert cost.both_vectors == 36


def test_alltoall_vs_p2p_ratio_q3():
    part = build_partition(steiner.construct_spherical(3))
    demands = build_demands(part)
    p2p_per_vector = sum(len(d.blocks) for d in demands if d.src == 1)
    assert p2p_per_vector == 44
    assert alltoall_cost(part, 120).per_vector == 58
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
