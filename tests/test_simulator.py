import copy
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetracomm import simulator, steiner
from tetracomm.checks import Check, Report
from tetracomm.cli import fixtures_dir
from tetracomm.partition import VectorLayout, build_partition, owned_blocks, pad_dimension, vector_layout
from tetracomm.schedule import CommSchedule, build_demands, build_schedule
from tetracomm.simulator import compute_report, simulate, verify_run
from tetracomm.tensor_core import (
    random_symmetric,
    random_vector,
    sttsv_symmetric,
    ternary_count,
)

from oracles import demand_rows, simulate_by_messages, sttsv_symmetric_counted


@pytest.fixture(scope="module")
def setup_q2():
    part = build_partition(steiner.construct_spherical(2))
    return part, vector_layout(30, part)


@pytest.fixture(scope="module")
def setup_q3():
    part = build_partition(steiner.construct_spherical(3))
    return part, vector_layout(120, part)


@pytest.fixture(scope="module")
def setup_appendix():
    part = build_partition(steiner.load(fixtures_dir() / "steiner_8_4_3.txt"))
    return part, vector_layout(56, part)


# ---------------------------------------------------------------------------
# output correctness
# ---------------------------------------------------------------------------


def test_q2_p2p_matches_sequential(setup_q2):
    part, layout = setup_q2
    tensor = random_symmetric(30, 11)
    x = random_vector(30, 12)
    y, report = simulate(tensor, x, part, layout, "p2p")
    ref = sttsv_symmetric(tensor, x)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
    assert all(c.passed for c in report.checks)


@pytest.mark.parametrize("mode", ["p2p", "alltoall"])
@pytest.mark.parametrize("design", ["q2", "q3"])
def test_key_table_equals_np_unique(setup_q2, setup_q3, design, mode, monkeypatch):
    # the (block, receiver, sender) table is np.unique of its keys, built without np.unique
    part, layout = setup_q2 if design == "q2" else setup_q3
    calls = []
    real = simulator._distinct
    monkeypatch.setattr(simulator, "_distinct", lambda keys: calls.append((keys, real(keys))) or calls[-1][1])
    simulate(random_symmetric(layout.n, 1), random_vector(layout.n, 2), part, layout, mode)
    (keys, table), = calls
    assert not np.array_equal(keys, np.sort(keys))
    assert table.dtype == keys.dtype and np.array_equal(table, np.unique(keys))
    # a block passed in two messages, as an invalid schedule may send it, is listed once
    assert np.array_equal(real(np.concatenate([keys, keys[::3]])), table)


@pytest.mark.parametrize("design,mode", [("q2", "p2p"), ("q2", "alltoall"), ("appendix", "p2p")])
def test_simulate_matches_per_element_oracles(setup_q2, setup_appendix, design, mode):
    part, layout = setup_q2 if design == "q2" else setup_appendix
    tensor = random_symmetric(layout.n, 21)
    x = random_vector(layout.n, 22)
    y, _ = simulate(tensor, x, part, layout, mode)
    y_elem, _ = sttsv_symmetric_counted(tensor, x)
    y_dense = np.einsum("ijk,j,k->i", tensor.to_dense(), x, x)
    for expected in (y_elem, y_dense):
        assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)


def test_q2_exact_volumes_and_steps(setup_q2):
    part, layout = setup_q2
    tensor = random_symmetric(30, 11)
    x = random_vector(30, 12)
    _, report = simulate(tensor, x, part, layout, "p2p")
    for c in report.per_proc:
        assert c.sent_x == 15 and c.sent_y == 15
        assert c.words_sent == 30
        assert c.received_x == 15 and c.received_y == 15
    assert report.steps_per_vector == 9
    assert report.max_volume == 30


def test_q3_exact_volumes_and_steps(setup_q3):
    part, layout = setup_q3
    tensor = random_symmetric(120, 5)
    x = random_vector(120, 6)
    y, report = simulate(tensor, x, part, layout, "p2p")
    ref = sttsv_symmetric(tensor, x)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
    assert report.steps_per_vector == 26
    for c in report.per_proc:
        assert c.sent_x == 44 and c.sent_y == 44
    assert report.total_ternary == ternary_count(120) == 871200


def test_alltoall_volumes(setup_q2):
    part, layout = setup_q2
    tensor = random_symmetric(30, 3)
    x = random_vector(30, 4)
    y, report = simulate(tensor, x, part, layout, "alltoall")
    ref = sttsv_symmetric(tensor, x)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
    assert report.steps_per_vector == part.P - 1
    for c in report.per_proc:
        assert c.sent_x == 18 and c.sent_y == 18


def test_appendix_design_simulates_correctly(setup_appendix):
    part, layout = setup_appendix
    tensor = random_symmetric(56, 8)
    x = random_vector(56, 9)
    verdict = verify_run(tensor, x, part, layout, "p2p")
    assert verdict.passed, [c.name for c in verdict.checks if not c.passed]
    assert verdict.report.steps_per_vector == 12


def test_chunk_two_layout(setup_q2):
    part, _ = setup_q2
    layout = vector_layout(60, part)
    assert layout.chunk == 2
    tensor = random_symmetric(60, 13)
    x = random_vector(60, 14)
    verdict = verify_run(tensor, x, part, layout, "p2p")
    assert verdict.passed
    for c in verdict.report.per_proc:
        assert c.sent_x == 30  # 15 shared chunks of 2 words


def test_larger_dimension_chunked(setup_q2):
    part, _ = setup_q2
    layout = vector_layout(180, part)
    assert layout.chunk == 6
    tensor = random_symmetric(180, 31)
    x = random_vector(180, 32)
    y, report = simulate(tensor, x, part, layout, "p2p")
    ref = sttsv_symmetric(tensor, x)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
    assert report.total_ternary == ternary_count(180)
    for c in report.per_proc:
        assert c.sent_x == 15 * 6  # shared chunk count times chunk words


def test_conservation(setup_q2):
    part, layout = setup_q2
    _, report = simulate(random_symmetric(30, 1), random_vector(30, 2), part, layout, "p2p")
    assert report.total_sent == report.total_received
    assert Check("conservation", True) in report.checks


def test_simulate_input_validation(setup_q2):
    part, layout = setup_q2
    tensor = random_symmetric(30, 1)
    with pytest.raises(ValueError):
        simulate(tensor, random_vector(30, 2), part, layout, "broadcast")
    with pytest.raises(ValueError):
        simulate(random_symmetric(25, 1), random_vector(30, 2), part, layout, "p2p")
    with pytest.raises(ValueError):
        simulate(tensor, random_vector(25, 2), part, layout, "p2p")


def test_counters_are_measured_from_gathered_blocks(setup_q2):
    part, layout = setup_q2
    short = copy.deepcopy(part)
    short.N = list(short.N)
    short.N[0] = short.N[0][:-1]
    _, report = simulate(random_symmetric(30, 1), random_vector(30, 2), short, layout, "p2p")
    predicted = compute_report(part, layout).per_proc
    b = layout.b
    assert report.per_proc[0].ternary_mults == predicted[0].ternary_mults - (3 * b * b * (b - 1) // 2 + 2 * b * b)
    assert report.per_proc[0].tensor_elems == predicted[0].tensor_elems - b * b * (b + 1) // 2
    for c, pc in zip(report.per_proc[1:], predicted[1:]):
        assert (c.ternary_mults, c.tensor_elems) == (pc.ternary_mults, pc.tensor_elems)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_x_is_reported_by_name(setup_q2, bad):
    part, layout = setup_q2
    x = random_vector(30, 12)
    x[4] = bad
    with np.errstate(invalid="ignore"):
        verdict = verify_run(random_symmetric(30, 11), x, part, layout)
    check = verdict.check("input_finite")
    assert not check.passed and check.detail == "non-finite entries: x 1, tensor 0"
    assert verdict.check("gather_complete").passed
    assert verdict.check("ternary_counts_exact").passed


def test_non_finite_tensor_is_reported_by_name(setup_q2):
    part, layout = setup_q2
    tensor = random_symmetric(30, 11)
    tensor.data[[0, 5]] = np.inf
    with np.errstate(invalid="ignore"):
        verdict = verify_run(tensor, random_vector(30, 12), part, layout)
    assert verdict.check("input_finite").detail == "non-finite entries: x 0, tensor 2"
    assert not verdict.passed


def input_finite_detail(setup, x, tensor) -> str:
    part, layout = setup
    with np.errstate(all="ignore"):
        return verify_run(tensor, x, part, layout).check("input_finite").detail


@pytest.mark.parametrize("target", ["x", "tensor"])
@pytest.mark.parametrize("at", [0, "middle", -1])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entry_is_counted_anywhere(setup_q2, target, at, bad):
    x, tensor = random_vector(30, 12), random_symmetric(30, 11)
    data = x if target == "x" else tensor.data
    data[data.size // 2 if at == "middle" else at] = bad
    counts = {"x": 0, "tensor": 0, target: 1}
    assert input_finite_detail(setup_q2, x, tensor) == f"non-finite entries: x {counts['x']}, tensor {counts['tensor']}"


@pytest.mark.parametrize("target", ["x", "tensor"])
def test_every_non_finite_entry_is_counted(setup_q2, target):
    x, tensor = random_vector(30, 12), random_symmetric(30, 11)
    data = x if target == "x" else tensor.data
    data[[0, 7, data.size // 2, -1]] = [np.inf, -np.inf, np.nan, np.inf]
    counts = {"x": 0, "tensor": 0, target: 4}
    assert input_finite_detail(setup_q2, x, tensor) == f"non-finite entries: x {counts['x']}, tensor {counts['tensor']}"


@pytest.mark.parametrize("target", ["x", "tensor"])
def test_finite_input_whose_sum_overflows_is_finite(setup_q2, target):
    x, tensor = random_vector(30, 12), random_symmetric(30, 11)
    data = x if target == "x" else tensor.data
    data[:] = np.where(np.arange(data.size) < data.size // 2, 1e308, -1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(data.sum())
    assert input_finite_detail(setup_q2, x, tensor) == "non-finite entries: x 0, tensor 0"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["p2p", "alltoall"])
def test_non_finite_input_raises_no_numpy_warning(setup_q2, mode):
    part, layout = setup_q2
    x = random_vector(30, 12)
    x[4] = np.inf
    verdict = verify_run(random_symmetric(30, 11), x, part, layout, mode)
    assert not verdict.check("input_finite").passed
    assert not verdict.check("output_matches_sequential").passed


# ---------------------------------------------------------------------------
# predicted costs
# ---------------------------------------------------------------------------


def test_predicted_ternary_counts_q3(setup_q3):
    part, layout = setup_q3
    pred = compute_report(part, layout)
    # b = 12: per-block counts evaluated directly from the per-kind formulas
    b = 12
    t_off = 3 * b**3
    t_nc = 3 * b * b * (b - 1) // 2 + 2 * b * b
    t_ce = b * (b - 1) * (b - 2) // 2 + 2 * b * (b - 1) + b
    assert 4 * t_off + 3 * t_nc + t_ce == 29664
    assert 4 * t_off + 3 * t_nc == 28728
    for c in pred.per_proc:
        expected = 29664 if part.D[c.p - 1] else 28728
        assert c.ternary_mults == expected
    assert pred.total_ternary == ternary_count(120)


def test_predicted_ternary_counts_q2(setup_q2):
    part, layout = setup_q2
    pred = compute_report(part, layout)
    for c in pred.per_proc:
        expected = 1458 if part.D[c.p - 1] else 1332
        assert c.ternary_mults == expected
    assert pred.total_ternary == ternary_count(30) == 13950


def test_predicted_volumes_match_closed_form(setup_q3):
    part, layout = setup_q3
    pred = compute_report(part, layout)
    q, P, n = part.q, part.P, layout.n
    expected = n * (q + 1) // (q * q + 1) - n // P
    assert all(c.send_words_per_vector == expected == 44 for c in pred.per_proc)
    assert pred.alltoall_per_vector == 58


@pytest.mark.parametrize("design", ["q2", "q3", "q4", "steiner_8_4_3", "steiner_10_4_3"])
def test_closed_form_send_volume_equals_demands(design):
    if design.startswith("q"):
        system = steiner.construct_spherical(int(design[1:]))
    else:
        system = steiner.load(fixtures_dir() / f"{design}.txt")
    part = build_partition(system)
    layout = vector_layout(3 * pad_dimension(1, part), part)  # chunk = 3
    demands = build_demands(part)
    from_demands = Counter()
    for p, shared in zip(demands.src.tolist(), demands.shared.tolist()):
        from_demands[p] += shared * layout.chunk
    pred = compute_report(part, layout)
    assert {c.p: c.send_words_per_vector for c in pred.per_proc} == dict(from_demands)


def test_measured_equals_predicted_everywhere(setup_q3):
    part, layout = setup_q3
    tensor = random_symmetric(120, 17)
    x = random_vector(120, 18)
    _, report = simulate(tensor, x, part, layout, "p2p")
    pred = compute_report(part, layout)
    for c, pc in zip(report.per_proc, pred.per_proc):
        assert c.ternary_mults == pc.ternary_mults
        assert c.tensor_elems == pc.tensor_elems
        assert c.sent_x == pc.send_words_per_vector


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["p2p", "alltoall"])
def test_verify_run_passes(setup_q2, mode):
    part, layout = setup_q2
    verdict = verify_run(random_symmetric(30, 11), random_vector(30, 12), part, layout, mode)
    assert verdict.passed, [c.name for c in verdict.checks if not c.passed]


EXACT_CHECKS = {"ternary_counts_exact", "tensor_elements_exact", "send_volume_exact", "total_ternary_matches_sequential"}


@settings(max_examples=50, deadline=None)
@given(
    design=st.sampled_from(["q2", "appendix"]),
    n=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["p2p", "alltoall"]),
)
def test_verify_run_exact_for_random_seeds_and_chunk_sizes(setup_q2, setup_appendix, design, n, seed, mode):
    part = (setup_q2 if design == "q2" else setup_appendix)[0]
    layout = vector_layout(pad_dimension(n, part), part)
    verdict = verify_run(random_symmetric(layout.n, seed), random_vector(layout.n, seed + 1), part, layout, mode)
    assert verdict.passed, verdict.problems
    assert EXACT_CHECKS <= {c.name for c in verdict.checks}


@pytest.mark.parametrize("design", ["q2", "appendix"])
def test_verify_run_catches_a_miscounted_block(setup_q2, setup_appendix, design, monkeypatch):
    # one more stored element and ternary product on the first block than the kernel counts
    part, layout = setup_q2 if design == "q2" else setup_appendix
    tensor, x = random_symmetric(layout.n, 11), random_vector(layout.n, 12)
    predicted = compute_report(part, layout)
    real = simulator.block_counts

    def miscounted(n, width, blocks):
        elems, ternary = real(n, width, blocks)
        elems[0] += 1
        ternary[0] += 1
        return elems, ternary

    monkeypatch.setattr(simulator, "block_counts", miscounted)
    verdict = verify_run(tensor, x, part, layout)
    owner = int(owned_blocks(part)[0][0])
    for name in ("ternary_counts_exact", "tensor_elements_exact"):
        check = verdict.check(name)
        assert not check.passed and check.detail == f"mismatched processors: [{owner}]"
    assert not verdict.check("total_ternary_matches_sequential").passed
    assert verdict.check("send_volume_exact").passed and verdict.check("output_matches_sequential").passed
    assert verdict.predicted == predicted == compute_report(part, layout)


def test_verify_run_detects_moved_block(setup_q2):
    part, layout = setup_q2
    bad = copy.deepcopy(part)
    bad.N = list(bad.N)
    bad.N[1] = np.concatenate([bad.N[1], bad.N[0][-1:]])
    bad.N[0] = bad.N[0][:-1]
    verdict = verify_run(random_symmetric(30, 11), random_vector(30, 12), bad, layout)
    assert not verdict.passed
    assert not verdict.check("partition_invariants").passed


def test_verify_run_detects_duplicated_block(setup_q2):
    part, layout = setup_q2
    bad = copy.deepcopy(part)
    bad.N = list(bad.N)
    bad.N[0] = np.concatenate([bad.N[0], bad.N[1][:1]])
    verdict = verify_run(random_symmetric(30, 11), random_vector(30, 12), bad, layout)
    assert not verdict.passed


def test_report_json_schema(setup_q2):
    part, layout = setup_q2
    _, report = simulate(random_symmetric(30, 1), random_vector(30, 2), part, layout, "p2p")
    obj = report.to_json_obj()
    assert set(obj) == {"per_processor", "global"}
    row = obj["per_processor"][0]
    assert set(row) == {"id", "words_sent", "words_received", "ternary_mults", "tensor_elems"}
    assert {"max_volume", "steps_per_vector", "mode", "verdicts"} <= set(obj["global"])


def test_reduction_deterministic(setup_q2):
    part, layout = setup_q2
    tensor = random_symmetric(30, 7)
    x = random_vector(30, 8)
    y1, _ = simulate(tensor, x, part, layout, "p2p")
    y2, _ = simulate(tensor, x, part, layout, "p2p")
    assert np.array_equal(y1, y2)


def test_dropped_schedule_step_fails_schedule_valid(setup_q2, monkeypatch):
    part, layout = setup_q2
    dropped = []

    def drop_first_step(demands):
        sched = build_schedule(demands)
        dropped.extend(enumerate(sched.steps[0].tolist(), start=1))
        return CommSchedule(sched.steps[1:], demands, sched.meta)

    monkeypatch.setattr(simulator, "build_schedule", drop_first_step)
    verdict = verify_run(random_symmetric(30, 11), random_vector(30, 12), part, layout)
    check = verdict.check("schedule_valid")
    assert not check.passed
    blocks = {(d.src, d.dst): d.blocks for d in demand_rows(build_demands(part))}
    for src, dst in dropped:
        assert f"demand {src}->{dst} blocks {blocks[src, dst]} scheduled 0 times, expected 1" in check.detail
    assert not verdict.check("gather_complete").passed
    assert not verdict.passed
    assert isinstance(verdict, Report)


def test_repeated_schedule_step_is_reduced_once(setup_q2, monkeypatch):
    part, layout = setup_q2

    def repeat_first_step(demands):
        sched = build_schedule(demands)
        return CommSchedule(sched.steps[:1] + sched.steps, demands, sched.meta)

    monkeypatch.setattr(simulator, "build_schedule", repeat_first_step)
    verdict = verify_run(random_symmetric(30, 11), random_vector(30, 12), part, layout)
    passed = {c.name: c.passed for c in verdict.checks}
    # the repeated messages count twice, but the reduce adds each sender's partial once
    assert not passed["schedule_valid"] and not passed["send_volume_exact"]
    assert passed["gather_complete"] and passed["output_matches_sequential"]


# ---------------------------------------------------------------------------
# array replay against the message-by-message replay
# ---------------------------------------------------------------------------


def assert_same_run(got, want):
    (y, report), (y_ref, counters, steps, checks) = got, want
    assert y.tobytes() == y_ref.tobytes()
    assert report.per_proc == counters
    assert all(type(v) is int for c in report.per_proc for v in vars(c).values())
    assert report.steps_per_vector == steps
    assert report.checks == checks


@pytest.mark.parametrize("mode", ["p2p", "alltoall"])
@pytest.mark.parametrize(
    "design,n", [pytest.param(d, n, id=f"{d}-{n}") for d, n in [("q2", 30), ("q2", 60), ("q3", 120), ("appendix", 56)]]
)
def test_array_replay_equals_message_replay(setup_q2, setup_q3, setup_appendix, design, n, mode):
    part = {"q2": setup_q2, "q3": setup_q3, "appendix": setup_appendix}[design][0]
    layout = vector_layout(n, part)
    tensor, x = random_symmetric(n, n + 1), random_vector(n, n + 2)
    assert_same_run(simulate(tensor, x, part, layout, mode), simulate_by_messages(tensor, x, part, layout, mode))


@pytest.mark.parametrize("mode", ["p2p", "alltoall"])
def test_simulate_holds_one_block_at_a_time(setup_q3, mode):
    # the tensor is 62.7 MB at n = 360 and one block of b = 36 rows 0.37 MB;
    # the streamed gather holds one block at a time, so the peak is the
    # schedule and the (P, n) vector copies plus a few blocks
    part, _ = setup_q3
    layout = vector_layout(360, part)
    tensor, x = random_symmetric(360, 1), random_vector(360, 2)
    tracemalloc.start()
    try:
        simulate(tensor, x, part, layout, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = layout.b**3 * 8
    assert peak < 10 * block, (peak, block)


def drop_first_step(demands):
    sched = build_schedule(demands)
    return CommSchedule(sched.steps[1:], demands, sched.meta)


def repeat_last_step(demands):
    sched = build_schedule(demands)
    return CommSchedule(sched.steps + sched.steps[-1:], demands, sched.meta)


@pytest.mark.parametrize("builder", [drop_first_step, repeat_last_step])
def test_array_replay_equals_message_replay_on_broken_schedules(setup_q3, monkeypatch, builder):
    part, layout = setup_q3
    tensor, x = random_symmetric(120, 5), random_vector(120, 6)
    monkeypatch.setattr(simulator, "build_schedule", builder)
    got = simulate(tensor, x, part, layout, "p2p")
    assert_same_run(got, simulate_by_messages(tensor, x, part, layout, "p2p", schedule_builder=builder))
    checks = {c.name: c.passed for c in got[1].checks}
    assert not checks["schedule_valid"]
    assert checks["gather_complete"] == (builder is repeat_last_step)


def test_simulate_rejects_a_layout_of_other_chunk_holders(setup_q2):
    part, layout = setup_q2
    assert layout == VectorLayout(30, 5, 6, 1)
    tensor, x = random_symmetric(30, 1), random_vector(30, 2)
    # a wrong number of row blocks, row-block width or chunk width
    for m, b, chunk in ((6, 6, 1), (5, 5, 1), (5, 6, 2), (5, 6, 3)):
        other = VectorLayout(30, m, b, chunk)
        with pytest.raises(ValueError, match=r"is not vector_layout\(30, part\)"):
            simulate(tensor, x, part, other, "p2p")
