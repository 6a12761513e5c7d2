import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import construct_spherical_by_field_ops, generators_by_field_ops, mobius_cycle_by_field_ops, verify_by_counter

from tetracomm import steiner
from tetracomm.cli import fixtures_dir
from tetracomm.finite_field import field_new, prime_power

FIX_10 = fixtures_dir() / "steiner_10_4_3.txt"
FIX_8 = fixtures_dir() / "steiner_8_4_3.txt"


def brute_triple_cover_ok(system):
    """Independent coverage oracle: count every 3-subset by enumeration."""
    counts = {}
    for blk in system.blocks:
        for t in combinations(blk, 3):
            counts[t] = counts.get(t, 0) + 1
    return all(counts.get(t, 0) == 1 for t in combinations(range(1, system.n + 1), 3))


# ---------------------------------------------------------------------------
# spherical construction
# ---------------------------------------------------------------------------


def test_q2_is_all_triples_of_five_points():
    system = steiner.construct_spherical(2)
    assert system.n == 5 and system.r == 3
    assert system.blocks == sorted(combinations(range(1, 6), 3))
    assert len(system.blocks) == 10  # q(q^2+1)


def test_q3_counts():
    system = steiner.construct_spherical(3)
    assert system.n == 10 and system.r == 4
    assert len(system.blocks) == 30
    point_counts = {x: sum(x in blk for blk in system.blocks) for x in range(1, 11)}
    assert set(point_counts.values()) == {12}
    assert brute_triple_cover_ok(system)


@pytest.mark.parametrize("q", [q for q in range(2, steiner.Q_CAP + 1) if prime_power(q)])
def test_constructed_systems_verify(q):
    system = steiner.construct_spherical(q)
    assert len(system.blocks) == q * (q * q + 1)
    report = steiner.verify(system)
    assert report.passed, [c.name for c in report.checks if not c.passed]


# sha256 of steiner.save output for every q up to the cap, as built by the former
# walk over all ~q^6 normalised fractional-linear maps
DESIGN_SHA256 = {
    2: "4db435bad0aa5c1c5253e3dfe0b76d8e1653e82667838b5301d69e1aef073612",
    3: "28c95180b9b82c9d22d4459ac00ca07aa82dd760f93b3099d27614673c227aa7",
    4: "bca81a842e6dd3d862594787dc181678183e07f5165eda45cd212dcde9459b3e",
    5: "0fc1616d9ea02a833c12aa05c35add3cc5446525a719797d4bc786220bf93cac",
    7: "35d087537f7ca591017d322bbf3cee18d48fbfbe7761576d3c889d58a4a0403d",
    8: "2b54d63ca5c968c873452bde594840d7c40418fc2f658204c49c92c25be45f0a",
    9: "7d835ed81362aa79a9fbfb26cd11699ae04ea890d12ad6a9978774c52f5bdb02",
    11: "7d24710bb923cc971c2f7718366d3f1441cee7a1fdd78cbb3c6b34959d42072f",
    13: "7b24f56b4c00c22d805ce01e288224925d1ace91fc4660947ba2cf0ad9db4d87",
    16: "9cc71aa5abdb6ca65dc699d11b5276002fd0cd0a741fc59bc9a5e26aa06c1264",
}


@pytest.mark.parametrize("q", [q for q in range(2, steiner.Q_CAP + 1) if prime_power(q)])
def test_design_file_pinned_for_every_q_up_to_cap(tmp_path, q):
    path = tmp_path / "design.txt"
    steiner.save(steiner.construct_spherical(q), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESIGN_SHA256[q]


@pytest.mark.parametrize("q", [q for q in range(2, 10) if prime_power(q)])
def test_generator_tables_equal_the_field_operations(q):
    # x+1, wx and 1/x read from the exp/log tables against Field.add, Field.mul and Field.inv
    p, k = prime_power(q)
    maps, base = steiner._generators(q)
    *expected, expected_base = generators_by_field_ops(field_new(p, 2 * k), q)
    assert maps.tolist() == expected
    assert base == list(expected_base)


@pytest.mark.parametrize("q", [q for q in range(2, steiner.Q_CAP + 1) if prime_power(q)])
def test_mobius_cycle_is_one_cycle_that_maps_blocks_to_blocks(q):
    g = steiner.mobius_cycle(q)
    n = q * q + 1
    assert sorted(g.tolist()) == list(range(n))
    x, length = int(g[0]), 1
    while x != 0:
        x, length = int(g[x]), length + 1
    assert length == n
    blocks = np.array(steiner.construct_spherical(q).blocks) - 1
    assert set(map(tuple, np.sort(g[blocks], axis=1).tolist())) == set(map(tuple, blocks.tolist()))


@pytest.mark.parametrize("q", [q for q in range(2, 10) if prime_power(q)])
def test_mobius_cycle_equals_the_field_operations(q):
    # x -> 1/(w^j x + 1) for the least j that is one cycle, by Field.add, Field.mul and Field.inv
    assert steiner.mobius_cycle(q).tolist() == mobius_cycle_by_field_ops(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mobius_orbits_of_the_spherical_design(q):
    # π is h on the blocks, and every orbit of π is one of length L = (q^2+1)/gcd(2, q-1)
    blocks = np.array(steiner.construct_spherical(q).blocks) - 1
    h, members = steiner.mobius_orbits(blocks, q * q + 1)
    g = steiner.mobius_cycle(q)
    assert np.array_equal(h, g[g] if q % 2 else g)
    e = 2 if q % 2 else 1
    assert members.shape == (e * q, (q * q + 1) // e)
    assert sorted(members.ravel().tolist()) == list(range(1, len(blocks) + 1))
    assert members[:, 0].tolist() == sorted(members.min(axis=1).tolist())
    assert np.array_equal(blocks[np.roll(members, -1, axis=1) - 1], np.sort(h[blocks[members - 1]], axis=2))


@pytest.mark.parametrize(
    "blocks,m",
    [
        (np.array(steiner.construct_spherical(3).blocks)[:-1] - 1, 10),  # P != q·m
        (np.sort(np.array([1, 0, *range(2, 10)])[np.array(steiner.construct_spherical(3).blocks) - 1], axis=1), 10),  # points 0 and 1 swapped
        (np.zeros((0, 3), dtype=np.int64), 1),  # no points
        (np.tile(np.arange(7), (222, 1)), 37),  # q = 6 is no prime power
    ],
    ids=["short", "relabelled", "empty", "q6"],
)
def test_mobius_orbits_fall_back_to_the_trivial_group(blocks, m):
    h, members = steiner.mobius_orbits(blocks, m)
    assert h.tolist() == list(range(m))
    assert members.tolist() == [[p] for p in range(1, len(blocks) + 1)]


@pytest.mark.parametrize("q", [q for q in range(2, steiner.Q_CAP + 1) if prime_power(q)])
def test_construction_equals_the_field_operation_oracle(q):
    assert steiner.construct_spherical(q) == construct_spherical_by_field_ops(q)


def test_construction_deterministic():
    assert steiner.construct_spherical(3) == steiner.construct_spherical(3)


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        steiner.construct_spherical(6)


@pytest.mark.parametrize("q", [17, 256])
def test_q_above_cap_rejected_before_any_table(q, monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("field tables were built before the request was rejected")

    monkeypatch.setattr(steiner, "field_new", no_field)
    with pytest.raises(ValueError, match="cap"):
        steiner.construct_spherical(q)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_fixture_10_4_3_verifies_with_expected_counts():
    system = steiner.load(FIX_10)
    report = steiner.verify(system)
    assert report.passed
    assert report.check("pair_count").detail == "expected 4"
    assert report.check("point_count").detail == "expected 12"
    assert len(system.blocks) == 30


def test_fixture_8_4_3_verifies_with_expected_counts():
    system = steiner.load(FIX_8)
    assert system.n == 8 and system.r == 4
    assert len(system.blocks) == 14
    report = steiner.verify(system)
    assert report.passed
    assert report.check("pair_count").detail == "expected 3"
    assert report.check("point_count").detail == "expected 7"


def test_removed_block_fails_triple_coverage_with_witness():
    system = steiner.load(FIX_10)
    removed = system.blocks.pop(0)
    report = steiner.verify(system)
    assert not report.passed
    cov = report.check("triple_coverage")
    assert not cov.passed
    assert cov.detail == f"expected 1, got 0 at {tuple(removed[:3])}"


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    system = steiner.construct_spherical(2)
    path = tmp_path / "sys.txt"
    steiner.save(system, path)
    assert steiner.load(path) == system


def test_load_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("steinr 5 3 3\n1 2 3\n")
    with pytest.raises(steiner.SteinerParseError) as err:
        steiner.load(path)
    assert err.value.line == 1


def test_load_malformed_block_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("steiner 5 3 3\n1 2 3\n1 2\n")
    with pytest.raises(steiner.SteinerParseError) as err:
        steiner.load(path)
    assert err.value.line == 3


def test_load_rejects_invalid_system(tmp_path):
    text = Path(FIX_10).read_text().splitlines()
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(text[:-1]) + "\n")  # drop one block
    with pytest.raises(steiner.SteinerInvariantError) as err:
        steiner.load(path)
    assert not err.value.report.passed


def test_load_rejects_unsorted_block(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("steiner 5 3 3\n3 2 1\n")
    with pytest.raises(steiner.SteinerParseError):
        steiner.load(path)


def test_verify_huge_n_walks_no_further_than_the_blocks_reach():
    report = steiner.verify(steiner.SteinerSystem(10**12, 7, []))
    assert not report.passed
    assert report.check("triple_coverage").detail == "expected 1, got 0 at (1, 2, 3)"


def test_bounded_witness_walk_names_the_first_witness():
    system = steiner.load(FIX_10)
    system.n = 40  # the blocks reach point 10; points 11..40 lie in no block
    report = steiner.verify(system)
    for name, k in (("triple_coverage", 3), ("pair_count", 2), ("point_count", 1)):
        expected = Fraction(comb(40 - k, 3 - k), comb(4 - k, 3 - k))
        counts = Counter(s for blk in system.blocks for s in combinations(blk, k))
        witness = next(s for s in combinations(range(1, 41), k) if counts[s] != expected)
        assert report.check(name).detail == f"expected {expected}, got {counts[witness]} at {witness}"
    assert report.check("triple_coverage").detail == "expected 1, got 0 at (1, 2, 11)"


def test_verify_reports_blocks_too_small_for_a_triple():
    report = steiner.verify(steiner.SteinerSystem(5, 2, [(1, 2)]))
    assert not report.passed
    assert not report.check("block_size").passed


@pytest.mark.parametrize("n", [2, 0, -1])
def test_verify_reports_too_few_points_for_a_triple(n):
    report = steiner.verify(steiner.SteinerSystem(n, 3, []))
    assert not report.passed
    assert report.problems == [f"point_set_size: expected n >= 3, got {n}"]


@pytest.mark.parametrize("header", ["steiner 258 16 3", "steiner 478 240 3", "steiner 1000000000 4 3"])
def test_load_rejects_n_above_cap_before_verifying(tmp_path, monkeypatch, header):
    def no_verify(system):
        raise AssertionError("verify ran on a header above the cap")

    monkeypatch.setattr(steiner, "verify", no_verify)
    path = tmp_path / "big.txt"
    path.write_text(header + "\n" + " ".join(str(x) for x in range(1, 17)) + "\n")
    with pytest.raises(steiner.SteinerParseError, match="cap 257") as err:
        steiner.load(path)
    assert err.value.line == 1


def test_verify_does_not_count_overfull_blocks(monkeypatch):
    system = steiner.load(FIX_8)
    system.blocks.append(system.blocks[0])  # 15 blocks of 4 triples each, 8 points have 56 triples

    def no_subsets(*args):
        raise AssertionError("verify enumerated subsets of an overfull system")

    monkeypatch.setattr(steiner, "combinations", no_subsets)
    report = steiner.verify(system)
    assert report.check("triple_coverage").detail == (
        "expected 1, but the blocks hold 60 triples, more than 1 for each of the 56 triples of 1..8:"
        " some triple is covered more often"
    )
    assert not report.check("pair_count").passed and not report.check("point_count").passed
    assert report.check("block_count").detail == "expected 14, got 15"
    assert report.check("block_shape").passed


def test_verify_walks_no_further_than_the_first_missing_point():
    # the walk stops by (1, 2, 7), the first triple holding point 7, which no block holds;
    # a walk over all triples of 1..10**9 + 3 would not fit in memory
    report = steiner.verify(steiner.SteinerSystem(10**12, 7, [(1, 2, 3, 4, 5, 6, 10**9)]))
    assert report.check("triple_coverage").detail == "expected 1, got 0 at (1, 2, 7)"
    assert report.check("pair_count").detail == "expected 999999999998/5, got 1 at (1, 2)"


def test_verify_codes_points_past_int64_as_python_ints():
    # (n + 1)**3 exceeds 2**63, so the subset codes are Python ints
    system = steiner.SteinerSystem(3 * 10**6, 3, [(1, 2, 3), (2, 3, 2 * 10**6), (1, 5, 3 * 10**6)])
    assert steiner.verify(system).to_json_obj() == verify_by_counter(system).to_json_obj()


Q3 = steiner.construct_spherical(3)


def corrupt_design(data, system: steiner.SteinerSystem) -> steiner.SteinerSystem:
    """A copy of system with one to three corruptions drawn from data."""
    blocks, n, r = [list(blk) for blk in system.blocks], system.n, system.r
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["drop", "duplicate", "replace", "out_of_range", "repeat", "unsort", "ragged", "r", "n"]))
        e = data.draw(st.integers(0, len(blocks) - 1)) if blocks else None
        if kind == "r":
            r = data.draw(st.integers(-1, 2))
        elif kind == "n":
            n = data.draw(st.sampled_from([-1, 0, 1, 2, 3, 9, 11, 40]))
        elif e is None:
            continue
        elif kind == "drop":
            blocks.pop(e)
        elif kind == "duplicate":
            blocks.insert(data.draw(st.integers(0, len(blocks))), list(blocks[e]))
        elif kind == "replace":
            size = max(r, 0)  # a corrupted r may be negative
            blocks[e] = sorted(data.draw(st.sets(st.integers(1, system.n), min_size=size, max_size=size)))
        elif kind == "out_of_range":
            blocks[e].insert(data.draw(st.integers(0, len(blocks[e]))), data.draw(st.sampled_from([-1, 0, 11, 12, 40])))
        elif kind == "repeat" and blocks[e]:
            blocks[e].insert(data.draw(st.integers(0, len(blocks[e]))), data.draw(st.sampled_from(blocks[e])))
        elif kind == "unsort":
            blocks[e] = data.draw(st.permutations(blocks[e]))
        elif kind == "ragged" and blocks[e]:
            blocks[e].pop(data.draw(st.integers(0, len(blocks[e]) - 1)))
    return steiner.SteinerSystem(n, r, [tuple(blk) for blk in blocks])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_matches_the_counter_walk_on_corrupted_designs(data):
    system = corrupt_design(data, Q3)
    assert steiner.verify(system).to_json_obj() == verify_by_counter(system).to_json_obj()
