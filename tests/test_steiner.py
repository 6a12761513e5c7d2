from itertools import combinations
from pathlib import Path

import pytest

from tetracomm import steiner
from tetracomm.cli import fixtures_dir

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


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_constructed_systems_verify(q):
    system = steiner.construct_spherical(q)
    assert len(system.blocks) == q * (q * q + 1)
    report = steiner.verify(system)
    assert report.passed, [c.name for c in report.checks if not c.passed]


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


# ---------------------------------------------------------------------------
# divisibility predicate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,r,expected",
    [(10, 4, True), (8, 4, True), (9, 4, False), (5, 3, True), (26, 6, True), (7, 4, False)],
)
def test_divisibility(n, r, expected):
    assert steiner.divisibility_ok(n, r) is expected


def test_verify_reports_blocks_too_small_for_a_triple():
    report = steiner.verify(steiner.SteinerSystem(5, 2, [(1, 2)]))
    assert not report.passed
    assert not report.check("block_size").passed


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
