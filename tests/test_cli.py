import json

import pytest

from tetracomm import bounds, simulator
from tetracomm.cli import fixtures_dir, main
from tetracomm.schedule import CommSchedule, build_schedule


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# steiner subcommands
# ---------------------------------------------------------------------------


def test_steiner_construct_writes_file(tmp_path, capsys):
    path = tmp_path / "s.txt"
    code, obj = run_json(capsys, "steiner", "construct", "--q", "3", "-o", str(path))
    assert code == 0
    assert obj["blocks"] == 30 and obj["verified"]
    lines = path.read_text().splitlines()
    assert lines[0] == "steiner 10 4 3"
    assert len(lines) == 31


def test_steiner_construct_rejects_non_prime_power(capsys):
    assert main(["steiner", "construct", "--q", "6"]) == 2


def test_steiner_construct_rejects_q_above_cap(capsys):
    assert main(["steiner", "construct", "--q", "256"]) == 2
    assert capsys.readouterr().out == ""


def test_steiner_verify_fixture(capsys):
    code, obj = run_json(capsys, "steiner", "verify", str(fixtures_dir() / "steiner_8_4_3.txt"))
    assert code == 0
    assert obj["passed"]


def test_steiner_verify_failure_exits_nonzero(tmp_path, capsys):
    good = (fixtures_dir() / "steiner_10_4_3.txt").read_text().splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(good[:-1]) + "\n")
    code, obj = run_json(capsys, "steiner", "verify", str(bad))
    assert code == 1
    assert not obj["passed"]


def test_steiner_fixtures_lists_shipped_files(capsys):
    code, obj = run_json(capsys, "steiner", "fixtures")
    assert code == 0
    assert {"steiner_10_4_3.txt", "steiner_8_4_3.txt"} <= set(obj["files"])


def test_fixtures_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TETRACOMM_FIXTURES", str(tmp_path))
    (tmp_path / "custom.txt").write_text("steiner 5 3 3\n")
    code, obj = run_json(capsys, "steiner", "fixtures")
    assert code == 0
    assert obj["dir"] == str(tmp_path)
    assert obj["files"] == ["custom.txt"]


# ---------------------------------------------------------------------------
# partition / schedule
# ---------------------------------------------------------------------------


def test_partition_q3_shape(capsys):
    code, obj = run_json(capsys, "partition", "--q", "3", "--n", "120")
    assert code == 0
    assert len(obj["processors"]) == 30
    assert all(len(row["N"]) == 3 for row in obj["processors"])
    assert len(obj["row_blocks"]) == 10


def test_partition_reports_padding(capsys):
    code, obj = run_json(capsys, "partition", "--q", "3", "--n", "100")
    assert code == 0
    assert obj["meta"]["n_requested"] == 100
    assert obj["meta"]["n"] == 120
    assert obj["meta"]["padded"] is True


def test_partition_requires_exactly_one_design(capsys):
    assert main(["partition", "--n", "30"]) == 2
    assert main(["partition", "--q", "2", "--design", "x.txt", "--n", "30"]) == 2


@pytest.mark.parametrize("command", ["partition", "schedule"])
def test_format_flag_removed_from_json_only_commands(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "2", "--format", "json"])
    assert exc.value.code == 2


def test_schedule_q2(capsys):
    code, obj = run_json(capsys, "schedule", "--q", "2", "--n", "30")
    assert code == 0
    assert obj["meta"]["steps"] == 9
    assert obj["meta"]["valid"] is True
    assert obj["meta"]["words_per_step"] == [2, 2, 2, 2, 2, 2, 1, 1, 1]


def test_schedule_from_design_file(capsys):
    code, obj = run_json(capsys, "schedule", "--design", str(fixtures_dir() / "steiner_8_4_3.txt"))
    assert code == 0
    assert obj["meta"]["steps"] == 12


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_q2_p2p(capsys):
    code, obj = run_json(capsys, "simulate", "--q", "2", "--n", "30", "--seed", "11", "--mode", "p2p")
    assert code == 0
    assert obj["verdict"]["passed"]
    assert obj["report"]["global"]["max_volume"] == 30


def test_simulate_alltoall(capsys):
    code, obj = run_json(capsys, "simulate", "--q", "2", "--n", "30", "--seed", "11", "--mode", "alltoall")
    assert code == 0
    assert obj["report"]["per_processor"][0]["words_sent"] == 36


def test_simulate_csv_volume_table(capsys):
    code, out = run(capsys, "simulate", "--q", "2", "--n", "30", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,words_sent,words_received,ternary_mults,tensor_elems"
    assert len(lines) == 11


def test_simulate_pads_dimension(capsys):
    code, obj = run_json(capsys, "simulate", "--q", "2", "--n", "29", "--seed", "7")
    assert code == 0
    assert obj["n_requested"] == 29 and obj["n"] == 30
    assert obj["verdict"]["passed"]


def test_simulate_deterministic_bytes(capsys):
    args = ["simulate", "--q", "2", "--n", "30", "--seed", "11"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# bounds / drivers / fuzz
# ---------------------------------------------------------------------------


def test_bounds_command(capsys):
    code, obj = run_json(capsys, "bounds", "--n", "120", "--p", "30")
    assert code == 0
    assert obj["lower_bound"] == pytest.approx(2 * (120 * 119 * 118 / 30) ** (1 / 3) - 8)
    assert obj["opt_point"][0] == pytest.approx(120 * 119 * 118 / 180)


def test_bounds_with_ratio(capsys):
    code, obj = run_json(capsys, "bounds", "--n", "1000000", "--p", "30", "--q", "3")
    assert code == 0
    assert obj["optimality_ratio"] == pytest.approx(1.2429, abs=1e-3)


def test_hopm_command(capsys):
    code, obj = run_json(capsys, "hopm", "--n", "20", "--seed", "3", "--tol", "1e-10")
    assert code == 0
    assert {"lambda", "iterations", "converged", "x"} <= set(obj)
    assert len(obj["x"]) == 20


def test_cpgrad_command(capsys):
    code, obj = run_json(capsys, "cpgrad", "--n", "6", "--r", "2", "--seed", "5")
    assert code == 0
    assert len(obj["gradient"]) == 6
    assert obj["gradient_norm"] > 0


def test_hbl_fuzz_command(capsys):
    code, obj = run_json(capsys, "hbl-fuzz", "--count", "200", "--seed", "1")
    assert code == 0
    assert obj["basic_violations"] == 0
    assert obj["symmetric_violations"] == 0


def test_output_file_flag(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--n", "30", "--p", "10", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["P"] == 10


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--q", "2", "--n", "-5"],
        ["partition", "--q", "2", "--n", "0"],
        ["schedule", "--q", "2", "--n", "0"],
        ["simulate", "--q", "2", "--n", "-5", "--seed", "1"],
    ],
)
def test_nonpositive_n_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_hbl_fuzz_rejects_more_points_than_exist(monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("points were drawn before the request was rejected")

    monkeypatch.setattr(bounds, "random_point_set", no_draws)
    monkeypatch.setattr(bounds, "random_strict_point_set", no_draws)
    assert main(["hbl-fuzz", "--count", "1", "--seed", "1", "--points", "2", "--max-coord", "3"]) == 2


def test_steiner_verify_rejects_n_above_cap(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("steiner 478 240 3\n" + " ".join(str(x) for x in range(1, 241)) + "\n")
    assert main(["steiner", "verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: n=478 exceeds the cap 257" in captured.err


def test_simulate_reports_a_dropped_schedule_step(monkeypatch, capsys):
    monkeypatch.setattr(simulator, "build_schedule", lambda d: CommSchedule(build_schedule(d).steps[1:]))
    code, obj = run_json(capsys, "simulate", "--q", "2", "--n", "30", "--seed", "11")
    assert code == 1
    failed = {c["name"] for c in obj["verdict"]["checks"] if not c["passed"]}
    assert {"schedule_valid", "gather_complete"} <= failed
    assert obj["report"]["global"]["verdicts"]["schedule_valid"] is False
