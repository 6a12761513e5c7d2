import hashlib
import json
import os
import shlex
import subprocess
import sys
from math import isfinite
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tetracomm import bounds, cli, simulator, steiner
from tetracomm.cli import fixtures_dir, main
from tetracomm.finite_field import prime_power
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
    with pytest.raises(SystemExit) as exc:
        main(["steiner", "construct", "--q", "6"])
    assert exc.value.code == 2
    assert "argument --q: 6 is not a prime power" in capsys.readouterr().err


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


@pytest.mark.parametrize("dropped,code", [(0, 0), (1, 1)])
def test_steiner_verify_verifies_once(tmp_path, capsys, monkeypatch, dropped, code):
    calls = []

    def counted(system, verify=steiner.verify):
        calls.append(system)
        return verify(system)

    monkeypatch.setattr(steiner, "verify", counted)
    lines = (fixtures_dir() / "steiner_10_4_3.txt").read_text().splitlines()
    path = tmp_path / "s.txt"
    path.write_text("\n".join(lines[: len(lines) - dropped]) + "\n")
    got, obj = run_json(capsys, "steiner", "verify", str(path))
    assert (got, obj["passed"]) == (code, code == 0)
    assert len(calls) == 1


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_computes_the_prediction_once(fmt, monkeypatch, capsys):
    calls = []
    real = simulator.compute_report

    def counted(part, layout):
        calls.append(part.P)
        return real(part, layout)

    monkeypatch.setattr(simulator, "compute_report", counted)
    monkeypatch.setattr(cli, "compute_report", counted)
    code, _ = run(capsys, "simulate", "--q", "2", "--n", "30", "--seed", "11", "--format", fmt)
    assert code == 0
    assert calls == [10]


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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of integer-valued output; a change to the design, partition, demands
# or schedule order moves them.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (("schedule", "--q", "3", "--n", "120"), "6e2862921a75d373916a7787485dc9fd1acfbcdeeac9c8a1503ea05b5dc6ce17"),
        (("schedule", "--design", "steiner_10_4_3.txt"), "bd47d2d07bb85ec55d04fa40a2d791949a9e22666875d9e1bad9ac2c4536ae2a"),
        (("schedule", "--design", "steiner_8_4_3.txt"), "5c4051a79c62eda30cb1f877b18df372f6dd858ab0fb0bc66bfe18c945901a48"),
        (("partition", "--q", "7", "--n", "2800"), "bd040cc3eac00156b9180b3980e03b5bdd811391b254ccbaec047c9be2c1c734"),
        (("partition", "--q", "4", "--n", "340"), "63256d9c1e008779df05b22dd759c795de50a72526b861fb9ac37e158953d070"),
        (("partition", "--design", "steiner_8_4_3.txt"), "9178f175d9460130af8fc9b0b4b224300ab044745ac109752a59422eee69df25"),
        (("partition", "--design", "steiner_10_4_3.txt"), "55f657203570032cc8e3b7aa68ea41aa2cfd78baa4c19fd57d54fa00d8d379cb"),
        (("partition", "--q", "2"), "df9550799f30e45b727c6ef16f6ac94618622dea318f9f19c832e1145c69cd4b"),
        (("partition", "--q", "2", "--n", "30"), "7fc9a21ad656cbc8ba1a8bbaece4e113e1923730821b4cd2fc1a5dd231274519"),
        (("partition", "--q", "3"), "4cb793bbd2e70737d34ae85aa89762929277e3e67f6ed1abd325101eb159e04c"),
        (("partition", "--q", "3", "--n", "120"), "52aa22f9ee793f88e02220f4a964d94ac2b8a6e49c597369c956b7d75796c9fb"),
        (("partition", "--q", "5"), "155b6194850527f344a5aec90b93955cf38fad48df03cfe48ba93c3393595f77"),
        (("partition", "--q", "5", "--n", "780"), "57d95abc1d709f62c33fbaaf99a5545f35a4e438a074cdf20cfbe84ce0f31864"),
        (("partition", "--q", "8"), "06ae993671cc7327ad932a39925bfc298490cbbbc3101999322ae34adba836fb"),
        (("partition", "--q", "8", "--n", "4680"), "2958b75b0d92ea879e5f2fb8d3ae1edabee88230c1fc5e162e8bcdd83eabbb7c"),
        (("partition", "--q", "9"), "d3dc1f774d602805608aeebf90506a223854aa3974e1105f1b2994da484c62e5"),
        (("partition", "--q", "9", "--n", "7380"), "5856c5ee2e65586bf4a466dbf81946fa801b68e5dc69280b6cb6d46cad17433e"),
    ],
)
def test_integer_output_pinned(argv, digest, capsys):
    if argv[1] == "--design":
        argv = (argv[0], argv[1], str(fixtures_dir() / argv[2]))
    code, out = run(capsys, *argv)
    assert code == 0
    assert sha256(out) == digest


# The report object holds only exact counters; the verdict's details hold
# floats whose last digits depend on the BLAS build, so only names and
# outcomes are pinned.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("--q", "2", "--n", "30", "--seed", "11", "--mode", "p2p"),
            "604ed59e3154b3d08035ba266675ae81795a11e5d40a559fb716c90656e8c7be",
        ),
        (
            ("--q", "2", "--n", "30", "--seed", "11", "--mode", "alltoall"),
            "1aafd5a4dbab2275e5222abaa0e637cd92bc637d6be8bd7b036c345271dc73fa",
        ),
        (("--q", "3", "--n", "120", "--seed", "5"), "42b858d61b92310dbda263ad171582f33358eeccd7635ccbdcd5dae0567b4362"),
    ],
)
def test_simulate_report_pinned(argv, digest, capsys):
    code, obj = run_json(capsys, "simulate", *argv)
    assert code == 0
    assert sha256(json.dumps(obj["report"], sort_keys=True)) == digest
    assert [(c["name"], c["passed"]) for c in obj["verdict"]["checks"]] == [
        (name, True)
        for name in (
            "partition_invariants",
            "input_finite",
            "schedule_valid",
            "gather_complete",
            "conservation",
            "output_matches_sequential",
            "ternary_counts_exact",
            "tensor_elements_exact",
            "send_volume_exact",
            "total_ternary_matches_sequential",
        )
    ]


# ---------------------------------------------------------------------------
# bounds / drivers / fuzz
# ---------------------------------------------------------------------------


def test_bounds_command(capsys):
    code, obj = run_json(capsys, "bounds", "--n", "120", "--p", "30")
    assert code == 0
    assert obj["lower_bound"] == pytest.approx(2 * (120 * 119 * 118 / 30) ** (1 / 3) - 8)
    assert obj["opt_point"][0] == pytest.approx(120 * 119 * 118 / 180)


@pytest.mark.parametrize("p", [1, 2])
def test_bounds_never_negative(capsys, p):
    # the formula reads -2.37 at P=1 and -0.12 at P=2 for n=3; no processor sends fewer than 0 elements
    code, obj = run_json(capsys, "bounds", "--n", "3", "--p", str(p))
    assert code == 0
    assert obj["lower_bound"] == 0.0


def test_bounds_with_ratio(capsys):
    code, obj = run_json(capsys, "bounds", "--n", "1000000", "--p", "30", "--q", "3")
    assert code == 0
    assert obj["optimality_ratio"] == pytest.approx(1.2429, abs=1e-3)


@pytest.mark.parametrize("p", [5, 69])
def test_bounds_q_must_describe_p(capsys, p):
    # q=4 describes P = 4·17 = 68 processors; its ratio beside any other P would mix two machines
    assert main(["bounds", "--n", "10", "--p", str(p), "--q", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--q 4" in captured.err and f"--p is {p}" in captured.err
    code, obj = run_json(capsys, "bounds", "--n", "10", "--p", "68", "--q", "4")
    assert code == 0 and obj["P"] == 68 and obj["q"] == 4


def test_bounds_refuses_a_q_above_the_prime_power_bound():
    # 2^61 - 1 is prime, so trial division would never return: the bound 2^40 refuses it at parse time
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tetracomm.cli", "bounds", "--n", "10", "--p", "5", "--q", "2305843009213693951"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --q: q=2305843009213693951 exceeds the bound 2**40" in proc.stderr


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


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["hbl-fuzz", "--count", "-1", "--seed", "1"], "--count"),
        (["hbl-fuzz", "--count", "1", "--seed", "1", "--points", "-1"], "--points"),
        (["hopm", "--n", "5", "--seed", "1", "--max-iters", "0"], "--max-iters"),
        (["hopm", "--n", "5", "--seed", "1", "--tol", "nan"], "--tol"),
        (["cpgrad", "--n", "5", "--seed", "1", "--r", "0"], "--r"),
        (["cpgrad", "--n", "5", "--seed", "1", "--r", "-1"], "--r"),
        (["simulate", "--q", "2", "--n", "30", "--seed", "1", "--tol", "nan"], "--tol"),
        (["simulate", "--q", "2", "--n", "60", "--seed", "-1"], "--seed"),
        (["hopm", "--n", "2", "--seed", "-4"], "--seed"),
        (["cpgrad", "--n", "5", "--r", "1", "--seed", "-1"], "--seed"),
        (["hbl-fuzz", "--count", "1", "--seed", "-1"], "--seed"),
    ],
    ids=[
        "count-negative",
        "points-negative",
        "max-iters-0",
        "hopm-tol-nan",
        "r-0",
        "r-negative",
        "simulate-tol-nan",
        "simulate-seed-negative",
        "hopm-seed-negative",
        "cpgrad-seed-negative",
        "hbl-fuzz-seed-negative",
    ],
)
def test_out_of_domain_flags_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


# Every subcommand's numeric flags: a valid value, and the largest int drawn
# for the flag.  Larger q, n, counts or iteration limits would allocate or
# run for long (simulate at q=5 pads n to 520, a 187 MB tensor).
NUMERIC_FLAGS = {
    ("steiner", "construct"): {"--q": ("3", 9)},
    ("partition",): {"--q": ("2", 5), "--n": ("30", 8)},
    ("schedule",): {"--q": ("2", 5), "--n": ("30", 8)},
    ("simulate",): {"--q": ("2", 4), "--n": ("30", 8), "--seed": ("1", 8), "--tol": ("1e-12", 8)},
    ("bounds",): {"--n": ("120", 8), "--p": ("30", 8), "--q": ("3", 8)},
    ("hopm",): {"--n": ("5", 8), "--seed": ("1", 8), "--tol": ("1e-10", 8), "--max-iters": ("5", 8)},
    ("cpgrad",): {"--n": ("5", 8), "--r": ("2", 8), "--seed": ("1", 8)},
    ("hbl-fuzz",): {"--count": ("2", 8), "--seed": ("1", 8), "--points": ("5", 8), "--max-coord": ("10", 8)},
}
OTHER_TEXT = ["nan", "inf", "-inf", "1e400", "0.5", "-0", "abc", "", "3x"]


def in_domain(flag: str, text: str) -> bool:
    """Whether text is in the flag's documented domain: --seed a non-negative int, --q a prime power, else > 0."""
    try:
        value = (float if flag == "--tol" else int)(text)
    except ValueError:
        return False
    if flag == "--seed":
        return value >= 0
    if flag == "--q":
        return prime_power(value) is not None
    return isfinite(value) and value > 0


FLAG_CASES = [(command, flag) for command, flags in NUMERIC_FLAGS.items() for flag in flags]


@pytest.mark.parametrize("command,flag", FLAG_CASES, ids=[f"{command[0]}{flag}" for command, flag in FLAG_CASES])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_numeric_flags_exit_cleanly_and_name_a_rejected_flag(capsys, command, flag, data):
    # the flag takes a drawn value, the command's other flags their valid one
    flags = NUMERIC_FLAGS[command]
    text = data.draw(st.one_of(st.integers(-3, flags[flag][1]).map(str), st.sampled_from(OTHER_TEXT)), label="value")
    argv = list(command)
    for name, (valid, _) in flags.items():
        argv += [name, text if name == flag else valid]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        assert exc.code == 2 and captured.out == ""
        assert not in_domain(flag, text) and f"argument {flag}:" in captured.err
    else:
        captured = capsys.readouterr()
        assert in_domain(flag, text) and code in (0, 1, 2)
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    # every `tetracomm ...` line of the README's Command line block, run where it may write its files
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line.replace("path/to/", f"{fixtures_dir()}/")) for line in block.splitlines() if line.startswith("tetracomm ")]
    assert examples
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n:" in captured.err


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
    monkeypatch.setattr(simulator, "build_schedule", lambda d: CommSchedule(build_schedule(d).steps[1:], d))
    code, obj = run_json(capsys, "simulate", "--q", "2", "--n", "30", "--seed", "11")
    assert code == 1
    failed = {c["name"] for c in obj["verdict"]["checks"] if not c["passed"]}
    assert {"schedule_valid", "gather_complete"} <= failed
    assert obj["report"]["global"]["verdicts"]["schedule_valid"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--q", "2", "--n", "30", "--seed", "1"],
        ["hopm", "--n", "3000", "--seed", "1"],
        ["cpgrad", "--n", "3000", "--r", "2", "--seed", "1"],
    ],
)
def test_tensor_too_large_for_memory_is_an_error_line(argv, monkeypatch, capsys):
    def too_large(n, seed):
        raise MemoryError(f"Unable to allocate the packed tensor for n={n}")

    monkeypatch.setattr(cli, "random_symmetric", too_large)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate the packed tensor for n=")
    assert captured.err.count("\n") == 1
