"""tools/bench_pairs.py keeps a run's set-up times as a summary, not every sample, and compiles both checkouts first."""

import importlib.util
import json
import subprocess
from pathlib import Path

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compact_summarizes_setup_and_keeps_the_rest():
    record = {
        "workload": "hopm-n120",
        "counts": {"tensor_core.hopm_iterations": 9},
        "setup_s": [0.5, 0.1, 0.4, 0.2, 0.3],
        "run_s": [1.0, 2.0],
        "traced": [False, False],
        "problems": ["seed 3: wrong answer"],
    }
    compacted = load_bench_pairs().compact(record)
    assert compacted["setup_s"] == {"count": 5, "median": 0.3, "quartiles": [0.2, 0.4], "min": 0.1, "max": 0.5}
    assert {k: v for k, v in compacted.items() if k != "setup_s"} == {k: v for k, v in record.items() if k != "setup_s"}
    assert record["setup_s"] == [0.5, 0.1, 0.4, 0.2, 0.3]


def test_compact_records_no_statistics_without_set_ups():
    assert load_bench_pairs().compact({"setup_s": [], "run_s": []}) == {"setup_s": {"count": 0}, "run_s": []}


def test_both_checkouts_compile_before_the_first_run(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    bench = {"run_seconds": 1, "workloads": [{"name": "design-q7"}], "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    record = {"record": {"setup_s": [0.1], "environment": {"nproc": 2, "cpu": "cpu", "python": "3", "numpy": "2.4.0"}}}
    result = {"metrics": {"run_s": {"value": 1.0}}, "failed": 0, "attempted": 1}
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((Path(cwd), cmd[1:]))
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{json.dumps(record)}\n{json.dumps(result)}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    argv = ["--parent", str(parent), "--change", str(change), "--parent-rev", "abc", "--label", "t"]
    argv += ["--change-note", "n", "--claim", "none", "--seeds", "1-2", "--trace-seeds", "3", "--out", str(tmp_path / "out.json")]
    assert bench_pairs.main(argv) == 0
    compile_args = ["-m", "compileall", "-q", "src", "perfbench"]
    assert [call for call in calls if call[1] == compile_args] == [(parent, compile_args), (change, compile_args)]
    first_run = next(i for i, (_, args) in enumerate(calls) if args[0] == "perfbench/run.py")
    assert first_run == 2
    assert len(calls) == 2 + 2 * 3
