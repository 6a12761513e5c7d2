"""tools/bench_pairs.py keeps a run's set-up times as a summary, not every sample."""

import importlib.util
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
