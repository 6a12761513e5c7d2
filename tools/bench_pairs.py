"""Compose a BENCH_*.json from alternating parent/change runs of perfbench/run.py.

Each side is a separate checkout of the repository (for example
``git archive <commit> | tar -x -C <dir>``).  For every workload and seed
the script runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in both checkouts, each in a fresh process, where T is the
``run_seconds`` of BENCHMARK.json.  Before the first pair it compiles
``src`` and ``perfbench`` in both checkouts, so both import from cached
bytecode: a checkout without ``__pycache__`` reads a higher
``peak_rss_mb``.  Odd seeds run the parent first and even
seeds the change first.  It then makes one ``--trace 1`` pair on every trace
seed, in the same alternating order, and writes the medians, quartiles and
pair wins of every end-to-end metric of the change checkout's BENCHMARK.json
and each side's median of every traced per-layer metric next to every run's
record and result lines.  A record keeps its ``setup_s`` samples only as
their count, median, quartiles, min and max, since one record can hold
thousands of set-ups:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --parent-rev <sha> --label pr11 --seeds 121-125 --trace-seeds 131-133 \\
        --change-note "..." --claim "..." --out BENCH_pr11.json

The file is rewritten after every pair, so a cut run leaves what it measured.
It only composes ``run.py`` output; it measures nothing itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def compact(record: dict) -> dict:
    """The record with its setup_s samples replaced by their count, median, quartiles, min and max."""
    setup = np.array(record["setup_s"], dtype=float)
    summary = {"count": int(setup.size)}
    if setup.size:
        summary.update(
            median=float(np.median(setup)),
            quartiles=[float(v) for v in np.percentile(setup, [25, 75])],
            min=float(setup.min()),
            max=float(setup.max()),
        )
    return {**record, "setup_s": summary}


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The record and result lines of one perfbench/run.py process, the record compacted."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    record, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {"record": compact(record["record"]), "result": result}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Median, quartiles and pair wins per end-to-end metric, and operation totals."""
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r[side]["result"]["metrics"][name]["value"] for r in runs] for side in ("parent", "change")}
        parent, change = np.array(values["parent"]), np.array(values["change"])
        p_med, c_med = float(np.median(parent)), float(np.median(change))
        summary[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "change_over_parent": c_med / p_med if p_med else None,
            "parent_quartiles": [float(v) for v in np.percentile(parent, [25, 75])],
            "change_quartiles": [float(v) for v in np.percentile(change, [25, 75])],
            "pair_wins": int(np.sum(sign * change < sign * parent)),
            "pair_losses": int(np.sum(sign * change > sign * parent)),
            "pairs": len(runs),
            "bound": metric["bound"],
        }
    for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted")):
        summary[key] = {side: sum(r[side]["result"][field] for r in runs) for side in ("parent", "change")}
    return summary


def span_medians(traced: list[dict]) -> dict:
    """Each side's median over the traced pairs of every per-layer metric."""
    return {
        name: {
            f"{side}_median": float(np.median([r[side]["result"]["metrics"][name]["value"] for r in traced]))
            for side in ("parent", "change")
        }
        for name in traced[0]["parent"]["result"]["metrics"]
    }


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def host(record: dict) -> str:
    env = record["environment"]
    numpy_minor = ".".join(env["numpy"].split(".")[:2])
    return f"{env['nproc']} vCPU {env['cpu']}, Python {env['python']}, numpy {numpy_minor}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--parent-rev", required=True, help="commit id of the parent checkout")
    parser.add_argument("--label", required=True)
    parser.add_argument("--change-note", required=True, help="what the change does")
    parser.add_argument("--claim", required=True, help="the gain the change claims, or that it claims none")
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, for example 121-130")
    parser.add_argument("--trace-seeds", type=seed_range, required=True, help="first-last, one traced pair each")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = args.seeds
    doc = {
        "label": args.label,
        "change": args.change_note,
        "claim": args.claim,
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "pairs": (
                f"seeds {seeds[0]}-{seeds[-1]} per workload; odd seeds run the parent first, even seeds the change "
                "first; each run in a fresh process from a separate checkout (git archive of each commit)"
            ),
            "trace": (
                f"one pair per workload on each of seeds {args.trace_seeds[0]}-{args.trace_seeds[-1]} with --trace 1 "
                f"--seconds {seconds:g}, in the same alternating order; traced_medians holds each side's median"
            ),
            "parent": args.parent_rev,
            "pair_win": (
                "the change's value is strictly better than the parent's in the same pair (lower is better for "
                "every metric here); ties count for neither"
            ),
            "quartiles": "numpy.percentile, linear interpolation",
        },
        "workloads": {},
    }
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout, check=True)

    def run_pair(workload: str, seed: int, trace: int) -> dict:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run_side(sides[side], workload, seed, seconds, trace)
        doc["method"].setdefault("host", host(pair["parent"]["record"]))
        return pair

    for workload in (w["name"] for w in bench["workloads"]):
        entry = doc["workloads"][workload] = {"seeds": seeds, "summary": {}, "runs": [], "traced": []}
        for seed in seeds:
            entry["runs"].append(run_pair(workload, seed, 0))
            entry["summary"] = summarize(entry["runs"], bench["end_to_end"])
            args.out.write_text(json.dumps(doc) + "\n")
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        for seed in args.trace_seeds:
            entry["traced"].append(run_pair(workload, seed, 1))
            entry["traced_medians"] = span_medians(entry["traced"])
            args.out.write_text(json.dumps(doc) + "\n")
            print(f"{workload} traced seed {seed} done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
