"""Benchmark entry point: one workload, one seed, one run of ``--seconds``.

Run from the repository root:

    python3 perfbench/run.py --workload verify-q4-n340 --seed 1 --seconds 30 --trace 0

It imports tetracomm from ``src/`` of the checkout it sits in (and refuses
to run without it), caps BLAS/OpenMP threads at the CPUs it may use, and
prints two JSON lines: a record of the environment and exact counts, then
the result with every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tetracomm" / "__init__.py").is_file():
        print(f"perfbench: no tetracomm sources under {SRC}", file=sys.stderr)
        return 2
    caps = {var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS}
    os.environ.update(caps)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))

    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        result, record = harness.measure(
            harness.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), Path(workdir)
        )
    record = {"workload": args.workload, "trace": args.trace, "environment": harness.environment(caps), **record}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
