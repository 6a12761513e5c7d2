"""Command-line interface tying construction, partitioning, scheduling,
simulation, bounds, and the iterative drivers together.

Exit codes: 0 success, 1 validation failure, 2 usage error or not enough
memory.  All randomized commands require an explicit seed and all JSON
output is key-sorted, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from math import comb, isfinite
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import steiner as steiner_mod
from .finite_field import prime_power
from .partition import DesignUnsuitableError, build_partition, pad_dimension, vector_layout
from .schedule import build_demands, build_schedule, validate
from .simulator import compute_report, verify_run
from .tensor_core import DegenerateIterateError, cp_gradient, hopm, random_symmetric, random_vector

__all__ = ["main", "fixtures_dir"]

FIXTURES_ENV = "TETRACOMM_FIXTURES"


def fixtures_dir() -> Path:
    """Shipped fixture directory, overridable via TETRACOMM_FIXTURES."""
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return Path(str(resources.files("tetracomm") / "fixtures"))


def _emit(obj, out: str | None, fmt: str = "json") -> None:
    """Write obj as key-sorted JSON, or a list of row dicts as CSV, to out or stdout."""
    if fmt == "csv":
        header = list(obj[0])
        lines = [",".join(header)] + [",".join(str(row[h]) for h in header) for row in obj]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_design(args) -> steiner_mod.SteinerSystem:
    if (args.q is None) == (args.design is None):
        raise ValueError("exactly one of --q and --design is required")
    if args.q is not None:
        return steiner_mod.construct_spherical(args.q)
    return steiner_mod.load(args.design)


def _design_label(args) -> str:
    return f"spherical-q{args.q}" if args.q is not None else Path(args.design).stem


def _padded_layout(args, part):
    n_padded = pad_dimension(args.n, part)
    return n_padded, vector_layout(n_padded, part)


def cmd_steiner(args) -> int:
    if args.action == "construct":
        system = steiner_mod.construct_spherical(args.q)
        if args.out:
            steiner_mod.save(system, args.out)
        report = steiner_mod.verify(system)
        _emit(
            {
                "n": system.n,
                "r": system.r,
                "blocks": len(system.blocks),
                "verified": report.passed,
                "file": args.out,
            },
            None,
        )
        return 0 if report.passed else 1
    if args.action == "verify":
        report = steiner_mod.verify(steiner_mod.parse(args.path))
        _emit(report.to_json_obj(), None)
        return 0 if report.passed else 1
    # fixtures
    directory = fixtures_dir()
    files = sorted(p.name for p in directory.glob("*.txt")) if directory.is_dir() else []
    _emit({"dir": str(directory), "files": files}, None)
    return 0


def cmd_partition(args) -> int:
    system = _resolve_design(args)
    part = build_partition(system, label=_design_label(args))
    obj = part.to_json_obj()
    if args.n is not None:
        n_padded, layout = _padded_layout(args, part)
        obj["meta"].update(
            {"n_requested": args.n, "n": n_padded, "padded": n_padded != args.n, "b": layout.b, "chunk": layout.chunk}
        )
    _emit(obj, args.out)
    return 0


def cmd_schedule(args) -> int:
    system = _resolve_design(args)
    part = build_partition(system, label=_design_label(args))
    demands = build_demands(part)
    sched = build_schedule(demands)
    chunk = 1
    if args.n is not None:
        n_padded, layout = _padded_layout(args, part)
        chunk = layout.chunk
        sched.meta["n"] = n_padded
        sched.meta["words_per_step"] = [blocks * chunk for blocks in sched.meta["blocks_per_step"]]
    report = validate(sched, demands, chunk)
    sched.meta["design"] = part.label
    sched.meta["valid"] = report.passed
    _emit(sched.to_json_obj(), args.out)
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    system = _resolve_design(args)
    part = build_partition(system, label=_design_label(args))
    n_padded, layout = _padded_layout(args, part)
    tensor = random_symmetric(n_padded, args.seed)
    x = random_vector(n_padded, args.seed + 1)
    verdict = verify_run(tensor, x, part, layout, mode=args.mode, tol=args.tol)
    report = verdict.report
    if args.format == "csv" and report is not None:
        _emit(report.to_json_obj()["per_processor"], args.out, "csv")
    else:
        obj = {
            "design": part.label,
            "n_requested": args.n,
            "n": n_padded,
            "seed": args.seed,
            "verdict": verdict.to_json_obj(),
            "report": report.to_json_obj() if report else None,
            "predicted": (verdict.predicted or compute_report(part, layout)).to_json_obj(),
        }
        _emit(obj, args.out)
    return 0 if verdict.passed else 1


def cmd_bounds(args) -> int:
    x1, x2 = bounds_mod.opt_solution(args.n, args.p)
    obj = {
        "n": args.n,
        "P": args.p,
        "lower_bound": bounds_mod.lower_bound(args.n, args.p),
        "opt_point": [x1, x2],
    }
    if args.q is not None:
        processors = args.q * (args.q * args.q + 1)
        if args.p != processors:
            raise ValueError(f"--q {args.q} describes P = q(q^2+1) = {processors} processors, but --p is {args.p}")
        obj["q"] = args.q
        obj["optimality_ratio"] = bounds_mod.optimality_ratio(args.n, args.q)
    _emit(obj, args.out)
    return 0


def cmd_hopm(args) -> int:
    tensor = random_symmetric(args.n, args.seed)
    result = hopm(tensor, seed=args.seed + 1, tol=args.tol, max_iters=args.max_iters)
    _emit(
        {
            "n": args.n,
            "seed": args.seed,
            "lambda": result.lam,
            "iterations": result.iterations,
            "converged": result.converged,
            "x": result.x.tolist(),
        },
        args.out,
    )
    return 0


def cmd_cpgrad(args) -> int:
    tensor = random_symmetric(args.n, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    factors = rng.uniform(-1.0, 1.0, size=(args.n, args.r))
    grad = cp_gradient(tensor, factors)
    _emit(
        {
            "n": args.n,
            "r": args.r,
            "seed": args.seed,
            "gradient": grad.tolist(),
            "gradient_norm": float(np.linalg.norm(grad)),
        },
        args.out,
    )
    return 0


def cmd_hbl_fuzz(args) -> int:
    if args.points > comb(args.max_coord, 3):
        raise ValueError(f"--points {args.points} exceeds the {comb(args.max_coord, 3)} strictly ordered points in 1..{args.max_coord}")
    rng = np.random.default_rng(args.seed)
    basic_fail = symm_fail = 0
    for _ in range(args.count):
        if not bounds_mod.check_basic_hbl(
            bounds_mod.random_point_set(rng, args.points, args.max_coord)
        ).holds:
            basic_fail += 1
        if not bounds_mod.check_symm_hbl(
            bounds_mod.random_strict_point_set(rng, args.points, args.max_coord)
        ).holds:
            symm_fail += 1
    _emit(
        {
            "count": args.count,
            "seed": args.seed,
            "basic_violations": basic_fail,
            "symmetric_violations": symm_fail,
        },
        args.out,
    )
    return 0 if basic_fail == 0 and symm_fail == 0 else 1


def _positive(kind):
    """The argparse type of a count, limit or tolerance: kind(text), finite and > 0.

    It takes kind's name, so text that kind cannot parse still reads as an
    invalid int or float value.
    """

    def parse(text: str):
        value = kind(text)
        if not (isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"{text} is not a finite positive {kind.__name__}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _seed(text: str) -> int:
    """The argparse type of --seed: a non-negative int, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative int")
    return value


_seed.__name__ = "int"  # text int() cannot parse still reads as an invalid int value


def _prime_power(text: str) -> int:
    """The argparse type of --q: a prime power.  The caps on q are the library's, which name them."""
    value = int(text)
    try:
        pk = prime_power(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if pk is None:
        raise argparse.ArgumentTypeError(f"{text} is not a prime power")
    return value


_prime_power.__name__ = "int"


def _add_design_args(sub) -> None:
    sub.add_argument("--q", type=_prime_power, default=None, help="prime power for the spherical design")
    sub.add_argument("--design", type=str, default=None, help="path to a design file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetracomm",
        description="Tetrahedral block partitions and communication-exact simulation "
        "of parallel symmetric tensor-times-same-vector computation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    st = subs.add_parser("steiner", help="construct, verify, or list design files")
    st_subs = st.add_subparsers(dest="action", required=True)
    st_c = st_subs.add_parser("construct")
    st_c.add_argument("--q", type=_prime_power, required=True)
    st_c.add_argument("-o", "--out", type=str, default=None)
    st_v = st_subs.add_parser("verify")
    st_v.add_argument("path", type=str)
    st_subs.add_parser("fixtures")
    st.set_defaults(func=cmd_steiner)

    pt = subs.add_parser("partition", help="build the block partition for a design")
    _add_design_args(pt)
    pt.add_argument("--n", type=_positive(int), default=None)
    pt.add_argument("--out", type=str, default=None)
    pt.set_defaults(func=cmd_partition)

    sc = subs.add_parser("schedule", help="build and validate the point-to-point schedule")
    _add_design_args(sc)
    sc.add_argument("--n", type=_positive(int), default=None)
    sc.add_argument("--out", type=str, default=None)
    sc.set_defaults(func=cmd_schedule)

    sim = subs.add_parser("simulate", help="run the parallel algorithm and verify it")
    _add_design_args(sim)
    sim.add_argument("--n", type=_positive(int), required=True)
    sim.add_argument("--seed", type=_seed, required=True)
    sim.add_argument("--mode", choices=["p2p", "alltoall"], default="p2p")
    sim.add_argument("--tol", type=_positive(float), default=1e-12)
    sim.add_argument("--out", type=str, default=None)
    sim.add_argument("--format", choices=["json", "csv"], default="json")
    sim.set_defaults(func=cmd_simulate)

    bd = subs.add_parser("bounds", help="lower bound and optimization solution")
    bd.add_argument("--n", type=_positive(int), required=True)
    bd.add_argument("--p", type=_positive(int), required=True)
    bd.add_argument("--q", type=_prime_power, default=None, help="prime power; P must then be q(q^2+1)")
    bd.add_argument("--out", type=str, default=None)
    bd.set_defaults(func=cmd_bounds)

    hp = subs.add_parser("hopm", help="power iteration on a seeded random tensor")
    hp.add_argument("--n", type=_positive(int), required=True)
    hp.add_argument("--seed", type=_seed, required=True)
    hp.add_argument("--tol", type=_positive(float), default=1e-10)
    hp.add_argument("--max-iters", type=_positive(int), default=1000)
    hp.add_argument("--out", type=str, default=None)
    hp.set_defaults(func=cmd_hopm)

    cg = subs.add_parser("cpgrad", help="rank-r fit gradient on a seeded random tensor")
    cg.add_argument("--n", type=_positive(int), required=True)
    cg.add_argument("--r", type=_positive(int), required=True)
    cg.add_argument("--seed", type=_seed, required=True)
    cg.add_argument("--out", type=str, default=None)
    cg.set_defaults(func=cmd_cpgrad)

    hf = subs.add_parser("hbl-fuzz", help="fuzz the projection inequalities")
    hf.add_argument("--count", type=_positive(int), required=True)
    hf.add_argument("--seed", type=_seed, required=True)
    hf.add_argument("--points", type=_positive(int), default=20)
    hf.add_argument("--max-coord", type=_positive(int), default=50)
    hf.add_argument("--out", type=str, default=None)
    hf.set_defaults(func=cmd_hbl_fuzz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # exit 1 first: SteinerInvariantError is also a ValueError
    except (
        steiner_mod.SteinerInvariantError,
        DesignUnsuitableError,
        DegenerateIterateError,
    ) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # SteinerParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
