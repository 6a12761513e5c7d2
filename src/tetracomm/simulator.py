"""Stepped simulation of the parallel tensor-times-same-vector algorithm.

P virtual processors execute three phases: gather the row blocks of x named
by their index sets, contract their owned tensor blocks (laid out in a
processor-local dense block store) with those row blocks, then exchange and
reduce partial y row blocks.  Tensor data never moves; only vector chunks
appear in messages.  A word is one stored element, so all volumes are exact
integers.  Each processor's ternary multiplications and stored elements are
counted from the blocks its store actually gathered, allowing exact
comparison against the closed-form cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .bounds import lower_bound
from .partition import TetraPartition, VectorLayout, storage_count, tb3, validate_partition
from .schedule import alltoall_cost, build_demands, build_schedule, validate
from .tensor_core import BlockStore, PackedSymTensor, sttsv_symmetric, ternary_count

__all__ = [
    "ProcCounters",
    "SimReport",
    "PredictedCost",
    "PredictedCosts",
    "CheckResult",
    "RunVerdict",
    "ScheduleInvalidError",
    "simulate",
    "compute_report",
    "verify_run",
]

MODES = ("p2p", "alltoall")


class ScheduleInvalidError(RuntimeError):
    def __init__(self, report):
        super().__init__("; ".join(report.problems))
        self.report = report


@dataclass
class ProcCounters:
    p: int
    sent_x: int = 0
    sent_y: int = 0
    received_x: int = 0
    received_y: int = 0
    ternary_mults: int = 0
    tensor_elems: int = 0

    @property
    def words_sent(self) -> int:
        return self.sent_x + self.sent_y

    @property
    def words_received(self) -> int:
        return self.received_x + self.received_y


@dataclass
class SimReport:
    mode: str
    n: int
    per_proc: list[ProcCounters]
    steps_per_vector: int
    verdicts: dict[str, bool]
    y: np.ndarray | None = field(default=None, repr=False)

    @property
    def max_volume(self) -> int:
        return max(c.words_sent for c in self.per_proc)

    @property
    def total_sent(self) -> int:
        return sum(c.words_sent for c in self.per_proc)

    @property
    def total_received(self) -> int:
        return sum(c.words_received for c in self.per_proc)

    @property
    def total_ternary(self) -> int:
        return sum(c.ternary_mults for c in self.per_proc)

    def to_json_obj(self) -> dict:
        return {
            "per_processor": [
                {
                    "id": c.p,
                    "words_sent": c.words_sent,
                    "words_received": c.words_received,
                    "ternary_mults": c.ternary_mults,
                    "tensor_elems": c.tensor_elems,
                }
                for c in self.per_proc
            ],
            "global": {
                "max_volume": self.max_volume,
                "steps_per_vector": self.steps_per_vector,
                "steps_total": 2 * self.steps_per_vector,
                "mode": self.mode,
                "total_sent": self.total_sent,
                "total_received": self.total_received,
                "total_ternary": self.total_ternary,
                "verdicts": self.verdicts,
            },
        }


def simulate(
    tensor: PackedSymTensor,
    x,
    part: TetraPartition,
    layout: VectorLayout,
    mode: str = "p2p",
) -> tuple[np.ndarray, SimReport]:
    """Run the parallel algorithm on virtual processors with exact accounting.

    Returns the assembled output vector and a report with per-processor
    counters.  In p2p mode the vector exchanges follow the matching-based
    schedule; in alltoall mode every processor sends a fixed two-chunk slot
    to every other processor per the collective cost model.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if layout.m != part.m:
        raise ValueError(f"layout has {layout.m} row blocks but the partition has {part.m}")
    n = layout.n
    if tensor.n != n:
        raise ValueError(f"tensor dimension {tensor.n} does not match layout n={n}")
    x_global = np.asarray(x, dtype=np.float64)
    if x_global.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x_global.shape}")

    b, chunk, m, P = layout.b, layout.chunk, part.m, part.P
    counters = [ProcCounters(p) for p in range(1, P + 1)]
    spans = {i: ((i - 1) * b, i * b) for i in range(1, m + 1)}

    def own(i: int, p: int) -> slice:
        """Processor p's chunk of row block i, as a slice of the row block."""
        lo, hi = layout.chunk_range(i, p)
        return slice(lo - (i - 1) * b, hi - (i - 1) * b)

    # each processor starts with only its own chunks of its row blocks; `have`
    # marks what it holds, so no value of x can pass for "not yet received"
    xloc = [{i: np.zeros(b) for i in R} for R in part.R]
    have = [{i: np.zeros(b, dtype=bool) for i in R} for R in part.R]
    for p in range(1, P + 1):
        for i in part.R[p - 1]:
            xloc[p - 1][i][own(i, p)] = x_global[slice(*layout.chunk_range(i, p))]
            have[p - 1][i][own(i, p)] = True

    demands = build_demands(part)
    if mode == "p2p":
        sched = build_schedule(demands)
        sched_report = validate(sched, demands, chunk)
        if not sched_report.ok:
            raise ScheduleInvalidError(sched_report)
        steps_per_vector = len(sched.steps)
        messages = [(d.src, d.dst, d.blocks, len(d.blocks) * chunk) for step in sched.steps for d in step]
    else:
        steps_per_vector = P - 1
        r_sets = [set(r) for r in part.R]
        messages = [
            (src, dst, sorted(r_sets[src - 1] & r_sets[dst - 1]), 2 * chunk)
            for src in range(1, P + 1)
            for dst in range(1, P + 1)
            if src != dst
        ]

    # x phase: the sender forwards its own chunk of every shared row block
    for src, dst, blocks, words in messages:
        for i in blocks:
            s = own(i, src)
            xloc[dst - 1][i][s] = xloc[src - 1][i][s]
            have[dst - 1][i][s] = have[src - 1][i][s]
        counters[src - 1].sent_x += words
        counters[dst - 1].received_x += words
    gather_complete = all(mask.all() for held in have for mask in held.values())

    # local compute: each processor lays out only the blocks it owns
    ypart = []
    for p in range(1, P + 1):
        blocks = sorted(tb3(part.R[p - 1])) + list(part.N[p - 1]) + list(part.D[p - 1])
        store = BlockStore(tensor, spans, blocks)
        yl = {i: np.zeros(b) for i in part.R[p - 1]}
        store.run(xloc[p - 1], yl)
        counters[p - 1].ternary_mults = store.ternary_mults
        counters[p - 1].tensor_elems = store.tensor_elems
        ypart.append(yl)

    # y phase: partial sums travel to the receiver's chunk and are reduced there
    contrib: list[dict[int, dict[int, np.ndarray]]] = [{i: {} for i in R} for R in part.R]
    for src, dst, blocks, words in messages:
        for i in blocks:
            contrib[dst - 1][i][src] = ypart[src - 1][i][own(i, dst)]
        counters[src - 1].sent_y += words
        counters[dst - 1].received_y += words

    y_global = np.zeros(n)
    for p in range(1, P + 1):
        for i in part.R[p - 1]:
            acc = y_global[slice(*layout.chunk_range(i, p))]
            acc += ypart[p - 1][i][own(i, p)]
            for src in sorted(contrib[p - 1][i]):  # fixed ascending-sender reduction
                acc += contrib[p - 1][i][src]

    verdicts = {
        "schedule_valid": True if mode == "alltoall" else sched_report.ok,
        "gather_complete": gather_complete,
        "conservation": sum(c.sent_x + c.sent_y for c in counters)
        == sum(c.received_x + c.received_y for c in counters),
    }
    report = SimReport(
        mode=mode,
        n=n,
        per_proc=counters,
        steps_per_vector=steps_per_vector,
        verdicts=verdicts,
        y=y_global,
    )
    return y_global, report


@dataclass
class PredictedCost:
    p: int
    ternary_mults: int
    send_words_per_vector: int
    tensor_elems: int


@dataclass
class PredictedCosts:
    per_proc: list[PredictedCost]
    total_ternary: int
    max_send_per_vector: int
    alltoall_per_vector: int
    bound: float

    @property
    def leading_ratio(self) -> float:
        return 2.0 * self.max_send_per_vector / self.bound if self.bound > 0 else float("inf")

    def to_json_obj(self) -> dict:
        return {
            "per_processor": [
                {
                    "id": c.p,
                    "ternary_mults": c.ternary_mults,
                    "send_words_per_vector": c.send_words_per_vector,
                    "tensor_elems": c.tensor_elems,
                }
                for c in self.per_proc
            ],
            "total_ternary": self.total_ternary,
            "max_send_per_vector": self.max_send_per_vector,
            "alltoall_per_vector": self.alltoall_per_vector,
            "lower_bound": self.bound,
            "ratio_vs_bound": self.leading_ratio,
        }


def compute_report(part: TetraPartition, layout: VectorLayout) -> PredictedCosts:
    """Closed-form per-processor ternary counts, volumes, and bound comparison.

    Ternary counts per block: 3b^3 off-diagonal, 3b^2(b-1)/2 + 2b^2
    non-central diagonal, b(b-1)(b-2)/2 + 2b(b-1) + b central diagonal.
    """
    b, chunk, n = layout.b, layout.chunk, layout.n
    t_off = 3 * b**3
    t_nc = 3 * b * b * (b - 1) // 2 + 2 * b * b
    t_ce = b * (b - 1) * (b - 2) // 2 + 2 * b * (b - 1) + b

    send: dict[int, int] = {p: 0 for p in range(1, part.P + 1)}
    for d in build_demands(part):
        send[d.src] += len(d.blocks) * chunk

    per_proc = []
    for p in range(1, part.P + 1):
        ternary = comb(len(part.R[p - 1]), 3) * t_off + len(part.N[p - 1]) * t_nc + len(part.D[p - 1]) * t_ce
        per_proc.append(
            PredictedCost(
                p=p,
                ternary_mults=ternary,
                send_words_per_vector=send[p],
                tensor_elems=storage_count(part, n, p),
            )
        )
    return PredictedCosts(
        per_proc=per_proc,
        total_ternary=sum(c.ternary_mults for c in per_proc),
        max_send_per_vector=max(c.send_words_per_vector for c in per_proc),
        alltoall_per_vector=alltoall_cost(part, n).per_vector,
        bound=lower_bound(n, part.P),
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunVerdict:
    checks: list[CheckResult]
    report: SimReport | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_obj(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }


def verify_run(
    tensor: PackedSymTensor,
    x,
    part: TetraPartition,
    layout: VectorLayout,
    mode: str = "p2p",
    tol: float = 1e-12,
) -> RunVerdict:
    """Simulate and compare against the sequential kernel and the cost model.

    Counter comparisons are exact integer equality; the output comparison
    uses the given relative tolerance.  Non-finite entries in x or the
    tensor fail the ``input_finite`` check.
    """
    checks: list[CheckResult] = []
    problems = validate_partition(part)
    checks.append(CheckResult("partition_invariants", not problems, "; ".join(problems) or "ok"))
    if problems:
        return RunVerdict(checks=checks)

    x_arr = np.asarray(x, dtype=np.float64)
    bad_x = x_arr.size - int(np.count_nonzero(np.isfinite(x_arr)))
    bad_a = tensor.data.size - int(np.count_nonzero(np.isfinite(tensor.data)))
    checks.append(
        CheckResult("input_finite", not bad_x and not bad_a, f"non-finite entries: x {bad_x}, tensor {bad_a}")
    )

    y, report = simulate(tensor, x, part, layout, mode)
    for name, ok in report.verdicts.items():
        checks.append(CheckResult(name, ok))

    reference = sttsv_symmetric(tensor, x)
    scale = float(np.linalg.norm(reference)) or 1.0
    rel = float(np.linalg.norm(y - reference)) / scale
    checks.append(CheckResult("output_matches_sequential", rel <= tol, f"relative error {rel:.3e}"))

    predicted = compute_report(part, layout)
    bad_ternary = [
        c.p for c, pc in zip(report.per_proc, predicted.per_proc) if c.ternary_mults != pc.ternary_mults
    ]
    checks.append(
        CheckResult("ternary_counts_exact", not bad_ternary, f"mismatched processors: {bad_ternary[:5]}")
    )
    bad_elems = [
        c.p for c, pc in zip(report.per_proc, predicted.per_proc) if c.tensor_elems != pc.tensor_elems
    ]
    checks.append(
        CheckResult("tensor_elements_exact", not bad_elems, f"mismatched processors: {bad_elems[:5]}")
    )

    if mode == "p2p":
        expected = {pc.p: pc.send_words_per_vector for pc in predicted.per_proc}
    else:
        a2a = alltoall_cost(part, layout.n).per_vector
        expected = {p: a2a for p in range(1, part.P + 1)}
    bad_vol = [
        c.p for c in report.per_proc if c.sent_x != expected[c.p] or c.sent_y != expected[c.p]
    ]
    checks.append(
        CheckResult("send_volume_exact", not bad_vol, f"mismatched processors: {bad_vol[:5]}")
    )

    total = report.total_ternary
    checks.append(
        CheckResult(
            "total_ternary_matches_sequential",
            total == ternary_count(layout.n),
            f"measured {total}, formula {ternary_count(layout.n)}",
        )
    )
    return RunVerdict(checks=checks, report=report)
