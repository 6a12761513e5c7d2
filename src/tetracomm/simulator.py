"""Stepped simulation of the parallel tensor-times-same-vector algorithm.

P virtual processors execute three phases: gather the row blocks of x named
by their index sets, contract their owned tensor blocks with those row
blocks, then exchange and reduce partial y row blocks.  Tensor data never
moves; only vector chunks appear in messages, addressed by chunk id: chunk
(i-1)*g + t is the t-th of the g chunks of row block i and belongs to the
t-th processor of Q_i.  A word is one stored element, so all volumes are
exact integers.  Every processor's blocks form one integer table,
``partition.owned_blocks``, over row blocks of b rows: one
``gather_blocks`` pass streams them, each contracted once and dropped, and
one ``block_counts`` call counts the stored elements and ternary
multiplications of every block, summed by owner for exact comparison
against the closed-form cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .bounds import lower_bound
from .checks import Check, Report
from .keys import key_dtype
from .partition import TetraPartition, VectorLayout, owned_blocks, storage_count, validate_partition, vector_layout
from .schedule import alltoall_cost, build_demands, build_schedule, messages, validate
from .tensor_core import PackedSymTensor, block_counts, contract, gather_blocks, sttsv_symmetric, ternary_count

__all__ = [
    "ProcCounters",
    "SimReport",
    "PredictedCost",
    "PredictedCosts",
    "RunVerdict",
    "simulate",
    "compute_report",
    "verify_run",
]

MODES = ("p2p", "alltoall")


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
    checks: list[Check]
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
                "verdicts": {c.name: c.passed for c in self.checks},
            },
        }


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, as np.unique gives them, by one sort and a first-of-run mask.

    With no return_* flag, numpy 2.4's np.unique takes a hash path on
    integers, which is many times slower than a sort when most values are
    distinct: 5.2 s against 0.07 s on 5M random int64.
    """
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


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
    to every other processor per the collective cost model.  A p2p schedule
    that fails ``schedule.validate`` still runs and fails the
    ``schedule_valid`` check, whose detail lists the problems.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n = layout.n
    if layout != vector_layout(n, part):
        raise ValueError(f"{layout} is not vector_layout({n}, part), the partition's chunks of n={n} rows")
    if tensor.n != n:
        raise ValueError(f"tensor dimension {tensor.n} does not match layout n={n}")
    x_global = np.asarray(x, dtype=np.float64)
    if x_global.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x_global.shape}")

    b, chunk, P = layout.b, layout.chunk, part.P
    # chunk c = (i - 1) * g + t holds rows c * chunk onwards, and its holder is
    # Q_i[t]; slot[i, p] is the chunk of row block i that processor p holds
    Q = np.array(part.Q)
    chunks = np.arange(Q.size).reshape(Q.shape)
    slot = np.zeros((part.m + 1, P + 1), dtype=np.int64)
    slot[np.arange(1, part.m + 1)[:, None], Q] = chunks

    # have[p - 1, c] marks the chunks of x processor p holds: it starts with only
    # its own, so no value of x can pass for "not yet received"
    have = np.zeros((P, Q.size), dtype=bool)
    have[Q - 1, chunks] = True

    demands = build_demands(part)
    if mode == "p2p":
        sched = build_schedule(demands)
        sched_report = validate(sched, demands, chunk)
        schedule_valid = Check("schedule_valid", sched_report.passed, "; ".join(sched_report.problems))
        steps_per_vector = len(sched.steps)
        src, dst, row = messages(sched.steps, demands)
        # carried[e] is the demand row of message e; a message that matches no demand carries nothing
        src, dst, carried = src[row >= 0], dst[row >= 0], row[row >= 0]
        words = demands.shared[carried] * chunk
    else:
        schedule_valid = Check("schedule_valid", True)
        steps_per_vector = P - 1
        # every ordered pair exchanges a fixed two-chunk slot; the shared row blocks ride in it
        carried = np.arange(len(demands))
        src, dst = np.nonzero(~np.eye(P, dtype=bool))
        src, dst, words = src + 1, dst + 1, np.full(len(src), 2 * chunk)
    # both phases send the same messages, so they send and receive the same words
    sent = np.bincount(src, weights=words, minlength=P + 1)[1:].astype(np.int64).tolist()
    received = np.bincount(dst, weights=words, minlength=P + 1)[1:].astype(np.int64).tolist()
    # one entry per shared row block a sender passes to a receiver, whatever the
    # number of messages that carry it, sorted by (block, receiver, sender)
    msg, col = np.nonzero(demands.blocks[carried])
    msg = carried[msg]
    kind = key_dtype((part.m * (P + 1) + P) * (P + 1) + P)
    blk, rcv, snd = demands.blocks[msg, col].astype(kind), demands.dst[msg].astype(kind), demands.src[msg].astype(kind)
    key = _distinct((blk * (P + 1) + rcv) * (P + 1) + snd)
    pair, snd = np.divmod(key, P + 1)
    blk, rcv = np.divmod(pair, P + 1)

    # x phase: the sender forwards its own chunk of every shared row block,
    # which it holds as given, so every chunk a processor holds carries x's
    # value and the messages may land in any order
    have[rcv - 1, slot[blk, snd]] = True
    # one table of every processor's blocks feeds the gather and the counts;
    # need[p - 1, i] marks the row blocks i + 1 that p's blocks read (R_p for r >= 3)
    owner, blocks = owned_blocks(part)
    blocks -= 1  # 0-based row-block ids
    need = np.zeros((P, part.m), dtype=bool)
    need[owner[:, None] - 1, blocks] = True
    gather_complete = bool(have.reshape(P, part.m, -1).all(axis=2)[need].all())

    # local compute: row p-1 of xs is processor p's copy of x, zero where it
    # holds nothing.  One gather streams every processor's blocks, each
    # contracted into its owner's row of xs/ys and dropped as it arrives
    xs = np.where(have[:, :, None], x_global.reshape(-1, chunk), 0.0).reshape(P, n)
    ys = np.zeros((P, n))
    # xb[p - 1, i] is processor p's copy of row block i + 1
    xb, yb = xs.reshape(P, part.m, b), ys.reshape(P, part.m, b)
    for p, (kind, D, ids) in zip(owner.tolist(), gather_blocks(tensor, b, blocks)):
        contract(kind, D, [xb[p - 1, i] for i in ids], [yb[p - 1, i] for i in ids])
    # elems[p] and ternary[p]: the counts of processor p's blocks, whole numbers far below 2**53
    elems, ternary = (np.bincount(owner, c, P + 1).astype(np.int64).tolist() for c in block_counts(n, b, blocks))
    counters = [
        ProcCounters(p, s, s, r, r, ternary[p], elems[p]) for p, s, r in zip(range(1, P + 1), sent, received)
    ]

    # y phase: partial sums travel to the receiver's chunk; a repeated message
    # delivers the same partial again, so each sender is reduced once.  The
    # holder's own partial comes first, then each sender in ascending order:
    # add.at adds in index order, and the table sorts by (block, receiver, sender)
    yc = ys.reshape(P, -1, chunk)
    y_global = yc[Q - 1, chunks].reshape(-1, chunk)
    into = slot[blk, rcv]
    np.add.at(y_global, into, yc[snd - 1, into])
    y_global = y_global.reshape(n)

    checks = [
        schedule_valid,
        Check("gather_complete", gather_complete),
        Check(
            "conservation",
            sum(c.sent_x + c.sent_y for c in counters) == sum(c.received_x + c.received_y for c in counters),
        ),
    ]
    report = SimReport(
        mode=mode,
        n=n,
        per_proc=counters,
        steps_per_vector=steps_per_vector,
        checks=checks,
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
    Processor p sends its chunk of each row block i in R_p to the other
    |Q_i| - 1 holders of i, so it sends chunk * sum(|Q_i| - 1) words per
    vector; no transfer demand is built.
    """
    b, chunk, n = layout.b, layout.chunk, layout.n
    t_off = 3 * b**3
    t_nc = 3 * b * b * (b - 1) // 2 + 2 * b * b
    t_ce = b * (b - 1) * (b - 2) // 2 + 2 * b * (b - 1) + b
    per_proc = []
    for p in range(1, part.P + 1):
        ternary = comb(len(part.R[p - 1]), 3) * t_off + len(part.N[p - 1]) * t_nc + len(part.D[p - 1]) * t_ce
        per_proc.append(
            PredictedCost(
                p=p,
                ternary_mults=ternary,
                send_words_per_vector=chunk * sum(len(part.Q[i - 1]) - 1 for i in part.R[p - 1]),
                tensor_elems=storage_count(part, n, p),
            )
        )
    return PredictedCosts(
        per_proc=per_proc,
        total_ternary=sum(c.ternary_mults for c in per_proc),
        max_send_per_vector=max(c.send_words_per_vector for c in per_proc),
        alltoall_per_vector=alltoall_cost(part, n),
        bound=lower_bound(n, part.P),
    )


def _non_finite(a: np.ndarray) -> int:
    """Number of inf and NaN entries of a.

    Any inf or NaN entry makes the sum inf or NaN, so a finite sum proves
    there are none without a bool array the size of a; only a sum that is
    not finite, which a large finite array can also reach by overflow, is
    followed by an exact count.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(a.sum()):
            return 0
    return a.size - int(np.count_nonzero(np.isfinite(a)))


@dataclass
class RunVerdict(Report):
    report: SimReport | None = None
    predicted: PredictedCosts | None = None


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
    tensor fail the ``input_finite`` check.  The verdict carries the
    simulation report and the ``compute_report`` prediction it was checked
    against; both are None when the partition is invalid.
    """
    checks: list[Check] = []
    problems = validate_partition(part)
    checks.append(Check("partition_invariants", not problems, "; ".join(problems) or "ok"))
    if problems:
        return RunVerdict(checks)

    bad_x, bad_a = _non_finite(np.asarray(x, dtype=np.float64)), _non_finite(tensor.data)
    checks.append(
        Check("input_finite", not bad_x and not bad_a, f"non-finite entries: x {bad_x}, tensor {bad_a}")
    )

    # non-finite input is reported by input_finite, not by numpy warnings
    with np.errstate(invalid="ignore"):
        y, report = simulate(tensor, x, part, layout, mode)
        reference = sttsv_symmetric(tensor, x)
        scale = float(np.linalg.norm(reference)) or 1.0
        rel = float(np.linalg.norm(y - reference)) / scale
    checks += report.checks
    checks.append(Check("output_matches_sequential", rel <= tol, f"relative error {rel:.3e}"))

    predicted = compute_report(part, layout)
    bad_ternary, bad_elems, bad_vol = [], [], []
    for c, pc in zip(report.per_proc, predicted.per_proc):
        sent = pc.send_words_per_vector if mode == "p2p" else predicted.alltoall_per_vector
        if c.ternary_mults != pc.ternary_mults:
            bad_ternary.append(c.p)
        if c.tensor_elems != pc.tensor_elems:
            bad_elems.append(c.p)
        if c.sent_x != sent or c.sent_y != sent:
            bad_vol.append(c.p)
    checks += [
        Check("ternary_counts_exact", not bad_ternary, f"mismatched processors: {bad_ternary[:5]}"),
        Check("tensor_elements_exact", not bad_elems, f"mismatched processors: {bad_elems[:5]}"),
        Check("send_volume_exact", not bad_vol, f"mismatched processors: {bad_vol[:5]}"),
    ]

    total = report.total_ternary
    checks.append(
        Check(
            "total_ternary_matches_sequential",
            total == ternary_count(layout.n),
            f"measured {total}, formula {ternary_count(layout.n)}",
        )
    )
    return RunVerdict(checks, report=report, predicted=predicted)
