"""Point-to-point communication schedules and the all-to-all cost model.

Every ordered pair of processors with overlapping row-block sets induces one
transfer demand per vector phase.  Demands are layered by the number of
shared blocks; each layer is regular and decomposes into perfect matchings,
one communication step per matching, so that within a step every processor
sends at most one message and receives at most one message.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .checks import Check, Report

# max_matching stays importable here: perfbench/tracing.py wraps schedule.max_matching
from .matching import BipartiteGraph, max_matching, regular_decompose  # noqa: F401
from .partition import TetraPartition, vector_layout

__all__ = [
    "TransferDemand",
    "CommSchedule",
    "ScheduleReport",
    "AllToAllCost",
    "build_demands",
    "build_schedule",
    "validate",
    "alltoall_cost",
]


@dataclass(frozen=True)
class TransferDemand:
    """One directed transfer: src sends its chunks of the shared row blocks to dst."""

    src: int
    dst: int
    blocks: tuple[int, ...]


@dataclass
class CommSchedule:
    """Ordered steps, each a set of demands with per-step unique senders/receivers."""

    steps: list[list[TransferDemand]]
    meta: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "meta": self.meta,
            "steps": [
                [{"src": d.src, "dst": d.dst, "blocks": list(d.blocks)} for d in step]
                for step in self.steps
            ],
        }


def build_demands(part: TetraPartition) -> list[TransferDemand]:
    """All ordered-pair demands; symmetric with identical block lists."""
    sets = [set(r) for r in part.R]
    demands = []
    for src in range(1, part.P + 1):
        for dst in range(1, part.P + 1):
            if src == dst:
                continue
            shared = sorted(sets[src - 1] & sets[dst - 1])
            if shared:
                demands.append(TransferDemand(src, dst, tuple(shared)))
    return demands


def build_schedule(demands: list[TransferDemand]) -> CommSchedule:
    """Schedule the demands layer by layer (larger shared counts first).

    Layer k holds the demands of processor pairs that share k row blocks.
    For the partition of any Steiner (m, r, 3) design every layer is
    regular.  Two blocks of the design share at most two points; each pair
    of points lies in λ₂ = (m-2)/(r-2) blocks and each point in
    λ₁ = (m-1)(m-2)/((r-1)(r-2)) blocks.  So every processor has
    C(r,2)(λ₂-1) two-share partners and r(λ₁-1-(r-1)(λ₂-1)) one-share
    partners, and demands are symmetric, so a processor sends and receives
    equally often in each layer.  By König's theorem each layer splits into
    as many perfect matchings as its degree, one step each.  A demand list
    with an irregular layer raises regular_decompose's ValueError.
    """
    layers: dict[int, list[TransferDemand]] = {}
    for d in demands:
        layers.setdefault(len(d.blocks), []).append(d)

    steps: list[list[TransferDemand]] = []
    layer_meta = []
    for size in sorted(layers, reverse=True):
        layer = layers[size]
        procs = sorted({d.src for d in layer} | {d.dst for d in layer})
        pos = {p: idx + 1 for idx, p in enumerate(procs)}
        by_pair = {(d.src, d.dst): d for d in layer}
        adj: list[list[int]] = [[] for _ in procs]
        for d in layer:
            adj[pos[d.src] - 1].append(pos[d.dst])
        graph = BipartiteGraph(len(procs), len(procs), adj)

        mats = regular_decompose(graph, len(adj[0]))
        steps.extend(
            sorted((by_pair[(procs[x - 1], procs[y - 1])] for x, y in mat.pairs), key=lambda d: d.src)
            for mat in mats
        )
        layer_meta.append({"shared_blocks": size, "demands": len(layer), "steps": len(mats)})

    meta = {
        "steps": len(steps),
        "layers": layer_meta,
        "blocks_per_step": [len(step[0].blocks) for step in steps],
    }
    return CommSchedule(steps=steps, meta=meta)


@dataclass
class ScheduleReport(Report):
    send_volume: dict[int, int]


def validate(sched: CommSchedule, demands: list[TransferDemand], chunk: int = 1) -> ScheduleReport:
    """Check one-send/one-receive per step, exact demand coverage and send volumes.

    The checks are one_message_per_step, demands_covered and send_volume.
    send_volume maps each processor to the words it sends across the
    schedule (chunk words per shared block per demand).
    """
    clashes: list[str] = []
    seen: Counter[TransferDemand] = Counter()
    for step_no, step in enumerate(sched.steps, start=1):
        srcs = Counter(d.src for d in step)
        dsts = Counter(d.dst for d in step)
        for p, c in srcs.items():
            if c > 1:
                clashes.append(f"step {step_no}: processor {p} sends {c} messages")
        for p, c in dsts.items():
            if c > 1:
                clashes.append(f"step {step_no}: processor {p} receives {c} messages")
        seen.update(step)

    coverage: list[str] = []
    want = Counter(demands)
    for d, c in want.items():
        got = seen.get(d, 0)
        if got != c:
            coverage.append(f"demand {d.src}->{d.dst} blocks {d.blocks} scheduled {got} times, expected {c}")
    for d in seen:
        if d not in want:
            coverage.append(f"scheduled transfer {d.src}->{d.dst} has no matching demand")

    volume: dict[int, int] = {}
    for d in demands:
        volume[d.src] = volume.get(d.src, 0) + len(d.blocks) * chunk
    scheduled_volume: dict[int, int] = {}
    for step in sched.steps:
        for d in step:
            scheduled_volume[d.src] = scheduled_volume.get(d.src, 0) + len(d.blocks) * chunk
    off = sorted(p for p in set(volume) | set(scheduled_volume) if volume.get(p) != scheduled_volume.get(p))

    checks = [
        Check("one_message_per_step", not clashes, "; ".join(clashes)),
        Check("demands_covered", not coverage, "; ".join(coverage)),
        Check("send_volume", not off, f"processors whose scheduled send volume differs from demands: {off[:5]}"),
    ]
    return ScheduleReport(checks, send_volume=volume)


class AllToAllCost(NamedTuple):
    per_vector: int
    both_vectors: int


def alltoall_cost(part: TetraPartition, n: int) -> AllToAllCost:
    """Words sent per processor when each vector moves via an all-to-all.

    The collective runs P-1 steps and every step carries a fixed slot of two
    row-block chunks, whether or not that much is shared with the receiver.
    """
    layout = vector_layout(n, part)
    per_vector = 2 * layout.chunk * (part.P - 1)
    return AllToAllCost(per_vector, 2 * per_vector)
