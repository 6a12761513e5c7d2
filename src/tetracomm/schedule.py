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

import numpy as np

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


class TransferDemand(NamedTuple):
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
    equally often in each layer.  A d-regular bipartite graph is d-edge
    colourable, so regular_decompose splits each layer into d perfect
    matchings, one step each: Euler splits halve even degrees, and one
    Hopcroft-Karp matching per subgraph lowers odd ones.  Graph vertices
    are processor ids, so a step lists its demands by ascending sender.  A
    demand list with an irregular layer, or with a layer that leaves out a
    processor, raises regular_decompose's ValueError.
    """
    src = np.array([d.src for d in demands], dtype=np.int64)
    dst = np.array([d.dst for d in demands], dtype=np.int64)
    shared = np.array([len(d.blocks) for d in demands], dtype=np.int64)
    P = int(max(src.max(initial=0), dst.max(initial=0)))
    # index[src, dst]: the demand of that pair in the current layer
    index = np.zeros((P + 1, P + 1), dtype=np.int64)
    senders = np.arange(1, P + 1)

    steps: list[list[TransferDemand]] = []
    layer_meta = []
    for size in sorted(set(shared.tolist()), reverse=True):
        layer = np.flatnonzero(shared == size)
        index[src[layer], dst[layer]] = layer
        adj: list[list[int]] = [[] for _ in range(P)]
        for s, t in zip(src[layer].tolist(), dst[layer].tolist()):
            adj[s - 1].append(t)

        mats = regular_decompose(BipartiteGraph(P, P, adj), len(adj[0]))
        for mat in mats:
            # a perfect matching sorted by x pairs sender s with pairs[s - 1]
            receivers = [y for _, y in mat.pairs]
            steps.append([demands[i] for i in index[senders, receivers].tolist()])
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
        for verb, ends in (("sends", [d.src for d in step]), ("receives", [d.dst for d in step])):
            for p, c in Counter(ends).items():
                if c > 1:
                    clashes.append(f"step {step_no}: processor {p} {verb} {c} messages")
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

    volume, scheduled_volume = Counter(), Counter()
    for counts, vol in ((want, volume), (seen, scheduled_volume)):
        for d, c in counts.items():
            vol[d.src] += c * len(d.blocks) * chunk
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
