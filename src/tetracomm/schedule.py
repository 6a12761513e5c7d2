"""Point-to-point communication schedules and the all-to-all cost model.

Every ordered pair of processors with overlapping row-block sets induces one
transfer demand per vector phase.  Demands are layered by the number of
shared blocks; each layer is regular and symmetric and decomposes into
perfect matchings, one communication step per matching, so that within a
step every processor sends at most one message and receives at most one
message.

Demands are held as integer arrays (``Demands``), one row per demand, so
building, scheduling and validating them creates no Python object per
demand.  Iterating a table yields ``TransferDemand`` rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checks import Check, Report

# max_matching stays importable here: perfbench/tracing.py wraps schedule.max_matching
from .matching import BipartiteGraph, euler_orient, max_matching, regular_decompose  # noqa: F401
from .partition import TetraPartition, vector_layout

__all__ = [
    "TransferDemand",
    "Demands",
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


@dataclass(frozen=True, eq=False)
class Demands:
    """A table of transfer demands, one row per demand, sorted by (src, dst).

    src and dst have shape (E,).  blocks has shape (E, w): row e lists the
    row blocks src and dst share in ascending order, padded with 0 after
    its shared count.  Block ids are 1-based, so 0 never names a block.
    Iterating yields TransferDemand rows with plain-int tuples; equality
    compares rows, whatever the padding width.
    """

    src: np.ndarray
    dst: np.ndarray
    blocks: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> Demands:
        """The sorted table of (src, dst, blocks) rows, for demand lists built by hand.

        Raises ValueError for a processor id below 1, for src == dst and for
        blocks that are not strictly increasing ids >= 1, so the 0 padding
        never stands for a block.
        """
        rows = [(int(s), int(t), tuple(int(i) for i in blocks)) for s, t, blocks in rows]
        for s, t, blocks in rows:
            if s < 1 or t < 1 or s == t:
                raise ValueError(f"demand {s}->{t}: processors must be distinct ids >= 1")
            if blocks and (blocks[0] < 1 or any(a >= b for a, b in zip(blocks, blocks[1:]))):
                raise ValueError(f"demand {s}->{t}: blocks {blocks} must be strictly increasing ids >= 1")
        table = np.zeros((len(rows), max((len(r[2]) for r in rows), default=0)), dtype=np.int64)
        for e, (_, _, blocks) in enumerate(rows):
            table[e, : len(blocks)] = blocks
        src = np.array([r[0] for r in rows], dtype=np.int64)
        dst = np.array([r[1] for r in rows], dtype=np.int64)
        order = np.lexsort((dst, src))
        return cls(src[order], dst[order], table[order])

    @property
    def shared(self) -> np.ndarray:
        """The number of shared row blocks of every row."""
        return np.count_nonzero(self.blocks, axis=1)

    @classmethod
    def stack(cls, tables: list[Demands]) -> Demands:
        """One table of all rows of tables, in order, padded to a common width."""
        width = max((t.blocks.shape[1] for t in tables), default=0)
        blocks = np.zeros((sum(len(t) for t in tables), width), dtype=np.int64)
        row = 0
        for t in tables:
            blocks[row : row + len(t), : t.blocks.shape[1]] = t.blocks
            row += len(t)
        none = [np.zeros(0, dtype=np.int64)]
        return cls(np.concatenate([t.src for t in tables] + none), np.concatenate([t.dst for t in tables] + none), blocks)

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self):
        for s, t, blocks, k in zip(self.src.tolist(), self.dst.tolist(), self.blocks.tolist(), self.shared.tolist()):
            yield TransferDemand(s, t, tuple(blocks[:k]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Demands):
            return NotImplemented
        w = int(max(self.shared.max(initial=0), other.shared.max(initial=0)))
        return (
            np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.blocks[:, :w], other.blocks[:, :w])
        )


@dataclass
class CommSchedule:
    """Ordered steps, each a P-row demand table with unique senders and receivers."""

    steps: list[Demands]
    meta: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "meta": self.meta,
            "steps": [
                [{"src": d.src, "dst": d.dst, "blocks": list(d.blocks)} for d in step]
                for step in self.steps
            ],
        }


def build_demands(part: TetraPartition) -> Demands:
    """All ordered-pair demands; symmetric with identical block lists.

    Two processors share row block i exactly when both are in Q_i, so the
    ordered pairs of distinct processors in every Q_i, sorted by
    (src, dst, i) as one integer key and grouped by (src, dst), are the
    demands with their shared blocks in ascending order.
    """
    P, m = part.P, part.m
    keys = []
    for i, procs in enumerate(part.Q, start=1):
        members = np.unique(np.asarray(procs, dtype=np.int64))
        src, dst = np.repeat(members, len(members)), np.tile(members, len(members))
        pair = src != dst
        keys.append((src[pair] * (P + 1) + dst[pair]) * (m + 1) + i)
    key = np.sort(np.concatenate(keys or [np.zeros(0, dtype=np.int64)]))
    pair, block = np.divmod(key, m + 1)
    new = np.diff(pair, prepend=-1) != 0
    first = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    shared = np.diff(first, append=len(key))
    blocks = np.zeros((len(first), int(shared.max(initial=0))), dtype=np.int64)
    blocks[group, np.arange(len(key)) - first[group]] = block
    src, dst = np.divmod(pair[first], P + 1)
    return Demands(src, dst, blocks)


def build_schedule(demands: Demands) -> CommSchedule:
    """Schedule the demands layer by layer (larger shared counts first).

    Layer k holds the demands of processor pairs that share k row blocks.
    For the partition of any Steiner (m, r, 3) design every layer is
    regular.  Two blocks of the design share at most two points; each pair
    of points lies in λ₂ = (m-2)/(r-2) blocks and each point in
    λ₁ = (m-1)(m-2)/((r-1)(r-2)) blocks.  So every processor has
    C(r,2)(λ₂-1) two-share partners and r(λ₁-1-(r-1)(λ₂-1)) one-share
    partners.  A d-regular bipartite graph is d-edge colourable, so
    regular_decompose splits a layer into d perfect matchings, one step
    each: Euler splits halve even degrees, and one Hopcroft-Karp matching
    per subgraph lowers odd ones.  Graph vertices are processor ids, so a
    step lists its demands by ascending sender.

    Every layer is symmetric, since p and p' share the same blocks whichever
    sends: p->p' is a demand exactly when p'->p is.  So one direction of
    each partner pair stands for both.  At even d, euler_orient keeps one
    arc of every pair so that each processor keeps d/2 out-partners and
    d/2 in-partners; regular_decompose colours that d/2-regular half, and
    each of its matchings gives two steps, itself and its inverse.  That
    halves every Euler split and Hopcroft-Karp run below the top level.
    For the spherical designs the two-share degree is q²(q+1)/2 and the
    one-share degree q²-1: both are even when q ≡ 3 (mod 4), only the
    two-share degree when q is even, and only the one-share degree when
    q ≡ 1 (mod 4).  Odd layers are coloured whole.

    A stable sort by shared count keeps every layer sorted by (src, dst),
    so sender s's d demands are row s of layer.reshape(P, d), and a
    layer's steps are found by one binary search on the (src, dst) key and
    cut from one gather of its demand rows.  In an even layer only the
    coloured half is searched: an inverse step's rows are rev of its
    matching's rows, scattered to their receivers.  A layer that is not regular
    on every processor, or not symmetric, raises ValueError.
    """
    P = int(max(demands.src.max(initial=0), demands.dst.max(initial=0)))
    shared = demands.shared
    order = np.argsort(-shared, kind="stable")
    sizes, starts = np.unique(-shared[order], return_index=True)
    senders = np.arange(1, P + 1)

    steps: list[Demands] = []
    layer_meta = []
    blocks_per_step: list[int] = []
    for size, layer in zip((-sizes).tolist(), np.split(order, starts[1:])):
        src, dst = demands.src[layer], demands.dst[layer]
        d = len(layer) // P
        degrees = np.r_[0, np.full(P, d)]
        if not all(np.array_equal(np.bincount(ends, minlength=P + 1), degrees) for ends in (src, dst)):
            raise ValueError(f"layer of {size} shared blocks is not regular on processors 1..{P}")
        key, back = src * (P + 1) + dst, dst * (P + 1) + src
        # rev[a]: the layer row of the reverse of demand a.  In a symmetric layer
        # the reverse keys are the sorted keys again, so that row is back[a]'s rank
        rev = np.empty_like(layer)
        rev[np.argsort(back)] = np.arange(len(layer))
        if not np.array_equal(key[rev], back):
            raise ValueError(f"layer of {size} shared blocks is not symmetric")
        if d % 2:
            receivers = regular_decompose(BipartiteGraph(P, P, dst.reshape(P, d)))
            # row c of receivers pairs sender s with receivers[c, s - 1]
            found = np.searchsorted(key, senders * (P + 1) + receivers)
        else:
            half = regular_decompose(BipartiteGraph(P, P, dst[euler_orient(rev)].reshape(P, d // 2)))
            found = np.searchsorted(key, senders * (P + 1) + half)
            # the inverse of matching c sends every demand of c back: its row for
            # sender half[c, s - 1] is the reverse of c's row for sender s
            back = np.empty_like(found)
            np.put_along_axis(back, half - 1, rev[found], axis=1)
            found = np.concatenate([found, back])
        rows = layer[found]
        steps += [Demands(*step) for step in zip(demands.src[rows], demands.dst[rows], demands.blocks[rows])]
        layer_meta.append({"shared_blocks": size, "demands": len(layer), "steps": len(found)})
        blocks_per_step += [size] * len(found)

    meta = {"steps": len(steps), "layers": layer_meta, "blocks_per_step": blocks_per_step}
    return CommSchedule(steps=steps, meta=meta)


@dataclass
class ScheduleReport(Report):
    send_volume: dict[int, int]


def validate(sched: CommSchedule, demands: Demands, chunk: int = 1) -> ScheduleReport:
    """Check one-send/one-receive per step, exact demand coverage and send volumes.

    The checks are one_message_per_step, demands_covered and send_volume.
    send_volume maps each processor to the words it sends across the
    schedule (chunk words per shared block per demand).  A clash names the
    step and processor; a coverage problem names the demand, or the
    scheduled transfer that matches no demand.
    """
    sent = Demands.stack(sched.steps)
    step_of = np.repeat(np.arange(len(sched.steps)), [len(step) for step in sched.steps])
    P = int(max(a.max(initial=0) for a in (demands.src, demands.dst, sent.src, sent.dst)))

    clashes: list[tuple] = []
    for verb_no, (verb, ends) in enumerate((("sends", sent.src), ("receives", sent.dst))):
        key = step_of * (P + 1) + ends
        count = np.bincount(key)
        if count.max(initial=0) > 1:
            keys, first = np.unique(key, return_index=True)
            for k, e in zip(keys.tolist(), first.tolist()):
                if count[k] > 1:
                    text = f"step {step_of[e] + 1}: processor {ends[e]} {verb} {count[k]} messages"
                    clashes.append((step_of[e], verb_no, e, text))

    # demands with one row per (src, dst) are covered when the scheduled rows, sorted, equal
    # them, as Demands.__eq__ compares rows; each table's shared counts are taken once
    sent_shared, demand_shared = sent.shared, demands.shared
    width = int(max(sent_shared.max(initial=0), demand_shared.max(initial=0)))
    pair = demands.src * (P + 1) + demands.dst
    by_pair = np.argsort(sent.src * (P + 1) + sent.dst, kind="stable")
    coverage: list[str] = []
    if not (
        len(sent) == len(demands)
        and np.all(np.diff(pair) > 0)
        and np.array_equal(sent.src[by_pair], demands.src)
        and np.array_equal(sent.dst[by_pair], demands.dst)
        and np.array_equal(sent.blocks[by_pair, :width], demands.blocks[:, :width])
    ):
        # rows of the demands, then of the schedule, in first-seen order
        want, got = Counter(demands), Counter(sent)
        for d in dict.fromkeys([*demands, *sent]):
            if want[d] == got[d]:
                continue
            if want[d]:
                coverage.append(f"demand {d.src}->{d.dst} blocks {d.blocks} scheduled {got[d]} times, expected {want[d]}")
            else:
                coverage.append(f"scheduled transfer {d.src}->{d.dst} has no matching demand")

    def words(table: Demands, shared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        volume = np.bincount(table.src, weights=shared, minlength=P + 1).astype(np.int64) * chunk
        return np.bincount(table.src, minlength=P + 1) > 0, volume

    (senders, volume), (scheduled_senders, scheduled_volume) = words(demands, demand_shared), words(sent, sent_shared)
    off = np.flatnonzero((senders != scheduled_senders) | (volume != scheduled_volume)).tolist()

    checks = [
        Check("one_message_per_step", not clashes, "; ".join(text for *_, text in sorted(clashes))),
        Check("demands_covered", not coverage, "; ".join(coverage)),
        Check("send_volume", not off, f"processors whose scheduled send volume differs from demands: {off[:5]}"),
    ]
    send_volume = {p: int(volume[p]) for p in np.flatnonzero(senders).tolist()}
    return ScheduleReport(checks, send_volume=send_volume)


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
