"""Point-to-point communication schedules and the all-to-all cost model.

Every ordered pair of processors with overlapping row-block sets induces one
transfer demand per vector phase.  Demands are layered by the number of
shared blocks; each layer is regular and symmetric and decomposes into
perfect matchings, one communication step per matching, so that within a
step every processor sends one message and receives one message.

Demands are held as integer arrays (``Demands``), one row per demand, so
building, scheduling and validating them creates no Python object per
demand.  A step is one row of receivers indexed by sender; the blocks a
message carries live only in the demand table, read by ``messages``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import steiner
from .checks import Check, Report

# max_matching stays importable here: perfbench/tracing.py wraps schedule.max_matching
from .matching import max_matching, regular_decompose  # noqa: F401
from .partition import TetraPartition, vector_layout

__all__ = [
    "Demands",
    "CommSchedule",
    "ScheduleReport",
    "AllToAllCost",
    "build_demands",
    "build_schedule",
    "messages",
    "validate",
    "alltoall_cost",
]


@dataclass(frozen=True, eq=False)
class Demands:
    """A table of transfer demands, one row per demand, sorted by (src, dst).

    src and dst have shape (E,).  blocks has shape (E, w): row e lists the
    row blocks src and dst share in ascending order, padded with 0 after
    its shared count.  Block ids are 1-based, so 0 never names a block.
    """

    src: np.ndarray
    dst: np.ndarray
    blocks: np.ndarray

    @property
    def shared(self) -> np.ndarray:
        """The number of shared row blocks of every row."""
        # one pass per column: count_nonzero along short rows is several times slower
        shared = np.zeros(len(self.blocks), dtype=np.int64)
        for column in self.blocks.T:
            shared += column != 0
        return shared

    @property
    def processors(self) -> int:
        """The largest processor id in the table, 0 when it is empty."""
        return int(max(self.src.max(initial=0), self.dst.max(initial=0)))

    def __len__(self) -> int:
        return len(self.src)


@dataclass
class CommSchedule:
    """Ordered steps over the demands they serve.

    A step is one int64 row of receivers: in step s processor p sends to
    steps[s][p - 1].  A valid step is a permutation of the processors 1..P.
    The blocks of every message are those of its row in demands
    (``messages``).
    """

    steps: list[np.ndarray]
    demands: Demands
    meta: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        src, dst, row = messages(self.steps, self.demands)
        blocks, shared = self.demands.blocks.tolist(), self.demands.shared.tolist()
        sent = iter(
            {"src": s, "dst": t, "blocks": blocks[r][: shared[r]] if r >= 0 else []}
            for s, t, r in zip(src.tolist(), dst.tolist(), row.tolist())
        )
        return {"meta": self.meta, "steps": [list(islice(sent, len(step))) for step in self.steps]}


def messages(steps, demands: Demands) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every message of the receiver rows steps as (src, dst, row) arrays.

    Messages come by step, then by sender: step s sends from p to
    steps[s][p - 1].  row is the row of demands whose blocks the message
    carries, found by a binary search on the (src, dst) key, or -1 where
    no demand matches, so that such a message carries no blocks.  The
    message keys are searched in sorted order, which keeps the searches'
    reads close together, and scattered back.
    """
    rows = [np.asarray(step, dtype=np.int64).ravel() for step in steps]
    none = [np.zeros(0, dtype=np.int64)]
    src, dst = np.concatenate(none + [np.arange(1, len(row) + 1) for row in rows]), np.concatenate(none + rows)
    # ids outside 1..P are clipped into the key range and then fail the row comparison
    P = demands.processors
    key = np.clip(src, 0, P) * (P + 1) + np.clip(dst, 0, P)
    order = np.argsort(key)
    at = np.empty_like(key)
    at[order] = np.searchsorted(demands.src * (P + 1) + demands.dst, key[order])
    hit = at < len(demands)
    hit[hit] = (demands.src[at[hit]] == src[hit]) & (demands.dst[at[hit]] == dst[hit])
    return src, dst, np.where(hit, at, -1)


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
    partners.  A layer of degree d is split into d steps, each a perfect
    matching: every processor sends one message and receives one.  Every
    layer keeps the table's (src, dst) order, so sender s's d demands are
    row s of layer.reshape(P, d).  A layer that is not regular on every
    processor, or not symmetric (p->p' a demand exactly when p'->p is),
    raises ValueError before any layer is split.

    Every layer is split on the orbits of a cyclic group <h> that acts
    freely on the processors and maps demands to demands of the same layer
    (``_cyclic_orbits``).  For a spherical (q^2+1, q+1, 3) design h is a
    Möbius map of the design, with e·q orbits of length L (e = gcd(2, q-1),
    L = (q^2+1)/e); for any other table, such as that of a design file, the
    group is trivial, every processor its own orbit with L = 1.  With
    processor p written as (orbit, position), every demand (a, j) -> (b, j')
    lies in the class (a, b, k = j' - j mod L), and each class is a
    bijection from orbit a onto orbit b.  So the layer's classes, as edges
    a -> b, form a d-regular bipartite multigraph on the orbits, which one
    regular_decompose call splits into d perfect matchings (``_orbit_steps``).
    Every colour of that small graph is one step, filled for the whole
    layer by one fancy index.
    """
    P = demands.processors
    shared = demands.shared
    layers = []
    for size in np.flatnonzero(np.bincount(shared))[::-1].tolist():
        layer = shared == size
        src, dst = demands.src[layer], demands.dst[layer]
        degrees = np.r_[0, np.full(P, len(src) // P)]
        if not all(np.array_equal(np.bincount(ends, minlength=P + 1), degrees) for ends in (src, dst)):
            raise ValueError(f"layer of {size} shared blocks is not regular on processors 1..{P}")
        # in a symmetric layer the reverse keys, sorted, are the sorted keys again
        if not np.array_equal(np.sort(dst * (P + 1) + src), src * (P + 1) + dst):
            raise ValueError(f"layer of {size} shared blocks is not symmetric")
        layers.append((size, src, dst))

    members = _cyclic_orbits(demands, shared)
    steps: list[np.ndarray] = []
    layer_meta = []
    for size, src, dst in layers:
        rows = _orbit_steps(members, dst, len(src) // P)
        steps += list(rows)
        layer_meta.append({"shared_blocks": size, "demands": len(src), "steps": len(rows)})

    blocks_per_step = [layer["shared_blocks"] for layer in layer_meta for _ in range(layer["steps"])]
    meta = {"steps": len(steps), "layers": layer_meta, "blocks_per_step": blocks_per_step}
    return CommSchedule(steps, demands, meta)


def _cyclic_orbits(demands: Demands, shared: np.ndarray) -> np.ndarray:
    """members: row a lists orbit a of <h> on the processors, trivial orbits when the table is no spherical design's.

    m is the largest block id, P the largest processor id and R_p the
    blocks of p's rows.  When every R_p has one size, the group and its
    (E, L) table come from ``steiner.mobius_orbits`` on the R_p, with
    members[a, j] = π^j(members[a, 0]) for the processor permutation π.
    The table is a design's only when, besides that helper's checks, π
    maps the (src, dst, shared) rows onto themselves; otherwise, as for any
    table the helper does not take, the result is the (P, 1) column of ids
    1..P.  Ids are 1-based.
    """
    P, m = demands.processors, int(demands.blocks.max(initial=0))
    trivial = np.arange(1, P + 1)[:, None]
    member = np.zeros((P + 1, m + 1), dtype=bool)
    member[demands.src[:, None], demands.blocks] = True
    member = member[1:, 1:]  # column 0 is the padding
    sizes = np.count_nonzero(member, axis=1)
    if P == 0 or np.any(sizes != sizes[0]):
        return trivial
    # 0-based point ids, as mobius_cycle numbers them, ascending in every row
    members = steiner.mobius_orbits(np.nonzero(member)[1].reshape(P, sizes[0]), m)[1]
    if members.shape[1] == 1:
        return trivial
    pi = np.empty(P, dtype=np.int64)  # 0-based
    pi[members - 1] = np.roll(members, -1, axis=1) - 1

    # rows are sorted by (src, dst) and every sender has D of them, so π
    # maps sender s's rows onto sender π(s)'s when their sorted codes agree
    D = len(demands) // P
    w = int(shared.max(initial=0)) + 1
    rows = (demands.dst * w + shared).reshape(P, D)
    moved = np.sort(np.r_[0, pi + 1][demands.dst].reshape(P, D) * w + shared.reshape(P, D), axis=1)
    return members if np.array_equal(moved, rows[pi]) else trivial


def _orbit_steps(members: np.ndarray, dst: np.ndarray, d: int) -> np.ndarray:
    """The (d, P) receiver rows of one layer, from its classes of demands between orbits.

    dst lists the layer's receivers by (src, dst), d to a sender, and
    members is ``_cyclic_orbits``'s (E, L) table.  Sender members[a, 0]'s
    d rows represent the classes of orbit a: a demand to members[b, k]
    stands for the class (a, b, k), keyed b·L + k and sorted per row.  The
    keys' orbits b + 1 are the rows of the orbit multigraph; each colour of
    regular_decompose's picks one class (b, k) per orbit a, and step t
    sends members[a, j] to members[b, (j + k) % L].
    """
    E, L = members.shape
    orbit, pos = np.empty((2, E * L + 1), dtype=np.int64)
    orbit[members], pos[members] = np.arange(E)[:, None], np.arange(L)
    to = dst.reshape(-1, d)[members[:, 0] - 1]
    key = np.sort(orbit[to] * L + pos[to], axis=1)
    # step t sends orbit a to orbit b[t, a], shifted by k[t, a]
    b, k = np.divmod(key.ravel()[regular_decompose(key // L + 1)], L)
    rows = np.empty((d, E * L), dtype=np.int64)
    rows[np.arange(d)[:, None, None], members - 1] = members[b[:, :, None], (np.arange(L) + k[:, :, None]) % L]
    return rows


@dataclass
class ScheduleReport(Report):
    send_volume: dict[int, int]


def validate(sched: CommSchedule, demands: Demands, chunk: int = 1) -> ScheduleReport:
    """Check that every step is a permutation, exact demand coverage and send volumes.

    The checks are one_message_per_step, demands_covered and send_volume,
    each one whole-array pass over the steps stacked as rows:

    * every step is a row of P receivers, each in 1..P, that is a
      permutation with no processor sending to itself.  A problem names the
      step and the processor; a row of the wrong length sends nothing;
    * the (src, dst) keys of the messages, sorted, equal the demand keys:
      every message matches one demand and every demand is carried once.
      A problem names the demand, or the message that matches no demand;
    * every processor sends the words its demands need, chunk words per
      shared block per demand, which send_volume maps it to.  Exact
      coverage implies them; otherwise each message carries the blocks of
      its demand row, and one that matches no demand carries none.
    """
    P = demands.processors
    rows = [np.asarray(row, dtype=np.int64).ravel() for row in sched.steps]
    clashes = [(s, f"step {s + 1}: {len(row)} senders, expected {P}") for s, row in enumerate(rows) if len(row) != P]
    # table[i] is step kept[i], one of the rows of P receivers.  A receiver
    # outside 1..P is clipped to 0 or P + 1, which no demand has
    kept = [s for s, row in enumerate(rows) if len(row) == P]
    table = np.array([rows[s] for s in kept], dtype=np.int64).reshape(len(kept), P)
    senders = np.arange(1, P + 1)
    clipped = np.clip(table, 0, P + 1)
    # count[i, r]: the messages r receives in step kept[i]
    count = np.bincount((np.arange(len(kept))[:, None] * (P + 2) + clipped).ravel(), minlength=table.size + 2 * len(kept))
    count = count.reshape(len(kept), P + 2)
    if not np.all(count[:, 1:-1] == 1) or np.any(table == senders):
        for i, p in zip(*(a.tolist() for a in np.nonzero((table < 1) | (table > P) | (table == senders)))):
            to = "itself" if table[i, p] == p + 1 else f"{table[i, p]}, outside 1..{P}"
            clashes.append((kept[i], f"step {kept[i] + 1}: processor {p + 1} sends to {to}"))
        for i, r in zip(*(a.tolist() for a in np.nonzero(count[:, 1:-1] > 1))):
            clashes.append((kept[i], f"step {kept[i] + 1}: processor {r + 1} receives {count[i, r + 1]} messages"))
    clashes.sort(key=lambda clash: clash[0])

    # demands are sorted by src, so sender p's rows are first[p - 1] up to
    # first[p].  reduceat sums the runs of the active senders, those with
    # rows, only, as it would give an empty run the row at its start
    first = np.searchsorted(demands.src, np.arange(1, P + 2))
    active = np.flatnonzero(np.diff(first)) + 1
    volume = np.zeros(P + 1, dtype=np.int64)
    volume[active] = np.add.reduceat(demands.blocks != 0, first[active - 1], axis=0, dtype=np.int64).sum(axis=1) * chunk
    coverage: list[str] = []
    off: list[int] = []
    key = (senders * (P + 2) + clipped).ravel()
    key.sort()
    if not np.array_equal(key, demands.src * (P + 2) + demands.dst):
        src, dst, row = messages(table, demands)
        shared = demands.shared
        matched = row >= 0
        times = np.bincount(row[matched], minlength=len(demands))
        coverage = [
            f"demand {demands.src[e]}->{demands.dst[e]} blocks {tuple(demands.blocks[e, : shared[e]].tolist())} "
            f"scheduled {times[e]} times, expected 1"
            for e in np.flatnonzero(times != 1).tolist()
        ]
        unmatched = dict.fromkeys(zip(src[~matched].tolist(), dst[~matched].tolist()))
        coverage += [f"scheduled transfer {s}->{t} has no matching demand" for s, t in unmatched]
        carried = np.bincount(src[matched], weights=shared[row[matched]], minlength=P + 1).astype(np.int64) * chunk
        off = np.flatnonzero(volume != carried).tolist()

    checks = [
        Check("one_message_per_step", not clashes, "; ".join(text for _, text in clashes)),
        Check("demands_covered", not coverage, "; ".join(coverage)),
        Check("send_volume", not off, f"processors whose scheduled send volume differs from demands: {off[:5]}"),
    ]
    return ScheduleReport(checks, send_volume={p: int(volume[p]) for p in active.tolist()})


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
