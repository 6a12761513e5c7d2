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

import numpy as np

from .checks import Check, Report
from .keys import key_dtype

# max_matching stays importable here: perfbench/tracing.py wraps schedule.max_matching
from .matching import max_matching, regular_decompose  # noqa: F401
from .partition import TetraPartition, vector_layout

__all__ = [
    "Demands",
    "CommSchedule",
    "ScheduleReport",
    "build_demands",
    "build_schedule",
    "messages",
    "validate",
    "alltoall_cost",
]


@dataclass(frozen=True, eq=False)
class Demands:
    """A table of transfer demands, one row per demand, sorted by (src, dst).

    src and dst have shape (E,) and hold processor ids from 1, which the
    keys of ``messages`` and ``validate`` pack unsigned.  blocks has shape
    (E, w): row e lists the row blocks src and dst share in ascending
    order, padded with 0 after its shared count.  Block ids are 1-based, so
    0 never names a block.
    orbits is the orbit table of the partition the demands come from
    (``TetraPartition.orbits``), on which ``build_schedule`` splits every
    layer; None for a table built by hand, scheduled on the trivial group.
    """

    src: np.ndarray
    dst: np.ndarray
    blocks: np.ndarray
    orbits: np.ndarray | None = None

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
    reads close together, and scattered back; when the sorted keys are the
    demand keys, as when every demand is carried once, row e of them is
    demand e and nothing is searched.
    """
    rows = [np.asarray(step, dtype=np.int64).ravel() for step in steps]
    none = [np.zeros(0, dtype=np.int64)]
    src, dst = np.concatenate(none + [np.arange(1, len(row) + 1) for row in rows]), np.concatenate(none + rows)
    P = demands.processors
    kind = key_dtype(P * (P + 1) + P)
    key = np.clip(src, 0, P).astype(kind) * (P + 1) + np.clip(dst, 0, P).astype(kind)
    order = np.argsort(key)
    key = key[order]
    demand_keys = demands.src.astype(kind) * (P + 1) + demands.dst.astype(kind)
    at = np.arange(len(key)) if np.array_equal(key, demand_keys) else np.searchsorted(demand_keys, key)
    hit = at < len(demands)
    hit[hit] = demand_keys[at[hit]] == key[hit]
    row = np.empty(len(key), dtype=np.int64)
    row[order] = np.where(hit, at, -1)
    # an id outside 1..P was clipped into the key range, so its key matches no demand of its own
    return src, dst, np.where((src <= P) & (dst >= 1) & (dst <= P), row, -1)


def build_demands(part: TetraPartition) -> Demands:
    """All ordered-pair demands; symmetric with identical block lists.

    Two processors share row block i exactly when both are in Q_i, so the
    ordered pairs of distinct processors in every Q_i, sorted by
    (src, dst, i) as one integer key and grouped by (src, dst), are the
    demands with their shared blocks in ascending order.  The key holds
    src, dst and i as bit fields, which shifts and masks take apart.  Q is
    read as one (m, g) array, whose rows ``build_partition`` gives
    ascending and distinct, and the partition's orbit table is carried
    along.
    """
    P, m = part.P, part.m
    low, mid = m.bit_length(), P.bit_length()
    kind = key_dtype(((P << mid | P) << low) | m)
    Q = np.asarray(part.Q, dtype=kind)
    src, dst = Q[:, :, None], Q[:, None, :]
    key = (src << mid | dst) << low | np.arange(1, m + 1, dtype=kind)[:, None, None]
    key = key[src != dst]
    key.sort()
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.greater_equal(key[1:] ^ key[:-1], 1 << low, out=new[1:])  # the pair bits differ
    first = np.flatnonzero(new)
    shared = np.diff(first, append=len(key))
    blocks = np.empty((len(first), int(shared.max(initial=0))), dtype=np.int64)
    head = key[first]  # each demand's first key: its pair and its least block
    np.bitwise_and(head[:, None], (1 << low) - 1, out=blocks[:, :1])
    for c in range(1, blocks.shape[1]):  # column c holds each run's (c+1)-th block, 0 where the run is shorter
        column = np.take(key[c:], first, mode="clip")
        column &= (1 << low) - 1
        np.multiply(column, shared > c, out=blocks[:, c])
    pair = (head >> low).astype(np.int64)
    src = pair >> mid
    pair &= (1 << mid) - 1
    return Demands(src, pair, blocks, part.orbits)


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
    freely on the processors and maps demands to demands of the same layer,
    read from demands.orbits.  For a spherical (q^2+1, q+1, 3) design
    ``build_partition`` found h, a Möbius map of the design, through
    ``steiner.mobius_orbits``, with e·q orbits of length L (e = gcd(2, q-1),
    L = (q^2+1)/e).  Any other design, such as that of a design file, and a
    table built by hand (orbits None) take the trivial group, every
    processor its own orbit with L = 1.  h keeps every demand in its layer
    by construction: the orbits' processor permutation π takes R_p to
    h(R_p) and h permutes the points, so |R_π(p) ∩ R_π(p')| = |R_p ∩ R_p'|,
    and ``build_demands`` reads the demands from Q, which ``build_partition``
    reads from the same sets R.  So p -> p' is a demand of layer k exactly
    when π(p) -> π(p') is.

    With processor p written as (orbit, position), every demand
    (a, j) -> (b, j') lies in the class (a, b, k = j' - j mod L), and each
    class is a bijection from orbit a onto orbit b.  So the layer's classes,
    as edges a -> b, form a d-regular bipartite multigraph on the orbits,
    which one regular_decompose call splits into d perfect matchings
    (``_orbit_steps``).  Every colour of that small graph is one step,
    filled for the whole layer by one fancy index.
    """
    P = demands.processors
    kind = key_dtype(P * (P + 1) + P)
    shared = demands.shared
    layers = []
    for size in np.flatnonzero(np.bincount(shared))[::-1].tolist():
        layer = shared == size
        src, dst = demands.src[layer], demands.dst[layer]
        degrees = np.r_[0, np.full(P, len(src) // P)]
        if not all(np.array_equal(np.bincount(ends, minlength=P + 1), degrees) for ends in (src, dst)):
            raise ValueError(f"layer of {size} shared blocks is not regular on processors 1..{P}")
        # in a symmetric layer the reverse keys, sorted, are the sorted keys again
        s, t = src.astype(kind), dst.astype(kind)
        if not np.array_equal(np.sort(t * (P + 1) + s), s * (P + 1) + t):
            raise ValueError(f"layer of {size} shared blocks is not symmetric")
        layers.append((size, src, dst))

    members = np.arange(1, P + 1)[:, None] if demands.orbits is None else demands.orbits
    steps: list[np.ndarray] = []
    layer_meta = []
    for size, src, dst in layers:
        rows = _orbit_steps(members, dst, len(src) // P)
        steps += list(rows)
        layer_meta.append({"shared_blocks": size, "demands": len(src), "steps": len(rows)})

    blocks_per_step = [layer["shared_blocks"] for layer in layer_meta for _ in range(layer["steps"])]
    meta = {"steps": len(steps), "layers": layer_meta, "blocks_per_step": blocks_per_step}
    return CommSchedule(steps, demands, meta)


def _orbit_steps(members: np.ndarray, dst: np.ndarray, d: int) -> np.ndarray:
    """The (d, P) receiver rows of one layer, from its classes of demands between orbits.

    dst lists the layer's receivers by (src, dst), d to a sender, and
    members is the (E, L) orbit table, row a listing orbit a, with
    members[a, j + 1] = π(members[a, j]).  Sender members[a, 0]'s
    d rows represent the classes of orbit a: a demand to members[b, k]
    stands for the class (a, b, k), keyed b·L + k and sorted per row.  The
    keys' orbits b + 1 are the rows of the orbit multigraph; each colour of
    regular_decompose's picks one class (b, k) per orbit a, and step t
    sends members[a, j] to members[b, (j + k) % L], read for every sender
    in processor order from the table written twice side by side, so that
    no index wraps.
    """
    E, L = members.shape
    orbit, pos = np.empty((2, E * L + 1), dtype=key_dtype(E * L - 1))
    orbit[members], pos[members] = np.arange(E)[:, None], np.arange(L)
    to = dst.reshape(-1, d)[members[:, 0] - 1]
    key = np.sort(orbit[to] * L + pos[to], axis=1)
    # step t sends orbit a to orbit b[t, a], shifted by k[t, a]
    b, k = np.divmod(key.ravel()[regular_decompose(key // L + 1)], L)
    twice = np.concatenate([members, members], axis=1)
    return twice.ravel()[np.take(b * (2 * L) + k, orbit[1:], axis=1) + pos[1:]]


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
    kind = key_dtype(P * (P + 2) + P + 1)
    clipped = np.clip(table, 0, P + 1).astype(kind)
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
    key = (senders.astype(kind) * (P + 2) + clipped).ravel()
    key.sort()
    if not np.array_equal(key, demands.src.astype(kind) * (P + 2) + demands.dst.astype(kind)):
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


def alltoall_cost(part: TetraPartition, n: int) -> int:
    """Words sent per processor per vector when each vector moves via an all-to-all.

    The collective runs P-1 steps and every step carries a fixed slot of two
    row-block chunks, whether or not that much is shared with the receiver.
    """
    return 2 * vector_layout(n, part).chunk * (part.P - 1)
