"""Tetrahedral block partition of a symmetric tensor's lower tetrahedron.

Block coordinates are 1-based triples (i, j, k) with i >= j >= k:
off-diagonal when strict, non-central diagonal when exactly two coordinates
are equal, central diagonal when all three are equal.  A design with m
points and blocks R_p induces the partition: processor p owns TB3(R_p) plus
matched diagonal blocks whose coordinates stay inside R_p, so its block
computations never need vector data beyond the row blocks of R_p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .finite_field import prime_power

# d_disjoint_matchings stays importable here: perfbench/tracing.py wraps partition.d_disjoint_matchings
from .matching import BipartiteGraph, _cycle_min, _hopcroft_karp, d_disjoint_matchings, max_matching  # noqa: F401
from .steiner import SteinerSystem, mobius_orbits

__all__ = [
    "BlockIndex",
    "TetraPartition",
    "VectorLayout",
    "DesignUnsuitableError",
    "noncentral_blocks",
    "owned_blocks",
    "build_partition",
    "validate_partition",
    "vector_layout",
    "pad_dimension",
    "storage_count",
]


class DesignUnsuitableError(RuntimeError):
    """The design lacks the structure needed for a balanced assignment."""


class BlockIndex(NamedTuple):
    i: int
    j: int
    k: int


def noncentral_blocks(m: int) -> list[BlockIndex]:
    """The m(m-1) blocks with exactly two equal coordinates, sorted.

    For a > b, (a, b, b) is block (a-1)(a-2) + b of the list, counting
    from 1, and (a, a, b) is block (a-1)(a-2) + (a-1) + b.
    """
    out = []
    for a in range(2, m + 1):
        out += [BlockIndex(a, b, b) for b in range(1, a)]
        out += [BlockIndex(a, a, b) for b in range(1, a)]
    return out


@dataclass
class TetraPartition:
    """Per-processor block ownership derived from an (m, r, 3) design.

    R[p-1] is processor p's index set, N[p-1]/D[p-1] its non-central and
    central diagonal blocks, Q[i-1] the processors whose sets contain row
    block i.  q is set when the design has spherical parameters
    (m, r) = (q^2+1, q+1), None otherwise.
    """

    label: str
    m: int
    r: int
    P: int
    q: int | None
    R: list[tuple[int, ...]]
    N: list[list[BlockIndex]]
    D: list[list[BlockIndex]]
    Q: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def group_size(self) -> int:
        return len(self.Q[0])

    def to_json_obj(self) -> dict:
        return {
            "meta": {"label": self.label, "m": self.m, "r": self.r, "P": self.P, "q": self.q},
            "processors": [
                {
                    "p": p,
                    "R": list(self.R[p - 1]),
                    "N": [list(blk) for blk in self.N[p - 1]],
                    "D": [list(blk) for blk in self.D[p - 1]],
                }
                for p in range(1, self.P + 1)
            ],
            "row_blocks": [{"i": i, "Q": list(self.Q[i - 1])} for i in range(1, self.m + 1)],
        }


def build_partition(system: SteinerSystem, label: str | None = None) -> TetraPartition:
    """Assign every lower-tetrahedral block of an m-block tensor to a processor.

    Off-diagonal blocks follow the design directly (TB3 of each block's index
    set).  Non-central diagonal blocks are split evenly, d = m(m-1)/P per
    processor, on the orbits of a cyclic group; central diagonal blocks go
    to distinct compatible processors via one maximum matching.  The caller
    is expected to pass a verified system; a block that is not a strictly
    increasing r-subset of 1..m, or an unsuitable design, raises
    DesignUnsuitableError naming the first such block or the failing stage.

    A non-central block is one ordered pair (x, y) of distinct points: the
    block (x, x, y) when x > y and (y, x, x) when x < y, which processor p
    may own when x and y lie in R_p.  The spherical (q^2+1, q+1, 3) design
    is the orbit of one block under PGL(2, q^2) (P. Dembowski, *Finite
    Geometries*, 1968), so Möbius maps permute its blocks.
    ``steiner.mobius_orbits`` gives a cyclic group <h> of order
    L = (q^2+1)/e, e = gcd(2, q-1), that acts freely on the processors, with
    π^t taking R_p to h^t(R_p).  h lies in a non-split torus, whose elements
    other than the identity fix no point, so <h> acts freely on the ordered
    pairs too: e·q^2 pair orbits of length L face e·q processor orbits, and
    each processor orbit takes q of them.  Processor orbit a is joined to
    the orbits of the r(r-1) pairs of its least member, and one
    Hopcroft-Karp search on d copies of every orbit's row gives each orbit
    its d pair orbits.  A row lists its distinct orbits, so rows may differ
    in length: a least member can hold two pairs of one orbit.  When orbit
    a takes pair orbit O at the first pair x of its least member in O,
    processor members[a, t] = π^t(members[a, 0]) takes h^t(x), which lies
    in its own set; as t runs over 0..L-1 that is every pair of O once.
    Any other design takes the trivial group, L = 1: every processor and
    every pair is its own orbit, a pair orbit is numbered by its id in
    ``noncentral_blocks(m)``, and the search runs on the P x m(m-1) graph
    whose row p lists the ids of R_p's pairs in ascending order.

    The blocks are read as one (P, r) integer array, Q comes from one (m, P)
    membership array, and the pairs' ids and orbits are (m, m) and
    (m(m-1)+1,) integer tables.
    """
    m, r = system.n, system.r
    blocks = system.blocks
    P = len(blocks)
    wrong_length = np.fromiter(map(len, blocks), dtype=np.int64, count=P) != r
    first = int(np.argmax(wrong_length)) if wrong_length.any() else P
    sets = np.fromiter(chain.from_iterable(blocks[:first]), dtype=np.int64, count=first * r).reshape(first, r)
    good = np.all((sets >= 1) & (sets <= m), axis=1) & np.all(sets[:, 1:] > sets[:, :-1], axis=1)
    if not good.all():
        first = int(np.argmin(good))
    if first < P:
        raise DesignUnsuitableError(f"block {first + 1}, {blocks[first]}, is not a strictly increasing {r}-subset of 1..{m}")
    if P == 0:
        raise DesignUnsuitableError("the design has no blocks")

    member = np.zeros((m, P), dtype=bool)
    member[sets - 1, np.arange(P)[:, None]] = True
    sharing = np.count_nonzero(member, axis=1)
    if len(np.unique(sharing)) != 1:
        raise DesignUnsuitableError("row-block sharing stage: |Q_i| is not uniform across row blocks")
    holders = np.nonzero(member)[1].reshape(m, sharing[0]) + 1

    total_nc = m * (m - 1)
    if total_nc % P != 0:
        raise DesignUnsuitableError(
            f"non-central stage: {total_nc} blocks do not divide evenly over {P} processors"
        )
    d = total_nc // P
    h, members = mobius_orbits(sets - 1, m)
    E, L = members.shape
    # ids[x, y]: the noncentral_blocks id of the ordered pair (x, y) of 0-based
    # points, the block (x, x, y) when x > y and (y, x, x) when x < y; 0 when x = y
    x, y = np.indices((m, m))
    big, small = np.maximum(x, y), np.minimum(x, y)
    ids = big * (big - 1) + small + 1 + np.where(x > y, big, 0)
    np.fill_diagonal(ids, 0)
    step = np.zeros(total_nc + 1, dtype=np.int64)
    step[ids] = ids[h[:, None], h]
    orbit = _cycle_min(step)  # every pair orbit's least id

    # the r(r-1) ordered pairs of every orbit's least member, and the distinct
    # pair orbits they lie in, ascending, as its row of the orbit graph
    first, second = np.nonzero(~np.eye(r, dtype=bool))
    rep = sets[members[:, 0] - 1] - 1
    ends = rep[:, first], rep[:, second]
    held = orbit[ids[ends]]
    ordered = np.sort(held, axis=1)
    fresh = np.ones(ordered.shape, dtype=bool)
    fresh[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    rows = [row[keep].tolist() for row, keep in zip(ordered, fresh)]
    # copy c of orbit a is vertex a·d + c + 1 of the replicated graph
    mate = _hopcroft_karp([row for row in rows for _ in range(d)], total_nc)
    matched = np.count_nonzero(mate)
    if matched != E * d:
        raise DesignUnsuitableError(
            f"non-central stage: replicated matching covered {matched} of {E * d} copies; "
            f"{d} disjoint X-covering matchings do not exist"
        )
    # orbit a takes each matched pair orbit at the first pair of its least
    # member that lies in it, and members[a, t] takes that pair's image by h^t
    at = np.argmax(held[:, None, :] == mate.reshape(E, d)[:, :, None], axis=2)
    x0, y0 = (np.take_along_axis(end, at, axis=1) for end in ends)
    powers = np.empty((L, m), dtype=np.int64)
    powers[0] = np.arange(m)
    for t in range(1, L):
        powers[t] = h[powers[t - 1]]
    owned = np.empty((P, d), dtype=np.int64)
    owned[members.T - 1] = ids[powers[:, x0], powers[:, y0]]
    nc = noncentral_blocks(m)
    # nc is sorted, so ascending ids list each processor's blocks in order
    N = [[nc[idx - 1] for idx in row] for row in np.sort(owned, axis=1).tolist()]

    central = max_matching(BipartiteGraph(m, P, holders))
    assigned = np.count_nonzero(central)
    if assigned != m:
        raise DesignUnsuitableError(
            f"central stage: only {assigned} of {m} central blocks could be assigned"
        )
    D: list[list[BlockIndex]] = [[] for _ in range(P)]
    for i, p in enumerate(central.tolist(), start=1):
        D[p - 1].append(BlockIndex(i, i, i))

    q = r - 1 if prime_power(r - 1) is not None and m == (r - 1) ** 2 + 1 else None
    return TetraPartition(
        label=label or f"steiner-{m}-{r}-3",
        m=m,
        r=r,
        P=P,
        q=q,
        R=list(map(tuple, sets.tolist())),
        N=N,
        D=D,
        Q=list(map(tuple, holders.tolist())),
    )


def _off_triples(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, counts, triples): every row's TB3 in ascending order, as 1-based (i, j, k), i >= j >= k.

    The triples of rows[index[t]] are the next counts[t] of ``triples``,
    ascending, so a row's triples are consecutive, but rows of one length
    come before longer ones.  The rows are read as one flat array and
    gathered into one matrix per row length.  Only a row that repeats a
    value makes a triple twice, and only such rows are de-duplicated.
    """
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    values = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    index, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    out = [np.zeros((0, 3), dtype=np.int64)]
    for length in np.unique(lengths[lengths >= 3]).tolist():
        at = np.flatnonzero(lengths == length)
        grid = np.sort(values[starts[at, None] + np.arange(length)], axis=1)
        # columns (c, b, a) with c > b > a, ascending, pick (i, j, k) of a sorted row in order
        columns = np.array(sorted(t[::-1] for t in combinations(range(length), 3)))
        triples = grid[:, columns]
        repeats = np.any(grid[:, 1:] == grid[:, :-1], axis=1)
        index.append(at[~repeats])
        counts.append(np.full(len(index[-1]), len(columns)))
        out.append(triples[~repeats].reshape(-1, 3))
        for a, mine in zip(at[repeats].tolist(), triples[repeats]):
            out.append(np.unique(mine, axis=0))
            index.append(np.array([a]))
            counts.append(np.array([len(out[-1])]))
    return np.concatenate(index), np.concatenate(counts), np.concatenate(out)


def owned_blocks(part: TetraPartition) -> tuple[np.ndarray, np.ndarray]:
    """(owner, blocks): every processor's blocks as one int64 table of 1-based (i, j, k) rows.

    Processor by processor, p's blocks are TB3(R_p) in ascending order, then
    N_p and D_p as listed; owner[e] is the processor of block e.
    """
    index, counts, off = _off_triples(part.R)
    diagonal = [*part.N, *part.D]
    lengths = np.fromiter(map(len, diagonal), dtype=np.int64, count=len(diagonal))
    owner = np.repeat(np.r_[index + 1, 1 : len(part.N) + 1, 1 : len(part.D) + 1], np.r_[counts, lengths])
    blocks = np.fromiter(chain.from_iterable(chain.from_iterable(diagonal)), np.int64, 3 * int(lengths.sum()))
    order = np.argsort(owner, kind="stable")
    return owner[order], np.take(np.concatenate([off, blocks.reshape(-1, 3)]), order, axis=0)


def validate_partition(part: TetraPartition) -> list[str]:
    """Return human-readable violations of the partition invariants (empty = valid).

    Assigned blocks are counted by integer id ((i-1)m + (j-1))m + (k-1); a
    block with a coordinate outside 1..m has no id and is counted on its own.
    The off-diagonal blocks are TB3(R_p), gathered from R as integer arrays.
    Locality and the Q/R consistency are read from one (P+1, m+1) boolean
    membership array, member[p, i] = (i in R_p) for i in 1..m, and a problem
    is formatted only for a processor or block that violates an invariant.
    """
    m, P = part.m, part.P
    owned = [list(part.N[p]) + list(part.D[p]) for p in range(P)]
    held = list(chain.from_iterable(owned))  # every processor's diagonal blocks, processor by processor
    holder = np.repeat(np.arange(1, P + 1), [len(blocks) for blocks in owned])
    unowned = chain(*part.N[P:], *part.D[P:])  # lists past processor P: counted, but owned by no one
    diagonal = np.fromiter(chain.from_iterable(chain(held, unowned)), dtype=np.int64).reshape(-1, 3)
    blocks = np.concatenate([_off_triples(part.R)[2], diagonal])
    inside = np.all((blocks >= 1) & (blocks <= m), axis=1)
    i, j, k = (blocks[inside] - 1).T
    ids, counts = np.unique((i * m + j) * m + k, return_counts=True)
    i, j, k = ids // (m * m), ids // m % m, ids % m
    lower = (i >= j) & (j >= k)
    outside, repeats = np.unique(blocks[~inside], axis=0, return_counts=True)
    outside = [BlockIndex(*blk) for blk in outside.tolist()]

    def first3(selected: np.ndarray, more) -> list[BlockIndex]:
        """The three least blocks among the ids selected (ascending) and more."""
        found = [BlockIndex(a // (m * m) + 1, a // m % m + 1, a % m + 1) for a in selected[:3].tolist()]
        return sorted([*found, *more])[:3]

    problems: list[str] = []
    if not lower.all() or outside:
        problems.append(f"blocks outside the lower tetrahedron: {first3(ids[~lower], outside)}")
    if np.any(counts > 1) or np.any(repeats > 1):
        problems.append(f"blocks assigned more than once: {first3(ids[counts > 1], [b for b, c in zip(outside, repeats) if c > 1])}")
    if np.count_nonzero(lower) < comb(m + 2, 3):
        expected = np.concatenate([(a * m + j) * m + k for a in range(m) for j, k in [np.tril_indices(a + 1)]])
        problems.append(f"unassigned blocks: {first3(expected[~np.isin(expected, ids)], [])}")

    member = np.zeros((P + 1, m + 1), dtype=bool)
    lengths = [len(row) for row in part.R[:P]]
    values = np.fromiter(chain.from_iterable(part.R[:P]), dtype=np.int64, count=sum(lengths))
    rows = np.repeat(np.arange(1, P + 1), lengths)
    in_range = (values >= 1) & (values <= m)
    member[rows[in_range], values[in_range]] = True

    # a block with a coordinate outside 1..m is flagged here and judged by its sets below
    coords = diagonal[: len(held)]
    local = np.all(member[holder[:, None], np.clip(coords, 0, m)] & (coords >= 1) & (coords <= m), axis=1)
    found = []  # (processor, position, problem): locality in block order, then the central count
    for e in np.flatnonzero(~local).tolist():
        p, blk = int(holder[e]), held[e]
        if not set(blk) <= set(part.R[p - 1]):
            found.append((p, e, f"locality violated at processor {p}: block {tuple(blk)} not within {sorted(set(part.R[p - 1]))}"))
    central = np.fromiter(map(len, part.D[:P]), dtype=np.int64, count=P)
    for p in (np.flatnonzero(central > 1) + 1).tolist():
        found.append((p, len(held), f"processor {p} holds {central[p - 1]} central blocks"))
    problems += [text for *_, text in sorted(found)]

    # column i of member lists the processors of row block i in ascending order
    block_of, holders = np.nonzero(member[1:, 1:].T)
    ends = np.searchsorted(block_of, np.arange(m + 1)).tolist()
    holders = (holders + 1).tolist()
    if [tuple(holders[a:b]) for a, b in zip(ends, ends[1:])] != list(part.Q):
        problems.append("row-block processor sets Q are inconsistent with R")

    sizes = {len(n_p) for n_p in part.N}
    if len(sizes) != 1:
        problems.append(f"non-central loads are unbalanced: {sorted(sizes)}")
    if part.q is not None:
        if sizes != {part.q}:
            problems.append(f"expected {part.q} non-central blocks per processor, got {sorted(sizes)}")
    return problems


@dataclass
class VectorLayout:
    """How a length-n vector is spread over the partition's processors.

    Row block i occupies global rows [(i-1)*b, i*b) (0-based half-open) and
    is cut into g = b / chunk chunks, g = |Q_i|.  Chunk c = (i-1)*g + t holds
    rows [c*chunk, (c+1)*chunk) and belongs to Q_i[t], the t-th processor of
    Q_i (t from 0), so Q alone says who holds which chunk.
    """

    n: int
    m: int
    b: int
    chunk: int


def pad_dimension(n: int, part: TetraPartition) -> int:
    """Smallest n' >= n with m | n' and |Q_i| | (n'/m); n must be positive."""
    if n < 1:
        raise ValueError(f"n={n} must be positive")
    unit = part.m * part.group_size
    return -(-n // unit) * unit


def vector_layout(n: int, part: TetraPartition) -> VectorLayout:
    if n < 1:
        raise ValueError(f"n={n} must be positive")
    g = part.group_size
    if n % part.m != 0 or (n // part.m) % g != 0:
        raise ValueError(
            f"n={n} is not divisible into {part.m} row blocks of {g} chunks; pad to {pad_dimension(n, part)}"
        )
    b = n // part.m
    return VectorLayout(n=n, m=part.m, b=b, chunk=b // g)


def storage_count(part: TetraPartition, n: int, p: int) -> int:
    """Exact lower-tetrahedral element count stored by processor p, one of 1..P."""
    if not 1 <= p <= part.P:
        raise ValueError(f"processor p={p} is outside 1..{part.P}")
    if n % part.m != 0:
        raise ValueError(f"n={n} is not a multiple of m={part.m}")
    b = n // part.m
    n_off = comb(len(part.R[p - 1]), 3)
    n_nc = len(part.N[p - 1])
    n_ce = len(part.D[p - 1])
    return n_off * b**3 + n_nc * (b * b * (b + 1) // 2) + n_ce * (b * (b + 1) * (b + 2) // 6)
