"""Reference implementations that the library's fast paths are checked against."""

from collections import Counter, deque
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import numpy as np

from tetracomm.checks import Check, Report
from tetracomm.finite_field import field_new, prime_power
from tetracomm.matching import BipartiteGraph, MatchingInfeasibleError, d_disjoint_matchings, max_matching
from tetracomm.partition import BlockIndex, DesignUnsuitableError, TetraPartition, noncentral_blocks
from tetracomm.steiner import SteinerSystem
from tetracomm.schedule import Demands, build_demands, build_schedule, validate
from tetracomm.simulator import ProcCounters
from tetracomm.tensor_core import BlockStore, packed_index


class DemandRow(NamedTuple):
    """One directed transfer: src sends its chunks of the shared row blocks to dst."""

    src: int
    dst: int
    blocks: tuple[int, ...]


def demand_rows(demands) -> list[DemandRow]:
    """The rows of a Demands table in its (src, dst) order, as plain-int tuples."""
    return [
        DemandRow(s, t, tuple(blocks[:k]))
        for s, t, blocks, k in zip(demands.src.tolist(), demands.dst.tolist(), demands.blocks.tolist(), demands.shared.tolist())
    ]


def demands_from_rows(rows) -> Demands:
    """The Demands table of hand-written (src, dst, blocks) rows, sorted by (src, dst), blocks padded with 0.

    Raises ValueError for a processor id below 1, for src == dst and for
    blocks that are not strictly increasing ids >= 1, which the 0 padding
    would misread.
    """
    rows = sorted((int(s), int(t), tuple(int(i) for i in blocks)) for s, t, blocks in rows)
    for s, t, blocks in rows:
        if s < 1 or t < 1 or s == t or list(blocks) != sorted(set(blocks)) or min(blocks, default=1) < 1:
            raise ValueError(f"demand {s}->{t} blocks {blocks}: need distinct processors >= 1 and increasing blocks >= 1")
    width = max((len(blocks) for _, _, blocks in rows), default=0)
    table = np.array([blocks + (0,) * (width - len(blocks)) for _, _, blocks in rows], dtype=np.int64)
    src, dst = (np.array([row[c] for row in rows], dtype=np.int64) for c in (0, 1))
    return Demands(src, dst, table.reshape(len(rows), width))


def build_demands_by_intersection(part) -> list[DemandRow]:
    """All ordered-pair demands by intersecting the row-block sets of all P² pairs."""
    sets = [set(r) for r in part.R]
    demands = []
    for src in range(1, part.P + 1):
        for dst in range(1, part.P + 1):
            if src == dst:
                continue
            shared = sorted(sets[src - 1] & sets[dst - 1])
            if shared:
                demands.append(DemandRow(src, dst, tuple(shared)))
    return demands


def get_entry(tensor, i: int, j: int, k: int) -> float:
    """Entry (i, j, k) of a PackedSymTensor, 1-based, in any index order."""
    return float(tensor.data[packed_index(*sorted((i, j, k), reverse=True))])


def set_entry(tensor, i: int, j: int, k: int, value: float) -> None:
    """Set entry (i, j, k) of a PackedSymTensor, and so every permutation of it."""
    tensor.data[packed_index(*sorted((i, j, k), reverse=True))] = value


# ---------------------------------------------------------------------------
# per-element STTSV kernels
# ---------------------------------------------------------------------------


def _offsets(n: int) -> tuple[list[int], list[int]]:
    # tet[i] = (i-1)i(i+1)/6 and tri[j] = (j-1)j/2 for 1-based i, j; index 0 unused
    tet = [0] + [(i - 1) * i * (i + 1) // 6 for i in range(1, n + 1)]
    tri = [0] + [(j - 1) * j // 2 for j in range(1, n + 1)]
    return tet, tri


def _as_list(x, n: int) -> list[float]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"vector must have shape ({n},), got {arr.shape}")
    return arr.tolist()


def sttsv_naive_counted(tensor, x) -> tuple[np.ndarray, int]:
    """All n^3 ternary multiplications, loops ascending in i, j, k."""
    n = tensor.n
    xs = _as_list(x, n)
    data = tensor.data.tolist()
    tet, tri = _offsets(n)
    ys = [0.0] * n
    count = 0
    for i in range(1, n + 1):
        acc = 0.0
        for j in range(1, n + 1):
            xj = xs[j - 1]
            for k in range(1, n + 1):
                a, b, c = sorted((i, j, k), reverse=True)
                acc += data[tet[a] + tri[b] + c - 1] * xj * xs[k - 1]
                count += 1
        ys[i - 1] = acc
    return np.array(ys), count


def sttsv_naive(tensor, x) -> np.ndarray:
    return sttsv_naive_counted(tensor, x)[0]


def sttsv_symmetric_counted(tensor, x) -> tuple[np.ndarray, int]:
    """One pass over the lower tetrahedron with the four-case update."""
    n = tensor.n
    xs = _as_list(x, n)
    data = tensor.data.tolist()
    tet, tri = _offsets(n)
    ys = [0.0] * n
    count = 0
    for i in range(1, n + 1):
        xi = xs[i - 1]
        base_i = tet[i]
        for j in range(1, i + 1):
            xj = xs[j - 1]
            row = base_i + tri[j] - 1
            for k in range(1, j + 1):
                a = data[row + k]
                xk = xs[k - 1]
                if i != j and j != k:
                    ys[i - 1] += 2 * a * xj * xk
                    ys[j - 1] += 2 * a * xi * xk
                    ys[k - 1] += 2 * a * xi * xj
                    count += 3
                elif i == j and j != k:
                    ys[i - 1] += 2 * a * xj * xk
                    ys[k - 1] += a * xi * xj
                    count += 2
                elif i != j and j == k:
                    ys[i - 1] += a * xj * xk
                    ys[j - 1] += 2 * a * xi * xk
                    count += 2
                else:
                    ys[i - 1] += a * xj * xk
                    count += 1
    return np.array(ys), count


# ---------------------------------------------------------------------------
# block layout by element gather
# ---------------------------------------------------------------------------


class ElementGatherStore:
    """A block store over row blocks of width rows, laid out by one int64 packed index per block entry.

    Each position's rows are sorted descending across the axes that share a
    row block, so every entry of a diagonal block is read from where it is
    packed, and the counters come from the global-row canonical mask.
    """

    run = BlockStore.run

    def __init__(self, tensor, width, blocks):
        self.n, self.width = tensor.n, width
        r = np.arange(tensor.n, dtype=np.int64)
        tet, tri = r * (r + 1) * (r + 2) // 6, r * (r + 1) // 2
        self.blocks = []
        self.tensor_elems = self.ternary_mults = 0
        for blk in blocks:
            i, j, k = blk
            gi, gj, gk = rows = np.ix_(*(r[t * width : (t + 1) * width] for t in blk))
            if i == j:
                gi, gj = np.maximum(gi, gj), np.minimum(gi, gj)
            if j == k:
                gj, gk = np.maximum(gj, gk), np.minimum(gj, gk)
                if i == j:
                    gi, gj = np.maximum(gi, gj), np.minimum(gi, gj)
            D = tensor.data[tet[gi] + tri[gj] + gk]
            if i > j > k:
                kind, ids, elems, ties = "off", (i, j, k), D.size, 0
            else:
                ri, rj, rk = rows
                canonical = (ri >= rj) & (rj >= rk)
                elems = int(np.count_nonzero(canonical))
                ties = int(np.count_nonzero(canonical & (ri == rj))) + int(np.count_nonzero(canonical & (rj == rk)))
                kind, ids = ("central", (i,)) if i == k else ("aac", (i, k)) if i == j else ("acc", (i, j))
            self.blocks.append((kind, D, ids))
            self.tensor_elems += elems
            self.ternary_mults += 3 * elems - ties


def canonical_counts_by_cube(ij, jk, shape):
    """tensor_core._canonical_counts from dense (w_i, w_j, w_k) masks of the canonical positions and ties."""
    canonical = np.ones(shape, dtype=bool)
    equal = []
    if jk:
        canonical &= np.tri(shape[2], dtype=bool)[None]
        equal.append(np.eye(shape[2], dtype=bool)[None])
    if ij:
        canonical &= np.tri(shape[0], dtype=bool)[:, :, None]
        equal.append(np.eye(shape[0], dtype=bool)[:, :, None])
    entries = int(np.count_nonzero(canonical))
    return entries, 3 * entries - sum(int(np.count_nonzero(canonical & eq)) for eq in equal)


# ---------------------------------------------------------------------------
# message replay, one message and one shared block at a time
# ---------------------------------------------------------------------------


def simulate_by_messages(tensor, x, part, layout, mode="p2p", schedule_builder=build_schedule):
    """simulate's vector exchanges replayed message by message over an element-gather store.

    Returns (y, per-processor counters, steps per vector, checks).
    """
    n, b, chunk, P = layout.n, layout.b, layout.chunk, part.P
    x_global = np.asarray(x, dtype=np.float64)
    counters = [ProcCounters(p) for p in range(1, P + 1)]
    # the t-th processor of Q_i holds the t-th chunk of row block i
    chunks = {
        (i, p): slice((i - 1) * b + t * chunk, (i - 1) * b + (t + 1) * chunk)
        for i, procs in enumerate(part.Q, start=1)
        for t, p in enumerate(procs)
    }

    xs = np.zeros((P, n))
    have = np.zeros((P, n), dtype=bool)
    for (_, p), s in chunks.items():
        xs[p - 1, s] = x_global[s]
        have[p - 1, s] = True

    demands = build_demands(part)
    shared = {(d.src, d.dst): d.blocks for d in demand_rows(demands)}
    if mode == "p2p":
        sched = schedule_builder(demands)
        sched_report = validate(sched, demands, chunk)
        schedule_valid = Check("schedule_valid", sched_report.passed, "; ".join(sched_report.problems))
        steps_per_vector = len(sched.steps)
        # step s sends from src to sched.steps[s][src - 1], carrying the blocks of its demand
        pairs = [(src, dst) for step in sched.steps for src, dst in enumerate(step.tolist(), start=1)]
        messages = [(src, dst, shared.get((src, dst), ()), len(shared.get((src, dst), ())) * chunk) for src, dst in pairs]
    else:
        schedule_valid = Check("schedule_valid", True)
        steps_per_vector = P - 1
        messages = [
            (src, dst, shared.get((src, dst), ()), 2 * chunk)
            for src in range(1, P + 1)
            for dst in range(1, P + 1)
            if src != dst
        ]

    for src, dst, blocks, words in messages:
        for i in blocks:
            s = chunks[i, src]
            xs[dst - 1, s] = xs[src - 1, s]
            have[dst - 1, s] = have[src - 1, s]
        counters[src - 1].sent_x += words
        counters[dst - 1].received_x += words
    gather_complete = all(have[p - 1, (i - 1) * b : i * b].all() for p in range(1, P + 1) for i in part.R[p - 1])

    ys = np.zeros((P, n))
    for p in range(1, P + 1):
        blocks = sorted(tb3(part.R[p - 1])) + block_tuples(part.N[p - 1]) + block_tuples(part.D[p - 1])
        store = ElementGatherStore(tensor, b, [(i - 1, j - 1, k - 1) for i, j, k in blocks])
        store.run(xs[p - 1], ys[p - 1])
        counters[p - 1].ternary_mults = store.ternary_mults
        counters[p - 1].tensor_elems = store.tensor_elems

    received = set()
    for src, dst, blocks, words in messages:
        received.update((i, dst, src) for i in blocks)
        counters[src - 1].sent_y += words
        counters[dst - 1].received_y += words

    y_global = np.zeros(n)
    for (_, p), s in chunks.items():
        y_global[s] += ys[p - 1, s]
    for i, dst, src in sorted(received):
        s = chunks[i, dst]
        y_global[s] += ys[src - 1, s]

    checks = [
        schedule_valid,
        Check("gather_complete", gather_complete),
        Check(
            "conservation",
            sum(c.sent_x + c.sent_y for c in counters) == sum(c.received_x + c.received_y for c in counters),
        ),
    ]
    return y_global, counters, steps_per_vector, checks


# ---------------------------------------------------------------------------
# set-up verifiers: a Counter of subset tuples and per-processor loops
# ---------------------------------------------------------------------------


def verify_by_counter(system) -> Report:
    """steiner.verify by a Counter over every k-subset of every block and a walk over all k-subsets."""
    n, r = system.n, system.r
    if r < 3:
        return Report([Check("block_size", False, f"expected r >= 3, got {r}")])
    if n < 3:
        return Report([Check("point_set_size", False, f"expected n >= 3, got {n}")])

    shape_bad = next(
        (
            blk
            for blk in system.blocks
            if len(blk) != r or len(set(blk)) != r or any(not 1 <= x <= n for x in blk) or list(blk) != sorted(blk)
        ),
        None,
    )
    shape = f"expected sorted {r}-subsets of 1..{n}"
    checks = [Check("block_shape", shape_bad is None, shape if shape_bad is None else f"{shape}, got {shape_bad}")]

    points = [sorted({x for x in blk if 1 <= x <= n}) for blk in system.blocks]
    top = max((pts[-1] for pts in points if pts), default=0)

    def coverage(name: str, noun: str, k: int) -> Check:
        expected = Fraction(comb(n - k, 3 - k), comb(r - k, 3 - k))
        if expected.denominator == 1:
            expected = expected.numerator
        held = sum(comb(len(pts), k) for pts in points)
        if held > expected * comb(n, k):
            return Check(
                name,
                False,
                f"expected {expected}, but the blocks hold {held} {noun}s, more than {expected} for each of the"
                f" {comb(n, k)} {noun}s of 1..{n}: some {noun} is covered more often",
            )
        counts = Counter(s for pts in points for s in combinations(pts, k))
        walk = combinations(range(1, min(n, top + k) + 1), k)
        witness = next((s for s in walk if counts.get(s, 0) != expected), None)
        if witness is None:
            return Check(name, True, f"expected {expected}")
        return Check(name, False, f"expected {expected}, got {counts.get(witness, 0)} at {witness}")

    checks += [
        coverage("triple_coverage", "triple", 3),
        coverage("pair_count", "pair", 2),
        coverage("point_count", "point", 1),
    ]
    want, got = Fraction(comb(n, 3), comb(r, 3)), len(system.blocks)
    checks.append(Check("block_count", got == want, f"expected {want}, got {got}"))
    return Report(checks)


def validate_partition_by_loops(part) -> list[str]:
    """partition.validate_partition by tuple sets and a loop over processors and their blocks."""
    m = part.m
    off = chain.from_iterable(c for row in part.R for c in set(combinations(sorted(row), 3)))
    diagonal = chain.from_iterable(blk for blocks in (*part.N, *part.D) for blk in block_tuples(blocks))
    blocks = np.concatenate(
        [np.fromiter(off, dtype=np.int64).reshape(-1, 3)[:, ::-1], np.fromiter(diagonal, dtype=np.int64).reshape(-1, 3)]
    )
    inside = np.all((blocks >= 1) & (blocks <= m), axis=1)
    i, j, k = (blocks[inside] - 1).T
    ids, counts = np.unique((i * m + j) * m + k, return_counts=True)
    i, j, k = ids // (m * m), ids // m % m, ids % m
    lower = (i >= j) & (j >= k)
    outside = Counter(BlockIndex(*blk) for blk in blocks[~inside].tolist())

    def first3(selected, more):
        found = [BlockIndex(a // (m * m) + 1, a // m % m + 1, a % m + 1) for a in selected[:3].tolist()]
        return sorted([*found, *more])[:3]

    problems = []
    if not lower.all() or outside:
        problems.append(f"blocks outside the lower tetrahedron: {first3(ids[~lower], outside)}")
    if np.any(counts > 1) or any(c > 1 for c in outside.values()):
        problems.append(f"blocks assigned more than once: {first3(ids[counts > 1], [b for b, c in outside.items() if c > 1])}")
    if np.count_nonzero(lower) < comb(m + 2, 3):
        expected = np.concatenate([(a * m + j) * m + k for a in range(m) for j, k in [np.tril_indices(a + 1)]])
        problems.append(f"unassigned blocks: {first3(expected[~np.isin(expected, ids)], [])}")

    for p in range(1, part.P + 1):
        owned = set(part.R[p - 1])
        for blk in block_tuples(part.N[p - 1]) + block_tuples(part.D[p - 1]):
            if not set(blk) <= owned:
                problems.append(f"locality violated at processor {p}: block {tuple(blk)} not within {sorted(owned)}")
        if len(part.D[p - 1]) > 1:
            problems.append(f"processor {p} holds {len(part.D[p - 1])} central blocks")

    derived_q = [tuple(p for p in range(1, part.P + 1) if i in part.R[p - 1]) for i in range(1, part.m + 1)]
    if derived_q != list(part.Q):
        problems.append("row-block processor sets Q are inconsistent with R")

    sizes = {len(n_p) for n_p in part.N}
    if len(sizes) != 1:
        problems.append(f"non-central loads are unbalanced: {sorted(sizes)}")
    if part.q is not None:
        if sizes != {part.q}:
            problems.append(f"expected {part.q} non-central blocks per processor, got {sorted(sizes)}")
    return problems


# ---------------------------------------------------------------------------
# blocks of the lower tetrahedron, as sets of BlockIndex
# ---------------------------------------------------------------------------


def block_tuples(blocks) -> list[tuple[int, ...]]:
    """One processor's N or D rows, from a (k, 3) array or a list of BlockIndex, as plain-int tuples."""
    return [tuple(map(int, blk)) for blk in blocks]


def tb3(indices) -> set[BlockIndex]:
    """All strictly ordered triples drawn from an index set."""
    return {BlockIndex(c, b, a) for a, b, c in combinations(sorted(indices), 3)}


def all_lower_blocks(m: int) -> list[BlockIndex]:
    """Every block index (i, j, k) with m >= i >= j >= k >= 1, ascending."""
    return [BlockIndex(i, j, k) for i in range(1, m + 1) for j in range(1, i + 1) for k in range(1, j + 1)]


# ---------------------------------------------------------------------------
# set-up by field operations, dictionary lookups and a BFS-first matching
# ---------------------------------------------------------------------------


def subfield_elements(f, q: int) -> list[int]:
    """The ids of the elements of f = GF(q^2) fixed by x -> x^q, the subfield of order q, ascending."""
    if f.order != q * q:
        raise ValueError(f"field order {f.order} is not the square of q={q}")
    return [x for x in range(f.order) if f.pow(x, q) == x]


def generators_by_field_ops(f, q) -> tuple[list[int], list[int], list[int], tuple[int, ...]]:
    """(plus_one, times_w, inverse, base) on point ids, element by element with Field.add/mul/inv.

    w is the least non-zero id whose multiplication table cycles through
    every non-zero element; every candidate gets a full table.
    """
    nn = inf = q * q
    one = f.one()
    plus_one = [f.add(x, one) for x in range(nn)] + [inf]
    inverse = [inf] + [f.inv(x) for x in range(1, nn)] + [0]
    for w in range(1, nn):
        times_w = [f.mul(w, x) for x in range(nn)] + [inf]
        x, order = times_w[one], 1
        while x != one:
            x, order = times_w[x], order + 1
        if order == nn - 1:
            break
    base = tuple(subfield_elements(f, q) + [inf])
    return plus_one, times_w, inverse, base


def mobius_cycle_by_field_ops(q: int) -> list[int]:
    """steiner.mobius_cycle point by point: x -> 1/(w^j x + 1) by Field.add/mul/inv, for the least j that is one cycle.

    w is the least non-zero id of multiplicative order q^2 - 1, found by
    walking its powers; point q^2 is infinity, which the map sends to 0.
    """
    p, k = prime_power(q)
    f = field_new(p, 2 * k)
    nn = q * q
    one = f.one()
    for w in range(1, nn):
        x, order = w, 1
        while x != one:
            x, order = f.mul(w, x), order + 1
        if order == nn - 1:
            break
    scale = one
    for _ in range(nn - 1):
        denominators = [f.add(f.mul(scale, x), one) for x in range(nn)]
        g = [nn if d == 0 else f.inv(d) for d in denominators] + [0]
        x, length = g[0], 1
        while x != 0:
            x, length = g[x], length + 1
        if length == nn + 1:
            return g
        scale = f.mul(w, scale)
    raise AssertionError(f"no map x -> 1/(w^j x + 1) of GF({q}^2) is one cycle")


def construct_spherical_by_field_ops(q: int) -> SteinerSystem:
    """steiner.construct_spherical by per-element generator tables and a set closure over block tuples."""
    p, k = prime_power(q)
    *maps, base = generators_by_field_ops(field_new(p, 2 * k), q)
    orbit, frontier = {base}, [base]
    while frontier:
        block = frontier.pop()
        for g in maps:
            image = tuple(sorted(g[x] for x in block))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return SteinerSystem(n=q * q + 1, r=q + 1, blocks=sorted(tuple(x + 1 for x in block) for block in orbit))


def hopcroft_karp_bfs_first(adj: list[list[int]], ny: int) -> np.ndarray:
    """matching._hopcroft_karp with a breadth-first pass before every augment pass, the first included."""
    nx = len(adj)
    inf = float("inf")
    pair_x = [0] * (nx + 1)
    pair_y = [0] * (ny + 1)
    dist = [inf] * (nx + 1)

    def bfs() -> bool:
        queue = deque()
        for x in range(1, nx + 1):
            if pair_x[x] == 0:
                dist[x] = 0
                queue.append(x)
            else:
                dist[x] = inf
        reached = inf
        while queue:
            x = queue.popleft()
            if dist[x] < reached:
                for y in adj[x - 1]:
                    px = pair_y[y]
                    if px == 0:
                        reached = dist[x] + 1
                    elif dist[px] == inf:
                        dist[px] = dist[x] + 1
                        queue.append(px)
        return reached != inf

    def augment(root: int) -> None:
        x, ys = root, iter(adj[root - 1])
        stack = []
        while True:
            for y in ys:
                px = pair_y[y]
                if px == 0:
                    pair_x[x] = y
                    pair_y[y] = x
                    for u, _, v in stack:
                        pair_x[u] = v
                        pair_y[v] = u
                    return
                if dist[px] == dist[x] + 1:
                    stack.append((x, ys, y))
                    x, ys = px, iter(adj[px - 1])
                    break
            else:
                dist[x] = inf
                if not stack:
                    return
                x, ys, _ = stack.pop()

    while bfs():
        for x in range(1, nx + 1):
            if pair_x[x] == 0:
                augment(x)
    return np.array(pair_x[1:], dtype=np.int64)


def build_partition_by_lookup(system, label=None) -> TetraPartition:
    """partition.build_partition by a dictionary from BlockIndex to candidate id and per-point scans for Q."""
    m, r = system.n, system.r
    P = len(system.blocks)
    R = [tuple(blk) for blk in system.blocks]
    Q = [tuple(p for p in range(1, P + 1) if i in R[p - 1]) for i in range(1, m + 1)]
    if len({len(qi) for qi in Q}) != 1:
        raise DesignUnsuitableError("row-block sharing stage: |Q_i| is not uniform across row blocks")
    nc = sorted(BlockIndex(*blk) for blk in noncentral_blocks(m).tolist())
    total_nc = len(nc)
    if total_nc % P != 0:
        raise DesignUnsuitableError(f"non-central stage: {total_nc} blocks do not divide evenly over {P} processors")
    nc_index = {blk: idx + 1 for idx, blk in enumerate(nc)}
    adj = []
    for p in range(1, P + 1):
        row = []
        for a, b in combinations(R[p - 1], 2):
            row.append(nc_index[BlockIndex(b, b, a)])
            row.append(nc_index[BlockIndex(b, a, a)])
        adj.append(sorted(row))
    try:
        mates = d_disjoint_matchings(adj, total_nc, total_nc // P)
    except MatchingInfeasibleError as exc:
        raise DesignUnsuitableError(f"non-central stage: {exc}") from exc
    N = [sorted(nc[idx - 1] for idx in row) for row in mates.T.tolist()]
    central = max_matching(BipartiteGraph(m, P, Q))
    assigned = np.count_nonzero(central)
    if assigned != m:
        raise DesignUnsuitableError(f"central stage: only {assigned} of {m} central blocks could be assigned")
    D = [[] for _ in range(P)]
    for i, p in enumerate(central.tolist(), start=1):
        D[p - 1].append(BlockIndex(i, i, i))
    q = r - 1 if prime_power(r - 1) is not None and m == (r - 1) ** 2 + 1 else None
    return TetraPartition(label=label or f"steiner-{m}-{r}-3", m=m, r=r, P=P, q=q, R=R, N=N, D=D, Q=Q)
