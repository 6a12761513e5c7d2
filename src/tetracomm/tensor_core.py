"""Packed symmetric 3-tensor storage, the block kernel and sequential drivers.

A symmetric n x n x n tensor is stored as its lower tetrahedron (i >= j >= k,
1-based) in the linear order (i-1)i(i+1)/6 + (j-1)j/2 + (k-1).

Contraction runs over blocks (i, j, k), i >= j >= k, of row ranges, each
copied out of packed storage into a contiguous dense array and contracted
with BLAS by ``contract``.  For fixed rows (gi, gj) the entries
(gi, gj, klo..khi) are one contiguous run of the packed data, so a block is
gathered as b_i*b_j runs through a window view of the data; the entries of a
diagonal block that lie past its diagonal are then mirrored from the
gathered ones.  One generator, ``gather_blocks``, does every gather, one
block at a time.  A caller that uses each block once contracts it as it
arrives and drops it: the sequential ``sttsv_symmetric`` on a packed tensor
(the one-processor case over a fixed tiling of the rows) and each simulated
processor of the parallel algorithm, so neither holds more than a block of
the tensor.  Only callers that reuse blocks keep them, in a ``BlockStore``:
``hopm`` and ``cp_gradient`` build one store per call and reuse it for
every contraction.  ``block_counts`` counts each block's packed elements
and ternary multiplications (products a*x*x of the four-case symmetric
update) from the row spans alone.  Kernels sum in different orders, so
comparisons between them use relative tolerances.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "PackedSymTensor",
    "BlockStore",
    "gather_blocks",
    "block_counts",
    "DegenerateIterateError",
    "HopmResult",
    "packed_index",
    "lower_tetra_count",
    "strict_lower_count",
    "ternary_count",
    "contract",
    "tiled_store",
    "sttsv_symmetric",
    "hopm",
    "cp_gradient",
    "random_symmetric",
    "random_vector",
    "save_tensor",
    "load_tensor",
    "save_vector",
    "load_vector",
]

# Rows per tile of the sequential block store; the last tile is ragged.  With
# m tiles the dense diagonal tiles hold 1 + 3/m + 2/m^2 times the packed
# size, while smaller tiles pay more per-block call overhead.
TILE = 32
TENSOR_MAGIC = b"PST3"
VECTOR_MAGIC = b"VEC1"


class DegenerateIterateError(ArithmeticError):
    """Power-method iterate collapsed to zero."""


def lower_tetra_count(n: int) -> int:
    """Number of lower-tetrahedral entries (i >= j >= k) of an n-dim tensor."""
    return n * (n + 1) * (n + 2) // 6


def strict_lower_count(n: int) -> int:
    """Number of strictly ordered entries (i > j > k)."""
    return n * (n - 1) * (n - 2) // 6


def ternary_count(n: int) -> int:
    """Ternary multiplications performed by the symmetry-exploiting kernel."""
    return n * n * (n + 1) // 2


def packed_index(i: int, j: int, k: int) -> int:
    """Linear index of entry (i, j, k) with i >= j >= k, all 1-based."""
    if not i >= j >= k >= 1:
        raise ValueError(f"indices must satisfy i >= j >= k >= 1, got {(i, j, k)}")
    return (i - 1) * i * (i + 1) // 6 + (j - 1) * j // 2 + (k - 1)


class PackedSymTensor:
    """Fully symmetric n x n x n tensor in packed lower-tetrahedron storage."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data=None):
        if n < 1:
            raise ValueError(f"n={n} must be positive")
        size = lower_tetra_count(n)
        if data is None:
            data = np.zeros(size)
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (size,):
            raise ValueError(f"data must have shape ({size},), got {data.shape}")
        self.n = n
        self.data = data

    def to_dense(self) -> np.ndarray:
        """Expand to a dense symmetric array: the one central block over all rows."""
        ((_, dense, _),) = gather_blocks(self, {0: (0, self.n)}, [(0, 0, 0)])
        return dense


def _as_vector(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"vector must have shape ({n},), got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# block kernel over a dense block store
# ---------------------------------------------------------------------------


def contract(kind: str, D: np.ndarray, xs, ys) -> None:
    """Add one dense block's share of y = A x x into the row blocks ys.

    ``xs``/``ys`` hold the block's distinct row blocks of x and y, outermost
    first: (I, J, K) for an off-diagonal block I > J > K, (a, c) for the
    non-central blocks (a, a, c) and (a, c, c) with a > c, and (a,) for a
    central block.  D[i, j, k] is the tensor entry at the block's local
    coordinates, so diagonal blocks hold every symmetric copy.
    """
    if kind == "off":
        (xi, xj, xk), (yi, yj, yk) = xs, ys
        t = D @ xk
        yi += 2.0 * (t @ xj)
        yj += 2.0 * (xi @ t)
        yk += 2.0 * (xj @ (xi @ D.reshape(D.shape[0], -1)).reshape(D.shape[1:]))
    elif kind == "aac":
        (xa, xc), (ya, yc) = xs, ys
        ya += 2.0 * ((D @ xc) @ xa)
        yc += xa @ (xa @ D.reshape(D.shape[0], -1)).reshape(D.shape[1:])
    elif kind == "acc":
        (xa, xc), (ya, yc) = xs, ys
        t = D @ xc
        ya += t @ xc
        yc += 2.0 * (xa @ t)
    elif kind == "central":
        ((xa,), (ya,)) = xs, ys
        ya += (D @ xa) @ xa
    else:
        raise ValueError(f"unknown block kind {kind!r}")


def _check_blocks(spans: dict, blocks: list, n: int) -> None:
    """Raise ValueError on a bad span or block.

    Spans must be non-empty ranges in 0..n that order like their ids, and
    each block an id triple (i, j, k) with i >= j >= k whose ids have spans.
    Spans and blocks are each checked as one array; the error names the
    first bad span in id order, else the first bad block in the order given.
    """
    ids = sorted(spans)
    lo, hi = np.array([spans[i] for i in ids]).reshape(-1, 2).T
    empty = ~((lo >= 0) & (lo < hi) & (hi <= n))
    early = np.r_[False, lo[1:] < hi[:-1]]
    if np.any(empty | early):
        e = int(np.argmax(empty | early))
        if empty[e]:
            raise ValueError(f"span of row block {ids[e]} is ({lo[e]}, {hi[e]}), not a non-empty range in 0..{n}")
        raise ValueError(f"span of row block {ids[e]} starts before the span of row block {ids[e - 1]} ends")
    # as floats, an id that is not an integer or lies past int64 still matches no span's id
    i, j, k = np.fromiter(chain.from_iterable(blocks), dtype=np.float64, count=3 * len(blocks)).reshape(-1, 3).T
    unordered = ~((i >= j) & (j >= k))
    unknown = ~np.all(np.isin(np.stack([i, j, k]), ids), axis=0)
    if np.any(unordered | unknown):
        e = int(np.argmax(unordered | unknown))
        blk = blocks[e]
        if unordered[e]:
            raise ValueError(f"block {blk} is not ordered i >= j >= k")
        raise ValueError(f"block {blk} names a row block with no span")


def _canonical_counts(ij: bool, jk: bool, shape) -> tuple[int, int]:
    """(entries, ternary products) of a block of the given shape.

    Its entries are the positions gi >= gj where i = j and gj >= gk where
    j = k (every position of an off-diagonal block).  Each takes 3 products,
    less one for each tie: gi = gj where i = j, and gj = gk where j = k.
    """
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


def block_counts(spans, blocks) -> tuple[list[int], list[int]]:
    """(elems, ternary), one entry per block in the order given, counted from the spans alone.

    ``elems`` counts a block's distinct packed entries and ``ternary`` the
    products a*x*x the four-case update performs on them: 3 per entry, less
    one for each of i = j and j = k.  Each kind and shape of block is counted
    once, from its canonical mask.  Spans and blocks are checked as by
    ``gather_blocks``, except that with no tensor a span may end anywhere.
    """
    spans, blocks = dict(spans), list(blocks)
    _check_blocks(spans, blocks, max((hi for _, hi in spans.values()), default=0))
    width = {i: hi - lo for i, (lo, hi) in spans.items()}
    keys = [(i == j, j == k, (width[i], width[j], width[k])) for i, j, k in blocks]
    counts = {key: _canonical_counts(*key) for key in set(keys)}
    return [counts[key][0] for key in keys], [counts[key][1] for key in keys]


def gather_blocks(tensor: PackedSymTensor, spans, blocks):
    """Yield (kind, D, ids) for each block, in the order given.

    ``spans`` maps a row-block id to its 0-based half-open row range; spans
    must be non-empty ranges in 0..n, and ids must order like their ranges.
    ``blocks`` are id triples (i, j, k) with i >= j >= k.  A bad span or
    block raises ValueError.  D is the block as a dense C-contiguous array,
    a fresh copy that shares no memory with the tensor; ``ids`` are its
    distinct row blocks as ``contract`` takes them.

    Block (i, j, k) is gathered as runs: the entries (gi, gj, klo..khi) lie
    at packed offsets tet[gi] + tri[gj] + klo onwards, so a block is the
    b_i*b_j rows of a window view of the data at those run starts, copied by
    one fancy index.  Where i = j the starts take max and min of (gi, gj).
    Where j = k a run also reads past the diagonal, gk > gj; those entries,
    and in a central block the ones with gk > min(gi, gj), are mirrored by
    ``np.where`` over the block's transposes.

    Blocks are gathered one at a time, as they are asked for: a caller that
    drops each block once it is used never holds more than one block of the
    tensor.
    """
    n = tensor.n
    spans, blocks = dict(spans), list(blocks)
    _check_blocks(spans, blocks, n)

    r = np.arange(n, dtype=np.int64)
    tet, tri = r * (r + 1) * (r + 2) // 6, r * (r + 1) // 2
    data = tensor.data
    step = data.strides[0]
    windows = {}  # width -> the runs of that width, one per row
    lower = {}  # width -> mask of a >= b
    for i, j, k in blocks:
        (ilo, ihi), (jlo, jhi), (klo, khi) = spans[i], spans[j], spans[k]
        gi, gj = r[ilo:ihi, None], r[None, jlo:jhi]
        if i == j:
            gi, gj = np.maximum(gi, gj), np.minimum(gi, gj)
        w = khi - klo
        if w not in windows:
            # row s is the run of w entries from packed offset s, so every row lies
            # inside the data, and a start past the last row raises IndexError
            window = np.lib.stride_tricks.as_strided(data, (data.size - w + 1, w), (step, step), writeable=False)
            # as one w-wide item per row, the gather copies each run in one piece
            windows[w] = window.view(np.dtype((np.void, w * step)))[:, 0] if step == data.itemsize else window
        D = windows[w][tet[gi] + tri[gj] + klo].view(np.float64).reshape(ihi - ilo, jhi - jlo, w)
        if i > j > k:
            yield "off", D, (i, j, k)
            continue
        for b in {D.shape[0], w} - lower.keys():
            lower[b] = np.tri(b, dtype=bool)
        if j == k:
            D[...] = np.where(lower[w][None], D, D.transpose(0, 2, 1))
        if i == j == k:
            D[...] = np.where(lower[D.shape[0]][:, :, None], D, D.transpose(1, 0, 2))
        kind, ids = ("central", (i,)) if i == k else ("aac", (i, k)) if i == j else ("acc", (i, j))
        yield kind, D, ids


def _contract_blocks(spans: dict, blocks, x, y) -> None:
    """Add the share of A x x of every (kind, D, ids) in blocks into y."""
    xs = {i: x[lo:hi] for i, (lo, hi) in spans.items()}
    ys = {i: y[lo:hi] for i, (lo, hi) in spans.items()}
    for kind, D, ids in blocks:
        contract(kind, D, [xs[i] for i in ids], [ys[i] for i in ids])


class BlockStore:
    """The (kind, D, ids) ``gather_blocks`` yields, in the order given, kept for reuse.

    Each D is the gather's own copy, so later changes to the tensor do not
    reach the store.
    """

    __slots__ = ("n", "spans", "blocks")

    def __init__(self, tensor: PackedSymTensor, spans, blocks):
        self.n = tensor.n
        self.spans = dict(spans)
        self.blocks: list[tuple[str, np.ndarray, tuple]] = list(gather_blocks(tensor, self.spans, blocks))

    def run(self, x, y) -> None:
        """Add every stored block's share of A x x into y; x and y have length n."""
        _contract_blocks(self.spans, self.blocks, x, y)


def _tiling(n: int) -> tuple[dict, list]:
    """Spans of row tiles of TILE rows and every block over them, in the kernel's order."""
    m = -(-n // TILE)
    spans = {t: (t * TILE, min(n, (t + 1) * TILE)) for t in range(m)}
    return spans, [(i, j, k) for i in range(m) for j in range(i + 1) for k in range(j + 1)]


def tiled_store(tensor: PackedSymTensor) -> BlockStore:
    """Every block of the whole tensor over row tiles of TILE rows."""
    return BlockStore(tensor, *_tiling(tensor.n))


def sttsv_symmetric(tensor: PackedSymTensor | BlockStore, x) -> np.ndarray:
    """y = A x x by the block kernel.

    Pass a store from ``tiled_store`` to reuse its layout across calls; a
    packed tensor is gathered tile block by tile block and each block is
    contracted and dropped as it arrives, in the same order as over a store.
    """
    n = tensor.n
    x = _as_vector(x, n)
    y = np.zeros(n)
    if isinstance(tensor, BlockStore):
        tensor.run(x, y)
    else:
        spans, blocks = _tiling(n)
        _contract_blocks(spans, gather_blocks(tensor, spans, blocks), x, y)
    return y


@dataclass(frozen=True)
class HopmResult:
    lam: float
    x: np.ndarray
    iterations: int
    converged: bool


def hopm(
    tensor: PackedSymTensor,
    seed: int | None = None,
    tol: float = 1e-10,
    max_iters: int = 1000,
    x0=None,
) -> HopmResult:
    """Power iteration for an eigenpair of a symmetric 3-tensor.

    Starts from x0 when given, otherwise from a seeded random unit vector.
    Convergence uses min(|x - x_prev|, |x + x_prev|) < tol so that sign flips
    between iterates do not mask a fixed point.  This is the unshifted power
    method: on many symmetric tensors it never converges and stops after
    max_iters with converged False (CLI ``hopm --n 40 --seed 3``), and when
    it converges slowly the stop iteration depends on summation order.
    """
    n = tensor.n
    if x0 is not None:
        x = np.asarray(x0, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},)")
        norm = np.linalg.norm(x)
        if norm == 0.0:
            raise ValueError("x0 must be nonzero")
        x = x / norm
    else:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        x = x / np.linalg.norm(x)

    store = tiled_store(tensor)
    iterations = 0
    converged = False
    for _ in range(max_iters):
        iterations += 1
        y = sttsv_symmetric(store, x)
        norm = np.linalg.norm(y)
        if norm == 0.0 or not np.isfinite(norm):
            raise DegenerateIterateError(f"iterate norm {norm} at iteration {iterations}")
        x_new = y / norm
        delta = min(np.linalg.norm(x_new - x), np.linalg.norm(x_new + x))
        x = x_new
        if delta < tol:
            converged = True
            break
    lam = float(x @ sttsv_symmetric(store, x))
    return HopmResult(lam=lam, x=x, iterations=iterations, converged=converged)


def cp_gradient(tensor: PackedSymTensor, factors) -> np.ndarray:
    """Gradient of the symmetric rank-r fit at the given n x r factor matrix."""
    x_mat = np.asarray(factors, dtype=np.float64)
    if x_mat.ndim != 2 or x_mat.shape[0] != tensor.n:
        raise ValueError(f"factors must have shape ({tensor.n}, r), got {x_mat.shape}")
    gram = x_mat.T @ x_mat
    g = gram * gram
    store = tiled_store(tensor)
    y = np.empty_like(x_mat)
    for col in range(x_mat.shape[1]):
        y[:, col] = sttsv_symmetric(store, x_mat[:, col])
    return x_mat @ g - y


def random_symmetric(n: int, seed: int) -> PackedSymTensor:
    """Packed tensor with entries uniform in [-1, 1] from a seeded generator."""
    rng = np.random.default_rng(seed)
    return PackedSymTensor(n, rng.uniform(-1.0, 1.0, size=lower_tetra_count(n)))


def random_vector(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=n)


# ---------------------------------------------------------------------------
# binary file formats: magic, u64 length, little-endian f64 payload
# ---------------------------------------------------------------------------


def save_tensor(tensor: PackedSymTensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sQ", TENSOR_MAGIC, tensor.n))
        fh.write(tensor.data.astype("<f8").tobytes())


def load_tensor(path) -> PackedSymTensor:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != TENSOR_MAGIC:
        raise ValueError(f"{path}: not a packed-tensor file")
    (n,) = struct.unpack("<Q", raw[4:12])
    expected = lower_tetra_count(n)
    data = np.frombuffer(raw[12:], dtype="<f8")
    if data.shape != (expected,):
        raise ValueError(f"{path}: expected {expected} values for n={n}, found {data.size}")
    return PackedSymTensor(n, data.copy())


def save_vector(x, path) -> None:
    arr = np.asarray(x, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sQ", VECTOR_MAGIC, arr.size))
        fh.write(arr.astype("<f8").tobytes())


def load_vector(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != VECTOR_MAGIC:
        raise ValueError(f"{path}: not a vector file")
    (n,) = struct.unpack("<Q", raw[4:12])
    data = np.frombuffer(raw[12:], dtype="<f8")
    if data.shape != (n,):
        raise ValueError(f"{path}: expected {n} values, found {data.size}")
    return data.copy()
