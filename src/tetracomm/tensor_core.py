"""Packed symmetric 3-tensor storage, the block kernel and sequential drivers.

A symmetric n x n x n tensor is stored as its lower tetrahedron (i >= j >= k,
1-based) in the linear order (i-1)i(i+1)/6 + (j-1)j/2 + (k-1).

The rows are cut into row blocks of one width, the last one shorter where
the width does not divide n, and a list of blocks is one integer (B, 3)
array of 0-based row-block ids (i, j, k), i >= j >= k.  Contraction runs
over these blocks, each copied out of packed storage into a contiguous
dense array and contracted with BLAS by ``contract``.  For fixed rows
(gi, gj) the entries (gi, gj, klo..khi) are one contiguous run of the packed
data, so a block is gathered as b_i*b_j runs through a window view of the
data; the entries of a diagonal block that lie past its diagonal are then
mirrored from the gathered ones.  One generator, ``gather_blocks``, does
every gather, one block at a time.  A caller that uses each block once
contracts it as it arrives and drops it: the sequential ``sttsv_symmetric``
on a packed tensor (the one-processor case over a fixed tiling of the rows)
and each simulated processor of the parallel algorithm, so neither holds
more than a block of the tensor.  Only callers that reuse blocks keep them,
in a ``BlockStore``: ``hopm`` and ``cp_gradient`` build one store per call
and reuse it for every contraction.  ``block_counts`` counts each block's
packed elements and ternary multiplications (products a*x*x of the
four-case symmetric update) from the row-block width alone.  Kernels sum in
different orders, so comparisons between them use relative tolerances.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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
        ((_, dense, _),) = gather_blocks(self, self.n, [(0, 0, 0)])
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


def _check_blocks(n: int, width, blocks) -> tuple[int, np.ndarray]:
    """The width as an int and the blocks as an int64 (B, 3) array; raise ValueError on a bad width or block.

    Row block t holds rows t*width up to min(n, (t+1)*width), so there are
    m = ceil(n / width) of them.  ``width`` must be a positive int, a numpy
    integer read as one, but not a bool, and ``blocks`` an integer (B, 3)
    array-like of ids with m-1 >= i >= j >= k >= 0; a non-integer id raises
    rather than being truncated.  The error names the first bad block.
    """
    if isinstance(width, bool) or not isinstance(width, (int, np.integer)) or width < 1:
        raise ValueError(f"row-block width must be a positive int, got {width!r}")
    width = int(width)
    blocks = np.asarray(blocks)
    if blocks.dtype.kind not in "iu" or blocks.ndim != 2 or blocks.shape[1] != 3:
        raise ValueError(f"blocks must be an integer (B, 3) array, got {blocks.dtype} of shape {blocks.shape}")
    m = -(-n // width)
    i, j, k = blocks.T
    unordered, outside = (i < j) | (j < k), (k < 0) | (i >= m)
    if np.any(unordered | outside):
        e = int(np.argmax(unordered | outside))
        blk = tuple(blocks[e].tolist())
        if unordered[e]:
            raise ValueError(f"block {blk} is not ordered i >= j >= k")
        raise ValueError(f"block {blk} names a row block outside 0..{m - 1}")
    return width, blocks.astype(np.int64, copy=False)


def _canonical_counts(ij: bool, jk: bool, shape) -> tuple[int, int]:
    """(entries, ternary products) of a block of the given shape.

    Its entries are the positions gi >= gj where i = j and gj >= gk where
    j = k (every position of an off-diagonal block).  Each takes 3 products,
    less one for each tie: gi = gj where i = j, and gj = gk where j = k.
    ``plane`` marks the (gi, gj) pairs and ``per_gj`` counts the gk of each
    gj, so no mask has more than two axes.
    """
    wi, wj, wk = shape
    plane = np.tri(wi, wj, dtype=bool) if ij else np.ones((wi, wj), dtype=bool)
    per_gj = np.minimum(np.arange(1, wj + 1), wk) if jk else np.full(wj, wk)
    entries = int(plane.sum(0) @ per_gj)
    ties = (int(np.diag(plane) @ per_gj) if ij else 0) + (int(plane.sum()) if jk else 0)
    return entries, 3 * entries - ties


def block_counts(n: int, width, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(elems, ternary), one int64 entry per block in the order given, counted from the width alone.

    ``elems`` counts a block's distinct packed entries and ``ternary`` the
    products a*x*x the four-case update performs on them: 3 per entry, less
    one for each of i = j and j = k.  A block's counts depend only on i = j,
    j = k and which of its row blocks is the shorter last one, so the blocks
    fall into at most 32 keys, each counted once from its canonical mask.
    The width and blocks are checked as by ``gather_blocks``.
    """
    width, blocks = _check_blocks(n, width, blocks)
    i, j, k = blocks.T
    short = (blocks == -(-n // width) - 1) & bool(n % width)  # a row block of n % width rows
    keys = (i == j) * 16 + (j == k) * 8 + short @ np.array([4, 2, 1])
    counts = np.zeros((32, 2), dtype=np.int64)
    for key in np.unique(keys).tolist():
        shape = [n % width if key & bit else width for bit in (4, 2, 1)]
        counts[key] = _canonical_counts(bool(key & 16), bool(key & 8), shape)
    return counts[keys, 0], counts[keys, 1]


def gather_blocks(tensor: PackedSymTensor, width, blocks):
    """Yield (kind, D, ids) for each block, in the order given.

    Row block t holds rows t*width up to min(n, (t+1)*width); ``blocks`` is
    an integer (B, 3) array-like of ids (i, j, k) with m-1 >= i >= j >= k >= 0.
    A bad width or block raises ValueError.  D is the block as a dense
    C-contiguous array, a fresh copy that shares no memory with the tensor;
    ``ids`` are its distinct row blocks as ``contract`` takes them.

    Block (i, j, k) is gathered as runs: the entries (gi, gj, klo..khi) lie
    at packed offsets tet[gi] + tri[gj] + klo onwards, so a block is the
    b_i*b_j rows of a window view of the data at those run starts, copied by
    one fancy index.  Where i = j the starts take max and min of (gi, gj).
    Where j = k a run also reads past the diagonal, gk > gj, and in a
    central block past min(gi, gj); only the entries past the diagonal are
    then copied from their mirror images, first across the last two axes
    and, in a central block, then across the first two.

    Blocks are gathered one at a time, as they are asked for: a caller that
    drops each block once it is used never holds more than one block of the
    tensor.
    """
    n = tensor.n
    width, blocks = _check_blocks(n, width, blocks)

    r = np.arange(n, dtype=np.int64)
    tet, tri = r * (r + 1) * (r + 2) // 6, r * (r + 1) // 2
    data = tensor.data
    step = data.strides[0]
    windows = {}  # width -> the runs of that width, one per row
    upper = {}  # width -> the (row, column) indices past the diagonal
    for i, j, k in blocks.tolist():
        gi, gj = r[i * width : (i + 1) * width, None], r[None, j * width : (j + 1) * width]
        if i == j:
            gi, gj = np.maximum(gi, gj), np.minimum(gi, gj)
        klo = k * width
        w = min(width, n - klo)
        if w not in windows:
            # row s is the run of w entries from packed offset s, so every row lies
            # inside the data, and a start past the last row raises IndexError
            window = np.lib.stride_tricks.as_strided(data, (data.size - w + 1, w), (step, step), writeable=False)
            # as one w-wide item per row, the gather copies each run in one piece
            windows[w] = window.view(np.dtype((np.void, w * step)))[:, 0] if step == data.itemsize else window
        D = windows[w][tet[gi] + tri[gj] + klo].view(np.float64).reshape(gi.shape[0], gj.shape[1], w)
        if i > j > k:
            yield "off", D, (i, j, k)
            continue
        if j == k:
            if w not in upper:
                upper[w] = np.triu_indices(w, 1)
            a, c = upper[w]
            D[:, a, c] = D[:, c, a]
            if i == j:
                D[a, c] = D[c, a]
        kind, ids = ("central", (i,)) if i == k else ("aac", (i, k)) if i == j else ("acc", (i, j))
        yield kind, D, ids


def _contract_blocks(width: int, blocks, x, y) -> None:
    """Add the share of A x x of every (kind, D, ids) in blocks into y, over row blocks of width rows."""
    xs, ys = ([v[lo : lo + width] for lo in range(0, len(v), width)] for v in (x, y))
    for kind, D, ids in blocks:
        contract(kind, D, [xs[i] for i in ids], [ys[i] for i in ids])


class BlockStore:
    """The (kind, D, ids) ``gather_blocks`` yields, in the order given, kept for reuse.

    Each D is the gather's own copy, so later changes to the tensor do not
    reach the store.
    """

    __slots__ = ("n", "width", "blocks")

    def __init__(self, tensor: PackedSymTensor, width, blocks):
        self.blocks: list[tuple[str, np.ndarray, tuple]] = list(gather_blocks(tensor, width, blocks))
        self.n, self.width = tensor.n, int(width)  # the gather checked the width

    def run(self, x, y) -> None:
        """Add every stored block's share of A x x into y; x and y have length n."""
        _contract_blocks(self.width, self.blocks, x, y)


def _tiling(n: int) -> list[tuple[int, int, int]]:
    """Every block over row tiles of TILE rows, in the kernel's order."""
    m = -(-n // TILE)
    return [(i, j, k) for i in range(m) for j in range(i + 1) for k in range(j + 1)]


def tiled_store(tensor: PackedSymTensor) -> BlockStore:
    """Every block of the whole tensor over row tiles of TILE rows."""
    return BlockStore(tensor, TILE, _tiling(tensor.n))


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
        _contract_blocks(TILE, gather_blocks(tensor, TILE, _tiling(n)), x, y)
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
