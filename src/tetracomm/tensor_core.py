"""Packed symmetric 3-tensor storage, the block kernel and sequential drivers.

A symmetric n x n x n tensor is stored as its lower tetrahedron (i >= j >= k,
1-based) in the linear order (i-1)i(i+1)/6 + (j-1)j/2 + (k-1).

Contraction runs over a block store: a chosen set of blocks (i, j, k),
i >= j >= k, of row ranges, each copied once out of packed storage into a
contiguous dense array and contracted with BLAS by ``contract``.  A
processor of the parallel algorithm stores its own blocks; the sequential
``sttsv_symmetric`` is the one-processor case over a fixed tiling of the
rows.  A store counts the packed elements and ternary multiplications
(products a*x*x of the four-case symmetric update) of the blocks it
gathered.  ``hopm`` and ``cp_gradient`` build one store per call and reuse
it for every contraction.

The per-element kernels ``sttsv_naive*`` and ``sttsv_symmetric_counted``
touch all n^3 and the n(n+1)(n+2)/6 packed elements respectively and count
every ternary multiplication; they are the references the block kernel is
tested against.  Kernels sum in different orders, so comparisons between
them use relative tolerances.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PackedSymTensor",
    "BlockStore",
    "DegenerateIterateError",
    "HopmResult",
    "packed_index",
    "lower_tetra_count",
    "strict_lower_count",
    "ternary_count",
    "contract",
    "tiled_store",
    "sttsv_naive",
    "sttsv_naive_counted",
    "sttsv_symmetric",
    "sttsv_symmetric_counted",
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


def _tet_offsets(n: int) -> list[int]:
    # offsets[i] = (i-1)i(i+1)/6 for 1-based i; index 0 unused
    return [0] + [(i - 1) * i * (i + 1) // 6 for i in range(1, n + 1)]


def _tri_offsets(n: int) -> list[int]:
    return [0] + [(j - 1) * j // 2 for j in range(1, n + 1)]


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

    def get(self, i: int, j: int, k: int) -> float:
        a, b, c = sorted((i, j, k), reverse=True)
        return float(self.data[packed_index(a, b, c)])

    def set(self, i: int, j: int, k: int, value: float) -> None:
        a, b, c = sorted((i, j, k), reverse=True)
        self.data[packed_index(a, b, c)] = value

    def __getitem__(self, ijk) -> float:
        return self.get(*ijk)

    def __setitem__(self, ijk, value) -> None:
        self.set(*ijk, value)

    def to_dense(self) -> np.ndarray:
        """Expand to a dense symmetric array (small n only)."""
        n = self.n
        dense = np.empty((n, n, n))
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                for k in range(1, j + 1):
                    v = self.get(i, j, k)
                    for a, b, c in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                        dense[a - 1, b - 1, c - 1] = v
        return dense


def _as_vector(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"vector must have shape ({n},), got {arr.shape}")
    return arr


def _as_list(x, n: int) -> list[float]:
    return _as_vector(x, n).tolist()


def sttsv_naive_counted(tensor: PackedSymTensor, x) -> tuple[np.ndarray, int]:
    """All n^3 ternary multiplications, loops ascending in i, j, k."""
    n = tensor.n
    xs = _as_list(x, n)
    data = tensor.data.tolist()
    tet = _tet_offsets(n)
    tri = _tri_offsets(n)
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


def sttsv_naive(tensor: PackedSymTensor, x) -> np.ndarray:
    return sttsv_naive_counted(tensor, x)[0]


def sttsv_symmetric_counted(tensor: PackedSymTensor, x) -> tuple[np.ndarray, int]:
    """One pass over the lower tetrahedron with the four-case update."""
    n = tensor.n
    xs = _as_list(x, n)
    data = tensor.data.tolist()
    tet = _tet_offsets(n)
    tri = _tri_offsets(n)
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


class BlockStore:
    """Chosen blocks of a packed tensor, each laid out once as a dense array.

    ``spans`` maps a row-block id to its 0-based half-open row range; ids
    must order like their ranges.  ``blocks`` are id triples (i, j, k) with
    i >= j >= k.  The store copies its blocks, so later changes to the
    tensor do not reach it.  ``tensor_elems`` counts the distinct packed
    entries gathered and ``ternary_mults`` the products a*x*x the four-case
    update performs on them: 3 per entry, less one for each of i = j and
    j = k.
    """

    __slots__ = ("n", "spans", "blocks", "tensor_elems", "ternary_mults")

    def __init__(self, tensor: PackedSymTensor, spans, blocks):
        self.n = tensor.n
        self.spans = dict(spans)
        r = np.arange(tensor.n, dtype=np.int64)
        tet, tri = r * (r + 1) * (r + 2) // 6, r * (r + 1) // 2
        self.blocks: list[tuple[str, np.ndarray, tuple]] = []
        self.tensor_elems = self.ternary_mults = 0
        for blk in blocks:
            i, j, k = blk
            gi, gj, gk = rows = np.ix_(*(np.arange(*self.spans[t]) for t in blk))
            # sort each position's rows descending, comparing only axes that share a row block
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
                canonical = (ri >= rj) & (rj >= rk)  # the positions packed storage holds
                elems = int(np.count_nonzero(canonical))
                ties = int(np.count_nonzero(canonical & (ri == rj))) + int(np.count_nonzero(canonical & (rj == rk)))
                kind, ids = ("central", (i,)) if i == k else ("aac", (i, k)) if i == j else ("acc", (i, j))
            self.blocks.append((kind, D, ids))
            self.tensor_elems += elems
            self.ternary_mults += 3 * elems - ties

    def run(self, x, y) -> None:
        """Add every stored block's share of A x x into y; x and y have length n."""
        xs = {i: x[lo:hi] for i, (lo, hi) in self.spans.items()}
        ys = {i: y[lo:hi] for i, (lo, hi) in self.spans.items()}
        for kind, D, ids in self.blocks:
            contract(kind, D, [xs[i] for i in ids], [ys[i] for i in ids])


def tiled_store(tensor: PackedSymTensor) -> BlockStore:
    """Every block of the whole tensor over row tiles of TILE rows."""
    n = tensor.n
    m = -(-n // TILE)
    spans = {t: (t * TILE, min(n, (t + 1) * TILE)) for t in range(m)}
    return BlockStore(tensor, spans, ((i, j, k) for i in range(m) for j in range(i + 1) for k in range(j + 1)))


def sttsv_symmetric(tensor: PackedSymTensor | BlockStore, x) -> np.ndarray:
    """y = A x x by the block kernel.

    Pass a store from ``tiled_store`` to reuse its layout across calls; a
    packed tensor is laid out afresh on every call.
    """
    store = tensor if isinstance(tensor, BlockStore) else tiled_store(tensor)
    y = np.zeros(store.n)
    store.run(_as_vector(x, store.n), y)
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
