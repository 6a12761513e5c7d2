import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetracomm import tensor_core
from tetracomm.tensor_core import (
    TILE,
    BlockStore,
    DegenerateIterateError,
    PackedSymTensor,
    block_counts,
    cp_gradient,
    gather_blocks,
    hopm,
    load_tensor,
    load_vector,
    lower_tetra_count,
    packed_index,
    random_symmetric,
    random_vector,
    save_tensor,
    save_vector,
    sttsv_symmetric,
    ternary_count,
    tiled_store,
)

from oracles import (
    ElementGatherStore,
    canonical_counts_by_cube,
    get_entry,
    set_entry,
    sttsv_naive,
    sttsv_naive_counted,
    sttsv_symmetric_counted,
)


def rank1_tensor(v):
    n = len(v)
    t = PackedSymTensor(n)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for k in range(1, j + 1):
                set_entry(t, i, j, k, v[i - 1] * v[j - 1] * v[k - 1])
    return t


def symmetric_rank_r_tensor(factors):
    n, r = factors.shape
    t = PackedSymTensor(n)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for k in range(1, j + 1):
                set_entry(t, i, j, k, float(sum(factors[i - 1, l] * factors[j - 1, l] * factors[k - 1, l] for l in range(r))))
    return t


# ---------------------------------------------------------------------------
# packed storage
# ---------------------------------------------------------------------------


def test_packed_index_enumeration_order():
    # the linear index must walk the lower tetrahedron in ascending (i, j, k)
    n = 5
    linear = 0
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for k in range(1, j + 1):
                assert packed_index(i, j, k) == linear
                linear += 1
    assert linear == lower_tetra_count(n)


def test_packed_index_rejects_unsorted():
    with pytest.raises(ValueError):
        packed_index(1, 2, 3)


def test_symmetry_of_access():
    t = random_symmetric(4, 42)
    assert get_entry(t, 1, 2, 3) == get_entry(t, 3, 1, 2) == get_entry(t, 2, 3, 1)
    set_entry(t, 1, 3, 2, 7.5)
    assert get_entry(t, 3, 2, 1) == 7.5


def test_to_dense_is_symmetric():
    t = random_symmetric(4, 1)
    d = t.to_dense()
    assert np.allclose(d, d.transpose(1, 0, 2))
    assert np.allclose(d, d.transpose(2, 1, 0))
    assert np.allclose(d, d.transpose(0, 2, 1))


def test_counts():
    assert ternary_count(2) == 6
    assert ternary_count(1) == 1
    assert ternary_count(10) == 550
    assert lower_tetra_count(3) == 10


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_naive_all_ones_n2():
    t = PackedSymTensor(2, np.ones(4))
    y, count = sttsv_naive_counted(t, np.ones(2))
    assert np.allclose(y, [4.0, 4.0])
    assert count == 8  # n^3


def test_naive_n1():
    t = PackedSymTensor(1, np.array([2.5]))
    assert np.allclose(sttsv_naive(t, np.array([3.0])), [2.5 * 9.0])


def test_symmetric_all_ones_n2():
    t = PackedSymTensor(2, np.ones(4))
    y, count = sttsv_symmetric_counted(t, np.ones(2))
    assert np.allclose(y, [4.0, 4.0])
    assert count == 6  # n^2 (n+1) / 2


def test_symmetric_diagonal_only_tensor():
    t = PackedSymTensor(3)
    for i in range(1, 4):
        set_entry(t, i, i, i, 1.0)
    y = sttsv_symmetric(t, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(y, [1.0, 4.0, 9.0])


@pytest.mark.parametrize("n,seed", [(6, 42), (10, 7), (15, 3), (20, 99)])
def test_kernels_agree_on_random_input(n, seed):
    t = random_symmetric(n, seed)
    x = random_vector(n, seed + 1)
    y_naive, c_naive = sttsv_naive_counted(t, x)
    y_symm, c_symm = sttsv_symmetric_counted(t, x)
    assert c_naive == n**3
    assert c_symm == ternary_count(n)
    assert np.linalg.norm(y_symm - y_naive) <= 1e-12 * np.linalg.norm(y_naive)


def test_kernel_matches_dense_einsum_oracle():
    t = random_symmetric(8, 5)
    x = random_vector(8, 6)
    dense = t.to_dense()
    expected = np.einsum("ijk,j,k->i", dense, x, x)
    assert np.allclose(sttsv_symmetric(t, x), expected, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, TILE - 1, TILE, 2 * TILE + 5])
def test_block_kernel_matches_oracles_on_ragged_tilings(n):
    t = random_symmetric(n, n)
    x = random_vector(n, n + 1)
    y = sttsv_symmetric(t, x)
    y_elem, count = sttsv_symmetric_counted(t, x)
    y_dense = np.einsum("ijk,j,k->i", t.to_dense(), x, x)
    for expected in (y_elem, y_dense):
        assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)
    elems, ternary = block_counts(n, TILE, tensor_core._tiling(n))
    assert sum(ternary) == count == ternary_count(n)
    assert sum(elems) == lower_tetra_count(n)


@pytest.mark.parametrize(
    "blk,kind",
    [((2, 1, 0), "off"), ((2, 2, 0), "aac"), ((2, 0, 0), "acc"), ((1, 1, 1), "central"), ((2, 2, 2), "central")],
)
def test_block_store_single_block_of_each_kind(blk, kind):
    rows = [range(0, 4), range(4, 8), range(8, 10)]  # width 4 over 10 rows: the last row block is short
    t = random_symmetric(10, 4)
    x = random_vector(10, 5)
    store = BlockStore(t, 4, [blk])
    assert [k for k, _, _ in store.blocks] == [kind]
    # oracle: the dense tensor restricted to the positions the block stands for
    mask = np.zeros((10, 10, 10), dtype=bool)
    for perm in set(permutations(blk)):
        mask[np.ix_(*(rows[b] for b in perm))] = True
    expected = np.einsum("ijk,j,k->i", np.where(mask, t.to_dense(), 0.0), x, x)
    y = sttsv_symmetric(store, x)
    assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)
    entries = [(i, j, k) for i in rows[blk[0]] for j in rows[blk[1]] for k in rows[blk[2]] if i >= j >= k]
    elems, ternary = block_counts(10, 4, [blk])
    assert (elems.tolist(), ternary.tolist()) == ([len(entries)], [sum(3 - (i == j) - (j == k) for i, j, k in entries)])


def assert_same_blocks(store, oracle, blocks):
    elems, ternary = block_counts(store.n, store.width, blocks)
    assert (sum(elems), sum(ternary)) == (oracle.tensor_elems, oracle.ternary_mults)
    assert len(store.blocks) == len(oracle.blocks)
    for (kind, D, ids), (want_kind, want, want_ids) in zip(store.blocks, oracle.blocks):
        assert (kind, ids) == (want_kind, want_ids)
        assert D.flags.c_contiguous
        assert np.array_equal(D, want)


RAGGED = 5  # row-block width over n = 23: four row blocks of 5 rows and a last one of 3
EVERY_BLOCK = [(i, j, k) for i in range(5) for j in range(i + 1) for k in range(j + 1)]


def test_run_gather_equals_element_gather_on_every_kind_of_block():
    t = random_symmetric(23, 8)
    store = BlockStore(t, RAGGED, EVERY_BLOCK)
    assert {kind for kind, _, _ in store.blocks} == {"off", "aac", "acc", "central"}
    assert_same_blocks(store, ElementGatherStore(t, RAGGED, EVERY_BLOCK), EVERY_BLOCK)
    assert sum(block_counts(23, RAGGED, EVERY_BLOCK)[0]) == lower_tetra_count(23)


@st.composite
def stores(draw):
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, n))
    m = -(-n // width)  # the last of the m row blocks is short where width does not divide n
    ordered = [(i, j, k) for i in range(m) for j in range(i + 1) for k in range(j + 1)]
    blocks = draw(st.lists(st.sampled_from(ordered), min_size=1, max_size=15))
    return n, width, blocks, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(stores())
@example((23, RAGGED, EVERY_BLOCK * 2, 11))
def test_every_block_equals_the_element_gather_oracle(case):
    n, width, blocks, seed = case
    t = random_symmetric(n, seed)
    assert_same_blocks(BlockStore(t, width, blocks), ElementGatherStore(t, width, blocks), blocks)


def strided_copy(data, layout):
    if layout == "step 2":
        buf = np.full(2 * data.size, np.nan)
        buf[::2] = data
        return buf[::2]
    if layout == "reversed":
        return data[::-1].copy()[::-1]
    return np.frombuffer(data.tobytes(), dtype=np.float64)


@pytest.mark.parametrize("layout", ["step 2", "reversed", "read-only buffer"])
def test_block_store_reads_strided_and_read_only_data(layout):
    t = random_symmetric(23, 9)
    data = strided_copy(t.data, layout)
    view = PackedSymTensor(23, data)
    assert view.data is data and (layout != "read-only buffer" or not data.flags.writeable)
    assert_same_blocks(BlockStore(view, RAGGED, EVERY_BLOCK), ElementGatherStore(t, RAGGED, EVERY_BLOCK), EVERY_BLOCK)
    x = random_vector(23, 10)
    assert np.array_equal(sttsv_symmetric(view, x), sttsv_symmetric(t, x))


@pytest.mark.parametrize("n", [TILE - 3, 2 * TILE + 5, 3 * TILE + 1])
@pytest.mark.parametrize("layout", ["contiguous", "step 2", "read-only buffer"])
def test_streamed_kernel_equals_the_reused_store(n, layout):
    t = random_symmetric(n, n + 3)
    view = t if layout == "contiguous" else PackedSymTensor(n, strided_copy(t.data, layout))
    x = random_vector(n, n + 4)
    assert np.array_equal(sttsv_symmetric(view, x), sttsv_symmetric(tiled_store(t), x))


@pytest.mark.parametrize("layout", [None, "step 2"])
def test_block_store_never_sees_later_writes_to_its_tensor(layout):
    n = 2 * TILE + 5
    t = random_symmetric(n, 6)
    if layout is not None:
        t = PackedSymTensor(n, strided_copy(t.data, layout))
    store = tiled_store(t)
    assert not any(np.shares_memory(D, t.data) for _, D, _ in store.blocks)
    x = random_vector(n, 7)
    y = sttsv_symmetric(store, x)
    t.data[:] = 0.0
    assert np.any(y) and np.array_equal(sttsv_symmetric(store, x), y)


def test_block_store_keeps_the_gathered_arrays(monkeypatch):
    gather, gathered = tensor_core.gather_blocks, []

    def recording_gather(*args):
        for blk in gather(*args):
            gathered.append(blk)
            yield blk

    monkeypatch.setattr(tensor_core, "gather_blocks", recording_gather)
    store = tiled_store(random_symmetric(2 * TILE + 5, 8))
    assert len(store.blocks) == len(gathered) == 10
    assert all(kept is blk for kept, blk in zip(store.blocks, gathered))


def test_wrong_length_vector_raises_before_any_gather(monkeypatch):
    def no_gather(*args):
        raise AssertionError("gathered a block for a vector of the wrong length")

    monkeypatch.setattr(tensor_core, "gather_blocks", no_gather)
    t = random_symmetric(40, 1)
    for x in (np.ones(39), np.ones(41), np.ones((40, 1))):
        with pytest.raises(ValueError, match="vector must have shape"):
            sttsv_symmetric(t, x)


def traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_kernel_memory_does_not_grow_with_n():
    # a copy of the whole tensor would be 12.7, 26.6 and 47.5 MB at these n;
    # the streamed kernel gathers one tile block at a time, so its peak stays
    # within a few blocks whatever n is
    peaks = []
    for n in (200, 260, 320):
        t, x = random_symmetric(n, 1), random_vector(n, 2)
        peaks.append(traced_peak(lambda: sttsv_symmetric(t, x)))
        del t
    block = TILE**3 * 8
    assert max(peaks) < 4 * block, peaks
    assert max(peaks) - min(peaks) < block, peaks


def test_canonical_counts_equal_the_cube_masks():
    # i = j needs w_i = w_j and j = k needs w_j = w_k, as every block of one width has
    for shape in product(range(1, 9), repeat=3):
        for ij, jk in product((False, True), repeat=2):
            if (ij and shape[0] != shape[1]) or (jk and shape[1] != shape[2]):
                continue
            assert tensor_core._canonical_counts(ij, jk, shape) == canonical_counts_by_cube(ij, jk, shape)


def test_block_counts_memory_grows_with_the_square_of_the_width():
    # a (300, 300, 300) bool mask alone would be 27 MB; the counts need only 2-D masks
    peak = traced_peak(lambda: block_counts(300, 300, np.array([[0, 0, 0]])))
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize(
    "width,blocks,message",
    [
        (0, [(0, 0, 0)], "row-block width must be a positive int, got 0"),
        (-1, [(0, 0, 0)], "row-block width must be a positive int, got -1"),
        (2.5, [(0, 0, 0)], "row-block width must be a positive int, got 2.5"),
        (None, [(0, 0, 0)], "row-block width must be a positive int, got None"),
        (4, [(1, 2, 0)], r"block \(1, 2, 0\) is not ordered i >= j >= k"),
        (4, [(2, 2, 1), (3, 2, 0)], r"block \(3, 2, 0\) names a row block outside 0\.\.2"),
        (4, [(1, 1, 0), (1, 1, -1)], r"block \(1, 1, -1\) names a row block outside 0\.\.2"),
        (4, [(2, 1, 0), (1.5, 1, 0)], r"blocks must be an integer \(B, 3\) array, got float64 of shape \(2, 3\)"),
        (4, [(2.0, 1.0, 0.0)], r"blocks must be an integer \(B, 3\) array, got float64"),
        (4, [(2, 1)], r"blocks must be an integer \(B, 3\) array, got int64 of shape \(1, 2\)"),
        (4, [2, 1, 0], r"blocks must be an integer \(B, 3\) array, got int64 of shape \(3,\)"),
        (True, [(0, 0, 0)], "row-block width must be a positive int, got True"),
        (False, [(0, 0, 0)], "row-block width must be a positive int, got False"),
        (np.int8(0), [(0, 0, 0)], "row-block width must be a positive int, got np.int8"),
    ],
)
def test_block_store_rejects_bad_widths_and_blocks(width, blocks, message):
    # width 4 over n = 9: row blocks 0..2, the last one of a single row
    with pytest.raises(ValueError, match=message):
        BlockStore(random_symmetric(9, 4), width, blocks)
    with pytest.raises(ValueError, match=message):
        block_counts(9, width, blocks)


ids = st.one_of(st.integers(-3, 4), st.integers(2**63, 2**70), st.floats(allow_nan=True))


@settings(max_examples=200, deadline=None)
@given(
    width=st.one_of(
        st.integers(-2, 12), st.integers(2**63, 2**70), st.floats(allow_nan=True), st.none(), st.booleans()
    ),
    blocks=st.one_of(st.lists(st.tuples(ids, ids, ids), max_size=4), st.lists(st.lists(ids, max_size=4), max_size=4)),
)
@example(width=3, blocks=[])
@example(width=2**64, blocks=[(0, 0, 0)])
@example(width=3, blocks=[(2, 1, 0), (2, 1)])
def test_any_width_and_blocks_either_work_or_raise_value_error(width, blocks):
    t = random_symmetric(9, 4)
    for call in (lambda: list(gather_blocks(t, width, blocks)), lambda: block_counts(9, width, blocks)):
        try:
            call()
        except ValueError:
            pass


@pytest.mark.parametrize("width", [np.int8(3), np.uint16(3), np.int64(3)])
def test_a_numpy_integer_width_reads_as_the_int(width):
    # n = 340 over width 3: offsets past 127 would overflow an int8 width
    t = random_symmetric(340, 4)
    blocks = [(113, 113, 113), (113, 60, 0), (80, 80, 2), (100, 7, 7)]
    for (kind, D, ids), (kind3, D3, ids3) in zip(gather_blocks(t, width, blocks), gather_blocks(t, 3, blocks)):
        assert (kind, ids) == (kind3, ids3) and D.tobytes() == D3.tobytes()
    for got, want in zip(block_counts(340, width, blocks), block_counts(340, 3, blocks)):
        assert np.array_equal(got, want)
    x, y, y3 = random_vector(340, 5), np.zeros(340), np.zeros(340)
    BlockStore(t, width, blocks).run(x, y)
    BlockStore(t, 3, blocks).run(x, y3)
    assert y.tobytes() == y3.tobytes()


def test_to_dense_holds_every_entry_at_every_permutation():
    t = random_symmetric(6, 3)
    dense = t.to_dense()
    assert dense.flags.c_contiguous
    for a, b, c in np.ndindex(6, 6, 6):
        assert dense[a, b, c] == get_entry(t, a + 1, b + 1, c + 1)


def test_sequential_kernel_sees_tensor_updates():
    t = random_symmetric(5, 2)
    x = random_vector(5, 3)
    before = sttsv_symmetric(t, x)
    set_entry(t, 4, 2, 1, 10.0)
    after = sttsv_symmetric(t, x)
    assert not np.allclose(before, after)
    assert np.allclose(after, sttsv_symmetric_counted(t, x)[0], rtol=1e-12)


def test_dimension_mismatch():
    t = random_symmetric(4, 0)
    with pytest.raises(ValueError):
        sttsv_symmetric(t, np.ones(5))
    with pytest.raises(ValueError):
        sttsv_naive(t, np.ones(3))


# ---------------------------------------------------------------------------
# power method
# ---------------------------------------------------------------------------


def test_hopm_rank1_converges_to_unit_eigenvalue():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v)
    result = hopm(rank1_tensor(v), seed=3, tol=1e-10, max_iters=100)
    assert result.converged
    assert abs(result.lam - 1.0) < 1e-10
    assert min(np.linalg.norm(result.x - v), np.linalg.norm(result.x + v)) < 1e-8


def test_hopm_dominant_diagonal():
    t = PackedSymTensor(2)
    set_entry(t, 1, 1, 1, 3.0)
    set_entry(t, 2, 2, 2, 1.0)
    result = hopm(t, x0=np.array([1.0, 1e-3]), tol=1e-12, max_iters=200)
    assert abs(result.lam - 3.0) < 1e-10
    assert abs(abs(result.x[0]) - 1.0) < 1e-10


def test_hopm_zero_tensor_degenerates():
    with pytest.raises(DegenerateIterateError):
        hopm(PackedSymTensor(3), seed=1)


def test_hopm_iterates_stay_normalized():
    t = random_symmetric(6, 8)
    for iters in range(1, 6):
        result = hopm(t, seed=2, tol=0.0, max_iters=iters)
        assert abs(np.linalg.norm(result.x) - 1.0) < 1e-14
        assert result.iterations == iters


def test_hopm_stops_unconverged_after_max_iters():
    # the unshifted power method does not converge on this tensor (CLI hopm --n 40 --seed 3)
    result = hopm(random_symmetric(40, 3), seed=4, max_iters=5)
    assert result.iterations == 5
    assert result.converged is False


def test_hopm_rejects_bad_start():
    t = random_symmetric(3, 0)
    with pytest.raises(ValueError):
        hopm(t, x0=np.zeros(3))
    with pytest.raises(ValueError):
        hopm(t, x0=np.ones(4))


# ---------------------------------------------------------------------------
# decomposition gradient
# ---------------------------------------------------------------------------


def fit_objective(tensor, factors):
    """(1/6) squared Frobenius distance between the tensor and the rank-r model."""
    dense = tensor.to_dense()
    model = np.einsum("il,jl,kl->ijk", factors, factors, factors)
    return float(np.sum((dense - model) ** 2)) / 6.0


def test_gradient_zero_at_exact_decomposition():
    rng = np.random.default_rng(4)
    factors = rng.uniform(-1, 1, (6, 2))
    t = symmetric_rank_r_tensor(factors)
    grad = cp_gradient(t, factors)
    assert np.linalg.norm(grad) <= 1e-10


def test_gradient_rank1_scaling_law():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    t = rank1_tensor(v)
    c = 1.7
    grad = cp_gradient(t, (c * v).reshape(-1, 1))
    expected = ((c**5 - c**2) * v).reshape(-1, 1)
    assert np.allclose(grad, expected, atol=1e-10)


def test_gradient_matches_central_finite_differences():
    n, r = 5, 2
    t = random_symmetric(n, 21)
    rng = np.random.default_rng(22)
    factors = rng.uniform(-1, 1, (n, r))
    grad = cp_gradient(t, factors)
    h = 1e-5
    fd = np.zeros_like(factors)
    for a in range(n):
        for l in range(r):
            plus = factors.copy()
            plus[a, l] += h
            minus = factors.copy()
            minus[a, l] -= h
            fd[a, l] = (fit_objective(t, plus) - fit_objective(t, minus)) / (2 * h)
    assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(grad)


def test_gradient_shape_mismatch():
    t = random_symmetric(4, 0)
    with pytest.raises(ValueError):
        cp_gradient(t, np.ones((5, 2)))


# ---------------------------------------------------------------------------
# randomness and file formats
# ---------------------------------------------------------------------------


def test_random_tensor_deterministic_by_seed():
    assert np.array_equal(random_symmetric(6, 5).data, random_symmetric(6, 5).data)
    assert not np.array_equal(random_symmetric(6, 5).data, random_symmetric(6, 6).data)
    assert np.array_equal(random_vector(6, 5), random_vector(6, 5))


def test_tensor_file_round_trip(tmp_path):
    t = random_symmetric(7, 123)
    path = tmp_path / "t.pst3"
    save_tensor(t, path)
    loaded = load_tensor(path)
    assert loaded.n == 7
    assert np.array_equal(loaded.data, t.data)


def test_vector_file_round_trip(tmp_path):
    x = random_vector(9, 5)
    path = tmp_path / "x.vec"
    save_vector(x, path)
    assert np.array_equal(load_vector(path), x)


def test_tensor_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_tensor(path)
    with pytest.raises(ValueError):
        load_vector(path)


def test_tensor_file_truncated(tmp_path):
    t = random_symmetric(5, 1)
    path = tmp_path / "t.pst3"
    save_tensor(t, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        load_tensor(path)
