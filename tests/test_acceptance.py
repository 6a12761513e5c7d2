"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Shared designs, partitions, and simulation runs are built once per
module to keep the suite fast.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from tetracomm import steiner
from tetracomm.bounds import (
    check_basic_hbl,
    check_symm_hbl,
    lower_bound,
    optimality_ratio,
    random_point_set,
    random_strict_point_set,
)
from tetracomm.cli import fixtures_dir
from tetracomm.partition import build_partition, owned_blocks, storage_count, validate_partition, vector_layout
from tetracomm.schedule import alltoall_cost, build_demands, build_schedule, validate
from tetracomm.simulator import compute_report, simulate
from tetracomm.tensor_core import (
    PackedSymTensor,
    block_counts,
    cp_gradient,
    hopm,
    random_symmetric,
    random_vector,
    sttsv_symmetric,
    ternary_count,
)

from oracles import all_lower_blocks, block_tuples, set_entry, sttsv_naive, tb3

SEEDS = [11, 23, 37, 51, 68]


def report_pass(num: int, detail: str) -> None:
    print(f"\n[criterion {num}] PASS  {detail}")


@pytest.fixture(scope="module")
def q2():
    part = build_partition(steiner.construct_spherical(2), label="spherical-q2")
    return part, vector_layout(30, part)


@pytest.fixture(scope="module")
def q3():
    part = build_partition(steiner.construct_spherical(3), label="spherical-q3")
    return part, vector_layout(120, part)


@pytest.fixture(scope="module")
def appendix():
    return steiner.load(fixtures_dir() / "steiner_8_4_3.txt")


@pytest.fixture(scope="module")
def runs_q3(q3):
    part, layout = q3
    out = []
    for seed in SEEDS:
        tensor = random_symmetric(120, seed)
        x = random_vector(120, seed + 1000)
        y, rep = simulate(tensor, x, part, layout, "p2p")
        out.append((tensor, x, y, rep))
    return out


@pytest.fixture(scope="module")
def runs_q2(q2):
    part, layout = q2
    out = []
    for seed in SEEDS:
        tensor = random_symmetric(30, seed)
        x = random_vector(30, seed + 1000)
        y, rep = simulate(tensor, x, part, layout, "p2p")
        out.append((tensor, x, y, rep))
    return out


def test_criterion_1_spherical_construction():
    start = time.perf_counter()
    system = steiner.construct_spherical(3)
    rep = steiner.verify(system)
    elapsed = time.perf_counter() - start
    assert system.n == 10 and system.r == 4
    assert len(system.blocks) == 30
    assert all(len(blk) == 4 for blk in system.blocks)
    assert rep.passed
    assert rep.check("pair_count").detail == "expected 4"
    assert rep.check("point_count").detail == "expected 12"
    part = build_partition(system)
    assert all(len(qi) == 12 for qi in part.Q)
    assert elapsed < 1.0
    report_pass(1, f"30 blocks of size 4 over 10 points, all checks pass, {elapsed:.3f}s")


def test_criterion_2_appendix_fixture(appendix):
    start = time.perf_counter()
    rep = steiner.verify(appendix)
    assert rep.passed
    assert rep.check("pair_count").detail == "expected 3"
    assert rep.check("point_count").detail == "expected 7"
    part = build_partition(appendix)
    demands = build_demands(part)
    sched = build_schedule(demands)
    assert len(sched.steps) == 12
    assert validate(sched, demands).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(2, f"(8,4,3) verifies (pairs 3, points 7), 12 valid schedule steps, {elapsed:.3f}s")


def test_criterion_3_partition_invariants(q2, q3, appendix):
    from collections import Counter

    parts = [q2[0], q3[0], build_partition(appendix)]
    for part in parts:
        assert validate_partition(part) == []
        counts = Counter()
        for p in range(1, part.P + 1):
            counts.update(tb3(part.R[p - 1]))
            counts.update(block_tuples(part.N[p - 1]))
            counts.update(part.D[p - 1])
        assert counts == Counter(all_lower_blocks(part.m))
        for p in range(1, part.P + 1):
            owned = set(part.R[p - 1])
            for blk in block_tuples(part.N[p - 1]) + block_tuples(part.D[p - 1]):
                assert set(blk) <= owned
    part3 = parts[1]
    assert all(len(n) == 3 for n in part3.N)
    assert sum(1 for d in part3.D if d) == 10
    report_pass(3, "exact partitions with locality for q=2, q=3, and the (8,4,3) design")


def test_criterion_4_simulation_correctness(runs_q2, runs_q3):
    for runs in (runs_q2, runs_q3):
        for tensor, x, y, _ in runs:
            ref = sttsv_symmetric(tensor, x)
            assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
    rng = np.random.default_rng(0)
    for n in (2, 5, 9, 14, 20):
        seed = int(rng.integers(1_000_000))
        tensor = random_symmetric(n, seed)
        x = random_vector(n, seed + 1)
        y_naive = sttsv_naive(tensor, x)
        y_symm = sttsv_symmetric(tensor, x)
        assert np.linalg.norm(y_symm - y_naive) <= 1e-12 * np.linalg.norm(y_naive)
    report_pass(4, "simulated output matches sequential kernel (5 seeds x 2 configs); kernels agree n <= 20")


def test_criterion_5_exact_communication(q2, q3, runs_q2, runs_q3):
    for (part, layout), runs, volume, steps in ((q2, runs_q2, 15, 9), (q3, runs_q3, 44, 26)):
        n, q, P = layout.n, part.q, part.P
        assert volume == n * (q + 1) // (q * q + 1) - n // P
        assert steps == (q**3 + 3 * q * q) // 2 - 1
        for _, _, _, rep in runs:
            assert rep.steps_per_vector == steps
            for c in rep.per_proc:
                assert c.sent_x == volume and c.sent_y == volume
    for (part, layout), expected in ((q2, 18), (q3, 58)):
        n, q, P = layout.n, part.q, part.P
        assert expected == 2 * n * (P - 1) // ((q + 1) * P)
        assert alltoall_cost(part, n) == expected
        tensor = random_symmetric(n, 99)
        x = random_vector(n, 100)
        _, rep = simulate(tensor, x, part, layout, "alltoall")
        for c in rep.per_proc:
            assert c.sent_x == expected and c.sent_y == expected
    report_pass(5, "p2p volumes 15/44 words per vector in 9/26 steps; all-to-all volumes 18/58")


def test_criterion_6_exact_computation(q2, q3, runs_q2, runs_q3):
    for (part, layout), runs in ((q2, runs_q2), (q3, runs_q3)):
        predicted = compute_report(part, layout)
        for _, _, _, rep in runs:
            for c, pc in zip(rep.per_proc, predicted.per_proc):
                assert c.ternary_mults == pc.ternary_mults
            assert rep.total_ternary == ternary_count(layout.n)
    report_pass(6, "measured ternary counts equal per-block predictions; totals equal n^2(n+1)/2")


def test_criterion_6_exact_computation_without_a_tensor():
    # a packed tensor at q = 7 is 29 GB, so these counts come from the row-block width alone
    start = time.perf_counter()
    for q in (7, 8, 9):
        part = build_partition(steiner.construct_spherical(q))
        b = q * (q + 1)
        n = part.m * b
        owner, blocks = owned_blocks(part)
        counts = block_counts(n, b, blocks - 1)
        elems, ternary = (np.bincount(owner, c, part.P + 1).astype(np.int64).tolist() for c in counts)
        predicted = compute_report(part, vector_layout(n, part))
        for p, pc in zip(range(1, part.P + 1), predicted.per_proc):
            assert elems[p] == storage_count(part, n, p)
            assert ternary[p] == pc.ternary_mults
        assert sum(ternary) == ternary_count(n)
    elapsed = time.perf_counter() - start
    report_pass(6, f"q=7, 8, 9 (n=2800, 4680, 7380): stored elements and ternary counts per processor exact, {elapsed:.2f}s")


def test_criterion_7_lower_bound_comparison():
    q = 3
    limit = (q + 1) * (q * (q * q + 1)) ** (1 / 3) / (q * q + 1)
    assert abs(optimality_ratio(10**7, q) - limit) < 1e-3
    ratios = [optimality_ratio(10**7, qq) for qq in (2, 3, 4, 5, 7)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert lower_bound(10**7, q * (q * q + 1)) > 0
    report_pass(7, f"ratio at q=3 within 1e-3 of {limit:.4f}; decreasing over q in {{2,3,4,5,7}}")


def test_criterion_8_inequality_fuzzing():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        pts = random_strict_point_set(rng, n_points=12, max_coord=40)
        res = check_symm_hbl(pts)
        assert res.holds
        assert len(res.expansion) == 6 * len(pts)
        assert res.expansion == frozenset(perm for p in pts for perm in permutations(p))
        union = set(res.union_projection)
        for axis in range(3):
            assert {t[axis] for t in res.expansion} == union
    for _ in range(10_000):
        assert check_basic_hbl(random_point_set(rng, n_points=12, max_coord=40)).holds
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass(8, f"10,000 symmetric + 10,000 basic point sets hold with proof identities, {elapsed:.1f}s")


def test_criterion_9_drivers():
    rng = np.random.default_rng(42)
    v = rng.standard_normal(10)
    v /= np.linalg.norm(v)
    tensor = PackedSymTensor(10)
    for i in range(1, 11):
        for j in range(1, i + 1):
            for k in range(1, j + 1):
                set_entry(tensor, i, j, k, v[i - 1] * v[j - 1] * v[k - 1])
    result = hopm(tensor, seed=7, tol=1e-10, max_iters=100)
    assert result.converged and result.iterations <= 100
    assert abs(result.lam - 1.0) < 1e-8

    n, r = 5, 2
    t_rand = random_symmetric(n, 77)
    factors = np.random.default_rng(78).uniform(-1, 1, (n, r))
    grad = cp_gradient(t_rand, factors)
    h = 1e-5
    dense = t_rand.to_dense()

    def objective(mat):
        model = np.einsum("il,jl,kl->ijk", mat, mat, mat)
        return float(np.sum((dense - model) ** 2)) / 6.0

    fd = np.zeros_like(factors)
    for a in range(n):
        for l in range(r):
            plus = factors.copy()
            plus[a, l] += h
            minus = factors.copy()
            minus[a, l] -= h
            fd[a, l] = (objective(plus) - objective(minus)) / (2 * h)
    assert np.linalg.norm(fd - grad) <= 1e-5 * np.linalg.norm(grad)

    exact_factors = np.random.default_rng(79).uniform(-1, 1, (6, 2))
    exact = PackedSymTensor(6)
    for i in range(1, 7):
        for j in range(1, i + 1):
            for k in range(1, j + 1):
                set_entry(exact, i, j, k, float(np.sum(exact_factors[i - 1] * exact_factors[j - 1] * exact_factors[k - 1])))
    assert np.linalg.norm(cp_gradient(exact, exact_factors)) <= 1e-10
    report_pass(9, "rank-1 power iteration hits lambda=1; gradient matches finite differences and is zero at exact fit")
