from itertools import permutations

import numpy as np
import pytest

from tetracomm.bounds import (
    check_basic_hbl,
    check_symm_hbl,
    expand_symmetric,
    lower_bound,
    opt_solution,
    optimality_ratio,
    random_point_set,
    random_strict_point_set,
)
from oracles import tb3


def brute_projection_sizes(points):
    """Oracle: enumerate axis projections directly."""
    return (
        len({p[0] for p in points}),
        len({p[1] for p in points}),
        len({p[2] for p in points}),
    )


# ---------------------------------------------------------------------------
# basic projection inequality
# ---------------------------------------------------------------------------


def test_single_point():
    res = check_basic_hbl({(1, 1, 1)})
    assert res.holds and res.lhs == 1 and res.rhs == 1


def test_full_box_is_tight():
    box = {(i, j, k) for i in range(1, 4) for j in range(1, 3) for k in range(1, 6)}
    res = check_basic_hbl(box)
    assert res.holds
    assert res.lhs == res.rhs == 3 * 2 * 5


def test_basic_random_fuzz():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        pts = random_point_set(rng, n_points=20, max_coord=10)
        res = check_basic_hbl(pts)
        assert res.holds
        a, b, c = brute_projection_sizes(pts)
        assert res.rhs == a * b * c
        assert res.lhs == len(pts)


# ---------------------------------------------------------------------------
# symmetric projection inequality
# ---------------------------------------------------------------------------


def test_symm_single_point():
    res = check_symm_hbl({(3, 2, 1)})
    assert res.holds and res.lhs == 6 and res.rhs == 27


def test_symm_tetrahedral_block():
    pts = {tuple(b) for b in tb3(range(1, 6))}
    res = check_symm_hbl(pts)
    assert res.holds
    assert res.lhs == 60  # 6 * C(5,3)
    assert res.rhs == 125
    assert len(res.expansion) == 60


def test_symm_rejects_unordered_points():
    with pytest.raises(ValueError):
        check_symm_hbl({(1, 2, 3)})
    with pytest.raises(ValueError):
        check_symm_hbl({(2, 2, 1)})


def test_expansion_identities():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = random_strict_point_set(rng, n_points=15, max_coord=30)
        res = check_symm_hbl(pts)
        assert res.holds
        # expansion is exactly all permutations, each point contributing six
        expected = {perm for p in pts for perm in permutations(p)}
        assert res.expansion == frozenset(expected)
        assert len(res.expansion) == 6 * len(pts)
        # all three projections of the expansion equal the union projection
        for axis in range(3):
            assert {t[axis] for t in res.expansion} == set(res.union_projection)


def test_expand_symmetric_counts():
    assert len(expand_symmetric({(3, 2, 1)})) == 6
    assert len(expand_symmetric({(3, 2, 1), (4, 2, 1)})) == 12


def test_symm_random_fuzz():
    rng = np.random.default_rng(200)
    for _ in range(1000):
        assert check_symm_hbl(random_strict_point_set(rng, 20, 50)).holds


# ---------------------------------------------------------------------------
# optimization solution and lower bound
# ---------------------------------------------------------------------------


def test_opt_solution_values():
    x1, x2 = opt_solution(120, 30)
    volume = 120 * 119 * 118
    assert x1 == pytest.approx(volume / 180, abs=1e-9)
    assert x2 == pytest.approx((volume / 30) ** (1 / 3), abs=1e-9)


def test_opt_solution_minimal_case():
    x1, x2 = opt_solution(3, 1)
    assert x1 == pytest.approx(1.0, abs=1e-12)
    assert x2 == pytest.approx(6 ** (1 / 3), abs=1e-12)


@pytest.mark.parametrize("n,P", [(120, 30), (30, 10), (50, 7), (1000, 130)])
def test_opt_solution_satisfies_constraints_tightly(n, P):
    x1, x2 = opt_solution(n, P)
    volume = n * (n - 1) * (n - 2)
    assert x1 == pytest.approx(volume / (6 * P), rel=1e-12)
    assert x2**3 == pytest.approx(volume / P, rel=1e-12)
    # any feasible perturbation increases the objective x1 + 2 x2
    assert (x1 + 1) + 2 * x2 > x1 + 2 * x2
    assert x1 + 2 * (x2 + 1) > x1 + 2 * x2


def test_lower_bound_values():
    assert lower_bound(120, 30) == pytest.approx(2 * (120 * 119 * 118 / 30) ** (1 / 3) - 8, abs=1e-9)
    assert lower_bound(30, 10) == pytest.approx(2 * (30 * 29 * 28 / 10) ** (1 / 3) - 6, abs=1e-9)
    assert lower_bound(30, 10) == pytest.approx(20.9105, abs=1e-3)


def test_lower_bound_nonpositive_on_single_processor():
    for n in (3, 10, 100, 10_000):
        assert lower_bound(n, 1) <= 0


def test_bounds_input_validation():
    with pytest.raises(ValueError):
        lower_bound(2, 4)
    with pytest.raises(ValueError):
        opt_solution(10, 0)


# ---------------------------------------------------------------------------
# optimality ratio
# ---------------------------------------------------------------------------


def test_ratio_limit_q3():
    q = 3
    limit = (q + 1) * (q * (q * q + 1)) ** (1 / 3) / (q * q + 1)
    assert optimality_ratio(10**7, q) == pytest.approx(limit, abs=1e-3)


def test_ratio_q7():
    q = 7
    limit = (q + 1) * (q * (q * q + 1)) ** (1 / 3) / (q * q + 1)
    assert optimality_ratio(10**7, q) == pytest.approx(limit, abs=1e-3)


def test_ratio_decreases_in_q():
    ratios = [optimality_ratio(10**7, q) for q in (2, 3, 4, 5, 7)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 1 for r in ratios)


def test_ratio_rejects_non_prime_power():
    with pytest.raises(ValueError):
        optimality_ratio(1000, 6)


def test_strict_point_set_rejects_more_points_than_exist():
    rng = np.random.default_rng(0)
    assert random_strict_point_set(rng, 1, 3) == {(3, 2, 1)}
    with pytest.raises(ValueError):
        random_strict_point_set(rng, 2, 3)
