"""Communication lower bound and brute-force projection inequality checkers.

The two inequality checkers work on explicit point sets and compute every
projection by enumeration, so they stay independent of any closed-form
reasoning they are used to validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb

import numpy as np

from .finite_field import prime_power

__all__ = [
    "HblResult",
    "SymmHblResult",
    "check_basic_hbl",
    "check_symm_hbl",
    "expand_symmetric",
    "opt_solution",
    "lower_bound",
    "optimality_ratio",
    "random_point_set",
    "random_strict_point_set",
]


def _projections(points) -> tuple[set[int], set[int], set[int]]:
    pi = {i for i, _, _ in points}
    pj = {j for _, j, _ in points}
    pk = {k for _, _, k in points}
    return pi, pj, pk


@dataclass(frozen=True)
class HblResult:
    holds: bool
    lhs: int
    rhs: int


def check_basic_hbl(points) -> HblResult:
    """|V| <= |proj_i| * |proj_j| * |proj_k| for a finite point set V."""
    pts = {tuple(p) for p in points}
    pi, pj, pk = _projections(pts)
    lhs = len(pts)
    rhs = len(pi) * len(pj) * len(pk)
    return HblResult(lhs <= rhs, lhs, rhs)


def expand_symmetric(points) -> set[tuple[int, int, int]]:
    """All coordinate permutations of every point."""
    out: set[tuple[int, int, int]] = set()
    for p in points:
        out.update(permutations(p))
    return out


@dataclass(frozen=True)
class SymmHblResult:
    holds: bool
    lhs: int
    rhs: int
    expansion: frozenset
    union_projection: frozenset


def check_symm_hbl(points) -> SymmHblResult:
    """6|V| <= |proj_i u proj_j u proj_k|^3 for strictly ordered points.

    Every point must satisfy i > j > k.  The result carries the 6-fold
    permutation expansion, whose size is asserted to be exactly 6|V|.
    """
    pts = {tuple(p) for p in points}
    for i, j, k in pts:
        if not i > j > k:
            raise ValueError(f"point {(i, j, k)} is not strictly ordered i > j > k")
    pi, pj, pk = _projections(pts)
    union = pi | pj | pk
    expansion = expand_symmetric(pts)
    if len(expansion) != 6 * len(pts):
        raise RuntimeError(f"permutation expansion has {len(expansion)} points, expected {6 * len(pts)}")
    lhs = 6 * len(pts)
    rhs = len(union) ** 3
    return SymmHblResult(lhs <= rhs, lhs, rhs, frozenset(expansion), frozenset(union))


def opt_solution(n: int, processors: int) -> tuple[float, float]:
    """Minimizer of x1 + 2*x2 under the tensor-share and projection constraints."""
    if processors < 1 or n < 3:
        raise ValueError(f"need P >= 1 and n >= 3, got P={processors}, n={n}")
    volume = n * (n - 1) * (n - 2)
    return volume / (6 * processors), (volume / processors) ** (1.0 / 3.0)


def lower_bound(n: int, processors: int) -> float:
    """Minimum number of vector elements some processor must communicate.

    The formula 2(n(n-1)(n-2)/P)^(1/3) - 2n/P is negative where n is small
    against P, as at P = 1, where nothing needs to move (n=3 gives -2.37 at
    P=1 and -0.12 at P=2).  No processor communicates fewer than 0
    elements, so 0 is always a valid bound and the larger of the two is
    returned.
    """
    return max(0.0, 2.0 * opt_solution(n, processors)[1] - 2.0 * n / processors)


def optimality_ratio(n: int, q: int) -> float:
    """Leading-order bandwidth of the block-partitioned algorithm over the
    leading term of the lower bound, at P = q(q^2+1) processors.

    Converges to (q+1) * (q(q^2+1))^(1/3) / (q^2+1) as n grows.
    """
    if prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    algorithm = 2.0 * n * (q + 1) / (q * q + 1)
    return algorithm / (2.0 * opt_solution(n, q * (q * q + 1))[1])


def random_point_set(rng: np.random.Generator, n_points: int = 20, max_coord: int = 50) -> set[tuple[int, int, int]]:
    """Random set of integer points in [1, max_coord]^3."""
    coords = rng.integers(1, max_coord + 1, size=(n_points, 3))
    return {tuple(int(c) for c in row) for row in coords}


def random_strict_point_set(rng: np.random.Generator, n_points: int = 20, max_coord: int = 50) -> set[tuple[int, int, int]]:
    """Random set of strictly ordered points i > j > k in [1, max_coord]^3."""
    if n_points > comb(max_coord, 3):
        raise ValueError(f"asked for {n_points} points, only {comb(max_coord, 3)} strictly ordered ones lie in 1..{max_coord}")
    out: set[tuple[int, int, int]] = set()
    while len(out) < n_points:
        picks = rng.choice(max_coord, size=3, replace=False) + 1
        i, j, k = sorted(int(v) for v in picks)[::-1]
        out.add((i, j, k))
    return out
