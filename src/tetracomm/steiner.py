"""Steiner (n, r, 3) systems: spherical construction, verification, text I/O.

A system is a list of sorted r-subsets of {1..n} covering every 3-subset
exactly once.  The construction builds the (q^2+1, q+1, 3) family as the
orbit of the order-q subfield line (plus the point at infinity) under
PGL(2, q^2), the fractional-linear maps over GF(q^2), closing the line
under three maps that generate that group.  Externally supplied systems
are parsed by ``parse`` and accepted by ``load`` whenever they verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, gcd, isqrt
from pathlib import Path

import numpy as np

from .checks import Check, Report
from .finite_field import field_new, prime_power
from .matching import _cycle_min

__all__ = [
    "SteinerSystem",
    "SteinerParseError",
    "SteinerInvariantError",
    "ConstructionError",
    "construct_spherical",
    "mobius_cycle",
    "mobius_orbits",
    "verify",
    "load",
    "parse",
    "save",
]

# Designs stop at q=16 so that design files, which share the cap, have
# n <= 257 and a bounded verify cost; larger q is refused before any field
# table is built.
Q_CAP = 16


class SteinerParseError(ValueError):
    """Malformed system file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SteinerInvariantError(ValueError):
    """A parsed system failed verification; carries the full report."""

    def __init__(self, report: Report):
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"system failed verification: {failed}")
        self.report = report


class ConstructionError(RuntimeError):
    """Internal consistency failure during orbit enumeration."""


@dataclass
class SteinerSystem:
    """Collection of r-subsets of {1..n} in which every triple appears once."""

    n: int
    r: int
    blocks: list[tuple[int, ...]]
    s: int = 3


def _generators(q: int) -> tuple[np.ndarray, list[int]]:
    """(maps, base): the generators x+1, wx and 1/x as rows of one table on point ids, and the base block.

    This is the one place that does GF(q^2) arithmetic on point ids.  q must
    be a prime power up to Q_CAP, checked before the field is built, else
    ValueError.  Point x < q^2 is the x-th element of GF(q^2) in canonical
    order and q^2 is infinity.  The maps are read from the exp table of the
    first primitive element w (exp[j] = w^j) and its inverse, the log table:
    wx = exp[log x + 1] and 1/x = exp[-log x], exponents mod q^2 - 1.  The
    constant term is the most significant base-p digit of an id, so adding
    one adds q^2/p modulo q^2.  The subfield of order q is 0 and the powers
    of w^(q+1); the base block is it plus infinity, ascending.
    """
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"q={q} is not a prime power")
    if q > Q_CAP:
        raise ValueError(f"q={q} exceeds the cap {Q_CAP} on the spherical construction")
    p, k = pk
    nn = q * q
    exp = np.array(field_new(p, 2 * k).exp_table(), dtype=np.int64)
    log = np.zeros(nn, dtype=np.int64)
    log[exp] = np.arange(nn - 1)  # log[0] stays 0: the zero column is set apart below
    maps = np.empty((3, nn + 1), dtype=np.int64)
    maps[0, :nn] = (np.arange(nn) + nn // p) % nn
    maps[1, :nn] = exp[(log + 1) % (nn - 1)]
    maps[2, :nn] = exp[-log % (nn - 1)]
    maps[:, 0] = [nn // p, 0, nn]  # 0 + 1, w·0 and 1/0 = infinity
    maps[:, nn] = [nn, nn, 0]  # infinity is fixed by x+1 and wx, and 1/infinity = 0
    return maps, [0, *sorted(exp[:: q + 1].tolist()), nn]


def construct_spherical(q: int) -> SteinerSystem:
    """Build the (q^2+1, q+1, 3) system for a prime power q up to Q_CAP.

    Points 1..q^2 are the elements of GF(q^2) in canonical order and point
    q^2+1 is infinity.  Blocks are the images of the subfield line (plus
    infinity) under PGL(2, q^2), found as the closure of that line under
    x -> x+1, x -> wx for a primitive element w, and x -> 1/x (swapping 0
    and infinity).  These three maps generate PGL(2, q^2): conjugating x+1
    by powers of w gives every translation, translations and scalings give
    every affine map, and every map (ax+b)/(cx+d) with c != 0 is
    alpha + beta/(x+delta).

    The maps are integer tables on point ids (``_generators``), so the
    field multiplies only to build the exp table of w.  The closure runs level
    by level: every block of a level is mapped by all three tables in one
    array operation.  PGL(2, q^2) is sharply 3-transitive, so two images
    that share their three least points are one block, and a block is known
    by the integer code of those three.
    """
    maps, base = _generators(q)
    nn = q * q
    images, found, seen = np.array([base]), [], set()
    while len(images):
        codes = (images[:, 0] * (nn + 1) + images[:, 1]) * (nn + 1) + images[:, 2]
        new = []
        for e, c in enumerate(codes.tolist()):
            if c not in seen:
                seen.add(c)
                new.append(e)
        found.append(images[new])
        images = np.sort(maps[:, found[-1]].reshape(-1, q + 1), axis=1)

    expected = q * (nn + 1)
    if len(seen) != expected:
        raise ConstructionError(f"orbit produced {len(seen)} blocks, expected {expected}")
    # blocks differ in their three least points, so those alone order them lexicographically
    blocks = np.concatenate(found)
    blocks = blocks[np.lexsort(blocks[:, 2::-1].T)] + 1
    return SteinerSystem(n=nn + 1, r=q + 1, blocks=list(map(tuple, blocks.tolist())))


def mobius_cycle(q: int) -> np.ndarray:
    """The point permutation of x -> 1/(w^j x + 1) for the least j >= 0 that makes it one (q^2+1)-cycle.

    Points are numbered as in construct_spherical but from 0: x < q^2 is
    the x-th element of GF(q^2), q^2 is infinity and g[x] is the image of
    x.  The map is composed from ``_generators``' tables as
    inverse[plus_one[times_w^j]], and its point permutation is one cycle
    when the walk from point 0 first returns after every point.

    Some j works for every q.  The map is the matrix M = [[0, 1], [w^j, 1]]
    of trace 1 and determinant -w^j, so tr^2/det = -w^-j takes every
    non-zero value of GF(q^2) as j runs over 0..q^2-2.  A non-scalar
    element's class in PGL(2, q^2) depends only on tr^2/det: scaling one
    matrix to the other's trace then equates their characteristic
    polynomials, and a non-scalar 2x2 matrix is conjugate to the companion
    matrix of its own.  A generator of a non-split torus has order q^2+1
    and permutes the points in one cycle.  It is no involution, and by
    Cayley-Hamilton M^2 = tr·M - det·I, so an element of trace 0 squares
    to a scalar: its trace is non-zero, and some j meets its class.  Being
    in PGL(2, q^2), the map permutes the blocks of the spherical design.
    """
    plus_one, times_w, inverse = _generators(q)[0]
    scaled = np.arange(len(plus_one))  # x -> w^j x
    for _ in range(q * q - 1):
        g = inverse[plus_one[scaled]]
        walk = g.tolist()
        x, length = walk[0], 1
        while x:
            x, length = walk[x], length + 1
        if length == len(walk):
            return g
        scaled = times_w[scaled]
    raise ConstructionError(f"no map x -> 1/(w^j x + 1) of GF({q}^2) is one cycle on the points")


def mobius_orbits(sets: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(h, members): a cyclic group <h> of Möbius maps acting freely on the blocks sets, or the trivial group.

    sets is a (P, r) integer array of 0-based points below m, ascending in
    every row, one row per block.  The blocks are taken for the spherical
    design of q when q is a prime power up to Q_CAP, m = q^2+1, P = q·m and
    r = q+1.  Let g be mobius_cycle(q), h = g for even q and g∘g for odd q,
    and L = (q^2+1)/gcd(2, q-1).  Mapping every block by h and looking the
    image up by the integer code of its three least points gives the block
    permutation π.  A group of order L coprime to the block stabiliser's
    q(q^2-1) acts freely, so every orbit has length L.  The blocks are a
    design's only when every image is a block and π is a permutation with
    every orbit of length L.

    h is the point permutation of the group's generator, h[x] the image of
    x.  Orbits are listed by least member, the label ``_cycle_min`` gives
    each of its members, and each from it: members is the (E, L) table with
    members[a, j] = π^j(members[a, 0]), as 1-based block ids.  When any
    check fails the group is trivial: h is the identity and members the
    (P, 1) column of ids 1..P.
    """
    P, r = sets.shape
    trivial = np.arange(m), np.arange(1, P + 1)[:, None]
    q = isqrt(max(m - 1, 0))
    if q < 2 or q * q != m - 1 or P != q * m or r != q + 1:
        return trivial
    try:
        g = mobius_cycle(q)
    except ValueError:  # q is no prime power, or past Q_CAP
        return trivial
    h = g if q % 2 == 0 else g[g]
    L = (q * q + 1) // gcd(2, q - 1)

    image = np.sort(h[sets], axis=1)
    code = (sets[:, 0] * m + sets[:, 1]) * m + sets[:, 2]
    by_code = np.argsort(code)
    want = (image[:, 0] * m + image[:, 1]) * m + image[:, 2]
    pi = by_code[np.minimum(np.searchsorted(code[by_code], want), P - 1)]  # 0-based
    if not np.array_equal(sets[pi], image) or np.any(np.bincount(pi, minlength=P) != 1):
        return trivial

    label = _cycle_min(pi)  # every orbit's least member
    if np.any(np.bincount(label, minlength=P)[label] != L):
        return trivial
    members = np.empty((P // L, L), dtype=np.int64)
    members[:, 0] = np.flatnonzero(label == np.arange(P))
    for j in range(1, L):
        members[:, j] = pi[members[:, j - 1]]
    return h, members + 1


def _point_sets(blocks: list, n: int, r: int) -> tuple[int | None, dict[int, list[np.ndarray]]]:
    """The index of the first block that is not a sorted r-subset of 1..n, and every block's points.

    Blocks are read as one integer array per length.  The second result maps
    a point count c to arrays of shape (blocks, c), each row the distinct
    points of one block that lie in 1..n, ascending.
    """
    lengths = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
    first_bad, points = None, {}
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        chosen = blocks if len(rows) == len(blocks) else [blocks[e] for e in rows.tolist()]
        pts = np.fromiter(chain.from_iterable(chosen), dtype=np.int64, count=len(rows) * length)
        pts = pts.reshape(len(rows), length)
        good = np.all((pts >= 1) & (pts <= n), axis=1) & np.all(pts[:, 1:] > pts[:, :-1], axis=1)
        if length != r or not good.all():
            e = int(rows[np.argmin(good)]) if length == r else int(rows[0])
            first_bad = e if first_bad is None else min(first_bad, e)
        pts = np.sort(pts, axis=1)
        keep = (pts >= 1) & (pts <= n)
        keep[:, 1:] &= pts[:, 1:] != pts[:, :-1]
        count = np.count_nonzero(keep, axis=1)
        for c in np.unique(count[count > 0]).tolist():
            sel = count == c
            points.setdefault(c, []).append(pts[sel][keep[sel]].reshape(-1, c))
    return first_bad, points


def verify(system: SteinerSystem) -> Report:
    """Check the defining and counting properties of an (n, r, 3) system.

    Failures are reported, not raised.  Every k-subset of 1..n (k = 3, 2, 1)
    must lie in exactly λ_k = C(n-k, 3-k)/C(r-k, 3-k) blocks; a failed
    coverage check names the first triple, pair or point that does not.

    The blocks are read as integer arrays, one per block length, and each
    block's distinct points in 1..n as one array per point count.  A k-subset
    a < b < c of a block's points is one integer, (a·B + b)·B + c with
    B = min(n, M + 3) + 1 and M the largest point in any block, so numeric
    order of the codes is lexicographic order of the subsets; ``np.unique``
    counts them.  A check passes when there are exactly C(min(n, M + k), k)
    distinct codes, each counted λ_k times: every code is a k-subset of
    1..min(n, M + k), so then each of those subsets is covered λ_k times.

    When the blocks hold more than λ_k·C(n, k) k-subsets, some k-subset is
    covered too often and none is counted, so a check counts no more than a
    valid design of the same n and r would.  Only a failing check looks for
    its witness, by one walk over the k-subsets of 1..min(n, M + k) in
    lexicographic order beside the sorted codes.  That walk finds the first
    witness: λ_k > 0, so every k-subset holding a point in no block (M + 1,
    or the least point below it that no block holds) is a witness, and the
    first such subset and every subset before it lie in 1..max(g, k), g that
    least point, so the walk stops there at the latest.
    """
    n, r = system.n, system.r
    if r < 3:  # no triple fits in a block, and the counting checks divide by r - 2
        return Report([Check("block_size", False, f"expected r >= 3, got {r}")])
    if n < 3:  # no triple of points exists, and C(n - k, 3 - k) is undefined
        return Report([Check("point_set_size", False, f"expected n >= 3, got {n}")])

    first_bad, points = _point_sets(system.blocks, n, r)
    shape = f"expected sorted {r}-subsets of 1..{n}"
    detail = shape if first_bad is None else f"{shape}, got {system.blocks[first_bad]}"
    checks = [Check("block_shape", first_bad is None, detail)]

    held_points = np.unique(np.concatenate([a.ravel() for arrays in points.values() for a in arrays] + [[0]]))
    top = int(held_points[-1])
    # gap: the least point that no block holds
    gap = int(np.argmax(np.append(held_points, 0) != np.arange(len(held_points) + 1)))
    base = min(n, top + 3) + 1
    # codes of up to three digits below base; past int64 they are Python ints
    dtype = np.int64 if base**3 < 2**63 else object

    def coverage(name: str, noun: str, k: int) -> Check:
        expected = Fraction(comb(n - k, 3 - k), comb(r - k, 3 - k))
        if expected.denominator == 1:  # compare ints below, not Fractions
            expected = expected.numerator
        held = sum(len(a) * comb(c, k) for c, arrays in points.items() for a in arrays)
        if held > expected * comb(n, k):
            return Check(
                name,
                False,
                f"expected {expected}, but the blocks hold {held} {noun}s, more than {expected} for each of the"
                f" {comb(n, k)} {noun}s of 1..{n}: some {noun} is covered more often",
            )
        codes = [np.zeros(0, dtype=dtype)]
        for c, arrays in points.items():
            subsets = np.array(list(combinations(range(c), k)), dtype=np.intp).reshape(-1, k)
            for a in arrays:
                digits = a.astype(dtype)[:, subsets]
                code = digits[..., 0]
                for t in range(1, k):
                    code = code * base + digits[..., t]
                codes.append(code.ravel())
        codes, counts = np.unique(np.concatenate(codes), return_counts=True)
        reach = min(n, top + k)
        if isinstance(expected, int) and len(codes) == comb(reach, k) and np.all(counts == expected):
            return Check(name, True, f"expected {expected}")
        # every code is a subset in the walk, so the two run side by side in ascending order
        codes, counts, t = codes.tolist(), counts.tolist(), 0
        for subset in combinations(range(1, min(reach, max(gap, k)) + 1), k):
            code = 0
            for x in subset:
                code = code * base + x
            got = 0
            if t < len(codes) and codes[t] == code:
                got, t = counts[t], t + 1
            if got != expected:
                return Check(name, False, f"expected {expected}, got {got} at {subset}")
        raise AssertionError("a failing coverage check has a witness")

    checks += [
        coverage("triple_coverage", "triple", 3),
        coverage("pair_count", "pair", 2),
        coverage("point_count", "point", 1),
    ]

    want, got = Fraction(comb(n, 3), comb(r, 3)), len(system.blocks)
    checks.append(Check("block_count", got == want, f"expected {want}, got {got}"))
    return Report(checks)


def load(path) -> SteinerSystem:
    """Parse a system file and reject it unless verification passes."""
    system = parse(path)
    report = verify(system)
    if not report.passed:
        raise SteinerInvariantError(report)
    return system


def parse(path) -> SteinerSystem:
    """Parse a system file without verifying it; malformed text raises SteinerParseError."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise SteinerParseError("empty file", 1)
    header = lines[0].split()
    if len(header) != 4 or header[0] != "steiner":
        raise SteinerParseError(f"expected 'steiner n r 3', got {lines[0]!r}", 1)
    try:
        n, r, s = int(header[1]), int(header[2]), int(header[3])
    except ValueError:
        raise SteinerParseError(f"non-integer header fields in {lines[0]!r}", 1) from None
    if s != 3:
        raise SteinerParseError(f"only s=3 systems are supported, got s={s}", 1)
    if not n > r >= 3:
        raise SteinerParseError(f"need n > r >= 3, got n={n}, r={r}", 1)
    if n > Q_CAP**2 + 1:  # the largest spherical design; bounds the cost of verify
        raise SteinerParseError(f"n={n} exceeds the cap {Q_CAP**2 + 1} on design files", 1)

    blocks: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            pts = tuple(int(tok) for tok in raw.split())
        except ValueError:
            raise SteinerParseError(f"non-integer block entry in {raw!r}", lineno) from None
        if len(pts) != r:
            raise SteinerParseError(f"block has {len(pts)} points, expected {r}", lineno)
        if any(not 1 <= x <= n for x in pts):
            raise SteinerParseError(f"block point out of range 1..{n}", lineno)
        if list(pts) != sorted(set(pts)):
            raise SteinerParseError("block points must be strictly ascending", lineno)
        blocks.append(pts)
    return SteinerSystem(n=n, r=r, blocks=blocks)


def save(system: SteinerSystem, path) -> None:
    out = [f"steiner {system.n} {system.r} {system.s}"]
    out.extend(" ".join(str(x) for x in blk) for blk in system.blocks)
    Path(path).write_text("\n".join(out) + "\n")
