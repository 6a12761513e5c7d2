"""Steiner (n, r, 3) systems: spherical construction, verification, text I/O.

A system is a list of sorted r-subsets of {1..n} covering every 3-subset
exactly once.  The construction builds the (q^2+1, q+1, 3) family as the
orbit of the order-q subfield line (plus the point at infinity) under all
fractional-linear maps over GF(q^2).  Externally supplied systems are
accepted whenever they verify.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

from .checks import Check, Report
from .finite_field import field_new, prime_power

__all__ = [
    "SteinerSystem",
    "SteinerParseError",
    "SteinerInvariantError",
    "ConstructionError",
    "construct_spherical",
    "verify",
    "load",
    "save",
    "divisibility_ok",
]

# The orbit walk visits about q^6 maps (≈11 s at q=11 on a 2-vCPU Xeon, so
# minutes at q=16); larger q is refused before any field table is built.
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SteinerSystem):
            return NotImplemented
        return (self.n, self.r, self.s, self.blocks) == (other.n, other.r, other.s, other.blocks)


def divisibility_ok(n: int, r: int) -> bool:
    """Necessary divisibility conditions for an (n, r, 3) system to exist."""
    return (
        (n - 2) % (r - 2) == 0
        and ((n - 1) * (n - 2)) % ((r - 1) * (r - 2)) == 0
        and (n * (n - 1) * (n - 2)) % (r * (r - 1) * (r - 2)) == 0
    )


def construct_spherical(q: int) -> SteinerSystem:
    """Build the (q^2+1, q+1, 3) system for a prime power q.

    Points 1..q^2 are the elements of GF(q^2) in canonical order and point
    q^2+1 is infinity.  Blocks are the distinct images of the subfield line
    under all normalized invertible fractional-linear maps x -> (ax+b)/(cx+d);
    infinity maps to a/c and a zero denominator maps to infinity.
    """
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"q={q} is not a prime power")
    if q > Q_CAP:
        raise ValueError(f"q={q} exceeds the cap {Q_CAP} on the spherical construction")
    p, k = pk
    big_order = q * q

    f = field_new(p, 2 * k)
    elems = list(f.elements())
    index = {e: i for i, e in enumerate(elems)}
    nn = big_order
    inf = nn  # sentinel id for the point at infinity

    add = [[index[f.add(a, b)] for b in elems] for a in elems]
    mul = [[index[f.mul(a, b)] for b in elems] for a in elems]
    neg = [index[f.neg(a)] for a in elems]
    inverse = [0] + [index[f.inv(elems[i])] for i in range(1, nn)]
    one = index[f.one()]

    base_line = [index[e] for e in f.subfield_elements(q)] + [inf]

    def moebius(a: int, b: int, c: int, d: int, x: int) -> int:
        if x == inf:
            return inf if c == 0 else mul[a][inverse[c]]
        den = add[mul[c][x]][d]
        if den == 0:
            return inf
        return mul[add[mul[a][x]][b]][inverse[den]]

    blocks: set[tuple[int, ...]] = set()

    def visit(a: int, b: int, c: int, d: int) -> None:
        image = sorted(moebius(a, b, c, d, s) for s in base_line)
        blocks.add(tuple(pt + 1 for pt in image))

    # one representative per projective class: first nonzero entry normalized to 1
    for b, c, d in product(range(nn), repeat=3):
        if add[mul[one][d]][neg[mul[b][c]]] != 0:  # det = d - bc
            visit(one, b, c, d)
    for c, d in product(range(1, nn), range(nn)):  # a = 0, b = 1: det = -c != 0
        visit(0, one, c, d)

    expected = q * (q * q + 1)
    if len(blocks) != expected:
        raise ConstructionError(f"orbit produced {len(blocks)} blocks, expected {expected}")
    return SteinerSystem(n=big_order + 1, r=q + 1, blocks=sorted(blocks))


def verify(system: SteinerSystem) -> Report:
    """Check the defining and counting properties of an (n, r, 3) system.

    Failures are reported, not raised.  Every k-subset of 1..n (k = 3, 2, 1)
    must lie in exactly λ_k = C(n-k, 3-k)/C(r-k, 3-k) blocks; a failed
    coverage check names the first triple, pair or point that does not.
    When the blocks hold more than λ_k·C(n, k) k-subsets, some k-subset is
    covered too often and none is counted, so a check counts no more than a
    valid design of the same n and r would, plus one walk over the
    k-subsets of 1..n.
    """
    n, r = system.n, system.r
    if r < 3:  # no triple fits in a block, and the counting checks divide by r - 2
        return Report([Check("block_size", False, f"expected r >= 3, got {r}")])

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

    def coverage(name: str, noun: str, k: int) -> Check:
        expected = Fraction(comb(n - k, 3 - k), comb(r - k, 3 - k))
        if expected.denominator == 1:  # compare ints in the walk below, not Fractions
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
        witness = next((s for s in combinations(range(1, n + 1), k) if counts.get(s, 0) != expected), None)
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


def load(path) -> SteinerSystem:
    """Parse a system file and reject it unless verification passes."""
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

    system = SteinerSystem(n=n, r=r, blocks=blocks)
    report = verify(system)
    if not report.passed:
        raise SteinerInvariantError(report)
    return system


def save(system: SteinerSystem, path) -> None:
    out = [f"steiner {system.n} {system.r} {system.s}"]
    out.extend(" ".join(str(x) for x in blk) for blk in system.blocks)
    Path(path).write_text("\n".join(out) + "\n")
