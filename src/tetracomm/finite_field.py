"""Arithmetic in GF(p^k) on canonical element ids, with a deterministic modulus.

An element is a polynomial over GF(p) of degree below k.  Its id is its k
coefficients read as base-p digits, constant term most significant, so the
ids are 0..p^k - 1, one is p^(k-1), and the ids are the point numbering the
design construction uses downstream.  The modulus of GF(p^k) is the monic
irreducible degree-k polynomial whose coefficient vector, read as a base-p
integer with the constant term least significant, is minimal.

Intended for desk-scale orbit enumeration (field order <= 2**16), not for
cryptographic use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = ["Field", "field_new", "prime_power"]

ORDER_CAP = 1 << 16

# prime_power is trial division, at most 2**20 candidate factors below this bound.
PRIME_POWER_CAP = 1 << 40


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k and p prime, or None if q is not a prime power.

    q above PRIME_POWER_CAP = 2**40 raises ValueError, since trial division
    would not return in practice for a large prime.
    """
    if q > PRIME_POWER_CAP:
        raise ValueError(f"q={q} exceeds the bound 2**40 on prime-power tests")
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p); coefficient lists, constant term first
# ---------------------------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    # mod is monic, so no leading-coefficient inversion is needed
    a = [c % p for c in a]
    deg_m = len(mod) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(deg_m):
                a[i - deg_m + j] = (a[i - deg_m + j] - c * mod[j]) % p
    return _trim(a)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """A monic degree-k polynomial over GF(p) is irreducible iff no monic
    polynomial of degree 1..k/2 divides it."""
    k = len(poly) - 1
    return all(
        _poly_mod(list(poly), divisor + (1,), p) != [0]
        for d in range(1, k // 2 + 1)
        for divisor in product(range(p), repeat=d)
    )


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """GF(p^k) with a fixed monic irreducible modulus of degree k.

    Every operation takes and returns element ids, converting them to
    coefficients and back per call; an operand outside 0..order-1 raises
    ValueError.  Field is immutable and safe to share.
    """

    p: int
    k: int
    modulus: tuple[int, ...]  # length k+1, monic, constant term first

    @property
    def order(self) -> int:
        return self.p**self.k

    def one(self) -> int:
        return self.p ** (self.k - 1)

    def _digits(self, a: int) -> list[int]:
        """a's k coefficients, constant term first."""
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element id of GF({self.p}^{self.k})")
        out = [0] * self.k
        for i in range(self.k - 1, -1, -1):
            a, out[i] = divmod(a, self.p)
        return out

    def _id(self, coeffs: list[int]) -> int:
        """The id of at most k coefficients, constant term first, each in 0..p-1."""
        out = 0
        for c in coeffs + [0] * (self.k - len(coeffs)):
            out = out * self.p + c
        return out

    def add(self, a: int, b: int) -> int:
        return self._id([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def sub(self, a: int, b: int) -> int:
        return self._id([(x - y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        return self._id([-x % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        x, y = self._digits(a), self._digits(b)
        out = [0] * (2 * self.k - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    out[i + j] += xi * yj
        return self._id(_poly_mod(out, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        self._digits(a)  # ValueError unless a is an element id
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result, acc = self.one(), a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def exp_table(self) -> list[int]:
        """The ids of w^0, w^1, ..., w^(order-2) for the first primitive element w.

        w is the least non-zero id whose powers cover every non-zero
        element.  Multiplying by a candidate is GF(p)-linear on the
        coefficients, so its k products with the monomials t^i, one ``mul``
        each, give its product with every element at once, as one integer
        permutation of the ids.  The candidate's powers are walked on that
        permutation until they return to one.
        """
        p, k, one = self.p, self.k, self.one()
        weights = p ** np.arange(k - 1, -1, -1)  # t^i has id p^(k-1-i)
        digits = np.arange(self.order)[:, None] // weights % p
        for w in range(1, self.order):
            images = np.array([self._digits(self.mul(w, int(t))) for t in weights])
            times_w = (digits @ images % p @ weights).tolist()
            table, x = [one], times_w[one]
            while x != one:
                table.append(x)
                x = times_w[x]
            if len(table) == self.order - 1:
                return table
        raise RuntimeError(f"GF({self.p}^{self.k}) has no primitive element")


def field_new(p: int, k: int) -> Field:
    """Construct GF(p^k) with the minimal monic irreducible modulus.

    Minimality is over the base-p integer encoding of the non-leading
    coefficients, constant term least significant.  For k = 1 the modulus
    is the placeholder polynomial t and arithmetic is plain mod p.  The
    order cap is checked before p's primality, so a huge p fails at once.
    """
    if k < 1:
        raise ValueError(f"k={k} must be positive")
    if p**k > ORDER_CAP:
        raise ValueError(f"field order {p**k} exceeds the cap {ORDER_CAP}")
    if prime_power(p) != (p, 1):
        raise ValueError(f"p={p} is not prime")
    if k == 1:
        return Field(p, 1, (0, 1))
    for m in range(p**k):
        coeffs, rem = [], m
        for _ in range(k):
            coeffs.append(rem % p)
            rem //= p
        candidate = tuple(coeffs) + (1,)
        if _is_irreducible(candidate, p):
            return Field(p, k, candidate)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")
