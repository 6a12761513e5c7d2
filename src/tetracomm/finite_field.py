"""Arithmetic in GF(p^k) with a deterministic choice of modulus.

Elements are coefficient vectors over GF(p), constant term first.  The
modulus of GF(p^k) is the monic irreducible degree-k polynomial whose
coefficient vector, read as a base-p integer with the constant term least
significant, is minimal.  Element ordering is lexicographic on the
coefficient vector with the constant term most significant; this fixes
the point numbering used by the design construction downstream.

Intended for desk-scale orbit enumeration (field order <= 2**16), not for
cryptographic use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

__all__ = ["Field", "FieldElement", "field_new", "is_prime", "prime_power"]

ORDER_CAP = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for small characteristics."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k and p prime, or None if q is not a prime power."""
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


def _poly_mulmod(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


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
# field and element types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class FieldElement:
    """Element of GF(p^k) as a length-k coefficient tuple, constant term first."""

    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement{self.coeffs}"


@dataclass(frozen=True)
class Field:
    """GF(p^k) with a fixed monic irreducible modulus of degree k.

    All operations are pure; Field and FieldElement are immutable and safe
    to share.  Operands must come from the same field (only the coefficient
    length is checked).
    """

    p: int
    k: int
    modulus: tuple[int, ...]  # length k+1, monic, constant term first

    @property
    def order(self) -> int:
        return self.p**self.k

    def element(self, coeffs) -> FieldElement:
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.k:
            cs = _poly_mod(cs, self.modulus, self.p)
        cs += [0] * (self.k - len(cs))
        return FieldElement(tuple(cs[: self.k]))

    def zero(self) -> FieldElement:
        return FieldElement((0,) * self.k)

    def one(self) -> FieldElement:
        return self.element([1])

    def elements(self):
        """All field elements in canonical order (constant term most significant)."""
        for cs in product(range(self.p), repeat=self.k):
            yield FieldElement(cs)

    def _check(self, *elems: FieldElement) -> None:
        for e in elems:
            if len(e.coeffs) != self.k:
                raise ValueError(f"element {e} does not belong to GF({self.p}^{self.k})")

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        return FieldElement(tuple((x + y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        return FieldElement(tuple((x - y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FieldElement) -> FieldElement:
        self._check(a)
        return FieldElement(tuple((-x) % self.p for x in a.coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        out = _poly_mulmod(list(a.coeffs), list(b.coeffs), self.modulus, self.p)
        out += [0] * (self.k - len(out))
        return FieldElement(tuple(out[: self.k]))

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.order - 2)

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        self._check(a)
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.one()
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def element_id(self, a: FieldElement) -> int:
        """a's position in canonical order: its coefficients as base-p digits, constant term first."""
        self._check(a)
        out = 0
        for c in a.coeffs:
            out = out * self.p + c
        return out

    def exp_table(self) -> list[int]:
        """The ids of w^0, w^1, ..., w^(order-2) for the first primitive element w.

        w is the first element in canonical order whose powers cover every
        non-zero element.  Each candidate's powers are walked until they
        return to one, one ``mul`` per power.
        """
        one = self.one()
        for w in self.elements():
            if w.is_zero():
                continue
            table, x = [], one
            while True:
                table.append(self.element_id(x))
                x = self.mul(w, x)
                if x == one:
                    break
            if len(table) == self.order - 1:
                return table
        raise RuntimeError(f"GF({self.p}^{self.k}) has no primitive element")


def field_new(p: int, k: int) -> Field:
    """Construct GF(p^k) with the minimal monic irreducible modulus.

    Minimality is over the base-p integer encoding of the non-leading
    coefficients, constant term least significant.  For k = 1 the modulus
    is the placeholder polynomial t and arithmetic is plain mod p.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 1:
        raise ValueError(f"k={k} must be positive")
    if p**k > ORDER_CAP:
        raise ValueError(f"field order {p**k} exceeds the cap {ORDER_CAP}")
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
