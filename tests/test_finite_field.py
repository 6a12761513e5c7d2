import itertools
import time

import pytest

from tetracomm.bounds import optimality_ratio
from tetracomm.finite_field import field_new, prime_power

from oracles import subfield_elements


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def poly_mul_mod_p(a, b, p):
    """Plain convolution over GF(p), no reduction by any modulus."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def brute_irreducible(poly, p):
    """Monic poly (low-order-first tuple) has no monic factorization into
    two smaller-degree monic polynomials, checked by exhaustive products."""
    k = len(poly) - 1
    for d1 in range(1, k // 2 + 1):
        d2 = k - d1
        for c1 in itertools.product(range(p), repeat=d1):
            f1 = list(c1) + [1]
            for c2 in itertools.product(range(p), repeat=d2):
                f2 = list(c2) + [1]
                if tuple(poly_mul_mod_p(f1, f2, p)) == tuple(poly):
                    return False
    return True


def minimal_irreducible(p, k):
    for m in range(p**k):
        coeffs, rem = [], m
        for _ in range(k):
            coeffs.append(rem % p)
            rem //= p
        candidate = tuple(coeffs) + (1,)
        if brute_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible found")


def digits(a, p, k):
    """The k base-p digits of id a, most significant first: the coefficients, constant term first."""
    return [a // p ** (k - 1 - i) % p for i in range(k)]


def element_id(coeffs, p):
    """The id of a coefficient list, constant term first, as base-p digits."""
    out = 0
    for c in coeffs:
        out = out * p + c
    return out


def digit_mul(a, b, p, k):
    """a*b by convolving the digits and reducing by long division with minimal_irreducible(p, k)."""
    mod = minimal_irreducible(p, k)
    prod = poly_mul_mod_p(digits(a, p, k), digits(b, p, k), p)
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - c * mod[j]) % p
    return element_id(prod[:k], p)


# ---------------------------------------------------------------------------
# modulus selection
# ---------------------------------------------------------------------------


def test_prime_field_modulus_is_degree_one():
    f = field_new(2, 1)
    assert f.modulus == (0, 1)
    assert f.order == 2


def test_gf4_modulus_matches_exhaustive_oracle():
    assert field_new(2, 2).modulus == minimal_irreducible(2, 2)
    assert field_new(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1


def test_gf9_modulus_matches_exhaustive_oracle():
    assert field_new(3, 2).modulus == minimal_irreducible(3, 2)
    assert field_new(3, 2).modulus == (1, 0, 1)  # t^2 + 1, no root mod 3


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3), (5, 2)])
def test_modulus_matches_oracle_various(p, k):
    assert field_new(p, k).modulus == minimal_irreducible(p, k)


def test_field_new_rejects_non_prime():
    with pytest.raises(ValueError):
        field_new(4, 1)
    with pytest.raises(ValueError):
        field_new(6, 2)


def test_field_new_deterministic():
    assert field_new(3, 2) == field_new(3, 2)


# ---------------------------------------------------------------------------
# arithmetic on element ids
# ---------------------------------------------------------------------------


def test_gf2_one_plus_one_is_zero():
    f = field_new(2, 1)
    assert f.add(f.one(), f.one()) == 0


def test_gf5_inverse_of_two_is_three():
    f = field_new(5, 1)
    assert f.inv(2) == 3


def test_gf4_t_times_t_via_reduction_oracle():
    f = field_new(2, 2)
    t = element_id([0, 1], 2)
    # oracle: multiply without the field, then reduce by the modulus by hand
    raw = poly_mul_mod_p([0, 1], [0, 1], 2)  # t^2
    # t^2 = t + 1 because t^2 + t + 1 = 0 over GF(2)
    assert raw == [0, 0, 1]
    assert f.mul(t, t) == element_id([1, 1], 2) == 3


def test_inverse_of_zero_raises():
    f = field_new(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_rejects_negative_exponent():
    f = field_new(3, 1)
    with pytest.raises(ValueError):
        f.pow(f.one(), -1)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_operations_equal_digit_arithmetic(p, k):
    f = field_new(p, k)
    order = p**k
    one = element_id([1] + [0] * (k - 1), p)
    assert f.one() == one
    for a, b in itertools.product(range(order), repeat=2):
        x, y = digits(a, p, k), digits(b, p, k)
        assert f.add(a, b) == element_id([(s + t) % p for s, t in zip(x, y)], p)
        assert f.sub(a, b) == element_id([(s - t) % p for s, t in zip(x, y)], p)
        assert f.mul(a, b) == digit_mul(a, b, p, k)
    for a in range(order):
        assert f.neg(a) == element_id([-s % p for s in digits(a, p, k)], p)
    for a in range(1, order):
        assert f.inv(a) == next(b for b in range(1, order) if digit_mul(a, b, p, k) == one)


@pytest.mark.parametrize("op", ["add", "sub", "neg", "mul", "inv", "pow"])
@pytest.mark.parametrize("bad", [-1, 9])
def test_operations_reject_ids_outside_the_field(op, bad):
    f = field_new(3, 2)  # ids 0..8
    calls = {
        "add": [(bad, 1), (1, bad)],
        "sub": [(bad, 1), (1, bad)],
        "neg": [(bad,)],
        "mul": [(bad, 1), (1, bad)],
        "inv": [(bad,)],
        "pow": [(bad, 0), (bad, 2)],
    }[op]
    for args in calls:
        with pytest.raises(ValueError, match=rf"{bad} is not an element id of GF\(3\^2\)"):
            getattr(f, op)(*args)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_field_axioms_exhaustive(p, k):
    f = field_new(p, k)
    elems = range(f.order)
    one, zero = f.one(), 0
    for a in elems:
        assert f.add(a, zero) == a
        assert f.mul(a, one) == a
        if a != zero:
            assert f.mul(a, f.inv(a)) == one
    sample = elems[:: max(1, len(elems) // 6)]
    for a in sample:
        for b in sample:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in sample:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


# ---------------------------------------------------------------------------
# subfields
# ---------------------------------------------------------------------------


def test_subfield_of_gf4_is_prime_field():
    f = field_new(2, 2)
    assert subfield_elements(f, 2) == [0, f.one()] == [0, 2]


def test_subfield_of_gf9_by_fixed_point_enumeration():
    f = field_new(3, 2)
    # oracle: enumerate x with x^3 == x directly
    fixed = [x for x in range(f.order) if f.mul(f.mul(x, x), x) == x]
    got = subfield_elements(f, 3)
    assert got == fixed
    assert got == [element_id([c, 0], 3) for c in range(3)] == [0, 3, 6]


def test_subfield_of_gf16_closed_under_ops():
    f = field_new(2, 4)
    sub = subfield_elements(f, 4)
    assert len(sub) == 4
    subset = set(sub)
    for a in sub:
        for b in sub:
            assert f.add(a, b) in subset
            assert f.mul(a, b) in subset


def test_subfield_requires_square_order():
    f = field_new(2, 3)
    with pytest.raises(ValueError):
        subfield_elements(f, 2)


def test_element_ordering_constant_term_most_significant():
    f = field_new(3, 2)
    # the constant c, c copies of one added up, has id c * p^(k-1)
    constants, c = [], 0
    for _ in range(3):
        constants.append(c)
        c = f.add(c, f.one())
    assert constants == [0, 3, 6]
    # t is id 1, and t*t = -1 (the modulus is t^2 + 1) is the constant 2
    assert f.mul(1, 1) == 6


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_is_prime_small_values():
    # field_new(n, 1) accepts exactly the primes
    accepted = []
    for n in range(-2, 20):
        try:
            field_new(n, 1)
        except ValueError:
            continue
        accepted.append(n)
    assert accepted == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_power_detection():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None


def test_prime_power_equals_brute_force_below_5000():
    primes = [n for n in range(2, 5000) if all(n % d for d in range(2, n))]
    expected = {p**k: (p, k) for p in primes for k in range(1, 13) if p**k < 5000}
    assert {q: prime_power(q) for q in range(-3, 5000)} == {q: expected.get(q) for q in range(-3, 5000)}


def test_prime_power_is_bounded():
    assert prime_power(2**40) == (2, 40)
    with pytest.raises(ValueError, match=r"exceeds the bound 2\*\*40"):
        prime_power(2**40 + 1)


@pytest.mark.parametrize(
    "call",
    [lambda: prime_power(2**61 - 1), lambda: field_new(2**61 - 1, 1), lambda: optimality_ratio(10, 2**61 - 1)],
    ids=["prime_power", "field_new", "optimality_ratio"],
)
def test_a_huge_prime_fails_at_once(call):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (3, 4)])
def test_element_ids_count_in_canonical_order(p, k):
    # every id 0..order-1 is an element, and order is not one
    f = field_new(p, k)
    for a in range(f.order):
        assert f.add(a, 0) == f.mul(a, f.one()) == a
    with pytest.raises(ValueError):
        f.add(f.order, 0)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (3, 4)])
def test_exp_table_walks_the_powers_of_the_first_primitive_element(p, k):
    f = field_new(p, k)
    table = f.exp_table()
    assert sorted(table) == list(range(1, f.order))  # every non-zero element once
    w = table[1] if f.order > 2 else f.one()
    assert all(table[j] == f.pow(w, j) for j in range(len(table)))
    # no non-zero id below w has order order - 1
    for x in range(1, w):
        assert any(f.pow(x, e) == f.one() for e in range(1, f.order - 1))
