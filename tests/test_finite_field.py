import itertools

import pytest

from tetracomm.finite_field import field_new, is_prime, prime_power

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
# arithmetic
# ---------------------------------------------------------------------------


def test_gf2_one_plus_one_is_zero():
    f = field_new(2, 1)
    assert f.add(f.one(), f.one()) == f.zero()


def test_gf5_inverse_of_two_is_three():
    f = field_new(5, 1)
    assert f.inv(f.element([2])) == f.element([3])


def test_gf4_t_times_t_via_reduction_oracle():
    f = field_new(2, 2)
    t = f.element([0, 1])
    # oracle: multiply without the field, then reduce by the modulus by hand
    raw = poly_mul_mod_p([0, 1], [0, 1], 2)  # t^2
    # t^2 = t + 1 because t^2 + t + 1 = 0 over GF(2)
    assert raw == [0, 0, 1]
    assert f.mul(t, t) == f.element([1, 1])


def test_inverse_of_zero_raises():
    f = field_new(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero())


def test_pow_rejects_negative_exponent():
    f = field_new(3, 1)
    with pytest.raises(ValueError):
        f.pow(f.one(), -1)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_field_axioms_exhaustive(p, k):
    f = field_new(p, k)
    elems = list(f.elements())
    assert len(elems) == f.order
    one, zero = f.one(), f.zero()
    for a in elems:
        assert f.add(a, zero) == a
        assert f.mul(a, one) == a
        if not a.is_zero():
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
    assert subfield_elements(f, 2) == [f.zero(), f.one()]


def test_subfield_of_gf9_by_fixed_point_enumeration():
    f = field_new(3, 2)
    # oracle: enumerate x with x^3 == x directly
    fixed = [x for x in f.elements() if f.mul(f.mul(x, x), x) == x]
    got = subfield_elements(f, 3)
    assert got == fixed
    assert got == [f.element([0]), f.element([1]), f.element([2])]


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
    elems = list(f.elements())
    constants = [f.element([c]) for c in range(3)]
    assert [elems.index(c) for c in constants] == [0, 3, 6]
    assert elems == sorted(elems)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_power_detection():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (3, 4)])
def test_element_ids_count_in_canonical_order(p, k):
    f = field_new(p, k)
    assert [f.element_id(e) for e in f.elements()] == list(range(f.order))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (3, 4)])
def test_exp_table_walks_the_powers_of_the_first_primitive_element(p, k):
    f = field_new(p, k)
    elems = list(f.elements())
    table = f.exp_table()
    assert sorted(table) == list(range(1, f.order))  # every non-zero element once
    w = elems[table[1]] if f.order > 2 else f.one()
    assert all(elems[table[j]] == f.pow(w, j) for j in range(len(table)))
    # no non-zero element before w in canonical order has order order - 1
    for x in elems[1 : elems.index(w)]:
        assert any(f.pow(x, e) == f.one() for e in range(1, f.order - 1))
