"""Modular square roots against the linear scans they replaced.

The two scans below are the former cyclic branch of
discriminant._isometry_search and the former body of
family.disc_groups_isomorphic, kept here as oracles.
"""

from fractions import Fraction
from math import gcd

import pytest

from latfm.arith import (
    _sqrt_mod_prime,
    is_prime,
    prime_factorization,
    unit_square_roots,
)
from latfm.discriminant import _isometry_search, cyclic_module
from latfm.errors import LatfmError
from latfm.family import disc_groups_isomorphic
from latfm.oracle import units_with_square_one


def scan_cyclic_isometries(m, q2):
    """q1 -> every unit alpha in [1, m) with alpha^2 q2 = q1 mod 2Z,
    ascending (one scan serves every q1)."""
    found = {}
    for alpha in range(1, m):
        if gcd(alpha, m) == 1:
            found.setdefault(alpha * alpha * q2 % 2, []).append(alpha)
    return found


def scan_disc_witness(d1, d2, n):
    """Least alpha in [1, n^2) with gcd(alpha, n) = 1 and d1 alpha^2 = d2
    mod n^2, or None."""
    mod = n * n
    for alpha in range(1, mod):
        if gcd(alpha, n) == 1 and (d1 * alpha * alpha - d2) % mod == 0:
            return alpha
    return None


def cyclic_q_values(m):
    """Every q = N/m in [0, 2) that a cyclic module of order m carries."""
    return [Fraction(n, m) for n in range(2 * m) if m * n % 2 == 0]


def test_cyclic_search_matches_the_scan_on_every_small_module():
    for m in range(2, 33):
        qs = cyclic_q_values(m)
        modules = {q: cyclic_module(m, q) for q in qs}
        for q2 in qs:
            scan = scan_cyclic_isometries(m, q2)
            for q1 in qs:
                expected = scan.get(q1, [])
                a1, a2 = modules[q1], modules[q2]
                every = _isometry_search(a1, a2, 10**6, find_all=True)
                assert [iso.matrix[0][0] for iso in every] == expected, (m, q1, q2)
                least = _isometry_search(a1, a2, 10**6, find_all=False)
                assert [iso.matrix[0][0] for iso in least] == expected[:1]


def test_disc_witness_matches_the_scan():
    for n in range(2, 26):
        for d1 in range(1, 13):
            for d2 in range(1, 13):
                if gcd(2 * d1, n) != 1 or gcd(2 * d2, n) != 1:
                    continue
                witness = disc_groups_isomorphic(d1, n, d2, n)
                alpha = scan_disc_witness(d1, d2, n)
                assert (witness.alpha if witness else None) == alpha, (d1, d2, n)


def test_units_of_square_one_match_the_oracle():
    for m in range(2, 2001, 2):
        assert unit_square_roots(1, 1, m, 2 * m) == units_with_square_one(m), m


def test_two_roots_modulo_an_odd_prime_square():
    # n = 4099 is the family modulus for count 8: a scan would visit 16.8M residues
    for n in (4099, 1000003):
        for d1, d2 in ((2, 128), (1, 4), (5, 20)):
            roots = unit_square_roots(d1, d2, n * n, n * n)
            assert len(roots) == 2 and sum(roots) == n * n
            assert all((d1 * a * a - d2) % (n * n) == 0 for a in roots)


@pytest.mark.parametrize("p", [3, 5, 7, 17, 41, 73, 97, 113, 193, 257, 7681])
def test_tonelli_shanks_on_every_residue(p):
    squares = {x * x % p for x in range(1, p)}
    for r in range(1, p):
        root = _sqrt_mod_prime(r, p)
        if r in squares:
            assert root * root % p == r
        else:
            assert root is None


def test_every_coefficient_pair_modulo_small_m():
    # p | a included: then the valuation of c must match that of a
    for m in range(2, 41):
        for a in range(m):
            squares = [a * x * x % m for x in range(m)]
            for c in range(m):
                expected = tuple(
                    x for x in range(1, m) if gcd(x, m) == 1 and squares[x] == c
                )
                assert unit_square_roots(a, c, m, m) == expected, (a, c, m)


def test_degenerate_and_non_unit_coefficients():
    assert unit_square_roots(0, 0, 9, 9) == (1, 2, 4, 5, 7, 8)
    assert unit_square_roots(3, 12, 27, 27) == (2, 7, 11, 16, 20, 25)
    assert unit_square_roots(3, 1, 9, 9) == ()
    # m = 1: [1, 1) is empty
    assert unit_square_roots(1, 1, 1, 4) == ()
    with pytest.raises(LatfmError):
        unit_square_roots(1, 1, 0, 4)


def test_factorization_and_primality():
    assert prime_factorization(2 * 4099 * 4099) == {2: 1, 4099: 2}
    assert prime_factorization(1) == {}
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(LatfmError):
        prime_factorization(0)
