"""Modular square roots and factorization against the slow code they
replaced.

The two scans below are the former cyclic branch of
discriminant._isometry_search and the former body of
family.disc_groups_isomorphic; trial_prime_factorization and trial_is_prime
are the former trial division.  All are kept here as oracles.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import latfm.arith
from latfm.arith import (
    _MR_BASES,
    _MR_TABLE,
    _SMALL_BOUND,
    MR_LIMIT,
    _sqrt_mod_prime,
    _strong_probable_prime,
    is_prime,
    least_prime_above,
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
        # q = N/m is the form matrix ((N,)) over the exponent m
        modules = {q: cyclic_module(m, int(q * m)) for q in qs}
        for q2 in qs:
            scan = scan_cyclic_isometries(m, q2)
            for q1 in qs:
                expected = scan.get(q1, [])
                a1, a2 = modules[q1], modules[q2]
                every = _isometry_search(a1, a2, find_all=True)
                assert [mat[0][0] for mat in every] == expected, (m, q1, q2)
                least = _isometry_search(a1, a2, find_all=False)
                assert [mat[0][0] for mat in least] == expected[:1]


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


def trial_prime_factorization(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_is_prime(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def assert_factors_like_the_oracle(n):
    factors = prime_factorization(n)
    expected = trial_prime_factorization(n)
    # equal as lists: the same primes, exponents and ascending order
    assert list(factors.items()) == list(expected.items()), n


def test_factorization_matches_trial_division_below_2e5():
    for n in range(1, 200_000):
        assert_factors_like_the_oracle(n)


def test_primality_matches_trial_division_below_2e5():
    assert [n for n in range(-5, 200_000) if is_prime(n)] == [
        n for n in range(-5, 200_000) if trial_is_prime(n)
    ]


def test_factorization_matches_trial_division_on_random_n_below_1e12():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        assert_factors_like_the_oracle(n)
        assert is_prime(n) == trial_is_prime(n), n


def test_least_prime_above_matches_the_oracle_below_1e5():
    limit = 100_000
    oracle = [0] * limit
    least = limit
    while not trial_is_prime(least):
        least += 1
    for x in range(limit - 1, -1, -1):
        oracle[x] = least
        if trial_is_prime(x):
            least = x
    assert [least_prime_above(x) for x in range(limit)] == oracle


def chernick_carmichael_numbers(k_max):
    """(6k+1)(12k+1)(18k+1) with all three factors prime (Chernick 1939)."""
    for k in range(1, k_max):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(trial_is_prime(f) for f in factors):
            yield factors[0] * factors[1] * factors[2]


def test_carmichael_numbers_and_strong_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    carmichael += chernick_carmichael_numbers(3000)
    assert len(carmichael) > 40 and max(carmichael) > 10**13
    for n in carmichael:
        factors = trial_prime_factorization(n)
        # Korselt: squarefree and p - 1 | n - 1 for every p | n
        assert len(factors) >= 3 and set(factors.values()) == {1}
        assert all((n - 1) % (p - 1) == 0 for p in factors), n
        assert not is_prime(n)
        assert_factors_like_the_oracle(n)
    # the least strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 .. 23
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)
        assert_factors_like_the_oracle(n)


def test_every_bound_of_the_base_table_is_a_strong_pseudoprime():
    # each bound passes its base set, so the table can be no larger; the
    # least-pseudoprime values themselves are from the literature
    assert MR_LIMIT == 1287836182261 * 2575672364521
    for bound, k in _MR_TABLE:
        assert _strong_probable_prime(bound, _MR_BASES[:k]), bound
    assert [bound for bound, _ in _MR_TABLE] == sorted(b for b, _ in _MR_TABLE)
    assert _MR_TABLE[-1] == (MR_LIMIT, len(_MR_BASES))


def test_prime_powers_on_both_sides_of_the_trial_bound():
    near = [p for p in range(_SMALL_BOUND - 40, _SMALL_BOUND + 40) if trial_is_prime(p)]
    assert min(near) < _SMALL_BOUND < max(near)
    for p in near:
        for e in range(1, 6):
            for cofactor in (1, 2, 6, 1021, 1031, 1021 * 1031):
                n = cofactor * p**e
                expected = trial_prime_factorization(cofactor)
                expected[p] = expected.get(p, 0) + e
                assert list(prime_factorization(n).items()) == sorted(expected.items()), n
    for p in (10**6 + 3, 10**9 + 7):
        for e in range(2, 5):
            assert prime_factorization(p**e) == {p: e}
            assert prime_factorization(2 * p**e * 1031) == {2: 1, 1031: 1, p: e}


def test_semiprimes_of_two_primes_near_1e9():
    rng = random.Random(99)
    primes = []
    while len(primes) < 12:
        p = rng.randrange(10**9, 10**9 + 10**6)
        if trial_is_prime(p):
            primes.append(p)
    for p, q in zip(primes[::2], primes[1::2]):
        assert prime_factorization(p * q) == dict(sorted({p: 1, q: 1}.items()))
        assert prime_factorization(p * p * q) == dict(sorted({p: 2, q: 1}.items()))
        assert not is_prime(p * q) and is_prime(p)


def test_large_inputs_factor_exactly():
    assert prime_factorization(2**90 * 3) == {2: 90, 3: 1}
    p17 = 300000000000000011  # prime
    assert prime_factorization(2 * 3 * p17) == {2: 1, 3: 1, p17: 1}
    m61 = 2**61 - 1  # Mersenne primes; their products pass MR_LIMIT
    assert prime_factorization(m61 * m61) == {m61: 2}
    assert prime_factorization(m61 * (10**9 + 7) * (2**31 - 1)) == {
        2**31 - 1: 1, 10**9 + 7: 1, m61: 1}
    assert prime_factorization(10**18 + 3) == {10**18 + 3: 1}


def test_the_limit_is_an_error_and_not_a_hang():
    last_prime = MR_LIMIT - 168  # the largest prime below MR_LIMIT
    assert is_prime(last_prime)
    assert least_prime_above(last_prime - 1) == last_prime
    # MR_LIMIT passes all 13 bases (it is their least strong pseudoprime),
    # so the search past last_prime stops there with an error
    for call in (lambda: least_prime_above(last_prime),
                 lambda: is_prime(MR_LIMIT),
                 lambda: prime_factorization(MR_LIMIT),
                 lambda: prime_factorization(2**89 - 1),
                 lambda: is_prime(2**127 - 1)):
        with pytest.raises(LatfmError, match="MR_LIMIT = 3317044064679887385961981"):
            call()
    # composites past the limit are still proven composite
    assert not is_prime(MR_LIMIT + 2) and not is_prime((2**61 - 1) ** 2)


def test_rho_gives_up_past_the_limit_after_its_step_cap(monkeypatch):
    monkeypatch.setattr(latfm.arith, "_RHO_STEPS", 1 << 10)
    # composites past MR_LIMIT whose least prime factor rho cannot reach
    for n in ((2**61 - 1) * (2**89 - 1), 5 * (10**18 + 3) * (2**89 - 1)):
        with pytest.raises(LatfmError, match="Pollard rho steps.*MR_LIMIT"):
            prime_factorization(n)
    # below the limit the cap does not apply
    assert prime_factorization(1000000007 * 1000000009) == {
        1000000007: 1, 1000000009: 1}
