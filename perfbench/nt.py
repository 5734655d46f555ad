"""Number theory the benchmark needs on its own, independent of latfm: a
deterministic primality test and next-prime search for generating inputs and
checking answers."""

from __future__ import annotations

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Miller-Rabin with the first 13 primes as bases is deterministic below
# 3.3e24 (Sorenson and Webster, 2015); every number the benchmark tests is
# far below that.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_LIMIT:
        raise ValueError(f"{n} is above the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """Least prime strictly above x."""
    n = max(x + 1, 2)
    while not is_prime(n):
        n += 1
    return n


def unitary_divisors(factors) -> list[int]:
    """Products of subsets of the prime-power blocks p^e, ascending."""
    divisors = [1]
    for p, e in factors:
        block = p**e
        divisors += [r * block for r in divisors]
    return sorted(divisors)


def partner_count(omega: int) -> int:
    """2^(omega - 1), with omega taken as 1 for d = 1."""
    return 2 ** (max(omega, 1) - 1)
