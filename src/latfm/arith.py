"""Elementary number theory: factorization, primality and unit square roots
modulo composite integers.

unit_square_roots solves a x^2 = c by Tonelli-Shanks per odd prime, Hensel
lifting to prime powers and the Chinese remainder theorem (Cohen, A Course
in Computational Algebraic Number Theory, 1.5), so a cyclic discriminant
isometry costs a factorization instead of a scan over every residue.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt, prod

from .errors import LatfmError


# Trial division by the primes below B finds every small factor; a cofactor
# below B^2 with no prime factor below B is itself prime.
_SMALL_BOUND = 1 << 10
_SMALL_SQUARE = _SMALL_BOUND * _SMALL_BOUND


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_SMALL_PRIMES = _primes_below(_SMALL_BOUND)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)

# Strong Miller-Rabin to the first k primes as bases decides primality of
# every n below the bound (Jaeschke 1993; Sorenson and Webster 2015, for
# the last two rows).  Each bound is the least strong pseudoprime to those
# bases.  At and above MR_LIMIT a pass proves nothing.
MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TABLE = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (MR_LIMIT, 13),
)

# Steps of Pollard rho between two gcds, and the cap on the steps spent on
# one cofactor at or above MR_LIMIT.  Rho finds a prime factor p in about
# 2 sqrt(p) steps (median; 9 sqrt(p) was the most in 3000 trials).  Below
# MR_LIMIT every composite has a prime factor below 1.9e12, so rho runs
# uncapped there.  Above it the cap still splits off any prime factor below
# about 10^11, and gives up after some 5 s.
_RHO_BATCH = 128
_RHO_STEPS = 1 << 23


def prime_factorization(n: int) -> dict[int, int]:
    """The prime factorization of n as {p: e}, in ascending order of p.

    Every prime reported is proven.  Raises LatfmError when a factor would
    need a primality proof at or above MR_LIMIT.
    """
    if type(n) is not int:  # bool is refused too
        raise LatfmError("n must be an integer")
    if n < 1:
        raise LatfmError("expected a positive integer")
    out: dict[int, int] = {}
    # g, the product of the distinct primes below B that divide n, is
    # trial-divided in place of n: once p^2 > g, what is left of g is 1 or
    # a prime
    g = gcd(n, _SMALL_PRODUCT)
    small = []
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            small.append(p)
    if g > 1:
        small.append(g)
    for p in small:
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    if n >= _SMALL_SQUARE:
        for p in _large_prime_factors(n):
            out[p] = out.get(p, 0) + 1
        return dict(sorted(out.items()))
    if n > 1:
        out[n] = 1
    return out


def _large_prime_factors(n: int) -> list[int]:
    """The prime factors, with multiplicity, of n >= B^2 with no prime
    factor below B."""
    primes, pending = [], [n]
    while pending:
        m = pending.pop()
        if m < _SMALL_SQUARE or is_prime(m):
            primes.append(m)
            continue
        root = isqrt(m)
        divisor = root if root * root == m else _pollard_brent(m)
        pending += (divisor, m // divisor)
    return primes


def _pollard_brent(n: int) -> int:
    """A proper divisor of the composite n, which has no factor below B and
    is not a square: Brent's variant of Pollard rho with batched gcds, from
    the fixed start 2 and x -> x^2 + c for c = 1, 2, ... in turn."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            steps += r + k
            r *= 2
            if steps > _RHO_STEPS and n >= MR_LIMIT:
                raise LatfmError(
                    f"no factor of {n} found within {_RHO_STEPS} Pollard rho "
                    f"steps; factorizations are guaranteed only below "
                    f"MR_LIMIT = {MR_LIMIT}"
                )
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _strong_probable_prime(n: int, bases) -> bool:
    """Whether the odd n > max(bases) passes strong Miller-Rabin to every
    base; a failure proves n composite."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality.  Raises LatfmError for an n at or above MR_LIMIT that
    passes Miller-Rabin to the first 13 prime bases, since no proof is
    available there."""
    if type(n) is not int:  # bool is refused too
        raise LatfmError("n must be an integer")
    if n < _SMALL_SQUARE:
        if n < 2:
            return False
        for p in _SMALL_PRIMES:
            if p * p > n:
                break
            if n % p == 0:
                return False
        return True
    if gcd(n, _SMALL_PRODUCT) != 1:
        return False
    for bound, k in _MR_TABLE:
        if n < bound:
            return _strong_probable_prime(n, _MR_BASES[:k])
    if _strong_probable_prime(n, _MR_BASES):
        raise LatfmError(
            f"cannot prove {n} prime: Miller-Rabin with the first 13 prime "
            f"bases is deterministic only below MR_LIMIT = {MR_LIMIT}"
        )
    return False


def least_prime_above(x: int) -> int:
    candidate = x + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


def _sqrt_mod_prime(r: int, p: int) -> int | None:
    """A square root of the unit r modulo the odd prime p (Tonelli-Shanks),
    or None when r is a non-residue."""
    if pow(r, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c = pow(z, q, p)
    x = pow(r, (q + 1) // 2, p)
    t = pow(r, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        s = i
    return x


def _unit_roots_mod_prime_power(r: int, p: int, h: int) -> list[int]:
    """All units x mod p^h with x^2 = r, for a unit r and h >= 1.

    r = 1, which every cyclic O(A) search solves, takes the roots of unity
    directly: +-1 for odd p, and mod 2^h the distinct ones of +-1 and
    2^(h-1) +- 1.  Any other r is lifted by _lifted_unit_roots."""
    ph = p**h
    if (r - 1) % ph:
        return _lifted_unit_roots(r, p, h)
    if p > 2:
        return [1, ph - 1]
    if h < 3:
        return [1] if h == 1 else [1, 3]
    half = ph >> 1
    return [1, half - 1, half + 1, ph - 1]


def _lifted_unit_roots(r: int, p: int, h: int) -> list[int]:
    """All units x mod p^h with x^2 = r, for a unit r and h >= 1: lifted a
    bit at a time for p = 2, by Tonelli-Shanks and Hensel for odd p."""
    if p == 2:
        roots = [1]
        for k in range(1, h):
            step = 1 << k
            roots = [
                y for x in roots for y in (x, x + step)
                if (y * y - r) % (step << 1) == 0
            ]
        return roots
    root = _sqrt_mod_prime(r % p, p)
    if root is None:
        return []
    roots = []
    for x in (root, p - root):
        mod = p
        for _ in range(1, h):  # Hensel: 2x is a unit, so each lift is unique
            mod *= p
            x = (x - (x * x - r) * pow(2 * x, -1, mod)) % mod
        roots.append(x)
    return roots


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _local_roots(a: int, c: int, p: int, f: int) -> tuple[int, list[int]] | None:
    """The units x with a x^2 = c mod p^f as (t, roots mod p^t): x is a
    solution iff x is congruent to one of the roots mod p^t.  None when
    there is none."""
    pf = p**f
    a, c = a % pf, c % pf
    if a == 0:  # every unit or none (f = 0 lands here too)
        return (1, list(range(1, p))) if c == 0 else None
    v = _valuation(a, p)
    pv = p**v
    a //= pv
    if c % pv or (c // pv) % p == 0:  # a x^2 has valuation v for a unit x
        return None
    h = f - v
    ph = p**h
    r = (c // pv) * pow(a, -1, ph) % ph
    roots = _unit_roots_mod_prime_power(r, p, h)
    return (h, roots) if roots else None


def unit_square_roots(a: int, c: int, m: int, modulus: int) -> tuple[int, ...]:
    """The sorted alpha in [1, m) with gcd(alpha, m) = 1 and
    a alpha^2 = c (mod modulus).

    The caller guarantees that the condition is well defined mod m, i.e. it
    does not change when alpha moves by a multiple of m.
    """
    if m < 1 or modulus < 1:
        raise LatfmError("moduli must be positive")
    residues, step = [0], 1  # the solutions mod step, over the primes so far
    for p in prime_factorization(m * modulus // gcd(m, modulus)):
        g, f = _valuation(m, p), _valuation(modulus, p)
        if g == 0:
            # a shift by m moves alpha freely mod p^f, so the condition
            # holds for every alpha or for none
            if (a - c) % p**f:
                return ()
            continue
        local = _local_roots(a, c, p, f)
        if local is None:
            return ()
        t, roots = local
        pg = p**g
        if t <= g:
            pt = p**t
            lifted = [x + k * pt for x in roots for k in range(pg // pt)]
        else:
            lifted = sorted({x % pg for x in roots})
        inv = pow(step, -1, pg)
        residues = [
            x + step * ((y - x) * inv % pg) for x in residues for y in lifted
        ]
        step *= pg
    return tuple(sorted(residues)) if m > 1 else ()
