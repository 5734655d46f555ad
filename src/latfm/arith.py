"""Elementary number theory: factorization, primality and unit square roots
modulo composite integers.

unit_square_roots solves a x^2 = c by Tonelli-Shanks per odd prime, Hensel
lifting to prime powers and the Chinese remainder theorem (Cohen, A Course
in Computational Algebraic Number Theory, 1.5), so a cyclic discriminant
isometry costs a factorization instead of a scan over every residue.
"""

from __future__ import annotations

from math import gcd

from .errors import LatfmError


def prime_factorization(n: int) -> dict[int, int]:
    if n < 1:
        raise LatfmError("expected a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


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
    """All units x mod p^h with x^2 = r, for a unit r."""
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
