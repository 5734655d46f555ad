"""Seeded op generators for the three workloads.

A workload is an endless stream of rounds.  Every round holds the same
number of ops from each stratum, so any whole number of rounds has the same
per-stratum counts whatever the seed; only the inputs inside a stratum
depend on it.  The program sees only the generated argv (or, for
fm_count_genus_sum, the generated Gram matrices).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from nt import SMALL_PRIMES, is_prime, next_prime

WORKLOADS = ("shadow", "family", "oracle")


@dataclass
class Op:
    stratum: str
    kind: str  # shadow | family | fm_verify | fm_count | isometry | genus_sum
    args: list  # CLI argv, or the member Gram matrices for genus_sum
    expect: dict = field(default_factory=dict)  # what the checker needs
    known_defect: bool = False

    def as_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def draw_degree(rng: random.Random, omega: int, lo: int, hi: int, avoid=()):
    """d in [lo, hi) with exactly omega distinct prime factors, as
    (d, ((p, e), ...)).  omega - 1 small primes (some squared) times one
    prime q chosen to land in the band."""
    pool = SMALL_PRIMES[: omega + 3]
    for _ in range(100_000):
        blocks = [(p, 2 if rng.random() < 0.25 else 1) for p in rng.sample(pool, omega - 1)]
        base = 1
        for p, e in blocks:
            base *= p**e
        q_lo = max(2, -(-lo // base))
        q_hi = (hi - 1) // base
        if q_lo > q_hi:
            continue
        q = next_prime(rng.randint(q_lo, q_hi) - 1)
        if q > q_hi or any(q == p for p, _ in blocks):
            continue
        d = base * q
        if d in avoid:
            continue
        return d, tuple(sorted(blocks + [(q, 1)]))
    raise RuntimeError(f"no degree with omega={omega} in [{lo}, {hi})")


# --------------------------------------------------------------------- shadow

SMALL, MID, LARGE = (2, 10**3), (10**3, 10**6), (10**6, 10**9)

# (stratum, omega, band, ops per round).  Per round 13 ops of omega 1 hold
# the median (its 10th of 20 ranks), 3 of omega 2, and 3 of omega 3 hold the
# 90th percentile (its 18th rank, the middle of the three); one omega 4 op
# is the slowest.  Few vectors per op on the whole, so a run reaches 100 ops.
SHADOW_STRATA = (
    ("w1-small", 1, SMALL, 4),
    ("w1-mid", 1, MID, 4),
    ("w1-large", 1, LARGE, 5),
    ("w2-small", 2, SMALL, 1),
    ("w2-mid", 2, MID, 1),
    ("w2-large", 2, LARGE, 1),
    ("w3-mid", 3, MID, 3),
    ("w4-mid", 4, MID, 1),
)


def _shadow_rounds(rng: random.Random, known_defects: bool):
    seen: set = set()  # no degree repeats, so a memo on it cannot help
    while True:
        ops = []
        for name, omega, (lo, hi), count in SHADOW_STRATA:
            for _ in range(count):
                d, factors = draw_degree(rng, omega, lo, hi, avoid=seen)
                seen.add(d)
                ops.append(Op(name, "shadow",
                              ["mukai", "--degree", str(2 * d), "--shadow", "--json"],
                              {"d": d, "factors": [list(f) for f in factors]}))
        rng.shuffle(ops)
        yield ops


# --------------------------------------------------------------------- family

FAMILY_ORDER_BOUND = 10**6  # the library's module-order ceiling at seed


def family_n(count: int, d: int) -> int:
    """The family's n: the least prime above max(2, d^2 count^4)."""
    return next_prime(max(2, d * d * count**4))


def _family_candidates(lo: int, hi: int, counts) -> list[tuple[int, int]]:
    """(count, d) whose module order n^2 lies in [lo, hi)."""
    out = []
    for c in counts:
        d = 1
        while True:
            n2 = family_n(c, d) ** 2
            if n2 >= hi:
                break
            if n2 >= lo:
                out.append((c, d))
            d += 1
    return out


# Every round runs each (count, d) of every band, in the ambients that
# FAMILY_AMBIENTS gives by its index in the band, and the multi-pair ones in
# both.  A single-pair K3 op costs about four times its abelian twin; the
# pattern puts about 17 abelian ops below the 12 single-pair K3 ones and 18
# slower ops above them, so the median falls in the middle of the K3 ones,
# not on a gap between costs.  All seeds thus share one cost profile; the
# seed sets the order, and the known-defect draw.
FAMILY_AMBIENTS = (("abelian",), ("k3",), ("k3", "abelian"), ("abelian",))
FAMILY_STRATA = (
    ("order-1e2", _family_candidates(10**2, 10**3, (1, 2)), False),
    ("order-1e3", _family_candidates(10**3, 10**4, (1, 2, 3)), False),
    ("order-1e4", _family_candidates(10**4, 10**5, (1, 2)), False),
    ("order-1e5", _family_candidates(10**5, 10**6, (1,)), False),
    ("multi-pair", ((2, 5), (3, 2), (4, 1)), True),
)
# Valid requests whose n^2 is just above the order bound: rejected with exit 1
# at seed.  One per round, drawn from the band.
FAMILY_DEFECT = "over-bound"
FAMILY_DEFECT_CANDIDATES = _family_candidates(FAMILY_ORDER_BOUND, 3 * 10**6, (1, 2))


def _family_op(stratum: str, c: int, d: int, ambient: str) -> Op:
    argv = ["family", "--count", str(c), "--degree", str(2 * d), "--json"]
    if ambient == "abelian":
        argv += ["--ambient", "abelian"]
    return Op(f"{stratum}-{ambient}", "family", argv,
              {"count": c, "d": d, "ambient": ambient},
              known_defect=stratum == FAMILY_DEFECT)


def _family_rounds(rng: random.Random, known_defects: bool):
    grid = []
    for name, candidates, both in FAMILY_STRATA:
        for i, (c, d) in enumerate(candidates):
            ambients = ("k3", "abelian") if both else FAMILY_AMBIENTS[i % 4]
            grid += [_family_op(name, c, d, ambient) for ambient in ambients]
    while True:
        ops = list(grid)
        if known_defects:
            ops.append(_family_op(FAMILY_DEFECT, *rng.choice(FAMILY_DEFECT_CANDIDATES), "k3"))
        rng.shuffle(ops)
        yield ops


# --------------------------------------------------------------------- oracle

ISO_PRIMES = (5, 7, 11, 13)
ISO_DS = tuple(range(1, 13))


def _gram(a, b, c):
    return f"[[{a},{b}],[{b},{c}]]"


def _iso_op(rng: random.Random, relation: str) -> Op:
    """isometry on L_{d1,n1}, L_{d2,n2} drawn from a small pool, so lattices
    recur across ops."""
    while True:
        n = rng.choice(ISO_PRIMES)
        n2 = n
        d1 = rng.choice(ISO_DS)
        if d1 % n == 0:
            continue
        if relation == "witness":
            # [[1, 0], [t, 1]] maps L_{d1,n} onto L_{d1 + t n, n}
            d2 = d1 + rng.choice((1, 2, 3)) * n
        elif relation == "screen":
            n2 = rng.choice([p for p in ISO_PRIMES if p != n])
            d2 = rng.choice([x for x in ISO_DS if x % n2])
        else:
            d2 = rng.choice(ISO_DS)
            if d2 % n == 0 or d1 == d2:
                continue
            a2 = (d1 - d2) % n == 0
            b2 = (d1 * d2 - 1) % n == 0
            if relation == "certificate" and (a2 or b2):
                continue
            if relation == "open" and not (b2 and not a2):
                continue
        argv = ["isometry", "--gram1", _gram(2 * d1, n, 0),
                "--gram2", _gram(2 * d2, n2, 0), "--json"]
        return Op(f"iso-{relation}", "isometry", argv, {"relation": relation})


# Rank-2 members with O(A) = {+-1} or with O(A) inside the image of O(S):
# each contributes exactly 1 to the genus sum.  [[2,0],[0,2]], [[4,0],[0,4]]
# and [[2,0],[0,4]] have non-cyclic discriminants (generic module search).
NONCYCLIC_RANK2 = ([[2, 0], [0, 2]], [[4, 0], [0, 4]], [[2, 0], [0, 4]])
# [[2,1],[1,2]] has A = Z/3; L_{d,n} with n an odd prime has A = Z/n^2 and
# q = -2d/n^2, so a unit a is an isometry iff a = +-1 mod n^2.
CYCLIC_RANK2 = ([[2, 1], [1, 2]],) + tuple(
    [[2 * d, n], [n, 0]] for n in (5, 7) for d in (1, 2, 3, 4, 6)
)
RANK1_DS = tuple(d for d in range(1, 211))
# Members per genus sum, the same in every op of a stratum, so a stratum's
# cost does not depend on the seed.
GENUS_MEMBERS = {"genus-rank1": 3, "genus-rank2-cyclic": 2, "genus-rank2-noncyclic": 2}


def _genus_op(rng: random.Random, stratum: str) -> Op:
    members = []
    total = 0
    for _ in range(GENUS_MEMBERS[stratum]):
        if stratum == "genus-rank1":
            d = rng.choice(RANK1_DS)
            omega = sum(1 for p in range(2, d + 1) if d % p == 0 and is_prime(p))
            members.append([[2 * d]])
            total += 2 ** (max(omega, 1) - 1)
        else:
            pool = CYCLIC_RANK2 if stratum == "genus-rank2-cyclic" else NONCYCLIC_RANK2
            members.append(rng.choice(pool))
            total += 1
    return Op(stratum, "genus_sum", members, {"total": total})


def _fm_verify_op(rng: random.Random, omega: int, lo: int, hi: int) -> Op:
    d, factors = draw_degree(rng, omega, lo, hi)
    return Op(f"fmv-w{omega}", "fm_verify",
              ["fm-count", "--degree", str(2 * d), "--verify", "--json"],
              {"d": d, "omega": len(factors)})


def _fm_big_op(rng: random.Random, exponent: int) -> Op:
    """d = k p with p a prime of exponent + 1 digits, in [10^e, 2 10^e) so
    that the trial division's cost (about sqrt(p)) varies little between
    seeds, and a small cofactor k."""
    p = next_prime(rng.randrange(10**exponent, 2 * 10**exponent))
    k_primes = rng.sample(SMALL_PRIMES[:6], rng.randint(0, 2))
    d = p
    for q in k_primes:
        d *= q
    return Op(f"fm-big-e{exponent}", "fm_count",
              ["fm-count", "--degree", str(2 * d), "--json"],
              {"d": d, "omega": len(k_primes) + 1})


def _fm_19digit_op(rng: random.Random) -> Op:
    """Degree 2 * 3 * P with P a prime near 3e17: 19 digits; trial division
    to sqrt(P) does not finish within the per-op limit at seed."""
    p = next_prime(rng.randrange(2 * 10**17, 3 * 10**17))
    d = 3 * p
    return Op("fm-19digit", "fm_count",
              ["fm-count", "--degree", str(2 * d), "--json"],
              {"d": d, "omega": 2}, known_defect=True)


# Ops per round by cost: the isometry searches and small genus sums make the
# dense middle that holds the median; fm-count with a prime factor above
# 10^13 and the omega-7 --verify (|O(A)| = 256) make the slowest 15%, which
# holds the 90th percentile.
ISO_PER_ROUND = (("witness", 3), ("certificate", 3), ("open", 2), ("screen", 1))
GENUS_PER_ROUND = (("genus-rank1", 1), ("genus-rank2-cyclic", 2), ("genus-rank2-noncyclic", 2))
BIG_PRIME_DECADES = (10, 11, 12, 13, 13)


def _oracle_rounds(rng: random.Random, known_defects: bool):
    while True:
        # narrow bands of d: the unit scan is O(d)
        ops = [_fm_verify_op(rng, omega, 5 * 10**4, 7 * 10**4) for omega in range(1, 7)]
        ops += [_fm_verify_op(rng, 7, 510510, 7 * 10**5) for _ in range(2)]
        ops += [_fm_big_op(rng, e) for e in BIG_PRIME_DECADES]
        for relation, count in ISO_PER_ROUND:
            ops += [_iso_op(rng, relation) for _ in range(count)]
        for stratum, count in GENUS_PER_ROUND:
            ops += [_genus_op(rng, stratum) for _ in range(count)]
        if known_defects:
            ops.append(_fm_19digit_op(rng))
        rng.shuffle(ops)
        yield ops


_ROUNDS = {"shadow": _shadow_rounds, "family": _family_rounds, "oracle": _oracle_rounds}

# Warm-up op run before timing.  Its input is outside every stratum, so it
# fills no cache a measured op could hit.
WARMUP = {
    "shadow": Op("warmup", "shadow", ["mukai", "--degree", "2", "--shadow", "--json"],
                 {"d": 1, "factors": []}),
    "family": Op("warmup", "family", ["family", "--count", "1", "--degree", "2", "--json"],
                 {"count": 1, "d": 1, "ambient": "k3"}),
    "oracle": Op("warmup", "fm_verify", ["fm-count", "--degree", "2", "--verify", "--json"],
                 {"d": 1, "omega": 0}),
}


def rounds(workload: str, seed: int, known_defects: bool = False):
    """Endless iterator of rounds (lists of Op) for a workload and seed."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    return _ROUNDS[workload](rng, known_defects)
