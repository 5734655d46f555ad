"""Fourier-Mukai partner counts for Picard number 1.

Two independent routes are provided: the closed form 2^(p(d)-1) and the
double-coset sum over the genus.  The rank-one class <2d> goes through the
same genus sum as explicit members, with O(A) the units a mod 2d with
a^2 = 1 mod 4d.  The two must agree; tests and the selftest enforce it.
"""

from __future__ import annotations

from functools import lru_cache

# is_prime stays importable from here for the benchmark's tracer
# (perfbench/spans.py), which names it and prime_factorization as members
from .arith import is_prime, prime_factorization  # noqa: F401
from .binary import isometries, square_root_of_discriminant
from .discriminant import (
    FiniteQuadraticModule,
    LatticeDiscriminant,
    orthogonal_group_of_module,
    scalar_matrix,
)
from .errors import LatfmError, RankUnsupportedError
from .intmat import Mat
from .lattices import Lattice
from .oracle import (
    DEFAULT_BUDGET,
    SearchBudget,
    closure,
    double_coset_count,
    enumerate_self_isometries,
)


def distinct_prime_count(d: int) -> int:
    """Number of distinct primes dividing d, with the convention p(1) = 1."""
    if d < 1:
        raise LatfmError("d must be positive")
    if d == 1:
        return 1
    return len(prime_factorization(d))


def prime_power_blocks(d: int) -> tuple[int, ...]:
    """The prime-power factors p^e of d, ascending; empty for d = 1."""
    return tuple(sorted(p**e for p, e in prime_factorization(d).items()))


def unitary_divisors(d: int) -> tuple[int, ...]:
    """The r with r s = d and gcd(r, s) = 1, ascending: the products of the
    subsets of prime_power_blocks(d)."""
    divisors = [1]
    for block in prime_power_blocks(d):
        divisors += [r * block for r in divisors]
    return tuple(sorted(divisors))


def fm_count_rho1(d: int) -> int:
    """Closed-form count of Fourier-Mukai partners for Picard number 1 and
    polarization degree 2d."""
    return fm_count_rho1_with_p(d)[1]


def fm_count_rho1_with_p(d: int) -> tuple[int, int]:
    """(p(d), fm_count_rho1(d)) from one factorization of d."""
    p = distinct_prime_count(d)
    return p, 2 ** (p - 1)


def pm_id_subgroup(module: FiniteQuadraticModule) -> tuple[Mat, ...]:
    """The generator matrices of the subgroup {+-id} of O(A).

    For Picard number 1 this is the image of the Hodge-isometry group on the
    discriminant; the library supplies it as a constant rather than computing
    anything from periods.
    """
    ident, neg = scalar_matrix(module, 1), scalar_matrix(module, -1)
    return (ident,) if neg == ident else (ident, neg)


def fm_count_rho1_via_cosets(d: int) -> int:
    """The double-coset count for the single rank-one genus class.

    Must equal fm_count_rho1(d); the selftest asserts this across a range.
    """
    if d < 1:
        raise LatfmError("d must be positive")
    return fm_count_genus_sum((Lattice(((2 * d,),)),))


def fm_count_genus_sum(
    genus_members,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> int:
    """Sum of |O(S)\\O(A_S)/G| over the supplied genus members.

    Genus enumeration itself is out of scope: the caller supplies the members.
    The image of O(S) in O(A_S) is exact for rank 1 and for rank 2 with
    determinant -n^2 (latfm.binary lists every automorph); for other rank-2
    members it is approximated by bounded self-isometry enumeration (then
    closed under composition).  Higher rank is not supported.

    Each member's term depends only on its Gram matrix and the budget, so it
    is memoized per process on (gram, budget), for up to 1024 keys.  A miss
    runs every search, closure and subgroup check; a BudgetExhaustedError is
    not stored, so it is recomputed and raised again with the same nodes.
    Only Gram matrices repeated within one process gain.
    """
    total = 0
    for member in genus_members:
        if member.rank > 2:
            raise RankUnsupportedError(
                "orthogonal groups are only enumerated for rank <= 2"
            )
        total += _member_term(member.gram, budget)
    return total


@lru_cache(maxsize=1024)
def _member_term(gram: Mat, budget: SearchBudget) -> int:
    """|O(S)\\O(A_S)/G| for the member of rank <= 2 with this Gram matrix,
    counted on generator matrices; no ModuleIsometry is built."""
    member = Lattice(gram)
    disc = LatticeDiscriminant(member)
    module = disc.module
    full = orthogonal_group_of_module(module)
    side = pm_id_subgroup(module)
    if member.rank == 1:
        image = side
    else:
        if square_root_of_discriminant(gram):
            automorphs = isometries(gram, gram)
        else:
            automorphs = [w.matrix for w in enumerate_self_isometries(member, budget)]
        actions = [disc.isometry_action(mat) for mat in automorphs]
        image = sorted(closure(actions, module.factors))
    return double_coset_count(image, full, side, module.factors)
