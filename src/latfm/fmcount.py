"""Fourier-Mukai partner counts for Picard number 1.

Two independent routes are provided: the closed form 2^(p(d)-1) and the
double-coset sum over the genus.  The rank-one class <2d> and every even
rank-one genus member take the same double-coset count, on the cyclic
module Z/2d built in closed form, with O(A) the units a mod 2d with
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
    cyclic_module,
    orthogonal_group_of_module,
    scalar_matrix,
)
from .errors import LatfmError, RankUnsupportedError
from .intmat import Mat
from .lattices import Lattice
from .oracle import closure, double_coset_count, enumerate_self_isometries


def distinct_prime_count(d: int) -> int:
    """Number of distinct primes dividing d, with the convention p(1) = 1."""
    if type(d) is not int:  # bool is refused too
        raise LatfmError("d must be an integer")
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
    if type(d) is not int:  # bool is refused too, before the memo
        raise LatfmError("d must be an integer")
    if d < 1:
        raise LatfmError("d must be positive")
    return _rank1_term(d)


def fm_count_genus_sum(genus_members) -> int:
    """Sum of |O(S)\\O(A_S)/G| over the supplied genus members.

    Genus enumeration itself is out of scope: the caller supplies the members.
    The image of O(S) in O(A_S) is exact for rank 1 and for rank 2 with
    determinant -n^2 (latfm.binary lists every automorph).  For other rank-2
    members it is the closure of the self-isometries with entries within the
    default bound 50, a subgroup of the true image, so the term is an upper
    bound: an automorph with a larger entry is missed, and [[2,0],[0,-28]]
    gets 2 where the exact term is 1.  Higher rank is not supported.  The
    rank-2 search cannot reach the default node limit, so no sum ends in
    BudgetExhaustedError.

    Terms are memoized per process in two memos of up to 1024 keys each.
    An even rank-1 member [[c]] has the module Z/|c| with q = +-1/|c|, and
    both signs have the same O(A), so its term is _rank1_term(|c| / 2),
    keyed on the int; fm_count_rho1_via_cosets shares those slots.  Rank-2
    members, and odd rank-1 ones, go to _member_term, keyed on the member:
    a Lattice compares and hashes by its Gram matrix alone, so equal Gram
    matrices share one slot.  A miss in either runs every search, closure
    and subgroup check.  Only terms repeated within one process gain.
    """
    total = 0
    for member in genus_members:
        if member.rank > 2:
            raise RankUnsupportedError(
                "orthogonal groups are only enumerated for rank <= 2"
            )
        if member.rank == 1 and member.is_even:
            total += _rank1_term(abs(member.gram[0][0]) // 2)
        else:
            total += _member_term(member)
    return total


@lru_cache(maxsize=1024)
def _rank1_term(d: int) -> int:
    """|O(<2d>)\\O(A)/{+-1}| on A = Z/2d with q = 1/2d, counted on the units
    ((a,),); the module is the one LatticeDiscriminant reads off [[2d]]."""
    module = cyclic_module(2 * d, 1, generator=(1,))
    side = pm_id_subgroup(module)
    return double_coset_count(side, orthogonal_group_of_module(module), side,
                              module.factors)


@lru_cache(maxsize=1024)
def _member_term(member: Lattice) -> int:
    """|O(S)\\O(A_S)/G| for a member of rank <= 2, counted on generator
    matrices; no ModuleIsometry is built."""
    gram = member.gram
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
            automorphs = [w.matrix for w in enumerate_self_isometries(member)]
        actions = [disc.isometry_action(mat) for mat in automorphs]
        image = sorted(closure(actions, module.factors))
    return double_coset_count(image, full, side, module.factors)
