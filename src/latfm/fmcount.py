"""Fourier-Mukai partner counts for Picard number 1.

Two independent routes are provided: the closed form 2^(p(d)-1) and the
double-coset sum over the genus, evaluated here for the rank-one class with
the orthogonal group of the discriminant built from the units of square one.
The two must agree; tests and the selftest enforce it.
"""

from __future__ import annotations

# is_prime and least_prime_above stay importable from here: callers and the
# benchmark's tracer (perfbench/spans.py) name them as latfm.fmcount members
from .arith import (  # noqa: F401
    is_prime,
    least_prime_above,
    prime_factorization,
    unit_square_roots,
)
from .discriminant import (
    FiniteQuadraticModule,
    LatticeDiscriminant,
    ModuleIsometry,
    identity_isometry,
    mulclose,
    negation_isometry,
)
from .errors import LatfmError, RankUnsupportedError
from .lattices import Lattice
from .oracle import (
    DEFAULT_BUDGET,
    SearchBudget,
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


def fm_count_rho1(d: int) -> int:
    """Closed-form count of Fourier-Mukai partners for Picard number 1 and
    polarization degree 2d."""
    if d < 1:
        raise LatfmError("d must be positive")
    return 2 ** (distinct_prime_count(d) - 1)


def pm_id_subgroup(module: FiniteQuadraticModule) -> tuple[ModuleIsometry, ...]:
    """The subgroup {+-id} of O(A).

    For Picard number 1 this is the image of the Hodge-isometry group on the
    discriminant; the library supplies it as a constant rather than computing
    anything from periods.
    """
    ident = identity_isometry(module)
    neg = negation_isometry(module)
    return (ident,) if neg.matrix == ident.matrix else (ident, neg)


def _rank1_orthogonal_group(d: int) -> tuple[FiniteQuadraticModule, tuple[ModuleIsometry, ...]]:
    """O(A) for the discriminant of the rank-one lattice of determinant 2d,
    realized from the units a mod 2d with a^2 = 1 mod 4d rather than the
    generic module search."""
    module = LatticeDiscriminant(Lattice(((2 * d,),))).module
    if module.is_trivial:
        return module, (identity_isometry(module),)
    units = unit_square_roots(1, 1, 2 * d, 4 * d)
    group = tuple(ModuleIsometry(module, module, ((a,),)) for a in units)
    return module, group


def fm_count_rho1_via_cosets(d: int) -> int:
    """The double-coset count for the single rank-one genus class.

    Must equal fm_count_rho1(d); the selftest asserts this across a range.
    """
    module, full = _rank1_orthogonal_group(d)
    side = pm_id_subgroup(module)
    return double_coset_count(side, full, side)


def fm_count_genus_sum(
    genus_members,
    g_image=pm_id_subgroup,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> int:
    """Sum of |O(S)\\O(A_S)/G| over the supplied genus members.

    Genus enumeration itself is out of scope: the caller supplies the members.
    The image of O(S) in O(A_S) is exact for rank 1 and is approximated by
    bounded self-isometry enumeration (then closed under composition) for
    rank 2; higher rank is not supported.
    """
    from .discriminant import orthogonal_group_of_module

    total = 0
    for member in genus_members:
        if member.rank > 2:
            raise RankUnsupportedError(
                "orthogonal groups are only enumerated for rank <= 2"
            )
        disc = LatticeDiscriminant(member)
        full = orthogonal_group_of_module(disc.module)
        if member.rank == 1:
            image = pm_id_subgroup(disc.module)
        else:
            witnesses = enumerate_self_isometries(member, budget)
            image = mulclose(
                {disc.isometry_action(w.matrix) for w in witnesses}
            )
        total += double_coset_count(image, full, g_image(disc.module))
    return total
