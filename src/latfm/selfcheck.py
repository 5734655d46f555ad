"""Invariant suite behind the `selftest` subcommand.

Each check re-validates one family of cross-checks at desk scale: closed
forms against independent machinery, machinery against brute force.  Checks
are pure and deterministic; a failure message names the violated invariant.
"""

from __future__ import annotations

import random
from math import gcd

from .binary import isometries, search_outcome
from .discriminant import (
    LatticeDiscriminant,
    discriminant_module,
    gamma_complement_map,
    identity_isometry,
    is_isometric_modules,
    negation_isometry,
    orthogonal_group_of_module,
    verify_anti_isometry,
)
from .errors import BudgetExhaustedError, LatfmError
from .family import (
    build_family,
    closed_form_module,
    complement_genus_data,
    disc_groups_isomorphic,
    isometry_necessary_conditions,
    make_member,
    polarization_orbits_in_u,
)
from .fmcount import distinct_prime_count, fm_count_rho1, fm_count_rho1_via_cosets
from .frozen import Frozen
from .lattices import (
    E8_MINUS,
    K3,
    Lattice,
    SublatticeEmbedding,
    U,
    direct_sum,
    is_primitive,
    orthogonal_complement,
    rescale,
)
from .mukai import (
    MUKAI,
    class_representatives,
    enumerate_mukai_vectors,
    moduli_lattice_shadow,
)
from .oracle import DEFAULT_BUDGET, find_isometry_bounded, units_with_square_one

# the rank-2 grid (d1, d2 <= GRID_D_MAX, n in GRID_PRIMES), the family size,
# and the cap on d (and n) of the closed-form and moduli-shadow checks
GRID_D_MAX = 6
GRID_PRIMES = (3, 5, 7)
FAMILY_COUNT = 3
SLOW_D_MAX = 30


class CheckResult(Frozen):
    _fields = ("name", "passed", "detail")
    _defaults = {"detail": ""}


class CheckFailure(Exception):
    pass


def _require(condition: bool, detail: str):
    if not condition:
        raise CheckFailure(detail)


def check_builtin_lattices(d_max: int):
    _require(U.det == -1, "U must have determinant -1")
    _require(U.is_even, "U must be even")
    _require(tuple(U.signature) == (1, 1), "U must have signature (1, 1)")
    _require(E8_MINUS.det == 1, "E8(-1) must have determinant 1")
    _require(tuple(E8_MINUS.signature) == (0, 8), "E8(-1) must be negative definite")
    _require(K3.rank == 22, "K3 lattice must have rank 22")
    _require(abs(K3.det) == 1 and K3.is_even, "K3 lattice must be even unimodular")
    _require(tuple(K3.signature) == (3, 19), "K3 lattice must have signature (3, 19)")
    _require(MUKAI.rank == 24, "Mukai lattice must have rank 24")
    _require(
        abs(MUKAI.det) == 1 and MUKAI.is_even, "Mukai lattice must be even unimodular"
    )
    _require(
        tuple(MUKAI.signature) == (4, 20), "Mukai lattice must have signature (4, 20)"
    )


def _random_lattices(count: int, seed: int = 20240229):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        try:
            out.append(Lattice(tuple(tuple(r) for r in rows)))
        except LatfmError:
            continue
    return out


def check_direct_sum_invariants(d_max: int):
    lats = _random_lattices(12)
    for a in lats[:6]:
        for b in lats[6:]:
            s = direct_sum(a, b)
            _require(s.det == a.det * b.det, "direct-sum determinant must multiply")
            _require(
                s.signature.plus == a.signature.plus + b.signature.plus
                and s.signature.minus == a.signature.minus + b.signature.minus,
                "direct-sum signature must add componentwise",
            )
    for name, lat in (("U", U), ("E8_MINUS", E8_MINUS), ("K3", K3), ("MUKAI", MUKAI)):
        flipped = rescale(lat, -1)
        _require(
            (flipped.signature.plus, flipped.signature.minus)
            == (lat.signature.minus, lat.signature.plus),
            f"rescaling {name} by -1 must swap the signature",
        )


def check_complement_invariants(d_max: int):
    for d in (1, 2, 3, 6):
        h = (1, d) + (0,) * (K3.rank - 2)
        v = SublatticeEmbedding(K3, (h,))
        comp = orthogonal_complement(v)
        _require(comp.rank == K3.rank - 1, "h-complement must have corank 1")
        _require(is_primitive(comp), "orthogonal complements must be primitive")
        _require(
            abs(comp.lattice().det) == 2 * d,
            "|det| must match across a primitive complement in a unimodular lattice",
        )
    uu = direct_sum(U, U)
    for d, n in ((1, 3), (2, 5), (3, 7)):
        emb = SublatticeEmbedding(uu, ((1, d, 0, 0), (0, n, 1, 0)))
        comp = orthogonal_complement(emb)
        _require(comp.rank == 2, "rank must be additive for non-degenerate splits")
        _require(
            abs(comp.lattice().det) == n * n,
            "|det| must match across the rank-2 complement",
        )
        _require(tuple(comp.lattice().signature) == (1, 1), "complement signature")


def check_discriminant_order(d_max: int):
    for lat in _random_lattices(15, seed=777) + [U, K3]:
        module = discriminant_module(lat)
        _require(
            module.order == abs(lat.det),
            "|A_L| must equal |det L|",
        )


def check_closed_form_vs_machinery(d_max: int):
    top = min(d_max, SLOW_D_MAX)
    for d in range(1, top + 1):
        for n in range(1, top + 1):
            if gcd(2 * d, n) != 1:
                continue
            member = make_member(d, n)
            machinery = LatticeDiscriminant(member.lattice).module
            _require(
                machinery.factors == ((n * n,) if n > 1 else ()),
                f"discriminant of L_({d},{n}) must be cyclic of order n^2",
            )
            _require(
                is_isometric_modules(closed_form_module(d, n), machinery) is not None,
                f"closed-form module for ({d},{n}) must match the machinery",
            )
            _require(
                complement_genus_data(member, "k3").module
                == LatticeDiscriminant(rescale(member.lattice, -1)).module,
                f"complement module of ({d},{n}) must match LatticeDiscriminant of L(-1)",
            )


def check_orthogonal_group(d_max: int):
    for d in (1, 2, 4, 6, 12, 30):
        module = discriminant_module(Lattice(((2 * d,),)))
        group = orthogonal_group_of_module(module)
        _require(identity_isometry(module).matrix in group, "O(A) must contain id")
        _require(negation_isometry(module).matrix in group, "O(A) must contain -id")
        expected = 1 if d == 1 else 2 ** distinct_prime_count(d)
        _require(
            len(group) == expected,
            f"|O(A)| for d={d} must be {expected}",
        )


def check_units_count(d_max: int):
    for d in range(2, d_max + 1):
        _require(
            len(units_with_square_one(2 * d)) == 2 ** distinct_prime_count(d),
            f"unit count for d={d} must be 2^p(d)",
        )
    _require(units_with_square_one(2) == (1,), "d=1 must have the trivial unit group")


def check_fm_closed_vs_cosets(d_max: int):
    for d in range(1, d_max + 1):
        closed = fm_count_rho1(d)
        cosets = fm_count_rho1_via_cosets(d)
        _require(
            closed == cosets,
            f"closed form {closed} != double-coset count {cosets} at d={d}",
        )
        _require(closed >= 1, "partner counts are at least 1")


def check_gamma(d_max: int):
    for d in (2, 3, 6):
        h = (1, d) + (0,) * (K3.rank - 2)
        iso = gamma_complement_map(K3, SublatticeEmbedding(K3, (h,)))
        _require(verify_anti_isometry(iso), f"gamma must negate q for <h>, d={d}")
    uu = direct_sum(U, U)
    for d, n in ((1, 3), (2, 5), (3, 7), (4, 3)):
        member = make_member(d, n)
        iso = gamma_complement_map(uu, member.embedding)
        _require(
            verify_anti_isometry(iso),
            f"gamma must negate q for the rank-2 member ({d},{n})",
        )


def check_mukai_vectors(d_max: int):
    for d in range(1, d_max + 1):
        vectors = enumerate_mukai_vectors(d)
        for v in vectors:
            _require(v.is_isotropic, f"vector (r={v.r}, s={v.s}) must be isotropic")
            _require(gcd(v.r, v.s) == 1, "vector components must be coprime")
        _require(
            len(class_representatives(vectors)) == fm_count_rho1(d),
            f"swap-class count at d={d} must be 2^(p(d)-1)",
        )


def check_moduli_shadows(d_max: int):
    for d in range(1, min(d_max, SLOW_D_MAX) + 1):
        for v in enumerate_mukai_vectors(d):
            shadow = moduli_lattice_shadow(v)
            q = shadow.quotient
            _require(q.rank == 22, "shadow quotient must have rank 22")
            _require(q.is_even, "shadow quotient must be even")
            _require(abs(q.det) == 1, "shadow quotient must be unimodular")
            _require(
                tuple(q.signature) == (3, 19),
                "shadow quotient must have signature (3, 19)",
            )
            _require(
                q.square(shadow.ns_generator) == 2 * d,
                "Neron-Severi generator square must be 2d",
            )


def check_rank2_grid(d_max: int):
    for n in GRID_PRIMES:
        for d1 in range(1, GRID_D_MAX + 1):
            for d2 in range(d1, GRID_D_MAX + 1):
                if gcd(2 * d1, n) != 1 or gcd(2 * d2, n) != 1:
                    continue
                conditions = isometry_necessary_conditions(d1, d2, n)
                l1 = make_member(d1, n).lattice
                l2 = make_member(d2, n).lattice
                witness, exhausted = _bounded_outcome(find_isometry_bounded, l1, l2)
                if witness is not None:
                    _require(witness.holds(), "oracle witnesses must verify exactly")
                    _require(
                        conditions.a2 or conditions.b2,
                        f"witness for ({d1},{d2},{n}) contradicts the necessary conditions",
                    )
                if conditions.certificate is not None:
                    _require(
                        witness is None,
                        f"certificate for ({d1},{d2},{n}) coexists with a witness",
                    )
                lane, lane_exhausted = _bounded_outcome(search_outcome, l1, l2)
                _require(
                    (lane and lane.matrix, lane_exhausted)
                    == (witness and witness.matrix, exhausted),
                    f"exact lane and bounded search disagree at ({d1},{d2},{n})",
                )
                _require(
                    bool(isometries(l1.gram, l2.gram)) == (conditions.a2 or conditions.b2),
                    f"exact isometries of ({d1},{d2},{n}) contradict the congruences",
                )


def _bounded_outcome(search, l1, l2):
    """(witness, None) or (None, the exhaustion message) at the default budget."""
    try:
        return search(l1, l2, DEFAULT_BUDGET), None
    except BudgetExhaustedError as exc:
        return None, str(exc)


def check_disc_witness_biconditional(d_max: int):
    for n in GRID_PRIMES:
        for d1 in range(1, GRID_D_MAX + 1):
            for d2 in range(1, GRID_D_MAX + 1):
                if gcd(2 * d1, n) != 1 or gcd(2 * d2, n) != 1:
                    continue
                witness = disc_groups_isomorphic(d1, n, d2, n)
                search = is_isometric_modules(
                    closed_form_module(d1, n), closed_form_module(d2, n)
                )
                _require(
                    (witness is None) == (search is None),
                    f"unit witness and module search disagree at ({d1},{d2},{n})",
                )


def check_family_pipeline(d_max: int):
    for ambient, rank, sig in (("k3", 20, (2, 18)), ("abelian", 4, (2, 2))):
        bundle = build_family(FAMILY_COUNT, 1, ambient)
        pairs = [(i, j) for i in range(FAMILY_COUNT) for j in range(i + 1, FAMILY_COUNT)]
        _require(len(bundle.witnesses) == len(pairs), "family must witness every pair")
        _require(len(bundle.certificates) == len(pairs), "family must certify every pair")
        _require(len(bundle.attestations) == len(pairs), "family must attest every pair")
        profiles = [complement_genus_data(m, ambient) for m in bundle.members]
        for (i, j), attestation in zip(pairs, bundle.attestations):
            _require(
                attestation.rank == rank and tuple(attestation.signature) == sig,
                f"attestation invariants for the {ambient} ambient",
            )
            # the closed-form module isometry is the one the search finds
            _require(
                attestation.disc_iso
                == is_isometric_modules(profiles[i].module, profiles[j].module),
                f"attestation isometry of pair {(i + 1, j + 1)} in the {ambient} ambient",
            )


def check_polarization_orbits(d_max: int):
    for d in range(1, d_max + 1):
        report = polarization_orbits_in_u(d)
        _require(
            report.count == fm_count_rho1(d),
            f"orbit count at d={d} must be 2^(p(d)-1)",
        )


CHECKS = (
    ("builtin-lattice-invariants", check_builtin_lattices),
    ("direct-sum-and-rescale", check_direct_sum_invariants),
    ("orthogonal-complements", check_complement_invariants),
    ("discriminant-group-order", check_discriminant_order),
    ("rank2-closed-form-vs-snf", check_closed_form_vs_machinery),
    ("orthogonal-group-of-module", check_orthogonal_group),
    ("units-square-one-count", check_units_count),
    ("fm-count-closed-vs-cosets", check_fm_closed_vs_cosets),
    ("gamma-anti-isometry", check_gamma),
    ("mukai-vector-enumeration", check_mukai_vectors),
    ("moduli-shadow-invariants", check_moduli_shadows),
    ("rank2-necessity-grid", check_rank2_grid),
    ("disc-witness-biconditional", check_disc_witness_biconditional),
    ("family-pipeline", check_family_pipeline),
    ("polarization-orbits", check_polarization_orbits),
)


def run_selftest(d_max: int = 200) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            fn(d_max)
        except CheckFailure as failure:
            results.append(CheckResult(name, False, str(failure)))
        except LatfmError as err:
            results.append(CheckResult(name, False, f"{type(err).__name__}: {err}"))
        else:
            results.append(CheckResult(name, True))
    return results
