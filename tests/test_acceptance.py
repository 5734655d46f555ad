"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact (integer or rational equality); the only tolerances
are the per-criterion wall-clock limits, which are part of the contract.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from latfm.discriminant import (
    discriminant_module,
    gamma_complement_map,
    orthogonal_group_of_module,
    verify_anti_isometry,
)
from latfm.errors import BudgetExhaustedError
from latfm.family import (
    build_family,
    isometry_necessary_conditions,
    make_member,
    polarization_orbits_in_u,
)
from latfm.fmcount import distinct_prime_count, fm_count_rho1, fm_count_rho1_via_cosets
from latfm.lattices import (
    K3,
    Signature,
    SublatticeEmbedding,
    U,
    direct_sum,
    is_primitive,
    make_lattice,
)
from latfm.mukai import (
    class_representatives,
    embed_polarized,
    enumerate_mukai_vectors,
    moduli_lattice_shadow,
)
from latfm.oracle import SearchBudget, find_isometry_bounded, units_with_square_one

UU = direct_sum(U, U)


@contextmanager
def criterion(number: int, description: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= seconds:
        print(f"FAIL criterion {number}: {description} "
              f"({elapsed:.2f}s exceeded {seconds:.0f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {seconds:.0f}s budget: {elapsed:.2f}s"
        )
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_fm_count_cross_check():
    with criterion(1, "closed-form FM count equals the double-coset route "
                      "for d <= 200", 5.0):
        for d in range(1, 201):
            expected = 2 ** (distinct_prime_count(d) - 1)
            assert fm_count_rho1(d) == expected
            assert fm_count_rho1_via_cosets(d) == expected


def test_criterion_2_orthogonal_group_order():
    with criterion(2, "|O(A)| = 2^p(d) for the rank-one discriminants, "
                      "d <= 200", 30.0):
        module = discriminant_module(make_lattice([[2]]))
        assert len(orthogonal_group_of_module(module)) == 1
        for d in range(2, 201):
            units = units_with_square_one(2 * d)
            assert len(units) == 2 ** distinct_prime_count(d)
            module = discriminant_module(make_lattice([[2 * d]]))
            group = orthogonal_group_of_module(module)
            assert tuple(g[0][0] for g in group) == units


def test_criterion_3_mukai_enumeration():
    with criterion(3, "Mukai vectors: swap-class counts {1,1,2,4,8} at "
                      "d in {1,8,15,30,210}, all isotropic and primitive", 1.0):
        expected = {1: 1, 8: 1, 15: 2, 30: 4, 210: 8}
        for d, count in expected.items():
            vectors = enumerate_mukai_vectors(d)
            assert len(class_representatives(vectors)) == count
            for v in vectors:
                assert v.square == 0
                assert gcd(gcd(v.r, v.h_mult), v.s) == 1


def test_criterion_4_moduli_shadow():
    with criterion(4, "moduli shadows for every vector with d <= 30: even "
                      "unimodular (3,19) quotient of rank 22, NS class of "
                      "square 2d with the transcendental block as its "
                      "complement", 30.0):
        for d in range(1, 31):
            h_gram = embed_polarized(d).transcendental_shadow().induced_gram
            for v in enumerate_mukai_vectors(d):
                shadow = moduli_lattice_shadow(v)  # verifies NS-perp internally
                quotient = shadow.quotient
                assert quotient.rank == 22
                assert quotient.is_even
                assert abs(quotient.det) == 1
                assert quotient.signature == Signature(3, 19)
                assert quotient.square(shadow.ns_generator) == 2 * d
                assert shadow.transcendental.induced_gram == h_gram


def test_criterion_5_closed_form_vs_snf():
    with criterion(5, "rank-2 family discriminants: cyclic of order n^2 with "
                      "q = -2d/n^2, closed form against SNF machinery for "
                      "d, n <= 30", 5.0):
        for d in range(1, 31):
            for n in range(1, 31):
                if gcd(2 * d, n) != 1:
                    continue
                member = make_member(d, n)  # internal cross-check runs here
                machinery = discriminant_module(member.lattice)
                if n == 1:
                    assert machinery.is_trivial
                    continue
                assert machinery.factors == (n * n,)
                assert member.module.q == (Fraction(-2 * d, n * n) % 2,)


def test_criterion_6_necessity_grid():
    with criterion(6, "bounded oracle never contradicts the necessary "
                      "congruences on the d <= 6, n in {3,5,7} grid", 120.0):
        budget = SearchBudget(entry_bound=50, node_limit=10_000_000)
        for n in (3, 5, 7):
            for d1 in range(1, 7):
                for d2 in range(d1, 7):
                    if gcd(2 * d1, n) != 1 or gcd(2 * d2, n) != 1:
                        continue
                    conditions = isometry_necessary_conditions(d1, d2, n)
                    l1 = make_member(d1, n).lattice
                    l2 = make_member(d2, n).lattice
                    try:
                        witness = find_isometry_bounded(l1, l2, budget)
                    except BudgetExhaustedError:
                        witness = None
                    if witness is not None:
                        assert witness.holds()
                        assert conditions.a2 or conditions.b2
                    if conditions.certificate is not None:
                        assert witness is None


def test_criterion_7_family_pipeline():
    with criterion(7, "family of 3 at degree 2: n = 83, all pairwise "
                      "witnesses and certificates, degree-2 polarization, "
                      "zero represented primitively, attestations in both "
                      "ambients", 10.0):
        for ambient, rank, sig in (("k3", 20, (2, 18)), ("abelian", 4, (2, 2))):
            bundle = build_family(3, 1, ambient)
            assert bundle.n == 83
            assert [m.d for m in bundle.members] == [1, 4, 9]
            assert len(bundle.witnesses) == 3
            for w in bundle.witnesses:
                assert gcd(w.alpha, 83) == 1
                assert (w.d1 * w.alpha * w.alpha - w.d2) % (83 * 83) == 0
            assert len(bundle.certificates) == 3
            for c in bundle.certificates:
                assert (c.d1 - c.d2) % 83 != 0
                assert (c.d1 * c.d2 - 1) % 83 != 0
            assert bundle.members[0].lattice.square((1, 0)) == 2
            for member in bundle.members:
                zero_vec = member.represents_zero_vector
                assert member.lattice.square(zero_vec) == 0
                assert gcd(zero_vec[0], zero_vec[1]) == 1
                assert is_primitive(member.embedding)
            assert len(bundle.attestations) == 3
            for attestation in bundle.attestations:
                assert attestation.rank == rank
                assert tuple(attestation.signature) == sig
                assert attestation.ell == 1


def test_criterion_8_polarization_orbits():
    with criterion(8, "orbit counts in the hyperbolic plane equal "
                      "2^(p(d)-1) for d <= 200", 5.0):
        for d in range(1, 201):
            assert polarization_orbits_in_u(d).count == fm_count_rho1(d)


def test_criterion_9_gamma_anti_isometry():
    with criterion(9, "gamma negates q on generators for polarization "
                      "complements (d in {2,3,6}) and the rank-2 family "
                      "grid", 30.0):
        for d in (2, 3, 6):
            h = (1, d) + (0,) * 20
            iso = gamma_complement_map(K3, SublatticeEmbedding(K3, (h,)))
            assert verify_anti_isometry(iso)
            e = iso.source.exponent
            for j in range(iso.source.ell):
                q = iso.source.gram[j][j]
                image = iso.column(j)
                assert iso.target.q_of(image) == (-q) % (2 * e)
        for d in range(1, 5):
            for n in (3, 5, 7):
                if gcd(2 * d, n) != 1:
                    continue
                member = make_member(d, n)
                iso = gamma_complement_map(UU, member.embedding)
                assert verify_anti_isometry(iso)
                e = iso.source.exponent
                for j in range(iso.source.ell):
                    q = iso.source.gram[j][j]
                    assert iso.target.q_of(iso.column(j)) == (-q) % (2 * e)
