from fractions import Fraction
from math import gcd

import pytest

from latfm.discriminant import (
    cyclic_module,
    discriminant_module,
    is_isometric_modules,
    verify_isometry,
)
from latfm.errors import HypothesisFailedError, LatfmError, NotCoprimeError
from latfm.family import (
    DiscIsoWitness,
    GenusData,
    NonIsometryCertificate,
    build_family,
    check_nikulin_hypotheses,
    closed_form_module,
    complement_genus_data,
    disc_groups_isomorphic,
    embed_member,
    isometry_necessary_conditions,
    make_member,
    polarization_orbits_in_u,
)
from latfm.fmcount import fm_count_rho1
from latfm.lattices import Signature, is_primitive, make_lattice


class TestMakeMember:
    def test_basic(self):
        member = make_member(1, 3)
        assert member.lattice.det == -9
        assert member.module.factors == (9,)
        assert member.module.q == (Fraction(16, 9),)  # -2/9 mod 2Z

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            make_member(2, 4)

    def test_large_prime(self):
        member = make_member(1, 17)
        assert member.module.order == 289

    def test_embedding_primitive_and_represents_zero(self):
        for d, n in ((1, 3), (2, 5), (6, 83)):
            member = make_member(d, n)
            assert is_primitive(member.embedding)
            assert member.lattice.square((0, 1)) == 0
            assert member.lattice.square((1, 0)) == 2 * d

    def test_closed_form_matches_machinery_grid(self):
        for d in range(1, 13):
            for n in range(1, 13):
                if gcd(2 * d, n) != 1:
                    continue
                member = make_member(d, n)  # cross-checks internally
                assert member.lattice.det == -n * n
                machinery = discriminant_module(member.lattice)
                assert machinery.factors == member.module.factors


class TestDiscWitness:
    def test_known_alpha(self):
        witness = disc_groups_isomorphic(1, 3, 4, 3)
        assert witness is not None and witness.alpha == 2

    def test_different_orders(self):
        assert disc_groups_isomorphic(1, 3, 1, 5) is None

    def test_self_witness(self):
        witness = disc_groups_isomorphic(5, 7, 5, 7)
        assert witness is not None and witness.alpha == 1

    def test_trivial_modules_are_isomorphic(self):
        # n = 1: both discriminant groups are trivial
        for d1, d2 in ((1, 1), (2, 7)):
            witness = disc_groups_isomorphic(d1, 1, d2, 1)
            assert witness == DiscIsoWitness(d1=d1, d2=d2, n=1, alpha=1)

    def test_witness_beyond_the_order_bound(self):
        # n = 4099 (family count 8): order 16801801; the witness is still
        # the least of the two roots
        witness = disc_groups_isomorphic(2, 4099, 128, 4099)
        alpha = witness.alpha
        assert (2 * alpha * alpha - 128) % 4099**2 == 0
        assert alpha < 4099**2 - alpha

    def test_against_module_search(self):
        for n in (3, 5, 7):
            for d1 in range(1, 7):
                for d2 in range(1, 7):
                    if gcd(2 * d1, n) != 1 or gcd(2 * d2, n) != 1:
                        continue
                    witness = disc_groups_isomorphic(d1, n, d2, n)
                    search = is_isometric_modules(
                        closed_form_module(d1, n), closed_form_module(d2, n)
                    )
                    assert (witness is None) == (search is None)
                    if search is not None:
                        assert verify_isometry(search)

    def test_witness_validation(self):
        with pytest.raises(LatfmError):
            disc_groups_isomorphic(2, 4, 2, 4)  # not coprime


class TestNecessaryConditions:
    def test_a2(self):
        conditions = isometry_necessary_conditions(1, 6, 5)
        assert conditions.a2  # 1 = 6 mod 5 (and here 1*6 = 1 mod 5 as well)
        assert conditions.certificate is None

    def test_a2_only(self):
        conditions = isometry_necessary_conditions(2, 7, 5)
        assert conditions.a2 and not conditions.b2
        assert conditions.certificate is None

    def test_b2(self):
        conditions = isometry_necessary_conditions(2, 3, 5)
        assert conditions.b2 and not conditions.a2

    def test_certificate(self):
        conditions = isometry_necessary_conditions(1, 4, 17)
        assert not conditions.a2 and not conditions.b2
        assert conditions.certificate == NonIsometryCertificate(1, 4, 17)

    def test_invalid_certificate_rejected(self):
        with pytest.raises(LatfmError):
            NonIsometryCertificate(1, 6, 5)  # 1 = 6 mod 5


class TestNikulin:
    def test_k3_profiles(self):
        t1 = complement_genus_data(make_member(1, 17), "k3")
        t2 = complement_genus_data(make_member(4, 17), "k3")
        attestation = check_nikulin_hypotheses(t1, t2)
        assert attestation.rank == 20
        assert attestation.signature == Signature(2, 18)
        assert attestation.ell == 1
        assert verify_isometry(attestation.disc_iso)

    def test_abelian_profiles(self):
        t1 = complement_genus_data(make_member(1, 17), "abelian")
        t2 = complement_genus_data(make_member(4, 17), "abelian")
        attestation = check_nikulin_hypotheses(t1, t2)
        assert attestation.rank == 4
        assert attestation.signature == Signature(2, 2)

    def test_rank_hypothesis_fails(self):
        member = make_member(1, 3)
        profile = GenusData(
            signature=member.lattice.signature,
            module=discriminant_module(member.lattice),
        )
        with pytest.raises(HypothesisFailedError) as excinfo:
            check_nikulin_hypotheses(profile, profile)
        assert excinfo.value.hypothesis == "rank"

    def test_signature_hypothesis_fails(self):
        t1 = complement_genus_data(make_member(1, 17), "k3")
        t2 = complement_genus_data(make_member(1, 17), "abelian")
        with pytest.raises(HypothesisFailedError) as excinfo:
            check_nikulin_hypotheses(t1, t2)
        assert excinfo.value.hypothesis == "signature"

    def test_indefinite_hypothesis_fails(self):
        lat = make_lattice([[2, 0, 0], [0, 2, 0], [0, 0, 4]])
        profile = GenusData(signature=lat.signature, module=discriminant_module(lat))
        with pytest.raises(HypothesisFailedError) as excinfo:
            check_nikulin_hypotheses(profile, profile)
        assert excinfo.value.hypothesis == "indefinite"

    def test_discriminant_hypothesis_fails(self):
        base = complement_genus_data(make_member(1, 3), "k3")
        # the complement carries q = +2/9; the sign-flipped form -2/9 = 16/9
        # is not equivalent to it (unit squares mod 9 are {1, 4, 7})
        other = GenusData(
            signature=base.signature,
            module=cyclic_module(9, Fraction(16, 9)),
        )
        with pytest.raises(HypothesisFailedError) as excinfo:
            check_nikulin_hypotheses(base, other)
        assert excinfo.value.hypothesis == "discriminant"


class TestBuildFamily:
    def test_two_members(self):
        bundle = build_family(2, 1)
        assert bundle.n == 17
        assert [m.d for m in bundle.members] == [1, 4]
        assert len(bundle.witnesses) == 1
        assert bundle.witnesses[0].alpha == 2
        assert len(bundle.certificates) == 1

    def test_three_members(self):
        bundle = build_family(3, 1)
        assert bundle.n == 83
        assert [m.d for m in bundle.members] == [1, 4, 9]
        assert [w.alpha for w in bundle.witnesses] == [2, 3, 3443]
        # independent congruence check of the frozen witness values
        for w in bundle.witnesses:
            assert (w.d1 * w.alpha**2 - w.d2) % (83 * 83) == 0
        assert len(bundle.certificates) == 3
        for attestation in bundle.attestations:
            assert attestation.rank == 20
            assert attestation.signature == Signature(2, 18)

    def test_single_member(self):
        bundle = build_family(1, 5)
        assert len(bundle.members) == 1
        assert bundle.witnesses == ()
        assert bundle.certificates == ()

    def test_abelian_ambient(self):
        bundle = build_family(2, 1, "abelian")
        for attestation in bundle.attestations:
            assert attestation.rank == 4
            assert attestation.signature == Signature(2, 2)

    def test_unknown_ambient(self):
        with pytest.raises(LatfmError):
            build_family(2, 1, "torus")

    def test_member_embedding_extends_to_k3(self):
        member = make_member(1, 17)
        emb = embed_member(member, "k3")
        assert emb.ambient.rank == 22
        assert emb.induced_gram == member.lattice.gram
        assert is_primitive(emb)


class TestPolarizationOrbits:
    def test_d15(self):
        report = polarization_orbits_in_u(15)
        assert report.count == 2
        assert report.representatives == ((1, 15), (3, 5))

    def test_d1(self):
        report = polarization_orbits_in_u(1)
        assert report.count == 1
        assert report.orbits == (((-1, -1), (1, 1)),)

    def test_d30(self):
        assert polarization_orbits_in_u(30).count == 4

    def test_orbit_members_have_square_2d(self):
        for d in (6, 12, 15):
            report = polarization_orbits_in_u(d)
            for orbit in report.orbits:
                for a, b in orbit:
                    assert 2 * a * b == 2 * d
                    assert gcd(a, b) == 1

    def test_matches_fm_count(self):
        for d in range(1, 80):
            assert polarization_orbits_in_u(d).count == fm_count_rho1(d)


class TestComplementModuleStructure:
    def test_k3_complement_module_cyclic(self):
        data = complement_genus_data(make_member(1, 17), "k3")
        assert data.module.factors == (289,)
        # gamma flips the sign of q: complement carries +2d/n^2
        assert (
            is_isometric_modules(data.module, cyclic_module(289, Fraction(2, 289)))
            is not None
        )
