import hashlib
import io
from fractions import Fraction
from math import gcd

import pytest
from conftest import family_grid

from latfm import discriminant, family, intmat, lattices
from latfm.cli import run
from latfm.discriminant import (
    TRIVIAL_MODULE,
    LatticeDiscriminant,
    cyclic_module,
    discriminant_module,
    is_isometric_modules,
    verify_isometry,
)
from latfm.errors import HypothesisFailedError, LatfmError, NotCoprimeError
from latfm.family import (
    AMBIENTS,
    UU,
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
from latfm.intmat import mat_vec, vec_dot
from latfm.lattices import (
    Signature,
    is_primitive,
    make_lattice,
    orthogonal_complement,
    rescale,
)


def closed_form_failure(lattice, module):
    """None when the cyclic module is A_L through its generator g / f, else
    the check it fails: "order" when its factors are not (|det L|,), and
    "generator" when G g != 0 mod f (g / f is no dual vector), gcd(g, f) != 1
    (g / f has order below f) or g.G.g / f^2 is not its q mod 2Z."""
    order = abs(lattice.det)
    if module.factors != ((order,) if order > 1 else ()):
        return "order"
    if module.is_trivial:
        return None
    (f,), (g,), ((q,),) = module.factors, module.generators, module.gram
    image = mat_vec(lattice.gram, g)
    if (
        any(x % f for x in image)
        or gcd(*g, f) != 1
        or (vec_dot(g, image) - q * f) % (2 * f * f)
    ):
        return "generator"
    return None


class TestMakeMember:
    def test_basic(self):
        member = make_member(1, 3)
        assert member.lattice.det == -9
        closed = closed_form_module(1, 3)
        assert closed.factors == (9,)
        assert closed.q == (Fraction(16, 9),)  # -2/9 mod 2Z
        assert closed_form_failure(member.lattice, closed) is None

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            make_member(2, 4)

    def test_large_prime(self):
        member = make_member(1, 17)
        assert discriminant_module(member.lattice).order == 289
        assert closed_form_module(1, 17).order == 289

    def test_embedding_primitive_and_represents_zero(self):
        for d, n in ((1, 3), (2, 5), (6, 83)):
            member = make_member(d, n)
            assert is_primitive(member.embedding)
            assert member.lattice.square((0, 1)) == 0
            assert member.lattice.square((1, 0)) == 2 * d

    def test_closed_form_matches_machinery_grid(self):
        for d in range(1, 31):
            for n in range(1, 31):
                if gcd(2 * d, n) != 1:
                    continue
                member = make_member(d, n)
                assert member.lattice.det == -n * n
                closed = closed_form_module(d, n)
                assert closed_form_failure(member.lattice, closed) is None
                if d <= 12 and n <= 12:
                    machinery = discriminant_module(member.lattice)
                    assert machinery.factors == closed.factors
                    assert is_isometric_modules(closed, machinery) is not None

    @pytest.mark.parametrize("d", range(1, 7))
    def test_family_members_carry_the_closed_form(self, d):
        for member in build_family(4, d).members:
            closed = closed_form_module(member.d, member.n)
            assert closed_form_failure(member.lattice, closed) is None

    @pytest.mark.parametrize(
        "qval,generator",
        [
            # q and generator over 9: q sign flipped, generator (1/3, -2/9)
            (2, (3, -2)),
            # 3 g = (1, -2/3): q = 0, no unit
            (0, (9, -6)),
            # g = (3, 2) has the gcd and a q of 6/9, but G g = (12, 9) is
            # not 0 mod 9: g/9 is no dual vector
            (6, (3, 2)),
        ],
        ids=["qval0-generator0", "qval1-generator1", "qval2-generator2"],
    )
    def test_closed_form_checked_through_its_generator(self, qval, generator):
        # -1 is not a square mod 3, so a q of +2/9 is no isometric module;
        # 3 g has the q of its closed form but generates a subgroup of order 3
        wrong = cyclic_module(9, qval, generator=generator)
        assert closed_form_failure(make_member(1, 3).lattice, wrong) == "generator"

    def test_closed_form_order_checked_against_the_determinant(self):
        # L_(1,3) has |det| 9; a cyclic module of order 25 cannot be A_L
        wrong = cyclic_module(25, -2, generator=(5, -2))
        assert closed_form_failure(make_member(1, 3).lattice, wrong) == "order"


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

    def test_family_witnesses_are_the_least_roots(self):
        # build_family writes alpha = +-j/i mod n^2 in closed form; the
        # root search finds the same least root for every pair
        for count, d in family_grid():
            bundle = build_family(count, d, "abelian")
            n = bundle.n
            expected = tuple(
                disc_groups_isomorphic(d * i * i, n, d * j * j, n)
                for i in range(1, count + 1) for j in range(i + 1, count + 1)
            )
            assert bundle.witnesses == expected, (count, d)


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
            module=cyclic_module(9, 16),  # 16/9
        )
        with pytest.raises(HypothesisFailedError) as excinfo:
            check_nikulin_hypotheses(base, other)
        assert excinfo.value.hypothesis == "discriminant"


def failing_profile_pairs():
    """(hypothesis, t1, t2): one pair failing each Nikulin hypothesis, the
    first it fails named."""
    member = make_member(1, 3)
    own = GenusData(
        signature=member.lattice.signature, module=discriminant_module(member.lattice)
    )
    definite = make_lattice([[2, 0, 0], [0, 2, 0], [0, 0, 4]])
    definite = GenusData(signature=definite.signature, module=discriminant_module(definite))
    base = complement_genus_data(member, "k3")
    return (
        ("signature", complement_genus_data(make_member(1, 17), "k3"),
         complement_genus_data(make_member(1, 17), "abelian")),
        ("indefinite", definite, definite),
        ("rank", own, own),
        ("discriminant", base, GenusData(signature=base.signature, module=cyclic_module(9, 16))),
        # modules of orders 9 and 25
        ("discriminant", base, complement_genus_data(make_member(1, 5), "k3")),
    )


class TestClosedFormAttestation:
    """build_family attests each pair with the module isometry
    g_i -> alpha g_j, alpha = +-(i s_i) / (j s_j) mod n^2, checked by
    family._attest_cyclic_pair; check_nikulin_hypotheses, which searches
    for it, is the oracle."""

    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_family_attestations_are_the_searched_ones(self, ambient):
        # every (count, d) the benchmark runs, and every count <= 6, d <= 40
        for count, d in family_grid():
            bundle = build_family(count, d, ambient)
            profiles = [complement_genus_data(m, ambient) for m in bundle.members]
            expected = tuple(
                check_nikulin_hypotheses(profiles[i], profiles[j])
                for i in range(count) for j in range(i + 1, count)
            )
            assert bundle.attestations == expected, (count, d)

    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_only_the_two_roots_pass(self, ambient):
        bundle = build_family(3, 2, ambient)
        n, square = bundle.n, bundle.n ** 2
        profiles = [complement_genus_data(m, ambient) for m in bundle.members]
        pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        for (i, j), attestation in zip(pairs, bundle.attestations):
            ((r,),) = attestation.disc_iso.matrix
            assert verify_isometry(attestation.disc_iso)
            assert family._attest_cyclic_pair(profiles[i], profiles[j], r) == attestation
            other = family._attest_cyclic_pair(profiles[i], profiles[j], square - r)
            assert other.disc_iso.matrix == ((square - r,),)
            for wrong in (r + 1, square - r + 1, n, 0, square):
                with pytest.raises(HypothesisFailedError) as excinfo:
                    family._attest_cyclic_pair(profiles[i], profiles[j], wrong)
                assert excinfo.value.hypothesis == "discriminant", wrong

    def test_a_non_unit_alpha_is_refused(self):
        # n = 3: q = 0 on both modules, so alpha = 3 solves the congruence
        # and only the unit check refuses it
        zero = GenusData(signature=Signature(2, 18), module=cyclic_module(9, 0))
        assert family._attest_cyclic_pair(zero, zero, 1).disc_iso.matrix == ((1,),)
        with pytest.raises(HypothesisFailedError) as excinfo:
            family._attest_cyclic_pair(zero, zero, 3)
        assert excinfo.value.hypothesis == "discriminant"

    @pytest.mark.parametrize("hypothesis,t1,t2", failing_profile_pairs())
    def test_failures_match_the_general_path(self, hypothesis, t1, t2):
        # both paths check signature, indefiniteness and rank in one helper,
        # in one order and with one message
        with pytest.raises(HypothesisFailedError) as general:
            check_nikulin_hypotheses(t1, t2)
        with pytest.raises(HypothesisFailedError) as closed:
            family._attest_cyclic_pair(t1, t2, 1)
        assert general.value.hypothesis == closed.value.hypothesis == hypothesis
        if hypothesis != "discriminant":
            assert str(general.value) == str(closed.value)


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

    def test_cyclic_modules_beyond_the_order_bound(self):
        for count, n in ((8, 4099), (12, 20743)):
            bundle = build_family(count, 1)
            assert bundle.n == n and n * n > 10**6
            assert len(bundle.attestations) == count * (count - 1) // 2

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

    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_members_are_isotropic_and_the_first_is_polarized(self, ambient):
        # build_family checks neither at run time: both hold by construction
        for count in range(1, 6):
            for d in range(1, 13):
                bundle = build_family(count, d, ambient)
                assert len(bundle.members) == count
                for member in bundle.members:
                    assert member.represents_zero_vector == (0, 1)
                    assert member.lattice.square((0, 1)) == 0
                assert bundle.members[0].lattice.square((1, 0)) == 2 * d

    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_one_cyclic_module_per_complement(self, monkeypatch, ambient):
        # the members build no module of their own: the only cyclic modules
        # are the complements' A(K), one per member
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cyclic_module(*args, **kwargs)

        monkeypatch.setattr(family, "cyclic_module", counted)
        for count in range(1, 5):
            for d in (1, 2, 3):
                calls.clear()
                build_family(count, d, ambient)
                assert len(calls) == count, (count, d)

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
            is_isometric_modules(data.module, cyclic_module(289, 2))
            is not None
        )


class TestComplementModuleBySmithForm:
    @staticmethod
    def same_module(data, member):
        # K = L_{d,n}(-1) as a Lattice, read through LatticeDiscriminant:
        # the route the 2x2 Smith form replaces
        module = LatticeDiscriminant(rescale(member.lattice, -1)).module
        assert data.module.factors == module.factors
        assert data.module.generators == module.generators
        assert data.module.gram == module.gram
        assert data.module.even == module.even

    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_split_grid(self, ambient):
        checked = 0
        for count, d in SPLIT_GRID:
            for member in build_family(count, d, ambient).members:
                self.same_module(complement_genus_data(member, ambient), member)
                checked += 1
        assert checked == 348

    def test_every_coprime_n_up_to_60(self):
        # composite n (9, 15, 21, 25, ...) and n = 1 included
        checked = 0
        for d in range(1, 13):
            for n in range(1, 61):
                if gcd(2 * d, n) == 1:
                    member = make_member(d, n)
                    for ambient in AMBIENTS:
                        self.same_module(complement_genus_data(member, ambient), member)
                    checked += 1
        assert checked == 301

    def test_n1_is_trivial(self):
        for d in (1, 2, 7):
            data = complement_genus_data(make_member(d, 1), "k3")
            assert data.module == TRIVIAL_MODULE
            assert data.signature == Signature(2, 18)

    @pytest.mark.parametrize(
        "wrong",
        [
            # V's column 1 plus column 0: -G v is not 0 mod f
            lambda u, d, v: (u, d, ((v[0][0], v[0][0] + v[0][1]), (v[1][0], v[1][0] + v[1][1]))),
            # V's column 1 times 3: -G v = 0 mod f, but gcd(v, f) = 3
            lambda u, d, v: (u, d, ((v[0][0], 3 * v[0][1]), (v[1][0], 3 * v[1][1]))),
            # D[1][1] = 3 in place of 9: v / 3 has order 3, not |A(K)| = 9
            lambda u, d, v: (u, ((1, 0), (0, 3)), v),
        ],
        ids=["not-dual", "not-primitive", "wrong-order"],
    )
    def test_wrong_smith_form_raises(self, monkeypatch, wrong):
        snf = intmat.smith_normal_form
        monkeypatch.setattr(family, "smith_normal_form", lambda m: wrong(*snf(m)))
        with pytest.raises(LatfmError, match="^Smith generator of the complement"):
            complement_genus_data(make_member(1, 3), "k3")


def _complement_in_the_ambient(member, ambient):
    """Signature and module of the complement built in the full ambient (a
    20x20 Gram in K3): the path that the split K + W replaces."""
    lattice = orthogonal_complement(embed_member(member, ambient)).lattice()
    return lattice.signature, LatticeDiscriminant(lattice).module


# every (count, d) with count <= 3 and d <= 40, or count 4, 5 and d <= 12
SPLIT_GRID = [(c, d) for c in (1, 2, 3) for d in range(1, 41)] + [
    (c, d) for c in (4, 5) for d in range(1, 13)
]


class TestComplementBySplitting:
    @pytest.mark.parametrize("ambient", sorted(AMBIENTS))
    def test_agrees_with_the_ambient_path(self, ambient):
        checked = 0
        for count, d in SPLIT_GRID:
            for member in build_family(count, d, ambient).members:
                # the complement in U+U is L_{d,n}(-1) in its HNF basis
                block = orthogonal_complement(member.embedding)
                assert block.basis == ((1, -member.d, 0, -member.n), (0, 0, 1, 0))
                assert block.induced_gram == rescale(member.lattice, -1).gram
                data = complement_genus_data(member, ambient)
                signature, module = _complement_in_the_ambient(member, ambient)
                assert data.signature == signature
                assert data.rank == signature.rank == AMBIENTS[ambient].rank - 2
                assert data.module.factors == module.factors
                assert data.module.q == module.q
                assert data.module.b == module.b
                checked += 1
        assert checked == 348

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["family", "--count", "3", "--degree", "2", "--json"],
                "3f3bd043b1549d6070ac203ee1360a65a7578f233e5c21d6d32093acc4a94225",
            ),
            (
                ["family", "--count", "3", "--degree", "2", "--ambient", "abelian", "--json"],
                "1e2561de45ff533a41bb971a3e14bc185e06f483dc70532dd42b58453efe1295",
            ),
            (
                ["family", "--count", "8", "--degree", "2"],
                "2f620de6a643a45e38c4e6da3fed7a5d60e3962eb9d800b6d68e3eb2d5abdcc8",
            ),
        ],
        ids=["count3-k3-json", "count3-abelian-json", "count8-text"],
    )
    def test_family_stdout_pinned(self, argv, digest):
        # digests of the stdout computed through the full-ambient complements
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out, err) == 0
        assert err.getvalue() == ""
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    def test_kernels_see_no_matrix_above_4x4(self, monkeypatch):
        # the ambient signatures are per-process constants: the tail
        # signature reads them once, so warm them before watching
        for lattice in (*AMBIENTS.values(), UU):
            assert lattice.signature
        shapes = {"snf": [], "signature": []}

        def watch(kind, fn):
            def wrapper(m, *args, **kwargs):
                shapes[kind].append((len(m), max((len(row) for row in m), default=0)))
                return fn(m, *args, **kwargs)

            return wrapper

        snf = watch("snf", intmat.smith_normal_form)
        monkeypatch.setattr(intmat, "smith_normal_form", snf)
        monkeypatch.setattr(discriminant, "smith_normal_form", snf)
        monkeypatch.setattr(family, "smith_normal_form", snf)
        monkeypatch.setattr(
            lattices, "_signature_of_gram", watch("signature", lattices._signature_of_gram)
        )
        bundle = build_family(3, 1, "k3")
        assert len(bundle.attestations) == 3
        for kind, seen in shapes.items():
            assert seen, kind
            assert max(max(shape) for shape in seen) <= 4, (kind, seen)
