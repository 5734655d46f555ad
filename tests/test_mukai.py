import hashlib
import json
from math import gcd

import pytest

from latfm.errors import LatfmError, NotIsotropicError, NotPrimitiveError
from latfm.fmcount import fm_count_rho1
from latfm.lattices import K3, Signature, SublatticeEmbedding, orthogonal_complement
from latfm.mukai import (
    MUKAI,
    MukaiVector,
    class_representatives,
    distinct_classes,
    embed_polarized,
    enumerate_mukai_vectors,
    moduli_lattice_shadow,
    mukai_pairing,
    swap_distinctness_check,
)


class TestMukaiLattice:
    def test_invariants(self):
        assert MUKAI.rank == 24
        assert MUKAI.det == 1
        assert MUKAI.is_even
        assert MUKAI.signature == Signature(4, 20)

    def test_rs_block(self):
        assert MUKAI.gram[0][23] == -1
        assert MUKAI.gram[23][0] == -1
        assert MUKAI.gram[0][0] == 0
        assert MUKAI.gram[23][23] == 0

    def test_middle_block_is_k3(self):
        middle = tuple(row[1:23] for row in MUKAI.gram[1:23])
        assert middle == K3.gram

    def test_pairing_examples(self):
        one_one = (1,) + (0,) * 22 + (1,)
        assert mukai_pairing(one_one, one_one) == -2
        for d in (1, 3):
            emb = embed_polarized(d)
            h24 = (0,) + emb.h + (0,)
            assert mukai_pairing(h24, h24) == 2 * d

    def test_pairing_length_check(self):
        with pytest.raises(LatfmError):
            mukai_pairing((1, 0), (0, 1))


class TestEnumeration:
    def test_d15(self):
        vectors = enumerate_mukai_vectors(15)
        assert [(v.r, v.s) for v in vectors] == [(1, 15), (3, 5), (5, 3), (15, 1)]

    def test_d1(self):
        vectors = enumerate_mukai_vectors(1)
        assert [(v.r, v.s) for v in vectors] == [(1, 1)]

    @pytest.mark.parametrize("d", [8, 49])
    def test_prime_power(self, d):
        vectors = enumerate_mukai_vectors(d)
        assert [(v.r, v.s) for v in vectors] == [(1, d), (d, 1)]

    def test_isotropic_and_primitive(self):
        for d in range(1, 120):
            for v in enumerate_mukai_vectors(d):
                assert v.is_isotropic
                assert gcd(v.r, v.s) == 1
                assert v.h_mult == 1

    def test_primitivity_enforced(self):
        with pytest.raises(NotPrimitiveError):
            MukaiVector(2, 2, 2, 2)


class TestClasses:
    def test_d15_classes(self):
        vectors = enumerate_mukai_vectors(15)
        assert class_representatives(vectors) == ((1, 15), (3, 5))
        classes = distinct_classes(vectors)
        assert len(classes) == 2
        assert [(v.r, v.s) for v in classes[0]] == [(1, 15), (15, 1)]

    @pytest.mark.parametrize("d,count", [(1, 1), (8, 1), (15, 2), (30, 4), (210, 8)])
    def test_counts(self, d, count):
        assert len(class_representatives(enumerate_mukai_vectors(d))) == count

    def test_count_matches_fm_count(self):
        for d in range(1, 120):
            reps = class_representatives(enumerate_mukai_vectors(d))
            assert len(reps) == fm_count_rho1(d)
            assert all(r <= s for r, s in reps)

    def test_swap_distinctness(self):
        v35 = MukaiVector(3, 1, 5, 15)
        v53 = MukaiVector(5, 1, 3, 15)
        v115 = MukaiVector(1, 1, 15, 15)
        assert not swap_distinctness_check(v35, v53)
        assert swap_distinctness_check(v115, v35)
        assert not swap_distinctness_check(v35, v35)


class TestPolarizedEmbedding:
    def test_h_square(self):
        for d in (1, 2, 7):
            emb = embed_polarized(d)
            assert K3.square(emb.h) == 2 * d

    def test_h_primitive(self):
        from latfm.lattices import is_primitive

        for d in (1, 4, 12):
            assert is_primitive(embed_polarized(d).h_sublattice())

    def test_transcendental_shadow(self):
        for d in (1, 3):
            shadow = embed_polarized(d).transcendental_shadow()
            assert shadow.rank == 21
            assert shadow.lattice().signature == Signature(2, 19)

    def test_embedding_is_isotropic_exactly_for_mukai_vectors(self):
        emb = embed_polarized(6)
        for v in enumerate_mukai_vectors(6):
            v24 = emb.embed(v)
            assert mukai_pairing(v24, v24) == 0
            assert sum(x != 0 for x in v24) >= 2


class TestModuliShadow:
    def test_quotient_invariants(self):
        for d in (1, 4, 6):
            for v in enumerate_mukai_vectors(d):
                shadow = moduli_lattice_shadow(v)
                q = shadow.quotient
                assert q.rank == 22
                assert abs(q.det) == 1
                assert q.is_even
                assert q.signature == Signature(3, 19)
                assert q.square(shadow.ns_generator) == 2 * d

    def test_transcendental_matches_h_complement(self):
        for d in (2, 6):
            emb = embed_polarized(d)
            h_shadow = emb.transcendental_shadow()
            for v in enumerate_mukai_vectors(d):
                shadow = moduli_lattice_shadow(v)
                assert shadow.transcendental.rank == 21
                assert shadow.transcendental.induced_gram == h_shadow.induced_gram

    def test_h_complement_is_computed_once_per_degree(self):
        from latfm.mukai import _h_complement

        _h_complement.cache_clear()
        vectors = enumerate_mukai_vectors(30)
        for v in vectors:
            moduli_lattice_shadow(v)
        info = _h_complement.cache_info()
        assert (info.misses, info.hits) == (1, len(vectors) - 1)

    def test_transcendental_equals_ns_perp(self):
        # verified inside the operation; re-derive here for one case
        from latfm.intmat import hermite_normal_form

        v = enumerate_mukai_vectors(6)[1]
        shadow = moduli_lattice_shadow(v)
        perp = orthogonal_complement(
            SublatticeEmbedding(shadow.quotient, (shadow.ns_generator,))
        )
        assert hermite_normal_form(shadow.transcendental.basis) == perp.basis

    @pytest.mark.parametrize(
        "r,s,d,digest",
        [
            (2, 3, 6, "5298fcbcef3fabc1cad1d6194644eed875ad379ab7096cab80d28f13f5e5c1e4"),
            (30, 1001, 30030,
             "71bb351aa5bfe72369eebedcfcebd359064f2c2c044194d58746b024e5632c94"),
        ],
    )
    def test_bases_are_pinned(self, r, s, d, digest):
        # the invariants above would also hold for a different basis; the
        # printed shadows must not change
        shadow = moduli_lattice_shadow(MukaiVector(r, 1, s, d))
        payload = json.dumps(
            [shadow.quotient.gram, shadow.ns_generator, shadow.transcendental.basis]
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_not_isotropic(self):
        with pytest.raises(NotIsotropicError):
            moduli_lattice_shadow(MukaiVector(0, 1, 0, 1))  # (0, h, 0), square 2

    def test_completion_strategy_invariance(self):
        from latfm.intmat import complete_primitive_vector_gcd
        from latfm.lattices import (
            SublatticeEmbedding as Emb,
            isotropic_quotient,
            orthogonal_complement as perp,
        )
        from latfm.mukai import MUKAI

        emb = embed_polarized(6)
        v24 = emb.embed(enumerate_mukai_vectors(6)[1])  # (2, h, 3)
        vperp = perp(Emb(MUKAI, (v24,)))
        q1 = isotropic_quotient(vperp, v24).lattice
        q2 = isotropic_quotient(
            vperp, v24, completion=complete_primitive_vector_gcd
        ).lattice
        assert (q1.det, q1.is_even, q1.signature) == (q2.det, q2.is_even, q2.signature)

    def test_congruence_of_pairings(self):
        # every class (a, b, c) in v-perp pairs with (0, h, 2s) like -b.h mod r
        for d in (6, 10):
            emb = embed_polarized(d)
            for v in enumerate_mukai_vectors(d):
                if v.r == 1:
                    continue
                v24 = emb.embed(v)
                perp = orthogonal_complement(SublatticeEmbedding(MUKAI, (v24,)))
                ns24 = (0,) + emb.h + (2 * v.s,)
                for vec in perp.basis:
                    b_middle = vec[1:23]
                    bh = K3.dot(b_middle, emb.h)
                    assert (mukai_pairing(vec, ns24) + bh) % v.r == 0
