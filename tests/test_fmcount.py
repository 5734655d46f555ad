import random
from fractions import Fraction
from math import gcd

import pytest

from latfm import fmcount
from latfm.arith import least_prime_above
from latfm.discriminant import (
    LatticeDiscriminant,
    ModuleIsometry,
    compose_matrices,
    cyclic_module,
    discriminant_module,
    orthogonal_group_of_module,
)
from latfm.errors import LatfmError, OddLatticeError, RankUnsupportedError
from latfm.fmcount import (
    distinct_prime_count,
    fm_count_genus_sum,
    fm_count_rho1,
    fm_count_rho1_via_cosets,
    pm_id_subgroup,
    prime_power_blocks,
    unitary_divisors,
)
from latfm.lattices import Lattice, U, direct_sum, make_lattice
from latfm.oracle import closure, enumerate_self_isometries, units_with_square_one

# bool is an int subclass that the number theory refuses, as Frozen fields do
NON_INTS = [True, False, 6.0, Fraction(6), "6", None]


class TestPrimeHelpers:
    @pytest.mark.parametrize(
        "d,expected",
        [(1, 1), (2, 1), (6, 2), (8, 1), (15, 2), (30, 3), (210, 4), (210 * 11, 5)],
    )
    def test_distinct_prime_count(self, d, expected):
        assert distinct_prime_count(d) == expected

    @pytest.mark.parametrize(
        "d,blocks",
        [(1, ()), (8, (8,)), (12, (3, 4)), (15, (3, 5)), (360, (5, 8, 9))],
    )
    def test_blocks(self, d, blocks):
        assert prime_power_blocks(d) == blocks

    def test_unitary_divisors_against_the_definition(self):
        for d in range(1, 2001):
            expected = tuple(r for r in range(1, d + 1) if d % r == 0 and gcd(r, d // r) == 1)
            assert unitary_divisors(d) == expected, d

    @pytest.mark.parametrize("d", NON_INTS)
    def test_distinct_prime_count_refuses_a_non_int(self, d):
        with pytest.raises(LatfmError, match="d must be an integer"):
            distinct_prime_count(d)

    @pytest.mark.parametrize("d", NON_INTS)
    def test_the_callers_pass_the_refusal_on(self, d):
        for fn in (fm_count_rho1, prime_power_blocks, unitary_divisors):
            with pytest.raises(LatfmError, match="must be an integer"):
                fn(d)

    def test_least_prime_above(self):
        assert least_prime_above(1) == 2
        assert least_prime_above(16) == 17
        assert least_prime_above(81) == 83
        assert least_prime_above(83) == 89


class TestClosedForm:
    @pytest.mark.parametrize("d,count", [(1, 1), (2, 1), (15, 2), (30, 4), (210, 8)])
    def test_values(self, d, count):
        assert fm_count_rho1(d) == count

    def test_fresh_prime_doubles(self):
        for d, q in ((6, 5), (10, 7), (4, 3), (1, 2)):
            assert d % q != 0
            if d == 1:
                # p(1) = 1 = p(q): multiplying by one fresh prime keeps count 1
                assert fm_count_rho1(d * q) == fm_count_rho1(d)
            else:
                assert fm_count_rho1(d * q) == 2 * fm_count_rho1(d)

    def test_counts_at_least_one(self):
        assert all(fm_count_rho1(d) >= 1 for d in range(1, 100))


class TestCosetRoute:
    @pytest.mark.parametrize("d,count", [(1, 1), (6, 2), (30, 4)])
    def test_values(self, d, count):
        assert fm_count_rho1_via_cosets(d) == count

    def test_matches_closed_form(self):
        for d in range(1, 60):
            assert fm_count_rho1_via_cosets(d) == fm_count_rho1(d)

    @pytest.mark.parametrize("d", [0, -1, -6])
    def test_nonpositive_d_is_an_error(self, d):
        with pytest.raises(LatfmError, match="d must be positive"):
            fm_count_rho1_via_cosets(d)

    @pytest.mark.parametrize("d", NON_INTS)
    def test_a_non_int_is_refused_before_the_memo(self, d):
        before = fmcount._rank1_term.cache_info()
        with pytest.raises(LatfmError, match="d must be an integer"):
            fm_count_rho1_via_cosets(d)
        assert fmcount._rank1_term.cache_info() == before

    def test_unit_route_matches_module_search(self):
        # the units realize exactly the orthogonal group found by search
        for d in (2, 6, 12, 30):
            module = discriminant_module(make_lattice([[2 * d]]))
            searched = {g[0][0] for g in orthogonal_group_of_module(module)}
            assert searched == set(units_with_square_one(2 * d))


class TestGenusSum:
    def test_rank_one_genus(self):
        for d in (1, 6, 15, 30):
            members = [make_lattice([[2 * d]])]
            assert fm_count_genus_sum(members) == fm_count_rho1(d)

    def test_unimodular_member(self):
        assert fm_count_genus_sum([U]) == 1

    def test_rank_two_member(self):
        # O(L_{1,3}) surjects onto O(A) = {+-id}, so one double coset remains
        member = make_lattice([[2, 3], [3, 0]])
        assert fm_count_genus_sum([member]) == 1

    def test_rank_three_unsupported(self):
        member = direct_sum(U, make_lattice([[2]]))
        with pytest.raises(RankUnsupportedError):
            fm_count_genus_sum([member])

    def test_multi_member_sum(self):
        members = [make_lattice([[12]]), make_lattice([[12]])]
        assert fm_count_genus_sum(members) == 2 * fm_count_rho1(6)

    def test_members_are_not_rebuilt(self, monkeypatch):
        # the two [[60]] members share one _rank1_term slot, keyed on d = 30,
        # and the two rank-2 members miss _member_term, which takes the
        # caller's Lattice: no Lattice is built, so no Gram matrix is checked
        # twice
        members = [make_lattice(g) for g in ([[60]], [[60]], [[2, 1], [1, 4]],
                                             [[2, 5], [5, 0]])]
        built = []
        original = Lattice.__init__

        def counted(self, gram):
            built.append(gram)
            original(self, gram)

        monkeypatch.setattr(Lattice, "__init__", counted)
        assert fm_count_genus_sum(members) == 2 * fm_count_rho1(30) + 2
        assert built == []
        info = fmcount._rank1_term.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        info = fmcount._member_term.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_automorph_beyond_the_default_bound(self):
        # 15^2 - 14 * 4^2 = 1 gives the automorph [[15, 56], [4, 15]], whose
        # entry 56 lies outside the default bound 50; with it in the image
        # of O(S) the exact term is 1, and the bounded image gives 2
        assert fm_count_genus_sum([make_lattice([[2, 0], [0, -28]])]) == 1


class TestRank1Term:
    """_rank1_term(d), built on the closed-form module of <2d>, against the
    generic _member_term of [[2d]] and the units with square one."""

    def test_matches_the_generic_term_and_the_units(self):
        for d in [*range(1, 2001), 510510]:
            term = fmcount._rank1_term(d)
            assert term == fmcount._member_term(make_lattice([[2 * d]])), d
            side = {1, 2 * d - 1}  # {+-1}, one element for d = 1
            assert term == len(units_with_square_one(2 * d)) // len(side), d

    def test_the_module_is_the_discriminant_of_2d(self):
        for d in (1, 2, 6, 8, 30, 510510):
            module = LatticeDiscriminant(make_lattice([[2 * d]])).module
            assert cyclic_module(2 * d, 1, generator=(1,)) == module, d

    def test_both_signs_share_one_slot(self):
        for d in (1, 6, 30, 2 * 23 * 29):
            assert fm_count_genus_sum([make_lattice([[-2 * d]])]) == \
                fm_count_genus_sum([make_lattice([[2 * d]])]) == fm_count_rho1(d)
        info = fmcount._rank1_term.cache_info()
        assert (info.hits, info.misses) == (4, 4)
        assert fmcount._member_term.cache_info().currsize == 0

    @pytest.mark.parametrize("gram", [[[1]], [[-1]]])
    def test_unimodular_members_keep_the_generic_path(self, gram):
        assert fm_count_genus_sum([make_lattice(gram)]) == 1
        assert fmcount._member_term.cache_info().currsize == 1
        assert fmcount._rank1_term.cache_info().currsize == 0

    @pytest.mark.parametrize("c", [3, -5, 7, 2 * 510510 + 1])
    def test_odd_members_keep_their_error(self, c):
        with pytest.raises(OddLatticeError, match="q is undefined"):
            fm_count_genus_sum([make_lattice([[c]])])
        assert fmcount._rank1_term.cache_info().currsize == 0

    @pytest.mark.parametrize("d", [6.0, 2.5, Fraction(6), "6"])
    def test_a_non_int_degree_is_an_error(self, d):
        # even with the slot of 6 warm: 6.0 and Fraction(6) hash like 6
        assert fm_count_rho1_via_cosets(6) == 2
        with pytest.raises(LatfmError):
            fm_count_rho1_via_cosets(d)


class TestPmIdSubgroup:
    def test_nontrivial_module(self):
        module = discriminant_module(make_lattice([[12]]))
        side = pm_id_subgroup(module)
        assert len(side) == 2

    def test_two_torsion_collapse(self):
        module = discriminant_module(make_lattice([[2]]))
        assert len(pm_id_subgroup(module)) == 1

    def test_trivial_module(self):
        module = discriminant_module(U)
        assert len(pm_id_subgroup(module)) == 1


def mulclose(isos):
    """Closure under composition by composing every pair in both orders:
    the genus sum's closure before it went through generators."""
    seen = {iso.matrix: iso for iso in isos}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen.values()):
                for outer, inner in ((a, b), (b, a)):
                    c = ModuleIsometry(inner.source, outer.target, compose_matrices(
                        outer.matrix, inner.matrix, outer.target.factors))
                    if c.matrix not in seen:
                        seen[c.matrix] = c
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda iso: iso.matrix))


def test_closure_through_generators_matches_mulclose():
    rng = random.Random(23)
    grams = [[[2 * d]] for d in (1, 6, 30, 210, 2310)] + [
        [[2, 0], [0, 2]], [[4, 0], [0, 4]], [[2, 0], [0, 4]], [[2, 1], [1, 2]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 6]],
    ]
    for gram in grams:
        module = discriminant_module(make_lattice(gram))
        group = orthogonal_group_of_module(module)
        for _ in range(12):
            gens = rng.sample(group, rng.randint(1, min(3, len(group))))
            expected = [iso.matrix for iso in
                        mulclose([ModuleIsometry(module, module, g) for g in gens])]
            reached = closure(gens, module.factors)
            assert len(reached) == len(set(reached))
            assert sorted(reached) == expected, (gram, gens)
        # endomorphisms too, where their monoid is small enough for mulclose:
        # entry (i, j) a multiple of f_i / gcd(f_i, f_j)
        factors = module.factors
        for _ in range(12 if module.order <= 8 else 0):
            gens = [
                ModuleIsometry(module, module, tuple(
                    tuple(rng.randrange(0, f, f // gcd(f, g)) for g in factors)
                    for f in factors
                ))
                for _ in range(rng.randint(1, 3))
            ]
            expected = [iso.matrix for iso in mulclose(gens)]
            reached = closure([iso.matrix for iso in gens], factors)
            assert sorted(reached) == expected, (gram, [g.matrix for g in gens])


def enumerated_image_term(gram):
    """A member's term with O(S) from the bounded enumeration for every
    rank-2 member, and the double cosets counted as the distinct sets
    {l x r}, without the union-find of double_coset_count."""
    member = make_lattice(gram)
    disc = LatticeDiscriminant(member)
    module = disc.module
    full = orthogonal_group_of_module(module)
    side = pm_id_subgroup(module)
    if member.rank == 1:
        image = side
    else:
        actions = [disc.isometry_action(w.matrix)
                   for w in enumerate_self_isometries(member)]
        image = closure(actions, module.factors)
    factors = module.factors
    return len({
        frozenset(compose_matrices(compose_matrices(lm, x, factors), r, factors)
                  for lm in image for r in side)
        for x in full
    })


class TestMemberTermOnResidues:
    """_member_term against the orbit sets of enumerated_image_term: every
    <2d> with d <= 3000 (both signs), the rank-2 pools of the oracle
    benchmark, and L_{d,n} for n <= 12, 1 <= |d| <= 12."""

    def test_rank_one(self):
        for d in range(1, 3001):
            for sign in (1, -1):
                gram = ((sign * 2 * d,),)
                assert fmcount._member_term(make_lattice(gram)) == \
                    enumerated_image_term(gram), gram

    def test_rank_two(self):
        grams = [((2, 1), (1, 2)), ((2, 0), (0, 2)), ((4, 0), (0, 4)), ((2, 0), (0, 4)),
                 ((0, 1), (1, 0)), ((2, 1), (1, 4)), ((2, 0), (0, 6))]
        grams += [((2 * d, n), (n, 0)) for n in range(1, 13) for d in range(-12, 13)
                  if d and gcd(2 * d, n) == 1]
        for gram in grams:
            assert fmcount._member_term(make_lattice(gram)) == \
                enumerated_image_term(gram), gram

    @pytest.mark.parametrize("gram", [((3,),), ((-5,),), ((1, 0), (0, -4)),
                                      ((1, 2), (2, 0)), ((2, 1), (1, 3)), ((1,),)])
    def test_odd_members(self, gram):
        # q is undefined on an odd module: both paths raise the same error,
        # except on a trivial module, where both count one coset
        def outcome(fn, *args):
            try:
                return fn(*args)
            except LatfmError as exc:
                return type(exc), str(exc)

        assert outcome(fmcount._member_term, make_lattice(gram)) == \
            outcome(enumerated_image_term, gram)

    def test_cyclic_members_build_no_module_isometry(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ModuleIsometry was built")

        monkeypatch.setattr(ModuleIsometry, "__init__", refuse)
        assert fm_count_genus_sum([make_lattice([[2 * 510510]])]) == 64
        assert fm_count_genus_sum([make_lattice([[2 * 23 * 29]])]) == 2
        # non-cyclic modules and a non-square discriminant count on matrices too
        for gram in ([[2, 0], [0, 2]], [[2, 0], [0, 6]], [[2, 1], [1, 4]]):
            assert fm_count_genus_sum([make_lattice(gram)]) == 1, gram

    @pytest.mark.parametrize("gram", [[[68, 15], [15, 0]], [[-68, 15], [15, 0]],
                                      [[68, 21], [21, 0]], [[-68, 21], [21, 0]]])
    def test_automorph_outside_the_default_box(self, gram):
        # O(S) holds an automorph with an entry of 55 or 77, which the bounded
        # enumeration at entries <= 50 misses; it maps onto -1 on A, so the
        # exact term is 1 where the bounded image gave 2
        assert fm_count_genus_sum([make_lattice(gram)]) == 1
        assert enumerated_image_term(tuple(map(tuple, gram))) == 2
