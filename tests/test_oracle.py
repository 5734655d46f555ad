from math import gcd

import pytest

from latfm.discriminant import (
    discriminant_module,
    identity_isometry,
    negation_isometry,
    orthogonal_group_of_module,
)
from latfm.errors import BudgetExhaustedError, LatfmError, NotSubgroupError
from latfm.intmat import identity
from latfm.lattices import make_lattice
from latfm.oracle import (
    SearchBudget,
    double_coset_count,
    enumerate_self_isometries,
    find_isometry_bounded,
    units_with_square_one,
)

SMALL = SearchBudget(entry_bound=12, node_limit=1_000_000)


def family_lattice(d, n):
    return make_lattice([[2 * d, n], [n, 0]])


class TestFindIsometry:
    def test_identity_fast_path(self):
        lat = family_lattice(1, 3)
        witness = find_isometry_bounded(lat, lat)
        assert witness.matrix == identity(2)
        assert witness.holds()

    def test_congruent_pair_has_witness(self):
        # d2 = d1 mod n: condition (a.2) holds and a witness exists
        witness = find_isometry_bounded(family_lattice(1, 5), family_lattice(6, 5))
        assert witness is not None
        assert witness.holds()

    def test_reciprocal_pair_has_witness(self):
        # d1 d2 = 1 mod n: condition (b.2)
        witness = find_isometry_bounded(family_lattice(2, 5), family_lattice(3, 5))
        assert witness is not None
        assert witness.holds()

    def test_determinant_screen(self):
        assert find_isometry_bounded(make_lattice([[2]]), make_lattice([[4]])) is None

    def test_parity_screen(self):
        assert (
            find_isometry_bounded(make_lattice([[1, 0], [0, -4]]),
                                  make_lattice([[2, 1], [1, -2]]))
            is None
        )

    def test_signature_screen(self):
        assert (
            find_isometry_bounded(make_lattice([[2, 0], [0, 2]]),
                                  make_lattice([[-2, 0], [0, -2]]))
            is None
        )

    def test_rank_mismatch(self):
        with pytest.raises(LatfmError):
            find_isometry_bounded(make_lattice([[2]]), family_lattice(1, 3))

    def test_budget_exhausted_on_certified_pair(self):
        # 4 != 1 and 4*1 != 1 mod 17, so no isometry exists; the bounded
        # search cannot know that and must report exhaustion
        with pytest.raises(BudgetExhaustedError):
            find_isometry_bounded(family_lattice(1, 17), family_lattice(4, 17), SMALL)

    def test_node_limit(self):
        tiny = SearchBudget(entry_bound=50, node_limit=10)
        with pytest.raises(BudgetExhaustedError):
            find_isometry_bounded(family_lattice(1, 5), family_lattice(6, 5), tiny)

    def test_exhaustion_carries_the_search_state(self):
        tiny = SearchBudget(entry_bound=50, node_limit=10)
        with pytest.raises(BudgetExhaustedError) as info:
            find_isometry_bounded(family_lattice(1, 5), family_lattice(6, 5), tiny)
        exc = info.value
        assert str(exc) == "node limit 10 reached without a decision"
        assert (exc.nodes, exc.entry_bound, exc.node_limit) == (11, 50, 10)

        small = SearchBudget(entry_bound=2, node_limit=1000)
        with pytest.raises(BudgetExhaustedError) as info:
            find_isometry_bounded(family_lattice(1, 17), family_lattice(4, 17), small)
        exc = info.value
        assert str(exc) == (
            "no isometry with entries bounded by 2; "
            "absence within the budget does not prove non-isometry"
        )
        # the 5^2 vectors of the box, then 10 candidate images
        assert (exc.nodes, exc.entry_bound, exc.node_limit) == (35, 2, 1000)

    def test_determinism(self):
        w1 = find_isometry_bounded(family_lattice(1, 5), family_lattice(6, 5))
        w2 = find_isometry_bounded(family_lattice(1, 5), family_lattice(6, 5))
        assert w1.matrix == w2.matrix


class TestSelfIsometries:
    def test_family_lattice_group(self):
        lat = family_lattice(1, 3)
        group = enumerate_self_isometries(lat, SMALL)
        matrices = {w.matrix for w in group}
        assert identity(2) in matrices
        assert tuple(tuple(-x for x in row) for row in identity(2)) in matrices
        assert ((1, 3), (0, -1)) in matrices
        assert len(matrices) == 4
        for w in group:
            assert w.holds()

    def test_hyperbolic_plane_group(self):
        group = enumerate_self_isometries(make_lattice([[0, 1], [1, 0]]), SMALL)
        assert len(group) == 4  # +-id, swap, -swap


class TestUnits:
    def test_small_values(self):
        assert units_with_square_one(2) == (1,)      # d = 1
        assert units_with_square_one(8) == (1, 7)    # d = 4
        assert units_with_square_one(12) == (1, 5, 7, 11)  # d = 6

    def test_counts_match_prime_signature(self):
        def p(d):
            count, q = 0, d
            for prime in range(2, d + 1):
                if prime * prime > q:
                    break
                if q % prime == 0:
                    count += 1
                    while q % prime == 0:
                        q //= prime
            if q > 1:
                count += 1
            return count

        for d in range(2, 201):
            assert len(units_with_square_one(2 * d)) == 2 ** p(d)

    def test_rejects_odd_modulus(self):
        with pytest.raises(LatfmError):
            units_with_square_one(9)


class TestDoubleCosets:
    def test_pm_id_on_order_four_group(self):
        module = discriminant_module(make_lattice([[12]]))
        full = orthogonal_group_of_module(module)
        assert len(full) == 4
        side = (identity_isometry(module), negation_isometry(module))
        assert double_coset_count(side, full, side) == 2

    def test_trivial_full_group(self):
        module = discriminant_module(make_lattice([[2]]))
        full = orthogonal_group_of_module(module)
        assert double_coset_count(full, full, full) == 1

    def test_left_right_full(self):
        module = discriminant_module(make_lattice([[12]]))
        full = orthogonal_group_of_module(module)
        assert double_coset_count(full, full, full) == 1

    def test_not_subgroup(self):
        module = discriminant_module(make_lattice([[12]]))
        full = orthogonal_group_of_module(module)
        not_closed = tuple(
            iso for iso in full if iso.matrix != identity_isometry(module).matrix
        )[:1]
        # a single non-identity element is not closed under composition
        with pytest.raises(NotSubgroupError):
            double_coset_count(not_closed, full, (identity_isometry(module),))

    def test_element_outside_group(self):
        m12 = discriminant_module(make_lattice([[12]]))
        m4 = discriminant_module(make_lattice([[4]]))
        with pytest.raises(LatfmError):
            double_coset_count(
                (identity_isometry(m4),),
                orthogonal_group_of_module(m12),
                (identity_isometry(m12),),
            )


class TestNecessityGrid:
    def test_oracle_never_contradicts_congruences(self):
        budget = SearchBudget(entry_bound=25, node_limit=2_000_000)
        for n in (3, 5, 7):
            for d1 in range(1, 5):
                for d2 in range(d1, 5):
                    if gcd(2 * d1, n) != 1 or gcd(2 * d2, n) != 1:
                        continue
                    try:
                        witness = find_isometry_bounded(
                            family_lattice(d1, n), family_lattice(d2, n), budget
                        )
                    except BudgetExhaustedError:
                        witness = None
                    if witness is not None:
                        assert witness.holds()
                        a2 = (d1 - d2) % n == 0
                        b2 = (d1 * d2 - 1) % n == 0
                        assert a2 or b2
