import itertools
import random
from math import gcd

import pytest

from latfm import binary, fmcount, oracle
from latfm.arith import unit_square_roots
from latfm.discriminant import (
    ModuleIsometry,
    compose_matrices,
    discriminant_module,
    identity_isometry,
    negation_isometry,
    orthogonal_group_of_module,
)
from latfm.errors import (
    BudgetExhaustedError,
    DegenerateError,
    LatfmError,
    NotSubgroupError,
    RankUnsupportedError,
)
from latfm.fmcount import fm_count_genus_sum, pm_id_subgroup
from latfm.intmat import identity, mat_vec
from latfm.lattices import make_lattice
from latfm.oracle import (
    DEFAULT_BUDGET,
    SearchBudget,
    double_coset_count,
    enumerate_self_isometries,
    find_isometry_bounded,
    units_with_square_one,
)

SMALL = SearchBudget(entry_bound=12, node_limit=1_000_000)


def family_lattice(d, n):
    return make_lattice([[2 * d, n], [n, 0]])


def rank1_orthogonal_group(d):
    """The module of <2d> and O(A) from the units a mod 2d with a^2 = 1 mod 4d."""
    module = discriminant_module(make_lattice([[2 * d]]))
    units = unit_square_roots(1, 1, 2 * d, 4 * d)
    return module, tuple(ModuleIsometry(module, module, ((a,),)) for a in units)


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
        side = pm_id_subgroup(module)
        assert double_coset_count(side, full, side, module.factors) == 2

    def test_trivial_full_group(self):
        module = discriminant_module(make_lattice([[2]]))
        full = orthogonal_group_of_module(module)
        assert double_coset_count(full, full, full, module.factors) == 1

    def test_left_right_full(self):
        module = discriminant_module(make_lattice([[12]]))
        full = orthogonal_group_of_module(module)
        assert double_coset_count(full, full, full, module.factors) == 1

    def test_not_subgroup(self):
        module = discriminant_module(make_lattice([[12]]))
        full = orthogonal_group_of_module(module)
        ident = identity_isometry(module).matrix
        not_closed = tuple(mat for mat in full if mat != ident)[:1]
        # a single non-identity element is not closed under composition
        with pytest.raises(NotSubgroupError):
            double_coset_count(not_closed, full, (ident,), module.factors)

    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_empty_side_is_not_a_subgroup(self, empty_side):
        # closure holds vacuously on an empty set, which has no identity
        module = discriminant_module(make_lattice([[60]]))
        full = orthogonal_group_of_module(module)
        assert len(full) == 8
        side = pm_id_subgroup(module)
        left, right = ((), side) if empty_side == "left" else (side, ())
        with pytest.raises(NotSubgroupError, match="empty"):
            double_coset_count(left, full, right, module.factors)

    def test_element_outside_group(self):
        # x -> 2x on Z/12 is an endomorphism, not an automorphism
        m12 = discriminant_module(make_lattice([[12]]))
        with pytest.raises(NotSubgroupError, match="does not belong"):
            double_coset_count(
                (((2,),),),
                orthogonal_group_of_module(m12),
                (identity_isometry(m12).matrix,),
                m12.factors,
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


# ----------------------------------------------------------------------------
# The box scan and the all-pairs closure check that the oracle used before it
# solved for the last coordinate and checked closure through generators; they
# stay here as the test oracles of the faster code.


def box_scan_buckets(lattice, bound, needed, nodes):
    """One node and one mat-vec per vector of the box, zero vector included;
    each bucket holds the pairs (v, G v), as the oracle's buckets do."""
    buckets = {norm: [] for norm in needed}
    for vec in itertools.product(range(-bound, bound + 1), repeat=lattice.rank):
        nodes.tick()
        if not any(vec):
            continue
        gv = mat_vec(lattice.gram, vec)
        norm = sum(a * b for a, b in zip(vec, gv))
        if norm in buckets:
            buckets[norm].append((vec, gv))
    return {norm: tuple(bucket) for norm, bucket in buckets.items()}


def all_pairs_double_coset_count(left, full, right):
    full, left, right = list(full), list(left), list(right)
    if not full:
        raise LatfmError("full group is empty")
    if not left or not right:
        raise NotSubgroupError("factor is empty")
    module = full[0].source
    for iso in itertools.chain(full, left, right):
        if iso.source != module or iso.target != module:
            raise LatfmError("double cosets need automorphisms of one module")
    full_index = {iso.matrix: i for i, iso in enumerate(full)}
    if len(full_index) != len(full):
        raise LatfmError("full group contains duplicates")
    factors = module.factors
    for a in full:
        for b in full:
            if compose_matrices(a.matrix, b.matrix, factors) not in full_index:
                raise NotSubgroupError("full set is not closed under composition")

    def as_group(isos):
        indices = []
        for iso in isos:
            idx = full_index.get(iso.matrix)
            if idx is None:
                raise NotSubgroupError("element does not belong to the full group")
            indices.append(idx)
        return set(indices)

    left_idx, right_idx = as_group(left), as_group(right)
    for group, idx_set in ((left, left_idx), (right, right_idx)):
        for a in group:
            for b in group:
                if full_index[compose_matrices(a.matrix, b.matrix, factors)] not in idx_set:
                    raise NotSubgroupError("factor is not closed under composition")
    parent = list(range(len(full)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, x in enumerate(full):
        for li in left_idx:
            lx = compose_matrices(full[li].matrix, x.matrix, factors)
            for ri in right_idx:
                y = find(full_index[compose_matrices(lx, full[ri].matrix, factors)])
                if find(i) != y:
                    parent[y] = find(i)
    return len({find(i) for i in range(len(full))})


def outcome(fn, *args):
    """The result, or the type, message and node count of the error."""
    try:
        return ("ok", fn(*args))
    except LatfmError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "nodes", None))


def bucket_outcome(scan, lattice, bound, needed, node_limit):
    nodes = oracle._NodeCounter(SearchBudget(entry_bound=bound, node_limit=node_limit))
    result = outcome(scan, lattice, bound, needed, nodes)
    return result, nodes.count


def random_grams(rng, rank, count):
    fixed = {
        1: [[[1]], [[-2]], [[6]]],
        2: [[[0, 1], [1, 0]], [[0, 3], [3, 0]], [[2, 5], [5, 0]], [[0, 2], [2, -4]]],
        3: [
            [[0, 1, 0], [1, 0, 0], [0, 0, 2]],
            [[0, 0, 1], [0, 2, 0], [1, 0, 0]],
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            [[-2, 1, 0], [1, -2, 1], [0, 1, -4]],
        ],
    }[rank]
    grams = [make_lattice(g) for g in fixed]
    while len(grams) < count:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            # zero diagonals make the last-coordinate equation linear
            g[i][i] = rng.choice((0, 0, rng.randint(-6, 6)))
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        try:
            grams.append(make_lattice(g))
        except DegenerateError:
            continue
    return grams


class TestNormBucketsAgainstTheBoxScan:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_buckets_nodes_and_exhaustion(self, rank):
        rng = random.Random(5000 + rank)
        count = {1: 40, 2: 40, 3: 24}[rank]
        for lattice in random_grams(rng, rank, count):
            bound = rng.randint(1, 9)
            diagonal = [lattice.gram[i][i] for i in range(rank)]
            needed = set(diagonal) | {0, rng.randint(-30, 30)}
            box = (2 * bound + 1) ** rank
            for node_limit in sorted({5, max(box - 1, 1), box, 10**7}):
                old = bucket_outcome(
                    box_scan_buckets, lattice, bound, needed, node_limit
                )
                new = bucket_outcome(
                    oracle._norm_buckets, lattice, bound, needed, node_limit
                )
                assert new == old, (lattice.gram, bound, node_limit)

    def test_box_is_charged_up_front(self):
        nodes = oracle._NodeCounter(SearchBudget(entry_bound=50, node_limit=10**7))
        lattice = make_lattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        with pytest.raises(BudgetExhaustedError) as info:
            oracle._norm_buckets(lattice, 50, {0}, nodes)
        assert info.value.nodes == nodes.count == 10**7 + 1


class TestSearchesAgainstTheBoxScan:
    """Whole searches with the box scan patched back in: the same witnesses,
    the same self-isometry lists and the same exhaustion state."""

    PAIRS = [
        ([[2, 5], [5, 0]], [[12, 5], [5, 0]]),
        ([[4, 5], [5, 0]], [[6, 5], [5, 0]]),
        ([[2, 17], [17, 0]], [[8, 17], [17, 0]]),
        ([[0, 1], [1, 0]], [[0, 1], [1, 2]]),
        ([[2, 1], [1, 2]], [[2, -1], [-1, 2]]),
        ([[2, 1, 0], [1, 2, 1], [0, 1, 4]], [[2, 1, 1], [1, 2, 0], [1, 0, 4]]),
    ]
    BUDGETS = [(2, 1000), (3, 60), (4, 60), (6, 10**6), (9, 200)]

    def run_both(self, monkeypatch, fn, *args):
        new = outcome(fn, *args)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_norm_buckets", box_scan_buckets)
            old = outcome(fn, *args)
        return old, new

    def test_find_isometry(self, monkeypatch):
        for g1, g2 in self.PAIRS:
            for entry_bound, node_limit in self.BUDGETS:
                budget = SearchBudget(entry_bound=entry_bound, node_limit=node_limit)
                old, new = self.run_both(
                    monkeypatch, find_isometry_bounded,
                    make_lattice(g1), make_lattice(g2), budget,
                )
                if old[0] == "ok":
                    old = ("ok", old[1] and old[1].matrix)
                    new = ("ok", new[1] and new[1].matrix)
                assert new == old, (g1, g2, entry_bound, node_limit)

    def test_self_isometries(self, monkeypatch):
        for gram in {tuple(map(tuple, g)) for pair in self.PAIRS for g in pair}:
            for entry_bound, node_limit in self.BUDGETS:
                budget = SearchBudget(entry_bound=entry_bound, node_limit=node_limit)
                old, new = self.run_both(
                    monkeypatch, enumerate_self_isometries, make_lattice(gram), budget
                )
                if old[0] == "ok":
                    old = ("ok", [w.matrix for w in old[1]])
                    new = ("ok", [w.matrix for w in new[1]])
                assert new == old, (gram, entry_bound, node_limit)


class TestMemosColdAndWarm:
    """A genus sum gives the same result, or the same error, whether its
    memo is cold, warm or cleared again."""

    PAIRS = TestSearchesAgainstTheBoxScan.PAIRS

    @staticmethod
    def three_passes(clear, memo, fn, grid, normal):
        """Each grid point cold; then, with the memos filled across the whole
        grid, a first and a warm call, the warm one missing nothing after a
        stored result; then each point again after one cache_clear."""
        cold = []
        for args in grid:
            clear()
            cold.append(outcome(fn, *args))
        shared = []
        for args in grid:
            first = outcome(fn, *args)
            misses = memo.cache_info().misses
            warm = outcome(fn, *args)
            if first[0] == "ok":
                assert memo.cache_info().misses == misses, args
            shared.append((first, warm))
        clear()
        cleared = [outcome(fn, *args) for args in grid]
        seen = set()
        for args, c, (f, w), e in zip(grid, cold, shared, cleared):
            runs = [r if r[0] == "error" else ("ok", normal(r[1])) for r in (c, f, w, e)]
            assert runs[0] == runs[1] == runs[2] == runs[3], args
            seen.add("ok" if c[0] == "ok" else c[1])
        return seen

    def test_genus_sum(self, cold_memos):
        # no rank-2 search at the default budget reaches its node limit, so
        # a genus sum has no BudgetExhaustedError outcome
        assert binary._node_limit_out_of_reach(DEFAULT_BUDGET)
        grid = [([make_lattice(g1), make_lattice(g2)],) for g1, g2 in self.PAIRS]
        seen = self.three_passes(cold_memos, fmcount._member_term,
                                 fm_count_genus_sum, grid, lambda total: total)
        assert seen == {"ok", RankUnsupportedError}


def closure_outcomes(left, full, right):
    """The all-pairs count on ModuleIsometry automorphisms of one module,
    and double_coset_count on their generator matrices."""
    factors = full[0].source.factors
    return (
        outcome(all_pairs_double_coset_count, left, full, right),
        outcome(double_coset_count,
                *([iso.matrix for iso in group] for group in (left, full, right)),
                factors),
    )


@pytest.fixture
def units_only(monkeypatch):
    """Shut the matrix closure and union-find out of double_coset_count, so
    a cyclic module's count and every verdict come from its unit lane."""
    def refuse(*args, **kwargs):
        raise AssertionError("the cyclic lane left the units")

    monkeypatch.setattr(oracle, "closure", refuse)
    monkeypatch.setattr(oracle, "compose_matrices", refuse)


class TestDoubleCosetsAgainstAllPairs:
    def test_rank_one_groups_with_full_sides(self):
        for d in range(1, 501):
            module, full = rank1_orthogonal_group(d)
            side = (identity_isometry(module), negation_isometry(module))
            for left, right in ((side, side), (full, full)):
                old, new = closure_outcomes(left, full, right)
                assert old[0] == "ok" and new == old, d

    def test_noncyclic_groups(self):
        for gram in ([[2, 0], [0, 2]], [[4, 0], [0, 4]], [[2, 0], [0, 4]], [[2, 1], [1, 2]]):
            module = discriminant_module(make_lattice(gram))
            full = [ModuleIsometry(module, module, mat)
                    for mat in orthogonal_group_of_module(module)]
            old, new = closure_outcomes(full, full, full)
            assert old[0] == "ok" and new == old, gram

    def test_random_subsets(self):
        rng = random.Random(77)
        verdicts = set()
        for d in (30, 60, 105, 210, 420):
            module, full = rank1_orthogonal_group(d)
            side = (identity_isometry(module), negation_isometry(module))
            # +-id is a proper subgroup here, and an empty side none at all
            for args in ((full, side, side), (side, full, ())):
                old, new = closure_outcomes(*args)
                assert new == old, d
                verdicts.add(old[:3])
            for _ in range(40):
                subset = rng.sample(full, rng.randint(1, len(full) - 1))
                for args in ((subset, full, full), (full, full, subset),
                             (subset, subset, subset)):
                    old, new = closure_outcomes(*args)
                    assert new == old, (d, [iso.matrix for iso in subset])
                    verdicts.add(old[:3] if old[0] == "error" else "ok")
        # the count and every subgroup error occur on this grid
        assert verdicts == {
            "ok",
            ("error", NotSubgroupError, "factor is empty"),
            ("error", NotSubgroupError, "full set is not closed under composition"),
            ("error", NotSubgroupError, "factor is not closed under composition"),
            ("error", NotSubgroupError, "element does not belong to the full group"),
        }

    def test_random_subsets_of_a_noncommutative_monoid(self):
        # all 16 endomorphisms of (Z/2)^2: closed, not a group, and its units
        # GL(2, 2) do not commute
        module = discriminant_module(make_lattice([[2, 0], [0, 2]]))
        monoid = [
            ModuleIsometry(module, module, (entries[:2], entries[2:]))
            for entries in itertools.product(range(2), repeat=4)
        ]
        units = [iso for iso in monoid if iso.is_bijective()]
        assert len(units) == 6
        # the missing product x o y has x taken before y: right products
        # with the new generator y alone would miss it
        x, y = (((0, 0), (0, 1)), ((1, 0), (1, 0)))
        zero_x_y = [iso for m in (((0, 0), (0, 0)), x, y)
                    for iso in monoid if iso.matrix == m]
        old, new = closure_outcomes(zero_x_y, zero_x_y, zero_x_y)
        assert old[0] == "error" and new == old
        rng = random.Random(78)
        verdicts = set()
        for full in (monoid, units):
            for _ in range(60):
                subset = rng.sample(full, rng.randint(2, 6))
                for args in ((subset, full, units[:1]), (units[:1], full, subset),
                             (subset, subset, subset)):
                    old, new = closure_outcomes(*args)
                    assert new == old, [iso.matrix for iso in subset]
                    verdicts.add(old[0])
        assert verdicts == {"ok", "error"}

    def test_set_without_identity(self):
        module, full = rank1_orthogonal_group(6)
        negation = (negation_isometry(module),)
        for args in ((negation, full, negation), (negation, negation, negation)):
            old, new = closure_outcomes(*args)
            assert old[0] == "error" and new == old

    def test_closed_zero_map_is_accepted(self):
        module = discriminant_module(make_lattice([[12]]))
        zero = (ModuleIsometry(module, module, ((0,),)),)
        old, new = closure_outcomes(zero, zero, zero)
        assert old == new == ("ok", 1)

    @pytest.mark.usefixtures("units_only")
    def test_random_subgroup_pairs(self):
        """L != R, each spanned by 1 to 3 random elements of O(A), against the
        all-pairs count: 8 pairs for each d in (6, 30, 60, 210, 2310, 4620),
        omega(d) = 2, 3, 3, 4, 5, 5 and |O(A)| = 4, 8, 8, 16, 32, 32: 48 pairs
        in all.  On 28 of them L R is larger than either side, which the +-1
        sides of the genus sum never reach."""
        rng = random.Random(79)
        larger = 0
        for d in (6, 30, 60, 210, 2310, 4620):
            module, full = rank1_orthogonal_group(d)
            (f,) = module.factors
            by_unit = {iso.matrix[0][0]: iso for iso in full}

            def subgroup():
                # grow {1} by the generators until it stops: the span of units
                gens = rng.sample(sorted(by_unit), rng.randint(1, 3))
                group = {1}
                while True:
                    grown = group | {g * x % f for g in gens for x in group}
                    if grown == group:
                        return tuple(by_unit[a] for a in sorted(group))
                    group = grown

            pairs = 0
            while pairs < 8:
                left, right = subgroup(), subgroup()
                if left == right:
                    continue
                pairs += 1
                old, new = closure_outcomes(left, full, right)
                assert old[0] == "ok" and new == old, (d, left, right)
                if len(full) // old[1] > max(len(left), len(right)):
                    larger += 1
        assert larger == 28


# d = 6, 30 and 210: O(A) has 4, 8 and 16 elements, -1 among them
LANE_DS = (6, 30, 210)


@pytest.mark.usefixtures("units_only")
class TestCyclicLaneFailures:
    """The unit lane against the all-pairs count on cyclic modules, one way
    to fail at a time: the same verdict, type and message."""

    def test_identity_less_side(self):
        """{s} with s^2 = 1 and s != 1 is closed up to 1, which it lacks.
        Kills the mutant that starts the unit span at 1 without checking
        that 1 lies in the side: it accepts {s} as the subgroup {1, s}."""
        for d in LANE_DS:
            module, full = rank1_orthogonal_group(d)
            ident = identity_isometry(module)
            for s in full:
                if s.matrix == ident.matrix:
                    continue
                assert (s.matrix[0][0] ** 2) % module.factors[0] == 1
                for args in (((s,), full, (ident,)), ((ident,), full, (s,))):
                    old, new = closure_outcomes(*args)
                    assert new == old, (d, s.matrix)
                    assert old[:3] == ("error", NotSubgroupError,
                                       "factor is not closed under composition")

    def test_full_missing_one_element(self):
        """O(A) less one element is not closed: a product of two others, or
        the identity, lands on the gap.  Kills the mutant that drops the
        check of each coset against `within` in the unit span (a gap other
        than 1 goes unseen), and the one that skips the 1 check (a missing
        identity goes unseen)."""
        verdicts = set()
        for d in LANE_DS:
            module, full = rank1_orthogonal_group(d)
            side = (identity_isometry(module),)
            for gap in full:
                rest = tuple(iso for iso in full if iso is not gap)
                old, new = closure_outcomes(side, rest, side)
                assert new == old, (d, gap.matrix)
                verdicts.add(old[:3])
        assert verdicts == {
            ("error", NotSubgroupError, "full set is not closed under composition")}

    def test_duplicate_in_full(self):
        """Kills the mutant that lets the lane take the units of `full` as a
        set with no duplicate check: |full| // |L R| can then come out as
        the count of the duplicate-free group."""
        for d in LANE_DS:
            module, full = rank1_orthogonal_group(d)
            side = (identity_isometry(module), negation_isometry(module))
            for twice in full:
                old, new = closure_outcomes(side, full + (twice,), side)
                assert new == old, (d, twice.matrix)
                assert old[:3] == ("error", LatfmError, "full group contains duplicates")

    def test_element_outside_full(self):
        """A side {1, u} that is a group of units but not inside full = +-1,
        and a side holding a non-unit.  Kills the mutant that checks each
        side's closure on its own units without its membership in full: {1, u}
        is closed and would be counted."""
        for d in LANE_DS:
            module, full = rank1_orthogonal_group(d)
            pm = (identity_isometry(module), negation_isometry(module))
            others = [iso for iso in full if iso.matrix not in {m.matrix for m in pm}]
            zero = ModuleIsometry(module, module, ((0,),))
            for outside in [(pm[0], u) for u in others] + [(pm[0], zero)]:
                for args in ((outside, pm, pm), (pm, pm, outside)):
                    old, new = closure_outcomes(*args)
                    assert new == old, (d, [iso.matrix for iso in outside])
                    assert old[:3] == ("error", NotSubgroupError,
                                       "element does not belong to the full group")

    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_empty_side(self, empty_side):
        """Kills the mutant that drops the empty-side check: the unit span of
        no generators is {1}, so the lane would count |full| / |the other side|."""
        for d in LANE_DS:
            module, full = rank1_orthogonal_group(d)
            side = (identity_isometry(module), negation_isometry(module))
            args = ((), full, side) if empty_side == "left" else (side, full, ())
            old, new = closure_outcomes(*args)
            assert new == old, d
            assert old[:3] == ("error", NotSubgroupError, "factor is empty")
