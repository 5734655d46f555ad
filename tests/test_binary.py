"""The exact lane for binary forms of determinant -n^2 against the bounded
search of latfm.oracle, which stays its test oracle: the same isometries
inside every bound, and the same `isometry` output byte for byte."""

import io
import random
from math import gcd

import pytest

from latfm import cli, oracle
from latfm.binary import (
    isometries,
    isotropic_pair,
    search_outcome,
    square_root_of_discriminant,
)
from latfm.errors import BudgetExhaustedError, LatfmError
from latfm.intmat import det, identity
from latfm.lattices import make_lattice
from latfm.oracle import SearchBudget, enumerate_self_isometries, find_isometry_bounded

ENTRY_BOUNDS = (1, 2, 3, 5, 10, 50, 100)
NODE_LIMITS = (10, 10**3, 10**5, 10**6, None)  # None: the default limit


def family_gram(d, n):
    return ((2 * d, n), (n, 0))


def transform(gram, b):
    """B^t G B."""
    cols = list(zip(*b))
    return tuple(
        tuple(sum(u[i] * gram[i][j] * v[j] for i in range(2) for j in range(2)) for v in cols)
        for u in cols
    )


def random_unimodular(rng, steps):
    b = ((1, 0), (0, 1))
    for _ in range(steps):
        t = rng.randint(-3, 3)
        step = rng.choice((((1, t), (0, 1)), ((1, 0), (t, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))))
        b = tuple(tuple(sum(b[i][k] * step[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return b


def random_square_forms(rng, count):
    """Forms of determinant -n^2: L_{d,n}, some rescaled, moved by a random
    unimodular change of basis, so that isometric pairs with entries of
    every size recur within one n."""
    forms = []
    while len(forms) < count:
        n = rng.randint(1, 12)
        d = rng.randint(-12, 12)
        k = rng.choice((1, 1, 1, 2, 3))
        gram = ((2 * d * k, n * k), (n * k, 0)) if k > 1 else family_gram(d, n)
        if rng.random() < 0.3:  # an odd form of determinant -n^2
            gram = ((gram[0][0] + 1, gram[0][1]), (gram[1][0], gram[1][1]))
            if square_root_of_discriminant(gram) == 0:
                continue
        forms.append(transform(gram, random_unimodular(rng, rng.randint(0, 4))))
    return forms


def box_isometries(g1, g2, bound):
    """Every isometry with entries in [-bound, bound], found by the search."""
    budget = SearchBudget(entry_bound=bound, node_limit=10**9)
    found = oracle._column_search(make_lattice(g1), g2, oracle._NodeCounter(budget),
                                  find_all=True)
    return set(found)


def within(mats, bound):
    return {m for m in mats if all(abs(x) <= bound for row in m for x in row)}


def _pairing(gram, u, v):
    (a, b), (_, c) = gram
    return a * u[0] * v[0] + b * (u[0] * v[1] + u[1] * v[0]) + c * u[1] * v[1]


def _transform(gram, mat):
    """B^t G B for 2x2 matrices."""
    cols = tuple(zip(*mat))
    return tuple(tuple(_pairing(gram, u, v) for v in cols) for u in cols)


def reference_isometries(g1, g2):
    """The vector form of isometries(): pairings through _pairing, the
    candidates as rows of numerators, and B^t G1 B = G2 on whole matrices."""
    n = square_root_of_discriminant(g1)
    if not n or square_root_of_discriminant(g2) != n:
        raise LatfmError("both forms must have one determinant -n^2 with n >= 1")
    p1, q1 = isotropic_pair(g1, n)
    p2, q2 = isotropic_pair(g2, n)
    m1, m2 = _pairing(g1, p1, q1), _pairing(g2, p2, q2)
    if m1 != m2 and m1 != -m2:
        return ()
    sign = 1 if m1 == m2 else -1
    det_p = p2[0] * q2[1] - q2[0] * p2[1]
    found = []
    for x, y in ((p1, q1), (q1, p1)):
        nums = [
            (x[i] * q2[1] - sign * y[i] * p2[1], sign * y[i] * p2[0] - x[i] * q2[0])
            for i in range(2)
        ]
        if any(num % det_p for row in nums for num in row):
            continue
        mat = tuple(tuple(num // det_p for num in row) for row in nums)
        if _transform(g1, mat) == g2:
            found += [mat, tuple(tuple(-v for v in row) for row in mat)]
    return tuple(sorted(found, key=lambda mat: tuple(zip(*mat))))


def small_square_forms(n):
    """Every [[a, b], [b, c]] of determinant -n^2 with |a|, |b| <= 5: c from
    the determinant, or any |c| <= 5 when a = 0."""
    forms = []
    for a in range(-5, 6):
        for b in range(-5, 6):
            if a:
                c, rest = divmod(b * b - n * n, a)
                if not rest:
                    forms.append(((a, b), (b, c)))
            elif b * b == n * n:
                forms += [((0, b), (b, c)) for c in range(-5, 6)]
    return forms


class TestIsometries:
    @pytest.mark.parametrize(
        "gram,n",
        [
            (((0, 1), (1, 0)), 1),
            (((2, 5), (5, 0)), 5),
            (((2, 3), (3, 4)), 1),
            (((1, 0), (0, -4)), 2),
            (((0, 7), (7, 3)), 7),
            (((2, 1), (1, 2)), 0),  # det 3
            (((2, 0), (0, -3)), 0),  # det -6
            (((4,),), 0),
        ],
    )
    def test_square_root_of_discriminant(self, gram, n):
        assert square_root_of_discriminant(gram) == n

    def test_isotropic_pair(self):
        for gram in random_square_forms(random.Random(11), 400):
            n = square_root_of_discriminant(gram)
            p, q = isotropic_pair(gram, n)
            for v in (p, q):
                assert gcd(*v) == 1
                assert transform(gram, ((v[0], 0), (v[1], 0)))[0][0] == 0, (gram, v)
            assert p[0] * q[1] - p[1] * q[0] != 0, gram

    def test_matches_every_isometry_the_search_finds_inside_the_box(self):
        rng = random.Random(12)
        forms = random_square_forms(rng, 120)
        pairs = [(g1, g2) for g1 in forms for g2 in forms
                 if square_root_of_discriminant(g1) == square_root_of_discriminant(g2)]
        pairs += [(family_gram(d1, n), family_gram(d2, n))
                  for n in range(1, 8) for d1 in range(-6, 7) for d2 in range(-6, 7)]
        beyond = 0
        for g1, g2 in pairs:
            found = isometries(g1, g2)
            assert len(found) <= 4 and len(set(found)) == len(found)
            assert list(found) == sorted(found, key=lambda m: tuple(zip(*m)))
            for b in found:
                assert transform(g1, b) == g2 and abs(det(b)) == 1
            assert box_isometries(g1, g2, 6) == within(found, 6), (g1, g2)
            beyond += len(found) - len(within(found, 6))
        assert beyond > 0  # the grid has isometries outside the box, too

    def test_matches_the_reference_on_every_small_form(self):
        """Every ordered pair of small_square_forms(n) for n <= 8: 51,168
        pairs, 12,312 of them with an isometry."""
        pairs = isometric = 0
        for n in range(1, 9):
            forms = small_square_forms(n)
            for g1 in forms:
                for g2 in forms:
                    found = isometries(g1, g2)
                    assert found == reference_isometries(g1, g2), (g1, g2)
                    pairs += 1
                    isometric += bool(found)
        assert (pairs, isometric) == (51168, 12312)

    def test_automorphs_form_a_group_with_plus_minus_one(self):
        for gram in random_square_forms(random.Random(13), 300):
            group = set(isometries(gram, gram))
            assert {identity(2), ((-1, 0), (0, -1))} <= group
            for a in group:
                for b in group:
                    ab = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                                     for j in range(2)) for i in range(2))
                    assert ab in group

    def test_family_pairs_need_a2_or_b2(self):
        for n in range(1, 31):
            for d1 in range(1, 16):
                for d2 in range(1, 16):
                    if gcd(2 * d1, n) != 1 or gcd(2 * d2, n) != 1:
                        continue
                    a2 = (d1 - d2) % n == 0
                    b2 = (d1 * d2 - 1) % n == 0
                    found = isometries(family_gram(d1, n), family_gram(d2, n))
                    assert bool(found) == (a2 or b2), (d1, d2, n)

    @pytest.mark.parametrize(
        "g1,g2",
        [
            (((2, 1), (1, 2)), ((2, 1), (1, 2))),
            (((2, 5), (5, 0)), ((2, 3), (3, 0))),
            (((2, 5), (5, 0)), ((4,),)),
        ],
    )
    def test_other_determinants_are_refused(self, g1, g2):
        with pytest.raises(LatfmError, match="-n\\^2"):
            isometries(g1, g2)


class TestSelfIsometriesAgainstTheBoundedEnumeration:
    """O(L_{d,n}) for n <= 30, 1 <= |d| <= 40 and gcd(2d, n) = 1 (984
    lattices): the bounded enumeration at the default budget returns exactly
    the exact automorphs with entries <= 50.  On 170 of them an automorph
    lies outside that box; on L_{+-34,15} and L_{+-34,21} the missed one
    also changes the genus-sum term (2 -> 1)."""

    def test_grid(self):
        beyond = []
        for n in range(1, 31):
            for d in range(-40, 41):
                if d == 0 or gcd(2 * d, n) != 1:
                    continue
                gram = family_gram(d, n)
                exact = isometries(gram, gram)
                bounded = {w.matrix for w in enumerate_self_isometries(make_lattice(gram))}
                assert bounded == within(exact, 50), gram
                if len(bounded) < len(exact):
                    beyond.append(gram)
        assert len(beyond) == 170
        assert ((68, 15), (15, 0)) in beyond and ((-68, 21), (21, 0)) in beyond


def argv_of(g1, g2, entries, nodes, as_json):
    argv = ["isometry", "--gram1", str([list(r) for r in g1]).replace(" ", ""),
            "--gram2", str([list(r) for r in g2]).replace(" ", "")]
    if entries is not None:
        argv += ["--budget-entries", str(entries)]
    if nodes is not None:
        argv += ["--budget-nodes", str(nodes)]
    return argv + (["--json"] if as_json else [])


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestIsometryCommandAgainstTheSearch:
    """Exit code, stdout and stderr of `isometry` with the exact lane equal
    those with find_isometry_bounded in its place.

    Grid: every pair of [[2d, n], [n, 0]] with one n <= 15 and |d| <= 14
    (12,615 pairs), each at one (--budget-entries, --budget-nodes) of
    {1, 2, 3, 5, 10} x {10, 10^3, 10^5, 10^6, default} in turn, text and
    --json in turn; 200 seeded pairs of it at each of --budget-entries 50
    and 100 with --budget-nodes 10^5, 10^6 and the default; 600 seeded
    random forms of determinant -n^2 at random budgets; and forms the lane
    leaves to the search."""

    @staticmethod
    def both(monkeypatch, argv):
        lane = invoke(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "search_outcome", find_isometry_bounded)
            search = invoke(argv)
        assert lane == search, argv
        return lane

    def test_family_grid_small_bounds(self, monkeypatch):
        budgets = [(b, nodes) for b in (1, 2, 3, 5, 10) for nodes in NODE_LIMITS]
        codes = set()
        k = 0
        for n in range(1, 16):
            for d1 in range(-14, 15):
                for d2 in range(-14, 15):
                    entries, nodes = budgets[k % len(budgets)]
                    argv = argv_of(family_gram(d1, n), family_gram(d2, n),
                                   entries, nodes, k % 2)
                    codes.add(self.both(monkeypatch, argv)[0])
                    k += 1
        assert k == 12615 and codes == {0, 3}

    @pytest.mark.parametrize("entries", [50, 100])
    def test_family_grid_large_bounds(self, monkeypatch, entries):
        rng = random.Random(entries)
        grid = [(d1, d2, n) for n in range(1, 16)
                for d1 in range(-14, 15) for d2 in range(-14, 15)]
        codes = set()
        for d1, d2, n in rng.sample(grid, 200):
            for nodes in (10**5, 10**6, None):
                argv = argv_of(family_gram(d1, n), family_gram(d2, n),
                               entries, nodes, rng.random() < 0.5)
                codes.add(self.both(monkeypatch, argv)[0])
        assert codes == {0, 3}

    def test_random_square_forms(self, monkeypatch):
        rng = random.Random(14)
        forms = random_square_forms(rng, 200)
        by_n = {}
        for gram in forms:
            by_n.setdefault(square_root_of_discriminant(gram), []).append(gram)
        codes = set()
        for _ in range(600):
            g1 = rng.choice(forms)
            g2 = rng.choice(by_n[square_root_of_discriminant(g1)])
            entries = rng.choice((1, 2, 3, 5, 10, None))
            nodes = rng.choice(NODE_LIMITS)
            codes.add(self.both(monkeypatch, argv_of(g1, g2, entries, nodes,
                                                     rng.random() < 0.5))[0])
        assert codes == {0, 3}

    @pytest.mark.parametrize(
        "g1,g2",
        [
            (((2, 1), (1, 2)), ((2, -1), (-1, 2))),  # det 3
            (((2, 5), (5, 0)), ((2, 7), (7, 0))),  # two determinants
            (((2, 5), (5, 0)), ((3, 5), (5, 0))),  # two parities
            (((2, 5), (5, 0)), ((2, 5), (5, 0))),  # one Gram matrix
            (((4,),), ((4,),)),
            (((2, 5), (5, 0)), ((4,),)),
        ],
    )
    def test_what_the_lane_leaves_to_the_search(self, monkeypatch, g1, g2):
        for entries in (1, 5, None):
            for nodes in NODE_LIMITS:
                self.both(monkeypatch, argv_of(g1, g2, entries, nodes, False))


class TestSearchOutcome:
    def test_the_node_limit_sends_it_to_the_search(self, monkeypatch):
        calls = []

        def search(*args):
            calls.append(args)
            return find_isometry_bounded(*args)

        monkeypatch.setattr("latfm.binary.find_isometry_bounded", search)
        l1, l2 = make_lattice([[2, 5], [5, 0]]), make_lattice([[12, 5], [5, 0]])
        for entries in ENTRY_BOUNDS:
            side = 2 * entries + 1
            threshold = side * side + 3 * side * (1 + 3 * side)
            for nodes, searched in ((threshold, False), (threshold - 1, True)):
                calls.clear()
                search_outcome(l1, l2, SearchBudget(entries, nodes))
                assert bool(calls) == searched, (entries, nodes)

    def test_no_rank_two_bucket_outgrows_the_bound(self):
        # the lane's node bound counts 3 (2B + 1) vectors per norm bucket
        for gram in random_square_forms(random.Random(15), 60):
            for bound in (1, 3, 10):
                nodes = oracle._NodeCounter(SearchBudget(entry_bound=bound))
                buckets = oracle._norm_buckets(make_lattice(gram), bound,
                                               {0, gram[0][0], gram[1][1], 2, -2}, nodes)
                for bucket in buckets.values():
                    assert len(bucket) <= 3 * (2 * bound + 1)

    def test_exhaustion_needs_no_search(self):
        budget = SearchBudget(entry_bound=12)
        with pytest.raises(BudgetExhaustedError) as info:
            search_outcome(make_lattice([[2, 17], [17, 0]]),
                           make_lattice([[8, 17], [17, 0]]), budget)
        assert str(info.value) == (
            "no isometry with entries bounded by 12; "
            "absence within the budget does not prove non-isometry"
        )
        assert (info.value.nodes, info.value.entry_bound, info.value.node_limit) == (
            None, 12, budget.node_limit)
