import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from latfm.intmat import (
    complete_primitive_vector,
    complete_primitive_vector_gcd,
    det,
    freeze,
    hermite_normal_form,
    identity,
    invariant_factors,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    rational_solve,
    smith_normal_form,
    solve_integer,
    transpose,
    unimodular_inverse,
    xgcd,
)
from latfm import intmat


def random_matrix(rng, nrows, ncols, bound=6):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(ncols)) for _ in range(nrows)
    )


def fraction_det(m):
    # independent determinant: plain fraction elimination
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            c = a[i][k] / a[k][k]
            a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    assert out.denominator == 1
    return int(out)


def test_xgcd():
    for a, b in [(12, 18), (-12, 18), (0, 5), (5, 0), (0, 0), (7, 13), (-4, -6)]:
        g, x, y = xgcd(a, b)
        assert g == x * a + y * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_det_known_values():
    assert det(((0, 1), (1, 0))) == -1
    assert det(((2, 3), (3, 0))) == -9
    assert det(((2,),)) == 2
    assert det(((1, 2), (2, 4))) == 0


def test_det_matches_fraction_elimination():
    rng = random.Random(4821)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det(m) == fraction_det(m)


@pytest.mark.parametrize(
    "matrix,factors",
    [
        (((2, 0), (0, 2)), (2, 2)),
        (((2, 3), (3, 0)), (1, 9)),  # gcd of entries 1, |det| = 9
        (((12,),), (12,)),
        (((1, 0), (0, 1)), (1, 1)),
    ],
)
def test_snf_known_factors(matrix, factors):
    _, d, _ = smith_normal_form(matrix)
    assert tuple(d[i][i] for i in range(len(factors))) == factors


class TestSmith2x2:
    """The straight-line 2x2 Smith form against the generic loop it replaces,
    full (U, D, V) compared.

    The family shapes (G = [[2d, n], [n, 0]] and -G, n < 300, d < 50,
    gcd(2d, n) = 1: 12,052 matrices) alone kill a mutant that takes the
    last of tied pivots, skips negating the pivot row of U, skips the final
    sign of D[1][1] or skips a row or column swap of U or V (each differs on
    5,900 or more).  Their corner is 0 and their entries are coprime, so the
    row0 += row1 divisibility fix almost never runs: a mutant that drops it
    differs on only 4 of them, but on 15,227 of the 200,000 random matrices
    (1,581 of the first 20,000).  That mutant is why the random grid is
    here."""

    @staticmethod
    def agree(m):
        assert intmat._smith_2x2(m) == intmat._smith_loop(m), m

    def test_family_shapes(self):
        checked = 0
        for d in range(1, 50):
            for n in range(1, 300):
                if gcd(2 * d, n) == 1:
                    for sign in (1, -1):
                        self.agree(((sign * 2 * d, sign * n), (sign * n, 0)))
                        checked += 1
        assert checked == 12052

    def test_random_matrices(self):
        rng = random.Random(20021)
        for _ in range(200000):
            self.agree(random_matrix(rng, 2, 2, bound=40))

    @pytest.mark.parametrize(
        "m",
        [
            ((0, 0), (0, 0)),
            ((5, 0), (0, 0)),
            ((0, 5), (0, 0)),
            ((0, 0), (5, 0)),
            ((0, 0), (0, 5)),
            ((2, 4), (1, 2)),
            ((0, 0), (0, -3)),
        ],
        ids=["zero", "corner00", "corner01", "corner10", "corner11", "rank1", "negative-corner"],
    )
    def test_degenerate(self, m):
        self.agree(m)

    def test_2x2_takes_the_straight_line(self, monkeypatch):
        def refuse(m):
            raise AssertionError("2x2 went to the generic loop")

        monkeypatch.setattr(intmat, "_smith_loop", refuse)
        assert smith_normal_form(((2, 3), (3, 0)))[1] == ((1, 0), (0, 9))


class TestSmith1x1:
    """The 1x1 Smith form, which the generic loop computes, against its
    closed form (the row negated when the entry is < 0) and the loop, full
    (U, D, V) compared: every |a| <= 10^4 of both signs, zero included, and
    seeded entries of up to 60 digits."""

    @staticmethod
    def closed_form(a):
        return ((-1 if a < 0 else 1,),), ((abs(a),),), ((1,),)

    def test_small_entries(self):
        for a in range(-10**4, 10**4 + 1):
            assert smith_normal_form(((a,),)) == intmat._smith_loop(((a,),)), a
            assert smith_normal_form(((a,),)) == self.closed_form(a), a

    def test_large_entries(self):
        rng = random.Random(20022)
        for _ in range(2000):
            a = rng.choice((1, -1)) * rng.randrange(10**rng.randint(5, 60))
            assert smith_normal_form(((a,),)) == intmat._smith_loop(((a,),)), a
            assert smith_normal_form(((a,),)) == self.closed_form(a), a


class TestRankTwoRows:
    """The straight-line rank of two rows against the Bareiss elimination:
    every 2x3 with entries in [-2, 2] (5^6 = 15,625 matrices).  The grid
    kills `if x or y` -> `if x` (on ((0, 0, 0), (0, 1, 0))), minors taken on
    column 0 instead of the first nonzero column, and a zero matrix read as
    rank 1."""

    def test_every_small_2x3(self):
        entries = range(-2, 3)
        count = 0
        for r0 in itertools.product(entries, repeat=3):
            for r1 in itertools.product(entries, repeat=3):
                m = (r0, r1)
                assert rank(m) == len(intmat._gauss_jordan(m)[1]), m
                count += 1
        assert count == 5**6

    def test_two_rows_take_the_straight_line(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("two rows went to the elimination")

        monkeypatch.setattr(intmat, "_gauss_jordan", refuse)
        assert rank(((1, 0, 0, 0), (0, 2, 1, 0))) == 2
        assert rank(((0, 0, 0), (0, 0, 0))) == 0
        assert rank(((0, 2, 4), (0, -1, -2))) == 1


def test_snf_properties_random():
    rng = random.Random(90125)
    for _ in range(80):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = random_matrix(rng, nrows, ncols)
        u, d, v = smith_normal_form(m)
        assert mat_mul(u, mat_mul(m, v)) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i][i] for i in range(min(nrows, ncols))]
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_hnf_canonical_properties():
    rng = random.Random(777)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = random_matrix(rng, nrows, ncols)
        h = hermite_normal_form(m)
        assert hermite_normal_form(h) == h  # idempotent
        # row lattice is preserved: same invariant factors, every HNF row is an
        # integer combination of the original rows and vice versa
        if h:
            assert invariant_factors(m) == invariant_factors(h)
            for row in h:
                assert solve_integer(transpose(m), row) is not None
            for row in m:
                if any(row):
                    assert solve_integer(transpose(h), row) is not None
        pivots = []
        for row in h:
            j = next(k for k, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
            for above in range(len(pivots) - 1):
                assert 0 <= h[above][j] < row[j]
        assert pivots == sorted(pivots)


def test_kernel_basis():
    rng = random.Random(2024)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        kern = kernel_basis(m)
        for vec in kern:
            assert mat_vec(m, vec) == (0,) * nrows
        assert len(kern) == ncols - rank(m)
        if kern:
            # saturated: the kernel basis extends to a basis of Z^ncols
            assert all(f == 1 for f in invariant_factors(kern))


def test_solve_integer():
    m = ((2, 0), (0, 3))
    assert solve_integer(m, (4, 9)) == (2, 3)
    assert solve_integer(m, (1, 0)) is None
    rng = random.Random(5150)
    for _ in range(40):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = random_matrix(rng, nrows, ncols)
        x = tuple(rng.randint(-5, 5) for _ in range(ncols))
        target = mat_vec(m, x)
        found = solve_integer(m, target)
        assert found is not None
        assert mat_vec(m, found) == target


def test_rational_solve():
    m = ((2, 1), (1, 1))
    assert rational_solve(m, (1, 0)) == (Fraction(1), Fraction(-1))
    assert rational_solve(((1, 1), (2, 2)), (1, 3)) is None


def test_unimodular_inverse():
    m = ((2, 1), (1, 1))
    inv = unimodular_inverse(m)
    assert mat_mul(m, inv) == identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(((2, 0), (0, 2)))


def shadow_cases():
    """(v, v-perp, coordinates of v in the HNF basis of v-perp) for two
    Mukai vectors of the moduli shadow."""
    from latfm.lattices import SublatticeEmbedding, orthogonal_complement
    from latfm.mukai import MUKAI, MukaiVector, embed_polarized

    for r, s, d in ((2, 3, 6), (30, 1001, 30030)):
        v24 = embed_polarized(d).embed(MukaiVector(r, 1, s, d))
        vperp = orthogonal_complement(SublatticeEmbedding(MUKAI, (v24,)))
        yield v24, vperp, solve_integer(vperp.matrix, v24)


@pytest.mark.parametrize("completion", [complete_primitive_vector,
                                        complete_primitive_vector_gcd])
def test_primitive_completion(completion):
    rng = random.Random(31415)
    cases = [(1,), (0, 1), (-1, 0), (2, 3), (6, 10, 15), (0, 0, 1, 0)]
    for _ in range(30):
        k = rng.randint(1, 5)
        vec = tuple(rng.randint(-9, 9) for _ in range(k))
        from math import gcd
        g = 0
        for x in vec:
            g = gcd(g, x)
        if g == 1:
            cases.append(vec)
    cases += [coords for _, _, coords in shadow_cases()]
    for vec in cases:
        if completion is complete_primitive_vector:
            # the Smith completion returns its inverse alongside
            w, w_inv = completion(vec)
            assert mat_mul(w, w_inv) == identity(len(vec))
        else:
            w = completion(vec)
        assert abs(det(w)) == 1
        assert tuple(row[0] for row in w) == vec
    with pytest.raises(ValueError):
        completion((2, 4))


def test_smith_completion_follows_the_sign_of_v(monkeypatch):
    # this SNF leaves V = (1) on a column, but U c V = e_1 with V = (-1) is
    # an SNF too: negate V and the first row of U
    import latfm.intmat as intmat

    snf = intmat.smith_normal_form

    def flipped(m):
        u, d, v = snf(m)
        return ((tuple(-x for x in u[0]),) + u[1:], d, ((-v[0][0],),))

    monkeypatch.setattr(intmat, "smith_normal_form", flipped)
    for vec in [(1,), (2, 3), (6, 10, 15), (0, -1, 4, 7)]:
        w, w_inv = complete_primitive_vector(vec)
        assert tuple(row[0] for row in w) == vec
        assert mat_mul(w, w_inv) == identity(len(vec))


def unimodular_matrix(rng, n, steps=12):
    m = [list(row) for row in identity(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return freeze(m)


def hnf_rank(m):
    return len(hermite_normal_form(m))


def check_elimination_kernel(m, rhs):
    """det, rank, rational_solve and unimodular_inverse against the SNF and
    the HNF, which share no code with the elimination kernel."""
    nrows, ncols = len(m), len(m[0])
    r = rank(m)
    assert r == hnf_rank(m)
    if nrows == ncols:
        _, d, _ = smith_normal_form(m)
        product = 1
        for i in range(nrows):
            product *= d[i][i]
        assert det(m) in (product, -product)
        if product == 1:
            assert mat_mul(m, unimodular_inverse(m)) == identity(nrows)
        else:
            with pytest.raises(ValueError):
                unimodular_inverse(m)
    x = rational_solve(m, rhs)
    consistent = hnf_rank(tuple(row + (y,) for row, y in zip(m, rhs))) == r
    assert (x is not None) == consistent
    if x is not None:
        assert mat_vec(m, x) == rhs
        prefix_ranks = [hnf_rank(tuple(row[:j] for row in m)) for j in range(ncols + 1)]
        for j in range(ncols):
            if prefix_ranks[j + 1] == prefix_ranks[j]:  # free column
                assert x[j] == 0


def test_elimination_kernel_random_grid():
    rng = random.Random(60221)
    for nrows in range(1, 7):
        for ncols in range(1, 7):
            for _ in range(6):
                m = random_matrix(rng, nrows, ncols, bound=rng.choice((1, 3, 9)))
                if nrows > 1 and rng.random() < 0.4:  # force a dependent row
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                    m = m[:-1] + (tuple(a * x + b * y for x, y in zip(m[0], m[1])),)
                solution = tuple(rng.randint(-4, 4) for _ in range(ncols))
                check_elimination_kernel(m, mat_vec(m, solution))
                check_elimination_kernel(m, tuple(rng.randint(-4, 4) for _ in range(nrows)))
        check_elimination_kernel(unimodular_matrix(rng, nrows), (1,) * nrows)


def test_elimination_kernel_on_shadow_bases():
    from latfm.lattices import isotropic_quotient

    rng = random.Random(1729)
    for v24, vperp, coords in shadow_cases():
        quot = isotropic_quotient(vperp, v24)
        unit = (1,) + (0,) * 23  # pairs to -s with v: outside v-perp
        check_elimination_kernel(vperp.basis, tuple(rng.randint(-5, 5) for _ in range(23)))
        check_elimination_kernel(vperp.matrix, v24)
        check_elimination_kernel(vperp.matrix, unit)
        check_elimination_kernel(vperp.induced_gram, (0,) * 23)
        check_elimination_kernel(quot.lattice.gram, (1,) * 22)
        check_elimination_kernel(complete_primitive_vector(coords)[0], coords)
