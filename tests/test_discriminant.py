import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from latfm.discriminant import (
    DEFAULT_ORDER_BOUND,
    TRIVIAL_MODULE,
    _generates,
    FiniteQuadraticModule,
    LatticeDiscriminant,
    ModuleIsometry,
    compose_matrices,
    cyclic_module,
    discriminant_module,
    gamma_complement_map,
    identity_isometry,
    is_isometric_modules,
    negation_isometry,
    orthogonal_group_of_module,
    verify_anti_isometry,
    verify_isometry,
)
from latfm.errors import (
    LatfmError,
    NotPrimitiveError,
    NotUnimodularError,
    OddLatticeError,
    SearchSpaceTooLargeError,
)
from latfm.family import AMBIENTS, build_family, embed_member
from latfm.intmat import identity, mat_vec, smith_normal_form
from latfm.lattices import (
    E8,
    K3,
    Lattice,
    SublatticeEmbedding,
    U,
    direct_sum,
    make_lattice,
    orthogonal_complement,
)
from latfm.oracle import SearchBudget, enumerate_self_isometries

UU = direct_sum(U, U)


def random_lattices(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        try:
            out.append(Lattice(tuple(tuple(r) for r in rows)))
        except LatfmError:
            continue
    return out


class TestDiscriminantModule:
    def test_rank_one(self):
        for d in (1, 2, 3, 6):
            module = discriminant_module(make_lattice([[2 * d]]))
            assert module.factors == (2 * d,)
            # generator (1) / 2d, q = 1 / 2d
            assert module.generators == ((1,),)
            assert module.gram == ((1,),)
            assert module.q == (Fraction(1, 2 * d),)

    def test_unimodular_is_trivial(self):
        assert discriminant_module(U) == TRIVIAL_MODULE
        assert discriminant_module(K3).is_trivial

    def test_family_lattice(self):
        module = discriminant_module(make_lattice([[2, 3], [3, 0]]))
        assert module.factors == (9,)
        # -2/9 mod 2Z, written in [0, 2)
        assert module.q == (Fraction(16, 9),)

    def test_order_equals_det(self):
        for lat in random_lattices(25, seed=4242) + [U, K3]:
            module = discriminant_module(lat)
            assert module.order == abs(lat.det)

    def test_odd_lattice_has_no_q(self):
        module = discriminant_module(make_lattice([[3]]))
        assert module.q is None
        assert module.b == ((Fraction(1, 3),),)
        with pytest.raises(OddLatticeError):
            module.q_of((1,))

    def test_polar_identity_against_direct_computation(self):
        # q evaluated through the generator tables must agree with the exact
        # rational computation on dual-vector representatives
        for lat in [make_lattice([[4, 1], [1, 4]]),
                    make_lattice([[2, 3], [3, 0]]),
                    make_lattice([[6, 0], [0, 10]])]:
            disc = LatticeDiscriminant(lat)
            module = disc.module
            gens = [
                tuple(Fraction(x, f) for x in col)
                for col, f in zip(module.generators, module.factors)
            ]
            k = len(gens)
            for i in range(k):
                for j in range(k):
                    coords = tuple(
                        (1 if t == i else 0) + (1 if t == j else 0) for t in range(k)
                    )
                    vec = tuple(
                        sum(g[t] * c for g, c in zip(gens, coords))
                        for t in range(lat.rank)
                    )
                    gv = [sum(lat.gram[r][c] * vec[c] for c in range(lat.rank))
                          for r in range(lat.rank)]
                    direct = sum(x * y for x, y in zip(vec, gv)) % 2
                    assert Fraction(module.q_of(coords), module.exponent) == direct

    def test_consistency_validation(self):
        with pytest.raises(LatfmError, match="divisibility chain"):
            FiniteQuadraticModule(
                factors=(4, 2), generators=(), gram=((1, 0), (0, 2)),
            )  # 2 does not divide into 4 in chain order

    def test_rejects_a_form_matrix_of_the_wrong_shape(self):
        with pytest.raises(LatfmError, match="wrong shape"):
            FiniteQuadraticModule(factors=(2, 4), generators=(), gram=((1,),))
        with pytest.raises(LatfmError, match="wrong shape"):
            FiniteQuadraticModule(factors=(2, 4), generators=(), gram=((0, 2), (2,)))

    def test_rejects_an_asymmetric_form_matrix(self):
        with pytest.raises(LatfmError, match="not symmetric"):
            FiniteQuadraticModule(factors=(2, 4), generators=(), gram=((2, 2), (0, 1)))
        # entries are compared mod e = 4: 6 and 2 are the same value
        module = FiniteQuadraticModule(
            factors=(2, 4), generators=(), gram=((2, 6), (2, 1)), even=False
        )
        assert module.gram == ((2, 2), (2, 1))

    def test_rejects_b_incompatible_with_a_generator_order(self):
        # b(g_1, g_2) = 1/4 on a generator of order 2
        with pytest.raises(LatfmError, match="b value incompatible"):
            FiniteQuadraticModule(factors=(2, 4), generators=(), gram=((0, 1), (1, 1)))

    def test_rejects_q_incompatible_with_a_generator_order(self):
        # q(g) = 1/3 is not a value of an element of order 3 (9 q = 3 mod 2Z);
        # b(g, g) = 1/3 alone is, on the discriminant of the odd lattice [[3]]
        with pytest.raises(LatfmError, match="q value incompatible"):
            FiniteQuadraticModule(factors=(3,), generators=(), gram=((1,),))
        odd = FiniteQuadraticModule(factors=(3,), generators=(), gram=((1,),), even=False)
        assert odd.b == discriminant_module(make_lattice([[3]])).b


class TestIsometrySearch:
    def test_identity_on_self(self):
        module = discriminant_module(make_lattice([[2, 3], [3, 0]]))
        iso = is_isometric_modules(module, module)
        assert iso is not None
        assert iso.matrix == ((1,),)
        assert verify_isometry(iso)

    def test_family_pair_least_witness(self):
        a1 = discriminant_module(make_lattice([[2, 3], [3, 0]]))   # q = -2/9
        a2 = discriminant_module(make_lattice([[8, 3], [3, 0]]))   # q = -8/9
        # oracle: the units beta mod 9 with beta^2 * q2 = q1 mod 2Z
        expected = [
            beta
            for beta in range(1, 9)
            if gcd(beta, 9) == 1
            and (beta * beta * Fraction(-8, 9)) % 2 == Fraction(-2, 9) % 2
        ]
        assert expected == [4, 5]
        iso = is_isometric_modules(a1, a2)
        assert iso is not None
        assert iso.matrix == ((4,),)
        assert verify_isometry(iso)

    def test_sign_obstruction(self):
        a_plus = discriminant_module(make_lattice([[2]]))
        a_minus = discriminant_module(make_lattice([[-2]]))
        assert a_plus.q == (Fraction(1, 2),)
        assert a_minus.q == (Fraction(3, 2),)
        assert is_isometric_modules(a_plus, a_minus) is None

    def test_symmetry_and_transitivity(self):
        mods = [
            discriminant_module(make_lattice([[2, 3], [3, 0]])),
            discriminant_module(make_lattice([[8, 3], [3, 0]])),
            discriminant_module(make_lattice([[32, 3], [3, 0]])),
        ]
        for a in mods:
            for b in mods:
                fwd = is_isometric_modules(a, b)
                back = is_isometric_modules(b, a)
                assert (fwd is None) == (back is None)
        f = is_isometric_modules(mods[0], mods[1])
        g = is_isometric_modules(mods[1], mods[2])
        composed = g.compose(f)
        assert composed.source == mods[0] and composed.target == mods[2]
        assert verify_isometry(composed)

    def test_generic_backtracking(self):
        # (Z/2)^2 with q = (1/2, 1/2) and b diagonal: only id and the swap
        lat = make_lattice([[2, 0], [0, 2]])
        module = discriminant_module(lat)
        assert module.factors == (2, 2)
        iso = is_isometric_modules(module, module)
        assert iso is not None and verify_isometry(iso)
        group = orthogonal_group_of_module(module)
        assert len(group) == 2
        assert set(group) == {((1, 0), (0, 1)), ((0, 1), (1, 0))}

    def test_search_bound(self):
        # (Z/2018)^2 of order 4,072,324 > DEFAULT_ORDER_BOUND: the generic
        # search lists the group, so the bound applies
        module = discriminant_module(make_lattice([[2018, 0], [0, 2018]]))
        assert module.ell == 2 and module.order == 2018**2 > DEFAULT_ORDER_BOUND
        with pytest.raises(SearchSpaceTooLargeError):
            is_isometric_modules(module, module)
        with pytest.raises(SearchSpaceTooLargeError):
            orthogonal_group_of_module(module)

    def test_cyclic_search_ignores_the_bound(self):
        # Z/1009^2 of order 1,018,081 > DEFAULT_ORDER_BOUND: square roots of
        # units, no walk over the group
        module = discriminant_module(make_lattice([[2, 1009], [1009, 0]]))
        assert module.factors == (1009**2,) and module.order > DEFAULT_ORDER_BOUND
        iso = is_isometric_modules(module, module)
        assert iso is not None and iso.matrix == ((1,),)
        group = orthogonal_group_of_module(module)
        assert list(group) == [((1,),), ((1009**2 - 1,),)]

    def test_odd_module_rejected(self):
        module = discriminant_module(make_lattice([[3]]))
        with pytest.raises(OddLatticeError):
            is_isometric_modules(module, module)

    def test_trivial_modules(self):
        iso = is_isometric_modules(TRIVIAL_MODULE, TRIVIAL_MODULE)
        assert iso is not None
        assert iso.matrix == ()


class TestOrthogonalGroup:
    @pytest.mark.parametrize(
        "d,expected_units",
        [(1, (1,)), (2, (1, 3)), (6, (1, 5, 7, 11))],
    )
    def test_rank_one_groups(self, d, expected_units):
        module = discriminant_module(make_lattice([[2 * d]]))
        group = orthogonal_group_of_module(module)
        assert tuple(mat[0][0] for mat in group) == expected_units

    def test_contains_plus_minus_id(self):
        for gram in ([[2, 3], [3, 0]], [[12]], [[4, 1], [1, 4]]):
            module = discriminant_module(make_lattice(gram))
            group = orthogonal_group_of_module(module)
            assert identity_isometry(module).matrix in group
            assert negation_isometry(module).matrix in group

    def test_even_order_unless_two_torsion(self):
        for gram in ([[2, 3], [3, 0]], [[12]], [[2, 0], [0, 2]], [[6]]):
            module = discriminant_module(make_lattice(gram))
            group = orthogonal_group_of_module(module)
            neg = negation_isometry(module)
            if neg.matrix == identity_isometry(module).matrix:
                continue
            assert len(group) % 2 == 0

    def test_u2_module(self):
        # U(2): (Z/2)^2 with q = 0 on generators, b(g1, g2) = 1/2
        module = discriminant_module(make_lattice([[0, 2], [2, 0]]))
        assert module.factors == (2, 2)
        group = orthogonal_group_of_module(module)
        assert len(group) == 2

    def test_search_matches_every_endomorphism(self):
        """O(A) from the search against a scan of every well-defined
        endomorphism that verify_isometry accepts: [[2d]] for d <= 30,
        thirteen rank-2 and three rank-3 Grams, 46 modules and 15,321
        candidate matrices.  The grid kills these mutants of the search: one
        b check skipped, elements bucketed without their exact order, each
        candidate list cut to four, and the cyclic branch keeping only its
        least root."""
        grams = [[[2 * d]] for d in range(1, 31)] + [
            [[2, 0], [0, 2]], [[4, 0], [0, 4]], [[2, 0], [0, 4]], [[2, 0], [0, 6]],
            [[6, 0], [0, 6]], [[0, 2], [2, 0]], [[2, 1], [1, 2]], [[4, 2], [2, 4]],
            [[0, 3], [3, 0]], [[2, 0], [0, 8]], [[4, 0], [0, 12]], [[0, 4], [4, 0]],
            [[6, 3], [3, 6]],
            [[2, 0, 0], [0, 2, 0], [0, 0, 4]], [[2, 0, 0], [0, 2, 0], [0, 0, 8]],
            [[2, 0, 0], [0, 4, 0], [0, 0, 4]],
        ]
        candidates = 0
        for gram in grams:
            module = discriminant_module(make_lattice(gram))
            factors, k = module.factors, module.ell
            # entry (i, j) is a multiple of f_i / gcd(f_i, f_j), so that
            # generator j, of order f_j, maps to an element of order | f_j
            entries = [range(0, f, f // gcd(f, g)) for f in factors for g in factors]
            scan = []
            for flat in itertools.product(*entries):
                candidates += 1
                mat = tuple(flat[i * k:(i + 1) * k] for i in range(k))
                if verify_isometry(ModuleIsometry(module, module, mat)):
                    scan.append(mat)
            # product order is lexicographic in the rows, so scan is sorted
            assert orthogonal_group_of_module(module) == tuple(scan), gram
        assert candidates == 15321


class TestGamma:
    def test_polarization_complement(self):
        for d in (2, 3, 6):
            h = (1, d) + (0,) * 20
            emb = SublatticeEmbedding(K3, (h,))
            iso = gamma_complement_map(K3, emb)
            assert verify_anti_isometry(iso)
            assert iso.source.factors == (2 * d,)
            # complement module carries q = -1/(2d) on some generator: it must
            # be isometric to the sign-flipped rank-one module
            flipped = cyclic_module(2 * d, -1)
            assert is_isometric_modules(iso.target, flipped) is not None

    def test_family_complement(self):
        for d, n in ((1, 3), (2, 3), (3, 5), (4, 3)):
            emb = SublatticeEmbedding(UU, ((1, d, 0, 0), (0, n, 1, 0)))
            iso = gamma_complement_map(UU, emb)
            assert verify_anti_isometry(iso)
            positive = cyclic_module(n * n, 2 * d)
            assert is_isometric_modules(iso.target, positive) is not None

    def test_trivial_sublattice(self):
        emb = SublatticeEmbedding(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        iso = gamma_complement_map(UU, emb)
        assert iso.source.is_trivial and iso.target.is_trivial

    def test_non_cyclic_discriminant(self):
        u3 = direct_sum(U, U, U)
        emb = SublatticeEmbedding(u3, ((1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0)))
        assert emb.induced_gram == ((2, 0), (0, -2))
        iso = gamma_complement_map(u3, emb)
        assert iso.source.factors == (2, 2)
        assert verify_anti_isometry(iso)

    def test_requires_unimodular(self):
        amb = make_lattice([[2, 0], [0, 2]])
        with pytest.raises(NotUnimodularError):
            gamma_complement_map(amb, SublatticeEmbedding(amb, ((1, 0),)))

    def test_requires_primitive(self):
        with pytest.raises(NotPrimitiveError):
            gamma_complement_map(U, SublatticeEmbedding(U, ((2, 0),)))


class TestIsometryActionCoords:
    def test_lattice_isometry_acts(self):
        lat = make_lattice([[2, 3], [3, 0]])
        disc = LatticeDiscriminant(lat)
        # B = [[1, 3], [0, -1]] satisfies B^t G B = G and acts as -id on A
        b = ((1, 3), (0, -1))
        from latfm.intmat import mat_mul, transpose

        assert mat_mul(transpose(b), mat_mul(lat.gram, b)) == lat.gram
        assert disc.isometry_action(b) == negation_isometry(disc.module).matrix


def bfs_generates(module, elems):
    """Reference: grow the subgroup spanned by elems over the whole group."""
    seen = {(0,) * module.ell}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in elems:
                y = module.reduce(tuple(a + b for a, b in zip(x, g)))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == module.order


@pytest.mark.parametrize("factors", [(2, 2), (2, 4), (3, 3), (2, 2, 2)])
def test_generates_matches_subgroup_search(factors):
    k = len(factors)
    module = FiniteQuadraticModule(
        factors=factors, generators=(), gram=((0,) * k,) * k, even=False
    )
    elements = list(module.elements())
    outcomes = set()
    for images in itertools.product(elements, repeat=k):
        expected = bfs_generates(module, images)
        assert _generates(module, images) == expected, images
        outcomes.add(expected)
    assert outcomes == {True, False}


def column_compose(outer, inner):
    """outer o inner image by image, as ModuleIsometry.compose did before it
    used compose_matrices."""
    k = inner.source.ell
    cols = [outer.apply(inner.column(j)) for j in range(k)]
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(outer.target.ell))


def random_homomorphism(rng, source, target):
    """Entry (i, j) a multiple of f_i / gcd(f_i, d_j): a well-defined map."""
    return ModuleIsometry(source, target, tuple(
        tuple(rng.randrange(f) // (f // gcd(f, d)) * (f // gcd(f, d))
              for d in source.factors)
        for f in target.factors
    ))


def test_compose_matches_the_column_formula():
    modules = [TRIVIAL_MODULE] + [
        discriminant_module(make_lattice(g))
        for g in ([[2]], [[12]], [[2, 1], [1, 2]], [[2, 0], [0, 4]], [[4, 0], [0, 4]],
                  [[2, 0, 0], [0, 2, 0], [0, 0, 6]])
    ]
    rng = random.Random(11)
    for a, b, c in itertools.product(modules, repeat=3):
        for _ in range(3):
            f = random_homomorphism(rng, a, b)
            g = random_homomorphism(rng, b, c)
            composed = g.compose(f)
            assert composed.matrix == column_compose(g, f), (a.factors, b.factors, c.factors)
            if not b.is_trivial:
                assert compose_matrices(g.matrix, f.matrix, c.factors) == composed.matrix


class FractionLatticeDiscriminant:
    """LatticeDiscriminant as it was before it computed on integers:
    Fraction generators, b and q by a Fraction mat-vec, coords on G.y, and
    the isometry action as a bare matrix."""

    def __init__(self, lattice):
        self.lattice = lattice
        u, d, v = smith_normal_form(lattice.gram)
        n = lattice.rank
        diag = [d[i][i] for i in range(n)]
        positions = [i for i in range(n) if diag[i] > 1]
        gens = tuple(
            tuple(Fraction(v[r][j], diag[j]) for r in range(n)) for j in positions
        )
        bmat = tuple(tuple(self._pair(x, y) % 1 for y in gens) for x in gens)
        q = None
        if lattice.is_even or not gens:
            q = tuple(self._pair(g, g) % 2 for g in gens)
        self._umat = u
        self._diag = diag
        self._positions = positions
        self.factors = tuple(diag[i] for i in positions)
        self.generators, self.q, self.b = gens, q, bmat

    def _pair(self, x, y):
        gy = mat_vec(self.lattice.gram, y)
        return sum((a * b for a, b in zip(x, gy)), Fraction(0))

    def coords(self, dual_vector):
        x = []
        for entry in mat_vec(self.lattice.gram, dual_vector):
            f = Fraction(entry)
            if f.denominator != 1:
                raise LatfmError("vector does not lie in the dual lattice")
            x.append(f.numerator)
        c = mat_vec(self._umat, tuple(x))
        return tuple(c[p] % self._diag[p] for p in self._positions)

    def isometry_action(self, matrix):
        cols = [self.coords(mat_vec(matrix, g)) for g in self.generators]
        k = len(cols)
        return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except LatfmError as exc:
        return ("error", type(exc), str(exc))


def integer_grid_lattices():
    """Rank-1 [[2d]] for d <= 200, the members of build_family(c, d) for
    c <= 4 and d <= 3 with their complements in both ambients, and a few
    small, odd and unimodular lattices."""
    lattices = [make_lattice([[2 * d]]) for d in range(1, 201)]
    for c in range(1, 5):
        for d in range(1, 4):
            for member in build_family(c, d).members:
                lattices.append(member.lattice)
                for ambient in AMBIENTS:
                    embedding = embed_member(member, ambient)
                    lattices.append(orthogonal_complement(embedding).lattice())
    lattices += [
        make_lattice(g)
        for g in ([[2, 0], [0, 2]], [[3]], [[-5]], [[1, 0], [0, 3]],
                  [[3, 1], [1, 3]], [[2, 1], [1, 5]], [[2, 0, 0], [0, 2, 0], [0, 0, 6]],
                  # unequal factors with b(g_1, g_2) != 0
                  [[-8, -8], [-8, -6]], [[4, 2, 0], [2, 6, 0], [0, 0, 12]])
    ]
    return lattices + [U, E8, K3]


def test_integer_discriminant_matches_the_fraction_one():
    rng = random.Random(17)
    lattices = integer_grid_lattices()
    assert any(not lat.is_even for lat in lattices)
    for lat in lattices:
        old, new = FractionLatticeDiscriminant(lat), LatticeDiscriminant(lat)
        module = new.module
        assert module.factors == old.factors, lat.gram
        assert module.generators == tuple(
            tuple(x * f for x in g) for g, f in zip(old.generators, old.factors)
        ), lat.gram
        assert (module.q, module.b) == (old.q, old.b), lat.gram
        if lat.is_even:
            assert module.q is not None
        n = lat.rank
        gens = old.generators
        # dual vectors: combinations of the generators plus a lattice vector;
        # the last one is off the dual lattice unless the module is trivial
        vectors = [
            tuple(
                sum((a * g[r] for a, g in zip(coeffs, gens)), Fraction(0))
                + rng.randint(-5, 5)
                for r in range(n)
            )
            for coeffs in (
                [rng.randint(-2 * f, 2 * f) for f in old.factors]
                for _ in range(4)
            )
        ]
        vectors.append((Fraction(1, 2 * abs(lat.det) + 1),) + (0,) * (n - 1))
        for vec in vectors:
            denominator = lcm(*(x.denominator for x in map(Fraction, vec)))
            numerator = tuple(int(x * denominator) for x in vec)
            assert outcome(new.coords, numerator, denominator) == outcome(
                old.coords, vec
            ), lat.gram
        isometries = [identity(n), tuple(tuple(-x for x in row) for row in identity(n))]
        if n <= 2:
            budget = SearchBudget(entry_bound=3, node_limit=10**5)
            isometries += [w.matrix for w in enumerate_self_isometries(lat, budget)]
        for mat in isometries:
            assert new.isometry_action(mat) == old.isometry_action(mat), (lat.gram, mat)
