import random
from fractions import Fraction

import pytest

from latfm.errors import (
    DegenerateError,
    LatfmError,
    NotIsotropicError,
    NotPrimitiveError,
    NotSymmetricError,
    ZeroScaleError,
)
from latfm import lattices
from latfm.intmat import det, freeze, rank
from latfm.lattices import (
    E8,
    E8_MINUS,
    K3,
    U,
    Lattice,
    Signature,
    SublatticeEmbedding,
    _signature_of_gram,
    direct_sum,
    is_primitive,
    isotropic_quotient,
    make_lattice,
    orthogonal_complement,
    rescale,
)
from latfm.mukai import MUKAI, enumerate_mukai_vectors, moduli_lattice_shadow

UU = direct_sum(U, U)


def leading_minors_positive(lat):
    # independent positive-definiteness check via leading principal minors
    g = lat.gram
    return all(det(tuple(row[: k + 1] for row in g[: k + 1])) > 0
               for k in range(lat.rank))


def random_lattices(count, seed, max_rank=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_rank)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        try:
            out.append(Lattice(tuple(tuple(r) for r in rows)))
        except LatfmError:
            continue
    return out


class TestConstruction:
    def test_hyperbolic_plane(self):
        assert U.det == -1

    def test_family_matrix(self):
        lat = make_lattice([[2, 3], [3, 0]])
        assert lat.det == -9

    def test_rank_one(self):
        for d in (1, 2, 5):
            assert make_lattice([[2 * d]]).det == 2 * d

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            make_lattice([[1, 1], [2, 1]])

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            make_lattice([[1, 1], [1, 1]])

    def test_not_square(self):
        with pytest.raises(LatfmError):
            make_lattice([[1, 0]])


class TestEmbeddingConstruction:
    @pytest.mark.parametrize("basis", [((1.5, 0, 0, 0),), ((True, 0, 0, 0),), ("abcd",),
                                       ((1, 0, 0, 0), (0, 1, 0.0, 0)),
                                       ((1, 0, 0, 0), (0, False, 1, 0))])
    def test_refuses_basis_entries_that_are_not_ints(self, basis):
        with pytest.raises(LatfmError) as info:
            SublatticeEmbedding(UU, basis)
        assert str(info.value) == "basis entries must be integers"

    def test_a_short_vector_is_refused_before_its_entries(self):
        with pytest.raises(LatfmError, match="length does not match"):
            SublatticeEmbedding(UU, ((1.5, 0, 0, 0), (1, 0)))


class TestInvariants:
    def test_is_even(self):
        assert U.is_even
        assert make_lattice([[2, 3], [3, 0]]).is_even
        assert not make_lattice([[1]]).is_even

    def test_signature_u(self):
        assert U.signature == Signature(1, 1)

    def test_signature_e8(self):
        assert E8_MINUS.signature == Signature(0, 8)
        # independent route: E8 is positive definite by its leading minors
        assert leading_minors_positive(E8)

    def test_signature_family(self):
        for d in (1, 2, 5):
            for n in (1, 3, 7):
                lat = make_lattice([[2 * d, n], [n, 0]])
                assert lat.signature == Signature(1, 1)

    def test_k3_lattice(self):
        assert K3.rank == 22
        assert K3.det == -1
        assert K3.signature == Signature(3, 19)
        assert K3.is_even

    def test_signature_consistent_with_det_rank2(self):
        # independent cross-check: for rank 2, det < 0 iff signature (1,1)
        for lat in random_lattices(30, seed=99, max_rank=2):
            if lat.rank != 2:
                continue
            sig = lat.signature
            if lat.det < 0:
                assert sig == Signature(1, 1)
            else:
                assert sig in (Signature(2, 0), Signature(0, 2))


class TestSumsAndRescale:
    def test_k3_assembly(self):
        lam = direct_sum(U, U, U, E8_MINUS, E8_MINUS)
        assert lam.gram == K3.gram

    def test_uu(self):
        assert UU.rank == 4
        assert UU.det == 1

    def test_rank_one_sum(self):
        s = direct_sum(make_lattice([[2]]), make_lattice([[-2]]))
        assert s.det == -4

    def test_det_and_signature_random(self):
        lats = random_lattices(10, seed=12)
        for a in lats[:5]:
            for b in lats[5:]:
                s = direct_sum(a, b)
                assert s.det == a.det * b.det
                assert s.signature.plus == a.signature.plus + b.signature.plus
                assert s.signature.minus == a.signature.minus + b.signature.minus

    def test_rescale(self):
        assert rescale(U, -1).gram == ((0, -1), (-1, 0))
        assert rescale(E8, -1).gram == E8_MINUS.gram
        assert rescale(make_lattice([[2]]), 3).gram == ((6,),)

    def test_rescale_zero(self):
        with pytest.raises(ZeroScaleError):
            rescale(U, 0)

    def test_rescale_swaps_signature(self):
        for lat in (U, E8, E8_MINUS, K3):
            flipped = rescale(lat, -1)
            assert flipped.signature == Signature(lat.signature.minus,
                                                  lat.signature.plus)


class TestComplements:
    def test_h_complement_in_k3(self):
        for d in (1, 2, 3):
            h = (1, d) + (0,) * 20
            comp = orthogonal_complement(SublatticeEmbedding(K3, (h,)))
            assert comp.rank == 21
            lat = comp.lattice()
            assert lat.signature == Signature(2, 19)
            assert abs(lat.det) == 2 * d  # unimodular ambient: |det V| = |det V-perp|

    def test_family_complement_in_uu(self):
        for d, n in ((1, 3), (2, 3), (3, 5)):
            emb = SublatticeEmbedding(UU, ((1, d, 0, 0), (0, n, 1, 0)))
            comp = orthogonal_complement(emb)
            assert comp.rank == 2
            assert comp.lattice().signature == Signature(1, 1)
            assert abs(comp.lattice().det) == n * n

    def test_first_u_factor(self):
        emb = SublatticeEmbedding(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        comp = orthogonal_complement(emb)
        assert comp.basis == ((0, 0, 1, 0), (0, 0, 0, 1))
        assert comp.induced_gram == U.gram

    def test_complement_is_primitive(self):
        emb = SublatticeEmbedding(UU, ((2, 0, 0, 0),))
        comp = orthogonal_complement(emb)
        assert is_primitive(comp)
        assert comp.rank == 3

    def test_rank_additivity(self):
        emb = SublatticeEmbedding(K3, ((1, 5) + (0,) * 20,))
        comp = orthogonal_complement(emb)
        assert emb.rank + comp.rank == K3.rank


class TestPrimitivity:
    def test_h_vector(self):
        for d in (1, 4, 9):
            assert is_primitive(SublatticeEmbedding(K3, ((1, d) + (0,) * 20,)))

    def test_index_two(self):
        assert not is_primitive(SublatticeEmbedding(U, ((2, 0),)))

    def test_family_embedding(self):
        for d, n in ((1, 3), (4, 9), (5, 7)):
            emb = SublatticeEmbedding(UU, ((1, d, 0, 0), (0, n, 1, 0)))
            assert is_primitive(emb)

    def test_dependent_basis_rejected(self):
        with pytest.raises(LatfmError):
            SublatticeEmbedding(UU, ((1, 0, 0, 0), (2, 0, 0, 0)))


class TestIsotropicQuotient:
    def test_uu_by_basis_vector(self):
        v = (1, 0, 0, 0)
        vperp = orthogonal_complement(SublatticeEmbedding(UU, (v,)))
        quotient = isotropic_quotient(vperp, v).lattice
        assert quotient.rank == 2
        assert quotient.det == -1
        assert quotient.is_even
        assert quotient.signature == Signature(1, 1)

    def test_not_isotropic(self):
        v = (1, 1, 0, 0)  # square 2
        vperp = orthogonal_complement(SublatticeEmbedding(UU, (v,)))
        with pytest.raises(NotIsotropicError):
            isotropic_quotient(vperp, v)

    def test_not_primitive(self):
        v = (1, 0, 0, 0)
        vperp = orthogonal_complement(SublatticeEmbedding(UU, (v,)))
        with pytest.raises(NotPrimitiveError):
            isotropic_quotient(vperp, (2, 0, 0, 0))

    def test_wrong_sublattice(self):
        v = (1, 0, 0, 0)
        small = SublatticeEmbedding(UU, ((1, 0, 0, 0), (0, 0, 1, 0)))
        with pytest.raises(LatfmError):
            isotropic_quotient(small, v)

    def test_project_rejects_vector_outside_sublattice(self):
        v = (1, 0, 0, 0)
        vperp = orthogonal_complement(SublatticeEmbedding(UU, (v,)))
        quot = isotropic_quotient(vperp, v)
        with pytest.raises(LatfmError):
            quot.project((0, 1, 0, 0))  # pairs to 1 with v

    def test_project_on_unsaturated_sublattice(self):
        # V = <v, 2 e_3, e_4> has index 2 in v-perp: e_3 lies in V (x) Q only
        v = (1, 0, 0, 0)
        vsub = SublatticeEmbedding(UU, (v, (0, 0, 2, 0), (0, 0, 0, 1)))
        quot = isotropic_quotient(vsub, v)
        assert quot.lattice.gram == ((0, 2), (2, 0))
        assert quot.project(v) == (0, 0)
        assert quot.lattice.square(quot.project((0, 0, 2, 1))) == UU.square((0, 0, 2, 1))
        with pytest.raises(LatfmError):
            quot.project((0, 0, 1, 0))

    def test_projection_roundtrip(self):
        v = (1, 0, 0, 0)
        vperp = orthogonal_complement(SublatticeEmbedding(UU, (v,)))
        quot = isotropic_quotient(vperp, v)
        # v itself projects to zero
        assert quot.project(v) == (0,) * quot.lattice.rank
        # pairings descend to the quotient
        for x in vperp.basis:
            for y in vperp.basis:
                assert quot.lattice.dot(quot.project(x), quot.project(y)) == UU.dot(x, y)


def fraction_signature(gram):
    """Sylvester signature by symmetric elimination over Q, with 1x1 pivots
    and hyperbolic 2x2 block pivots; the oracle for the integer elimination."""
    work = [[Fraction(x) for x in row] for row in gram]
    active = list(range(len(gram)))
    plus = minus = 0
    while active:
        p = next((i for i in active if work[i][i] != 0), None)
        if p is not None:
            val = work[p][p]
            if val > 0:
                plus += 1
            else:
                minus += 1
            rest = [i for i in active if i != p]
            for i in rest:
                ci = work[i][p] / val
                if ci:
                    for j in rest:
                        work[i][j] -= ci * work[p][j]
            active = rest
            continue
        pq = next(
            ((i, j) for i in active for j in active if i < j and work[i][j] != 0),
            None,
        )
        if pq is None:
            raise DegenerateError("form is degenerate")
        p, q = pq
        a = work[p][q]
        plus += 1
        minus += 1
        rest = [i for i in active if i != p and i != q]
        for i in rest:
            cp = work[i][p] / a
            cq = work[i][q] / a
            if cp or cq:
                for j in rest:
                    work[i][j] -= cp * work[q][j] + cq * work[p][j]
        active = rest
    return Signature(plus, minus)


def check_against_the_oracle(gram) -> bool:
    """One integer elimination against intmat.det and the Fraction
    signature; returns whether the form is non-degenerate."""
    got_det, got_sig = _signature_of_gram(gram)
    assert got_det == det(gram), gram
    if got_det == 0:
        with pytest.raises(DegenerateError):
            fraction_signature(gram)
        # the signature of the form modulo its radical
        assert got_sig.rank == rank(gram), gram
        return False
    assert got_sig == fraction_signature(gram), gram
    return True


class TestEliminationAgainstTheFractionOracle:
    def test_seeded_symmetric_grid(self):
        # rank 1-7, entries -3..3, 40% with a zero diagonal, so the
        # e_p -> e_p + e_q step and the all-zero block both occur
        rng = random.Random(1)
        outcomes = []
        for _ in range(20000):
            n = rng.randint(1, 7)
            zero_diagonal = rng.random() < 0.4
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
                if zero_diagonal:
                    rows[i][i] = 0
            outcomes.append(check_against_the_oracle(tuple(map(tuple, rows))))
        assert outcomes.count(True) == 17652

    def test_builtin_lattices(self):
        for lat in (U, E8_MINUS, K3, MUKAI):
            assert check_against_the_oracle(lat.gram)
            assert (lat.det, lat.signature) == _signature_of_gram(lat.gram)

    def test_shadow_quotients_of_degree_60060(self):
        vectors = enumerate_mukai_vectors(30030)
        assert len(vectors) == 64
        for v in vectors:
            quotient = moduli_lattice_shadow(v).quotient
            assert check_against_the_oracle(quotient.gram)
            assert (quotient.det, quotient.signature) == (-1, Signature(3, 19))

    def test_degenerate_gram_gives_det_zero(self):
        for gram in (((0,),), ((0, 0), (0, 0)), ((1, 1), (1, 1)),
                     ((0, 1, 1), (1, 0, 1), (1, 1, 2)),
                     ((2, 3, 5), (3, 0, 3), (5, 3, 8))):
            assert not check_against_the_oracle(gram)
            with pytest.raises(DegenerateError, match="determinant zero"):
                Lattice(gram)


class TestSignatureStraightLine:
    """The straight-line rank-1 and rank-2 signature against the Bareiss
    loop it stands in for, det included: every symmetric 1x1 and 2x2 with
    entries in [-6, 6] (13 + 13^3 = 2210 matrices), det = 0 and a zero
    diagonal among them.  The grid kills `x = a or c` -> `x = a` (on
    [[0, 0], [0, c]]), Signature(2, 0) and Signature(0, 2) swapped on
    det > 0, a det of a c + b^2, and a 1x1 zero read as Signature(1, 0)."""

    def test_every_small_symmetric_matrix(self):
        entries = range(-6, 7)
        grams = [((a,),) for a in entries]
        grams += [((a, b), (b, c)) for a in entries for b in entries for c in entries]
        assert len(grams) == 2210
        for gram in grams:
            assert _signature_of_gram(gram) == lattices._signature_loop(gram), gram

    def test_small_ranks_take_the_straight_line(self, monkeypatch):
        def refuse(gram):
            raise AssertionError("rank <= 2 went to the loop")

        monkeypatch.setattr(lattices, "_signature_loop", refuse)
        assert _signature_of_gram(((-4,),)) == (-4, Signature(0, 1))
        assert _signature_of_gram(((2, 3), (3, 0))) == (-9, Signature(1, 1))
        assert _signature_of_gram(((0, 0), (0, -5))) == (0, Signature(0, 1))


def reference_lattice(gram):
    """Lattice.__init__ before it was written as plain loops: freeze, any()
    over the entries and rows, and the determinant checked last, here with
    det and signature read from intmat.det and the Fraction signature.
    Returns (gram, det, signature) or raises what the constructor raised."""
    try:
        g = freeze(gram)
    except TypeError:
        raise LatfmError("Gram matrix must be a list of rows") from None
    if any(type(x) is not int for row in g for x in row):
        raise LatfmError("Gram matrix entries must be integers")
    n = len(g)
    if n == 0 or any(len(row) != n for row in g):
        raise LatfmError("Gram matrix must be square of positive size")
    for i in range(n):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise NotSymmetricError(f"gram[{i}][{j}] != gram[{j}][{i}]")
    if det(g) == 0:
        raise DegenerateError("Gram matrix has determinant zero")
    return g, det(g), fraction_signature(g)


def malformed_grams(rng, rows):
    """Copies of a square int matrix (a list of lists) broken one way each."""
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)

    def with_entry(value, at=(i, j)):
        out = [list(row) for row in rows]
        out[at[0]][at[1]] = value
        return out

    def with_row(value):
        return rows[:i] + [value] + rows[i + 1:]

    yield with_entry(float(rows[i][j]))
    yield with_entry(rng.choice([True, False]))
    yield with_entry(str(rows[i][j]))
    yield with_row(rows[i][:-1])  # ragged
    yield with_row(rows[i][0])  # an int row
    yield with_row("x" * n)  # a str row
    yield rows + [rows[0]]
    yield rows[:i] + rows[i + 1:]
    if n > 1:
        k = (i + 1) % n
        yield with_entry(rows[i][k] + 1, at=(i, k))  # asymmetric


def constructed(make, gram):
    try:
        lat = make(gram)
    except Exception as err:  # the type and message are compared
        return type(err), str(err)
    return (lat.gram, lat.det, lat.signature) if isinstance(lat, Lattice) else lat


class TestConstructorAgainstTheReferenceValidation:
    """The straight-line Lattice constructor against the freeze and any()
    validation it replaced, on a seeded grid of ranks 1-4 (entries -3..3,
    some degenerate) and of the same matrices broken one way each: a float,
    bool or str entry, ragged, too many or too few rows, an int row, a str
    row and an asymmetric entry; plus empty and non-iterable inputs.  Both
    give the same gram, det and signature, or the same error type and
    message."""

    def test_seeded_grid(self):
        rng = random.Random(33)
        grams = [(), [], [[]], [()], 5, None, "ab", ["ab", "cd"], [[1, 2], 3], [[True]],
                 [[1.0]], ((0,),), ([2, 1], (1, 2))]
        for _ in range(600):
            n = rng.randint(1, 4)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            grams.append(rows)
            grams.append(tuple(map(tuple, rows)))
            grams.extend(malformed_grams(rng, rows))
        outcomes = set()
        for gram in grams:
            want = constructed(reference_lattice, gram)
            assert constructed(Lattice, gram) == want, gram
            outcomes.add(want[0] if isinstance(want[0], type) else "ok")
        assert outcomes == {"ok", LatfmError, NotSymmetricError, DegenerateError}
        # an iterator of rows is read once, by both
        rows = [[1, 0], [0, -1]]
        assert constructed(Lattice, iter(rows)) == constructed(reference_lattice, iter(rows))
