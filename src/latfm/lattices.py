"""Integral lattices with exact Gram-matrix arithmetic.

A lattice is a free Z-module of finite rank carrying a non-degenerate
symmetric integer bilinear form; everything is stored as an exact Gram
matrix.  Vectors are columns, so a change of basis B acts on the Gram
matrix as B^t G B.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Callable, NamedTuple

from .errors import (
    DegenerateError,
    LatfmError,
    NotIsotropicError,
    NotPrimitiveError,
    NotSymmetricError,
    ZeroScaleError,
)
from .frozen import Frozen
from .intmat import (
    Mat,
    Vec,
    complete_primitive_vector,
    freeze,
    hermite_normal_form,
    integer_solver,
    invariant_factors,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank as matrix_rank,
    solve_integer,  # noqa: F401  (re-exported; perfbench traces this binding)
    transpose,
)


class Signature(NamedTuple):
    plus: int
    minus: int

    @property
    def rank(self) -> int:
        return self.plus + self.minus


def _signature_of_gram(gram: Mat) -> tuple[int, Signature]:
    """Determinant and Sylvester signature of a symmetric integer matrix.

    Rank 1 and 2 take a straight-line form, which returns what
    _signature_loop returns: [[a, b], [b, c]] has det = ac - b^2; it is
    definite of the sign of a when det > 0, indefinite when det < 0, and
    when det = 0 its form modulo the radical has the sign of its first
    nonzero diagonal entry, or is zero.
    """
    if len(gram) == 1:
        ((a,),) = gram
        return a, Signature(int(a > 0), int(a < 0))
    if len(gram) == 2:
        (a, b), (_, c) = gram
        det = a * c - b * b
        if det > 0:
            return det, Signature(2, 0) if a > 0 else Signature(0, 2)
        if det < 0:
            return det, Signature(1, 1)
        x = a or c
        return 0, Signature(int(x > 0), int(x < 0))
    return _signature_loop(gram)


def _signature_loop(gram: Mat) -> tuple[int, Signature]:
    """Determinant and Sylvester signature by one fraction-free symmetric
    elimination.

    Pivots are diagonal and updated in Bareiss form, a_ij <- (p a_ij - a_ip
    a_pj) / prev, so every entry is a minor and each division is exact; the
    pivots are the leading principal minors D_1, ..., D_n of a congruent
    matrix, the last one is the determinant, and the sign changes in
    1, D_1, ..., D_n count the negative squares (Jacobi).  If every active
    diagonal entry vanishes, the unimodular congruence e_p -> e_p + e_q puts
    2 a_pq on the diagonal.  An all-zero active block means determinant 0;
    the signature is then that of the form modulo its radical.
    """
    a = [list(row) for row in gram]
    prev = 1
    rank = minus = 0
    while a:
        p = next((i for i, row in enumerate(a) if row[i]), None)
        if p is None:
            pq = next(
                ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x),
                None,
            )
            if pq is None:
                break
            p, q = pq
            # e_p -> e_p + e_q: row p += row q, then column p += column q
            a[p] = [x + y for x, y in zip(a[p], a[q])]
            for row in a:
                row[p] += row[q]
        prow = a.pop(p)
        piv = prow.pop(p)
        for i, row in enumerate(a):
            c = row.pop(p)
            if c or piv != prev:
                a[i] = [(piv * x - c * y) // prev for x, y in zip(row, prow)]
        if (piv < 0) != (prev < 0):
            minus += 1
        prev = piv
        rank += 1
    det = prev if rank == len(gram) else 0
    return det, Signature(rank - minus, minus)


class Lattice(Frozen):
    """Non-degenerate integral lattice given by its Gram matrix.

    det and signature are computed once, here, by _signature_of_gram."""

    _fields = ("gram",)

    def __init__(self, gram: Mat):
        try:
            g = tuple(map(tuple, gram))
        except TypeError:
            raise LatfmError("Gram matrix must be a list of rows") from None
        for row in g:
            for x in row:
                if type(x) is not int:
                    raise LatfmError("Gram matrix entries must be integers")
        n = len(g)
        if n == 0:
            raise LatfmError("Gram matrix must be square of positive size")
        for row in g:
            if len(row) != n:
                raise LatfmError("Gram matrix must be square of positive size")
        for i in range(1, n):
            row = g[i]
            for j in range(i):
                if row[j] != g[j][i]:
                    raise NotSymmetricError(f"gram[{i}][{j}] != gram[{j}][{i}]")
        det_signature = _signature_of_gram(g)
        if det_signature[0] == 0:
            raise DegenerateError("Gram matrix has determinant zero")
        self.__dict__.update(gram=g, _det_signature=det_signature)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return self._det_signature[0]

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def signature(self) -> Signature:
        return self._det_signature[1]

    @property
    def is_unimodular(self) -> bool:
        return abs(self.det) == 1

    def dot(self, x: Vec, y: Vec):
        gy = mat_vec(self.gram, y)
        return sum(a * b for a, b in zip(x, gy))

    def square(self, x: Vec):
        return self.dot(x, x)


def make_lattice(gram) -> Lattice:
    return Lattice(gram)


def direct_sum(*lattices: Lattice) -> Lattice:
    if not lattices:
        raise LatfmError("direct sum of no lattices")
    n = sum(lat.rank for lat in lattices)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                rows[offset + i][offset + j] = lat.gram[i][j]
        offset += lat.rank
    return Lattice(rows)


def rescale(lattice: Lattice, k: int) -> Lattice:
    if k == 0:
        raise ZeroScaleError("cannot rescale by zero")
    return Lattice([k * x for x in row] for row in lattice.gram)


class SublatticeEmbedding(Frozen):
    """Sublattice of an ambient lattice, spanned by the given coordinate vectors."""

    _fields = ("ambient", "basis")

    def __init__(self, ambient: Lattice, basis: tuple[Vec, ...]):
        basis = tuple(map(tuple, basis))
        n = ambient.rank
        for v in basis:
            if len(v) != n:
                raise LatfmError("basis vector length does not match ambient rank")
        for v in basis:
            for x in v:
                if type(x) is not int:  # bool is refused too
                    raise LatfmError("basis entries must be integers")
        if basis and matrix_rank(basis) != len(basis):
            raise LatfmError("basis vectors are linearly dependent")
        self.__dict__.update(ambient=ambient, basis=basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def matrix(self) -> Mat:
        # ambient.rank x rank; columns are the basis vectors
        return transpose(self.basis)

    @cached_property
    def induced_gram(self) -> Mat:
        b = self.matrix
        return mat_mul(transpose(b), mat_mul(self.ambient.gram, b))

    def lattice(self) -> Lattice:
        return Lattice(self.induced_gram)


def orthogonal_complement(v: SublatticeEmbedding) -> SublatticeEmbedding:
    """Saturated orthogonal complement, with HNF-canonical basis."""
    pairing = mat_mul(v.basis, v.ambient.gram)  # rank x n, rows = b(v_i, -)
    kern = kernel_basis(pairing)
    return SublatticeEmbedding(v.ambient, hermite_normal_form(kern))


def is_primitive(v: SublatticeEmbedding) -> bool:
    """True iff ambient/V is torsion-free (all coordinate invariant factors 1)."""
    if not v.basis:
        return True
    return all(f == 1 for f in invariant_factors(v.matrix))


def is_primitive_vector(x: Vec) -> bool:
    g = 0
    for entry in x:
        g = gcd(g, entry)
    return g == 1


class IsotropicQuotient(Frozen):
    """Quotient V/Zv of a sublattice by a primitive isotropic vector it contains,
    together with the projection V -> V/Zv in coordinates."""

    _fields = ("lattice", "_projection")  # _solve is neither compared nor printed

    def __init__(self, lattice: Lattice, _projection: Mat, _solve: Callable):
        object.__setattr__(self, "lattice", lattice)
        # (rank-1) x rank, applied to coordinates in V
        object.__setattr__(self, "_projection", _projection)
        object.__setattr__(self, "_solve", _solve)  # integer_solver(V.matrix)

    def project(self, x: Vec) -> Vec:
        """Coordinates in the quotient of an ambient vector lying in V."""
        coords = self._solve(x)
        if coords is None:
            raise LatfmError("vector does not lie in the sublattice")
        return mat_vec(self._projection, coords)


def isotropic_quotient(v_perp: SublatticeEmbedding, v: Vec) -> IsotropicQuotient:
    ambient = v_perp.ambient
    if ambient.square(v) != 0:
        raise NotIsotropicError("vector has nonzero square")
    if not is_primitive_vector(v):
        raise NotPrimitiveError("vector is not primitive in the ambient lattice")
    gv = mat_vec(ambient.gram, v)
    if any(vec_pairing != 0 for vec_pairing in mat_vec(v_perp.basis, gv)):
        raise LatfmError("sublattice is not contained in the orthogonal of v")
    if v_perp.rank != ambient.rank - 1:
        raise LatfmError("sublattice does not span the full orthogonal of v")
    solve = integer_solver(v_perp.matrix)
    coords = solve(v)
    if coords is None:
        raise LatfmError("v does not lie in the sublattice")
    if not is_primitive_vector(coords):
        raise NotPrimitiveError("v is not primitive inside the sublattice")
    w, w_inv = complete_primitive_vector(coords)
    lifted = transpose(mat_mul(v_perp.matrix, w))[1:]
    gram = mat_mul(lifted, mat_mul(ambient.gram, transpose(lifted)))
    return IsotropicQuotient(
        lattice=Lattice(gram),
        _projection=w_inv[1:],
        _solve=solve,
    )


def _e8_gram() -> Mat:
    # Dynkin diagram: chain 0-1-2-3-4-5-6 with node 7 attached to node 2
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return freeze(rows)


U = Lattice(((0, 1), (1, 0)))
E8 = Lattice(_e8_gram())
E8_MINUS = rescale(E8, -1)
K3 = direct_sum(U, U, U, E8_MINUS, E8_MINUS)
