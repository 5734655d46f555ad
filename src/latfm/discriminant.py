"""Discriminant groups A_L = L*/L as finite quadratic modules.

A module stores its invariant factors (all > 1), integer generator columns
and one symmetric integer matrix over the exponent e (the last factor):
b(g_i, g_j) = gram[i][j] / e mod Z and, on an even module,
q(g_i) = gram[i][i] / e mod 2Z.  Entries are canonicalized into [0, e), the
diagonal of an even module into [0, 2e), so printed forms are unique.

An automorphism of one module is its generator matrix: a tuple of rows,
column j the image of generator j, row i reduced mod factors[i].  The
orthogonal group, the searches behind it and the action of a lattice
isometry all return such matrices.  A ModuleIsometry, which carries its
source and target, is built only where a caller keeps the map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .arith import unit_square_roots
from .errors import (
    LatfmError,
    NotPrimitiveError,
    NotUnimodularError,
    OddLatticeError,
    SearchSpaceTooLargeError,
)
from .intmat import (
    Mat,
    Vec,
    freeze,
    integer_solver,
    invariant_factors,
    mat_mul,
    mat_vec,
    smith_normal_form,
    vec_dot,
)
from .lattices import Lattice, SublatticeEmbedding, is_primitive, orthogonal_complement

DEFAULT_ORDER_BOUND = 10**6


@dataclass(frozen=True)
class FiniteQuadraticModule:
    """Finite abelian group in invariant-factor form with torsion forms b and q.

    Generator j is the integer column generators[j] divided by factors[j].
    even is False exactly when the module came from an odd lattice, where
    only the Q/Z-valued bilinear form is defined.
    """

    factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    even: bool = True

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        k = len(factors)
        if any(f <= 1 for f in factors):
            raise LatfmError("invariant factors must all exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise LatfmError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "generators", freeze(self.generators))
        if self.generators and len(self.generators) != k:
            raise LatfmError("generator count does not match factor count")
        gram = freeze(self.gram)
        if len(gram) != k or any(len(row) != k for row in gram):
            raise LatfmError("form matrix has wrong shape")
        e = self.exponent
        diagonal = 2 * e if self.even else e
        gram = tuple(
            tuple(x % (diagonal if i == j else e) for j, x in enumerate(row))
            for i, row in enumerate(gram)
        )
        object.__setattr__(self, "gram", gram)
        for i in range(k):
            for j in range(k):
                if gram[i][j] != gram[j][i]:
                    raise LatfmError("form matrix is not symmetric")
                if factors[i] * gram[i][j] % e:
                    raise LatfmError("b value incompatible with generator order")
            if self.even and factors[i] * factors[i] * gram[i][i] % (2 * e):
                raise LatfmError("q value incompatible with generator order")

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    @property
    def q(self) -> tuple[Fraction, ...] | None:
        """q(g_i) in [0, 2) for printing, or None on an odd module."""
        if not self.even:
            return None
        return tuple(Fraction(self.gram[i][i], self.exponent) for i in range(self.ell))

    @property
    def b(self) -> tuple[tuple[Fraction, ...], ...]:
        """b(g_i, g_j) in [0, 1) for printing."""
        e = self.exponent
        return tuple(tuple(Fraction(x % e, e) for x in row) for row in self.gram)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def ell(self) -> int:
        """Minimal number of generators."""
        return len(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def require_even(self) -> None:
        if not self.even:
            raise OddLatticeError("q is undefined on the discriminant of an odd lattice")

    def elements(self):
        return itertools.product(*(range(f) for f in self.factors))

    def reduce(self, elem: Vec) -> Vec:
        return tuple(a % f for a, f in zip(elem, self.factors))

    def element_order(self, elem: Vec) -> int:
        if not self.factors:
            return 1
        return lcm(*(f // gcd(f, a) for a, f in zip(elem, self.factors)))

    def q_of(self, elem: Vec) -> int:
        """q(elem) as an integer in [0, 2e), read over e."""
        self.require_even()
        return self._pairing(elem, elem) % (2 * self.exponent)

    def b_of(self, x: Vec, y: Vec) -> int:
        """b(x, y) as an integer in [0, e), read over e."""
        return self._pairing(x, y) % self.exponent

    def _pairing(self, x: Vec, y: Vec) -> int:
        return sum(
            a * sum(g * c for g, c in zip(row, y)) for a, row in zip(x, self.gram)
        )


def cyclic_module(order: int, qval: int, generator: Vec = ()) -> FiniteQuadraticModule:
    """Cyclic module of the given order with q(generator) = qval / order mod
    2Z; generator is an integer column over order."""
    if order == 1:
        return TRIVIAL_MODULE
    return FiniteQuadraticModule(
        factors=(order,),
        generators=(generator,) if generator else (),
        gram=((qval,),),
    )


TRIVIAL_MODULE = FiniteQuadraticModule(factors=(), generators=(), gram=())


class LatticeDiscriminant:
    """Discriminant module of a lattice plus the Smith-transform bookkeeping
    needed to express arbitrary dual vectors in generator coordinates.

    Generator j is v_j / f_j, with v_j an integer column of the Smith right
    transform and f_j its invariant factor.  The module's form matrix over
    the exponent e is v_i^t G v_j e / (f_i f_j), exact because G v_j lies in
    f_j Z^n."""

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        u, d, v = smith_normal_form(lattice.gram)
        n = lattice.rank
        positions = [i for i in range(n) if d[i][i] > 1]
        factors = tuple(d[p][p] for p in positions)
        columns = tuple(tuple(v[r][p] for r in range(n)) for p in positions)
        images = [mat_vec(lattice.gram, col) for col in columns]
        e = factors[-1] if factors else 1
        gram = tuple(
            tuple(vec_dot(x, gy) * e // (fi * fj) for gy, fj in zip(images, factors))
            for x, fi in zip(columns, factors)
        )
        self._rows = tuple(u[p] for p in positions)
        self.module = FiniteQuadraticModule(
            factors, columns, gram, even=lattice.is_even or not factors
        )

    def coords(self, numerator: Vec, denominator: int) -> Vec:
        """Generator coordinates of the class of the dual vector
        numerator / denominator."""
        x = []
        for entry in mat_vec(self.lattice.gram, numerator):
            if entry % denominator:
                raise LatfmError("vector does not lie in the dual lattice")
            x.append(entry // denominator)
        return self._functional_class(x)

    def _functional_class(self, functional: Vec) -> Vec:
        """Generator coordinates of the class of the dual vector y with
        G.y = functional, an integer vector."""
        return tuple(
            vec_dot(row, functional) % f
            for row, f in zip(self._rows, self.module.factors)
        )

    def isometry_action(self, matrix: Mat) -> Mat:
        """Generator matrix of the automorphism of the discriminant module
        induced by a lattice self-isometry given in column convention."""
        cols = [
            self.coords(mat_vec(matrix, col), f)
            for col, f in zip(self.module.generators, self.module.factors)
        ]
        return tuple(zip(*cols))


def discriminant_module(lattice: Lattice) -> FiniteQuadraticModule:
    """A_L = L*/L with its torsion forms, via the Smith normal form of the Gram
    matrix.  For odd lattices only b is defined and q is None."""
    return LatticeDiscriminant(lattice).module


def compose_matrices(outer: Mat, inner: Mat, factors) -> Mat:
    """outer . inner with row i reduced mod factors[i]: the generator matrix
    of outer o inner when factors are those of the target of outer."""
    cols = tuple(zip(*inner))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % f for col in cols)
        for row, f in zip(outer, factors)
    )


@dataclass(frozen=True)
class ModuleIsometry:
    """Homomorphism between finite quadratic modules in generator coordinates:
    column j is the image of the j-th source generator.

    The witness of is_isometric_modules preserves q; the gamma
    correspondence for complements produces the sign-flipped (anti-isometric)
    variant, checked by verify_anti_isometry.
    """

    source: FiniteQuadraticModule
    target: FiniteQuadraticModule
    matrix: Mat

    def __post_init__(self):
        k_t = self.target.ell
        k_s = self.source.ell
        mat = freeze(self.matrix)
        if len(mat) != k_t or any(len(row) != k_s for row in mat):
            raise LatfmError("isometry matrix has wrong shape")
        mat = tuple(
            tuple(x % f for x in row) for row, f in zip(mat, self.target.factors)
        )
        object.__setattr__(self, "matrix", mat)
        for j, d in enumerate(self.source.factors):
            for i, f in enumerate(self.target.factors):
                if (d * mat[i][j]) % f:
                    raise LatfmError("map is not a well-defined homomorphism")

    def apply(self, elem: Vec) -> Vec:
        return self.target.reduce(mat_vec(self.matrix, elem))

    def column(self, j: int) -> Vec:
        return tuple(self.matrix[i][j] for i in range(self.target.ell))

    def compose(self, inner: "ModuleIsometry") -> "ModuleIsometry":
        """self o inner (apply inner first)."""
        if inner.target != self.source:
            raise LatfmError("composition mismatch")
        if inner.target.is_trivial:
            # through the zero module; inner.matrix has no rows to read the
            # column count from
            mat = tuple((0,) * inner.source.ell for _ in self.target.factors)
        else:
            mat = compose_matrices(self.matrix, inner.matrix, self.target.factors)
        return ModuleIsometry(inner.source, self.target, mat)

    def is_bijective(self) -> bool:
        if self.source.factors != self.target.factors:
            return False
        if self.source.is_trivial:
            return True
        if self.source.ell == 1:
            return gcd(self.matrix[0][0], self.target.factors[0]) == 1
        images = [self.column(j) for j in range(self.source.ell)]
        return _generates(self.target, images)


def _generates(module: FiniteQuadraticModule, elems) -> bool:
    """True iff elems generate the module: their coordinate columns together
    with the relations f_i e_i span Z^ell."""
    rows = tuple(
        tuple(g[i] for g in elems) + tuple(f if j == i else 0 for j in range(module.ell))
        for i, f in enumerate(module.factors)
    )
    return all(x == 1 for x in invariant_factors(rows))


def scalar_matrix(module: FiniteQuadraticModule, c: int) -> Mat:
    """Generator matrix of x -> c x on the module."""
    k = module.ell
    return tuple(
        (0,) * i + (c % f,) + (0,) * (k - 1 - i) for i, f in enumerate(module.factors)
    )


def identity_isometry(module: FiniteQuadraticModule) -> ModuleIsometry:
    return ModuleIsometry(module, module, scalar_matrix(module, 1))


def negation_isometry(module: FiniteQuadraticModule) -> ModuleIsometry:
    return ModuleIsometry(module, module, scalar_matrix(module, -1))


def _scales_forms(iso: ModuleIsometry, sign: int) -> bool:
    """Bijective with q(image) = sign q mod 2Z and b(image) = sign b mod Z on
    all generators."""
    if not iso.is_bijective():
        return False
    # a bijection has equal factors on both sides, so both forms are read
    # over the same exponent
    source, target = iso.source, iso.target
    source.require_even()
    e = source.exponent
    k = source.ell
    cols = [iso.column(j) for j in range(k)]
    for j in range(k):
        if target.q_of(cols[j]) != sign * source.gram[j][j] % (2 * e):
            return False
    for i in range(k):
        for j in range(k):
            if target.b_of(cols[i], cols[j]) != sign * source.gram[i][j] % e:
                return False
    return True


def verify_isometry(iso: ModuleIsometry) -> bool:
    """Bijective and preserves q mod 2Z and b mod Z on all generators."""
    return _scales_forms(iso, 1)


def verify_anti_isometry(iso: ModuleIsometry) -> bool:
    """Bijective with q(image) = -q and b(image) = -b."""
    return _scales_forms(iso, -1)


def _element_buckets(module: FiniteQuadraticModule):
    buckets: dict = {}
    for elem in module.elements():
        key = (module.element_order(elem), module.q_of(elem))
        buckets.setdefault(key, []).append(elem)
    return buckets


def _isometry_search(
    a1: FiniteQuadraticModule,
    a2: FiniteQuadraticModule,
    find_all: bool,
):
    """Generator matrices of the isometries a1 -> a2.  Cyclic modules: the
    unit square roots in ascending order.  Otherwise backtracking over
    generator images; candidates are enumerated in lexicographic element
    order, so the first witness found is canonical."""
    a1.require_even()
    a2.require_even()
    results = []
    if a1.factors != a2.factors:
        return results
    k = a1.ell
    # the cyclic case solves for square roots and never lists the group
    if k > 1 and a1.order > DEFAULT_ORDER_BOUND:
        raise SearchSpaceTooLargeError(
            f"module order {a1.order} exceeds bound {DEFAULT_ORDER_BOUND}"
        )
    if k == 0:
        return [()]
    if k == 1:
        # q_i = g_i / f: alpha^2 q2 = q1 mod 2Z iff alpha^2 g2 = g1 mod 2f,
        # which is well defined mod f because f g_i is even
        f = a1.factors[0]
        roots = unit_square_roots(a2.gram[0][0], a1.gram[0][0], f, 2 * f)
        if not find_all:
            roots = roots[:1]
        return [((alpha,),) for alpha in roots]
    buckets = _element_buckets(a2)
    chosen: list = []

    def extend(i: int):
        if i == k:
            # each image has its generator's order, so the map is well defined
            if _generates(a2, chosen):
                results.append(tuple(zip(*chosen)))
                return not find_all
            return False
        for cand in buckets.get((a1.factors[i], a1.gram[i][i]), ()):
            if all(
                a2.b_of(cand, chosen[j]) == a1.gram[i][j] for j in range(i)
            ):
                chosen.append(cand)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    extend(0)
    return results


def is_isometric_modules(
    a1: FiniteQuadraticModule, a2: FiniteQuadraticModule
) -> ModuleIsometry | None:
    """Explicit isometry between finite quadratic modules, or None.

    Cyclic modules go through modular square roots (the least root is the
    witness); the generic case is an exhaustive search over generator images
    with pruning on (order, q) and b, refused above DEFAULT_ORDER_BOUND.
    """
    found = _isometry_search(a1, a2, find_all=False)
    return ModuleIsometry(a1, a2, found[0]) if found else None


def orthogonal_group_of_module(module: FiniteQuadraticModule) -> tuple[Mat, ...]:
    """Generator matrices of all q-preserving automorphisms, sorted."""
    return tuple(sorted(_isometry_search(module, module, find_all=True)))


def gamma_complement_map(
    ambient: Lattice, v: SublatticeEmbedding
) -> ModuleIsometry:
    """Natural correspondence A_V -> A_{V-perp} for a primitive sublattice of a
    unimodular lattice, computed by lifting dual vectors through the ambient
    lattice.  The result negates q and b (verified before returning)."""
    if not ambient.is_unimodular:
        raise NotUnimodularError("ambient lattice is not unimodular")
    if v.ambient != ambient:
        raise LatfmError("embedding does not live in the given ambient lattice")
    if not is_primitive(v):
        raise NotPrimitiveError("sublattice is not primitive")
    w = orthogonal_complement(v)
    if w.rank == 0:
        module = LatticeDiscriminant(v.lattice()).module
        if not module.is_trivial:
            raise LatfmError("full-rank primitive sublattice must be unimodular")
        return ModuleIsometry(module, TRIVIAL_MODULE, ())
    dv = LatticeDiscriminant(v.lattice())
    dw = LatticeDiscriminant(w.lattice())
    if dv.module.factors != dw.module.factors:
        raise LatfmError("complement discriminant has unexpected structure")
    pairing_v = mat_mul(v.basis, ambient.gram)  # rank(V) x n, row i = b(v_i, -)
    lift_through = integer_solver(pairing_v)  # one SNF for every generator
    pairing_w = mat_mul(w.basis, ambient.gram)
    cols = []
    for col, f in zip(dv.module.generators, dv.module.factors):
        # the functional G.(col / f) of a generator; exact, as col / f is dual
        functional = tuple(x // f for x in mat_vec(dv.lattice.gram, col))
        lift = lift_through(functional)
        if lift is None:
            raise LatfmError("dual vector does not lift to the ambient lattice")
        # b(w_i, lift) is the functional on V-perp of the same class
        cols.append(dw._functional_class(mat_vec(pairing_w, lift)))
    k = len(cols)
    mat = tuple(tuple(cols[j][i] for j in range(k)) for i in range(dw.module.ell))
    iso = ModuleIsometry(dv.module, dw.module, mat)
    if not verify_anti_isometry(iso):
        raise LatfmError("gamma correspondence failed its defining identity")
    return iso
