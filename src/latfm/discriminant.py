"""Discriminant groups A_L = L*/L as finite quadratic modules.

A module stores its invariant factors (all > 1), dual-coordinate generator
representatives, the quadratic values q(g_i) in Q/2Z and the bilinear values
b(g_i, g_j) in Q/Z.  Q/Z representatives are canonicalized into [0, 1) and
Q/2Z representatives into [0, 2) so printed forms are unique.
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
    invariant_factors,
    mat_mul,
    mat_vec,
    rational_solve,
    smith_normal_form,
    solve_integer,
)
from .lattices import Lattice, SublatticeEmbedding, is_primitive, orthogonal_complement

DEFAULT_ORDER_BOUND = 10**6


def _mod1(x) -> Fraction:
    return Fraction(x) % 1


def _mod2(x) -> Fraction:
    return Fraction(x) % 2


@dataclass(frozen=True)
class FiniteQuadraticModule:
    """Finite abelian group in invariant-factor form with torsion forms b and q.

    q is None exactly when the module came from an odd lattice, where only the
    Q/Z-valued bilinear form is defined.
    """

    factors: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]
    q: tuple[Fraction, ...] | None
    b: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        k = len(factors)
        if any(f <= 1 for f in factors):
            raise LatfmError("invariant factors must all exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise LatfmError("invariant factors must form a divisibility chain")
        gens = tuple(tuple(Fraction(x) for x in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if gens and len(gens) != k:
            raise LatfmError("generator count does not match factor count")
        bmat = tuple(tuple(_mod1(x) for x in row) for row in self.b)
        object.__setattr__(self, "b", bmat)
        if len(bmat) != k or any(len(row) != k for row in bmat):
            raise LatfmError("b table has wrong shape")
        for i in range(k):
            for j in range(k):
                if bmat[i][j] != bmat[j][i]:
                    raise LatfmError("b table is not symmetric")
                if _mod1(factors[i] * bmat[i][j]) != 0:
                    raise LatfmError("b value incompatible with generator order")
        if self.q is not None:
            qvals = tuple(_mod2(x) for x in self.q)
            object.__setattr__(self, "q", qvals)
            if len(qvals) != k:
                raise LatfmError("q table has wrong length")
            for i in range(k):
                if _mod2(factors[i] * factors[i] * qvals[i]) != 0:
                    raise LatfmError("q value incompatible with generator order")
                if _mod1(qvals[i]) != bmat[i][i]:
                    raise LatfmError("q and b disagree on the diagonal")

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

    def require_q(self) -> tuple[Fraction, ...]:
        if self.q is None:
            raise OddLatticeError("q is undefined on the discriminant of an odd lattice")
        return self.q

    def elements(self):
        return itertools.product(*(range(f) for f in self.factors))

    def reduce(self, elem: Vec) -> Vec:
        return tuple(a % f for a, f in zip(elem, self.factors))

    def element_order(self, elem: Vec) -> int:
        if not self.factors:
            return 1
        return lcm(*(f // gcd(f, a) for a, f in zip(elem, self.factors)))

    def q_of(self, elem: Vec) -> Fraction:
        qvals = self.require_q()
        total = Fraction(0)
        k = len(self.factors)
        for i in range(k):
            total += elem[i] * elem[i] * qvals[i]
            for j in range(i + 1, k):
                total += 2 * elem[i] * elem[j] * self.b[i][j]
        return _mod2(total)

    def b_of(self, x: Vec, y: Vec) -> Fraction:
        total = Fraction(0)
        k = len(self.factors)
        for i in range(k):
            for j in range(k):
                total += x[i] * y[j] * self.b[i][j]
        return _mod1(total)


def cyclic_module(order: int, qval, generator: tuple = ()) -> FiniteQuadraticModule:
    """Cyclic module of the given order with q(generator) = qval mod 2Z."""
    if order == 1:
        return TRIVIAL_MODULE
    q = _mod2(qval)
    return FiniteQuadraticModule(
        factors=(order,),
        generators=(tuple(Fraction(x) for x in generator),) if generator else (),
        q=(q,),
        b=((_mod1(q),),),
    )


TRIVIAL_MODULE = FiniteQuadraticModule(factors=(), generators=(), q=(), b=())


class LatticeDiscriminant:
    """Discriminant module of a lattice plus the Smith-transform bookkeeping
    needed to express arbitrary dual vectors in generator coordinates."""

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        u, d, v = smith_normal_form(lattice.gram)
        n = lattice.rank
        diag = [d[i][i] for i in range(n)]
        positions = [i for i in range(n) if diag[i] > 1]
        gens = tuple(
            tuple(Fraction(v[r][j], diag[j]) for r in range(n)) for j in positions
        )
        bmat = tuple(
            tuple(_mod1(self._pair(x, y)) for y in gens) for x in gens
        )
        q = None
        if lattice.is_even or not gens:
            q = tuple(_mod2(self._pair(g, g)) for g in gens)
        self._umat = u
        self._diag = diag
        self._positions = positions
        self.module = FiniteQuadraticModule(
            factors=tuple(diag[i] for i in positions),
            generators=gens,
            q=q,
            b=bmat,
        )

    def _pair(self, x, y) -> Fraction:
        gy = mat_vec(self.lattice.gram, y)
        return sum((a * b for a, b in zip(x, gy)), Fraction(0))

    def coords(self, dual_vector) -> Vec:
        """Generator coordinates of the class of a dual vector (rational
        coordinates y with G.y integral)."""
        gy = mat_vec(self.lattice.gram, dual_vector)
        x = []
        for entry in gy:
            f = Fraction(entry)
            if f.denominator != 1:
                raise LatfmError("vector does not lie in the dual lattice")
            x.append(f.numerator)
        c = mat_vec(self._umat, tuple(x))
        return tuple(c[p] % self._diag[p] for p in self._positions)

    def isometry_action(self, matrix: Mat) -> "ModuleIsometry":
        """Induced automorphism of the discriminant module of a lattice
        self-isometry given in column convention."""
        cols = [
            self.coords(mat_vec(matrix, g)) for g in self.module.generators
        ]
        k = len(cols)
        mat = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
        return ModuleIsometry(self.module, self.module, mat)


def discriminant_module(lattice: Lattice) -> FiniteQuadraticModule:
    """A_L = L*/L with its torsion forms, via the Smith normal form of the Gram
    matrix.  For odd lattices only b is defined and q is None."""
    return LatticeDiscriminant(lattice).module


@dataclass(frozen=True)
class ModuleIsometry:
    """Homomorphism between finite quadratic modules in generator coordinates:
    column j is the image of the j-th source generator.

    Instances produced by the search routines preserve q; the gamma
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
        k = inner.source.ell
        cols = [self.apply(inner.column(j)) for j in range(k)]
        mat = tuple(
            tuple(cols[j][i] for j in range(k)) for i in range(self.target.ell)
        )
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


def identity_isometry(module: FiniteQuadraticModule) -> ModuleIsometry:
    k = module.ell
    mat = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    return ModuleIsometry(module, module, mat)


def negation_isometry(module: FiniteQuadraticModule) -> ModuleIsometry:
    k = module.ell
    mat = tuple(
        tuple((-1 if i == j else 0) % module.factors[i] for j in range(k))
        for i in range(k)
    )
    return ModuleIsometry(module, module, mat)


def verify_isometry(iso: ModuleIsometry) -> bool:
    """Bijective and preserves q mod 2Z and b mod Z on all generators."""
    if not iso.is_bijective():
        return False
    q_s = iso.source.require_q()
    k = iso.source.ell
    cols = [iso.column(j) for j in range(k)]
    for j in range(k):
        if iso.target.q_of(cols[j]) != q_s[j]:
            return False
    for i in range(k):
        for j in range(k):
            if iso.target.b_of(cols[i], cols[j]) != iso.source.b[i][j]:
                return False
    return True


def verify_anti_isometry(iso: ModuleIsometry) -> bool:
    """Bijective with q(image) = -q and b(image) = -b."""
    if not iso.is_bijective():
        return False
    q_s = iso.source.require_q()
    k = iso.source.ell
    cols = [iso.column(j) for j in range(k)]
    for j in range(k):
        if iso.target.q_of(cols[j]) != _mod2(-q_s[j]):
            return False
    for i in range(k):
        for j in range(k):
            if iso.target.b_of(cols[i], cols[j]) != _mod1(-iso.source.b[i][j]):
                return False
    return True


def _element_buckets(module: FiniteQuadraticModule):
    buckets: dict = {}
    for elem in module.elements():
        key = (module.element_order(elem), module.q_of(elem))
        buckets.setdefault(key, []).append(elem)
    return buckets


def _isometry_search(
    a1: FiniteQuadraticModule,
    a2: FiniteQuadraticModule,
    order_bound: int,
    find_all: bool,
):
    """Cyclic modules: the unit square roots in ascending order.  Otherwise
    backtracking over generator images; candidates are enumerated in
    lexicographic element order, so the first witness found is canonical."""
    a1.require_q()
    a2.require_q()
    results = []
    if a1.factors != a2.factors:
        return results
    if a1.order > order_bound or a2.order > order_bound:
        raise SearchSpaceTooLargeError(
            f"module order {max(a1.order, a2.order)} exceeds bound {order_bound}"
        )
    k = a1.ell
    if k == 0:
        return [ModuleIsometry(a1, a2, ())]
    if k == 1:
        # q_i = N_i / D: alpha^2 q2 = q1 mod 2Z iff alpha^2 N2 = N1 mod 2D,
        # which is well defined mod m because D divides m
        q1, q2 = a1.q[0], a2.q[0]
        den = lcm(q1.denominator, q2.denominator)
        roots = unit_square_roots(
            q2.numerator * (den // q2.denominator),
            q1.numerator * (den // q1.denominator),
            a1.factors[0],
            2 * den,
        )
        if not find_all:
            roots = roots[:1]
        return [ModuleIsometry(a1, a2, ((alpha,),)) for alpha in roots]
    buckets = _element_buckets(a2)
    chosen: list = []

    def extend(i: int):
        if i == k:
            cols = list(chosen)
            mat = tuple(tuple(cols[j][r] for j in range(k)) for r in range(k))
            iso = ModuleIsometry(a1, a2, mat)
            if iso.is_bijective():
                results.append(iso)
                return not find_all
            return False
        for cand in buckets.get((a1.factors[i], a1.q[i]), ()):
            if all(
                a2.b_of(cand, chosen[j]) == a1.b[i][j] for j in range(i)
            ):
                chosen.append(cand)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    extend(0)
    return results


def is_isometric_modules(
    a1: FiniteQuadraticModule,
    a2: FiniteQuadraticModule,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> ModuleIsometry | None:
    """Explicit isometry between finite quadratic modules, or None.

    Cyclic modules go through modular square roots (the least root is the
    witness); the generic case is an exhaustive search over generator images
    with pruning on (order, q) and b.
    """
    found = _isometry_search(a1, a2, order_bound, find_all=False)
    return found[0] if found else None


def orthogonal_group_of_module(
    module: FiniteQuadraticModule, order_bound: int = DEFAULT_ORDER_BOUND
) -> tuple[ModuleIsometry, ...]:
    """All q-preserving automorphisms, sorted by matrix."""
    group = _isometry_search(module, module, order_bound, find_all=True)
    return tuple(sorted(group, key=lambda iso: iso.matrix))


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
    pairing_w = mat_mul(w.basis, ambient.gram)
    cols = []
    for gen in dv.module.generators:
        rhs = mat_vec(dv.lattice.gram, gen)
        rhs_int = []
        for x in rhs:
            f = Fraction(x)
            if f.denominator != 1:
                raise LatfmError("generator is not a dual vector")
            rhs_int.append(f.numerator)
        lift = solve_integer(pairing_v, tuple(rhs_int))
        if lift is None:
            raise LatfmError("dual vector does not lift to the ambient lattice")
        wfun = mat_vec(pairing_w, lift)
        ycoords = rational_solve(dw.lattice.gram, wfun)
        if ycoords is None:
            raise LatfmError("projection to the complement dual failed")
        cols.append(dw.coords(ycoords))
    k = len(cols)
    mat = tuple(tuple(cols[j][i] for j in range(k)) for i in range(dw.module.ell))
    iso = ModuleIsometry(dv.module, dw.module, mat)
    if not verify_anti_isometry(iso):
        raise LatfmError("gamma correspondence failed its defining identity")
    return iso


def mulclose(isos) -> tuple[ModuleIsometry, ...]:
    """Closure of a set of module automorphisms under composition."""
    seen = {iso.matrix: iso for iso in isos}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen.values()):
                for c in (a.compose(b), b.compose(a)):
                    if c.matrix not in seen:
                        seen[c.matrix] = c
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda iso: iso.matrix))
