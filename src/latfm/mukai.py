"""Extended Mukai lattice, Mukai vectors and the lattice shadow of their
moduli spaces.

Coordinates on the rank-24 lattice are (r, <22 middle coordinates>, s): the
H^0 component first, then the K3 lattice block, then H^4, with pairing
(r, h, s).(r', h', s') = -r s' + h.h' - s r'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import LatfmError, NotIsotropicError, NotPrimitiveError
from .fmcount import prime_power_blocks
from .intmat import Vec, freeze, hermite_normal_form
from .lattices import (
    K3,
    IsotropicQuotient,
    Lattice,
    SublatticeEmbedding,
    isotropic_quotient,
    orthogonal_complement,
)


def _mukai_gram():
    n = K3.rank + 2
    rows = [[0] * n for _ in range(n)]
    rows[0][n - 1] = rows[n - 1][0] = -1
    for i in range(K3.rank):
        for j in range(K3.rank):
            rows[1 + i][1 + j] = K3.gram[i][j]
    return freeze(rows)


MUKAI = Lattice(_mukai_gram())


def mukai_pairing(x: Vec, y: Vec) -> int:
    """Signed pairing on full rank-24 vectors."""
    if len(x) != MUKAI.rank or len(y) != MUKAI.rank:
        raise LatfmError("expected full rank-24 vectors")
    return MUKAI.dot(x, y)


@dataclass(frozen=True)
class MukaiVector:
    """Triple (r, m.h, s) over a degree-2d polarization h; h_mult is the
    multiple m of h in the middle component."""

    r: int
    h_mult: int
    s: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise LatfmError("polarization degree parameter d must be positive")
        if gcd(gcd(self.r, self.h_mult), self.s) != 1:
            raise NotPrimitiveError("gcd(r, h_mult, s) must be 1")

    @property
    def square(self) -> int:
        return 2 * self.d * self.h_mult * self.h_mult - 2 * self.r * self.s

    @property
    def is_isotropic(self) -> bool:
        return self.square == 0

    def swapped(self) -> "MukaiVector":
        return MukaiVector(self.s, self.h_mult, self.r, self.d)

    @property
    def class_key(self) -> tuple[int, int, int]:
        lo, hi = sorted((self.r, self.s))
        return (self.h_mult, lo, hi)


def enumerate_mukai_vectors(d: int) -> tuple[MukaiVector, ...]:
    """All vectors (r, h, s) with r s = d built from partitions of the
    prime-power blocks of d; every one is isotropic and primitive."""
    if d < 1:
        raise LatfmError("d must be positive")
    blocks = prime_power_blocks(d)
    m = len(blocks)
    rs = set()
    for mask in range(1 << m):
        r = 1
        for i in range(m):
            if mask >> i & 1:
                r *= blocks[i]
        rs.add(r)
    return tuple(MukaiVector(r, 1, d // r, d) for r in sorted(rs))


def distinct_classes(vectors) -> tuple[tuple[MukaiVector, ...], ...]:
    """Classes under the swap (r, h, s) ~ (s, h, r); within a class the
    canonical representative (r <= s) comes first."""
    grouped: dict = {}
    for v in vectors:
        grouped.setdefault(v.class_key, []).append(v)
    classes = []
    for key in sorted(grouped):
        members = sorted(grouped[key], key=lambda v: (v.r, v.s))
        classes.append(tuple(members))
    return tuple(classes)


def class_representatives(vectors) -> tuple[tuple[int, int], ...]:
    """Canonical (r, s) with r <= s for each swap class."""
    return tuple((key[1], key[2]) for key in sorted({v.class_key for v in vectors}))


def swap_distinctness_check(v1: MukaiVector, v2: MukaiVector) -> bool:
    """True iff the two vectors lie in different swap classes, the lattice-level
    marker for non-isomorphic moduli spaces."""
    return v1.class_key != v2.class_key


@dataclass(frozen=True)
class PolarizedEmbedding:
    """Degree-2d polarization h = e + d f in the first hyperbolic summand of
    the K3 lattice, together with vector embeddings into the Mukai lattice."""

    d: int
    h: Vec

    @property
    def k3(self) -> Lattice:
        return K3

    @property
    def mukai(self) -> Lattice:
        return MUKAI

    def embed(self, v: MukaiVector) -> Vec:
        if v.d != self.d:
            raise LatfmError("vector belongs to a different polarization degree")
        middle = tuple(v.h_mult * x for x in self.h)
        return (v.r,) + middle + (v.s,)

    def h_sublattice(self) -> SublatticeEmbedding:
        return SublatticeEmbedding(K3, (self.h,))

    def transcendental_shadow(self) -> SublatticeEmbedding:
        """Orthogonal complement of h inside the K3 lattice (rank 21)."""
        return orthogonal_complement(self.h_sublattice())


def embed_polarized(d: int) -> PolarizedEmbedding:
    if d < 1:
        raise LatfmError("d must be positive")
    h = (1, d) + (0,) * (K3.rank - 2)
    return PolarizedEmbedding(d=d, h=h)


@dataclass(frozen=True)
class ModuliShadow:
    """Lattice shadow of the moduli space attached to an isotropic Mukai
    vector: the quotient v-perp/Zv, the Neron-Severi generator class of
    (0, h, 2s), and the embedded transcendental block."""

    quotient: Lattice
    ns_generator: Vec
    transcendental: SublatticeEmbedding


@lru_cache(maxsize=1)
def _mukai_complement(v24: Vec) -> tuple[SublatticeEmbedding, IsotropicQuotient]:
    vperp = orthogonal_complement(SublatticeEmbedding(MUKAI, (v24,)))
    return vperp, isotropic_quotient(vperp, v24)


@lru_cache(maxsize=1)
def _h_complement(d: int) -> SublatticeEmbedding:
    """The transcendental shadow of degree 2d; its cached induced_gram is
    kept with it."""
    return embed_polarized(d).transcendental_shadow()


def moduli_lattice_shadow(v: MukaiVector) -> ModuliShadow:
    if not v.is_isotropic:
        raise NotIsotropicError(f"vector has square {v.square}")
    if v.h_mult != 1:
        raise LatfmError("shadow computation expects h_mult = 1 vectors")
    emb = embed_polarized(v.d)
    v24 = emb.embed(v)
    _, quot = _mukai_complement(v24)
    ns_vector = (0,) + emb.h + (2 * v.s,)
    ns = quot.project(ns_vector)
    if quot.lattice.square(ns) != 2 * v.d:
        raise LatfmError("Neron-Severi generator has the wrong square")
    t_shadow = _h_complement(v.d)
    projected = tuple(quot.project((0,) + n + (0,)) for n in t_shadow.basis)
    transcendental = SublatticeEmbedding(quot.lattice, projected)
    ns_perp = orthogonal_complement(
        SublatticeEmbedding(quot.lattice, (ns,))
    )
    if hermite_normal_form(projected) != ns_perp.basis:
        raise LatfmError(
            "transcendental block does not fill the orthogonal of the "
            "Neron-Severi generator"
        )
    if transcendental.induced_gram != t_shadow.induced_gram:
        raise LatfmError("transcendental block does not match the h-complement")
    return ModuliShadow(
        quotient=quot.lattice, ns_generator=ns, transcendental=transcendental
    )
