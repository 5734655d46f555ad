"""Extended Mukai lattice, Mukai vectors and the lattice shadow of their
moduli spaces.

Coordinates on the rank-24 lattice are (r, <22 middle coordinates>, s): the
H^0 component first, then the K3 lattice block, then H^4, with pairing
(r, h, s).(r', h', s') = -r s' + h.h' - s r'.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import LatfmError, NotIsotropicError, NotPrimitiveError
from .fmcount import unitary_divisors
from .frozen import Frozen
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


class MukaiVector(Frozen):
    """Triple (r, m.h, s) over a degree-2d polarization h; h_mult is the
    multiple m of h in the middle component."""

    _fields = ("r", "h_mult", "s", "d")

    def __post_init__(self):
        self._require_int_fields()
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

    @property
    def class_key(self) -> tuple[int, int, int]:
        lo, hi = sorted((self.r, self.s))
        return (self.h_mult, lo, hi)


def enumerate_mukai_vectors(d: int) -> tuple[MukaiVector, ...]:
    """All vectors (r, h, s) with r s = d and gcd(r, s) = 1, r ascending;
    every one is isotropic and primitive."""
    if d < 1:
        raise LatfmError("d must be positive")
    return tuple(MukaiVector(r, 1, d // r, d) for r in unitary_divisors(d))


def class_representatives(vectors) -> tuple[tuple[int, int], ...]:
    """Canonical (r, s) with r <= s for each swap class."""
    return tuple((key[1], key[2]) for key in sorted({v.class_key for v in vectors}))


class PolarizedEmbedding(Frozen):
    """Degree-2d polarization h = e + d f in the first hyperbolic summand of
    the K3 lattice, together with vector embeddings into the Mukai lattice."""

    _fields = ("d", "h")

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


class ModuliShadow(Frozen):
    """Lattice shadow of the moduli space attached to an isotropic Mukai
    vector: the quotient v-perp/Zv, the Neron-Severi generator class of
    (0, h, 2s), and the embedded transcendental block."""

    _fields = ("quotient", "ns_generator", "transcendental")


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
