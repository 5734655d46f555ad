"""The rank-2 family L_{d,n} with Gram [[2d, n], [n, 0]].

For gcd(2d, n) = 1 the discriminant group is cyclic of order n^2 with
generator (n e - 2d f)/n^2 of square -2d/n^2 mod 2Z.  Members embed
primitively into U + U (and hence into the K3 lattice or U^3), represent
zero, and -- for the right parameter choices -- give arbitrarily many
pairwise non-isometric lattices in one genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import least_prime_above, unit_square_roots
from .discriminant import (
    FiniteQuadraticModule,
    LatticeDiscriminant,
    ModuleIsometry,
    cyclic_module,
    is_isometric_modules,
)
from .errors import HypothesisFailedError, LatfmError, NotCoprimeError
from .fmcount import prime_power_blocks
from .intmat import Vec
from .lattices import (
    K3,
    Lattice,
    Signature,
    SublatticeEmbedding,
    U,
    direct_sum,
    is_primitive,
    orthogonal_complement,
)

UU = direct_sum(U, U)
U3 = direct_sum(U, U, U)

AMBIENTS = {"k3": K3, "abelian": U3}


def family_gram(d: int, n: int):
    return ((2 * d, n), (n, 0))


def closed_form_module(d: int, n: int) -> FiniteQuadraticModule:
    """Cyclic module of order n^2 with generator (n e - 2d f)/n^2 and
    q(generator) = -2d/n^2 mod 2Z."""
    return cyclic_module(
        n * n,
        Fraction(-2 * d, n * n),
        generator=(Fraction(1, n), Fraction(-2 * d, n * n)),
    )


@dataclass(frozen=True)
class FamilyMember:
    d: int
    n: int
    lattice: Lattice
    embedding: SublatticeEmbedding  # into U + U
    module: FiniteQuadraticModule  # closed form, cross-checked at construction

    @property
    def represents_zero_vector(self) -> Vec:
        """Primitive isotropic vector: the second basis vector."""
        return (0, 1)

    @property
    def polarization_square(self) -> int:
        """Square of the first basis vector, the degree-2d polarization class."""
        return self.lattice.gram[0][0]


def make_member(d: int, n: int) -> FamilyMember:
    if d < 1 or n < 1:
        raise LatfmError("d and n must be positive")
    if gcd(2 * d, n) != 1:
        raise NotCoprimeError(f"gcd(2*{d}, {n}) != 1")
    lattice = Lattice(family_gram(d, n))
    embedding = SublatticeEmbedding(
        UU, ((1, d, 0, 0), (0, n, 1, 0))
    )
    closed = closed_form_module(d, n)
    machinery = LatticeDiscriminant(lattice).module
    if machinery.factors != closed.factors:
        raise LatfmError("closed-form module disagrees with the SNF machinery")
    if is_isometric_modules(closed, machinery) is None:
        raise LatfmError("closed-form module is not isometric to the SNF output")
    return FamilyMember(d=d, n=n, lattice=lattice, embedding=embedding, module=closed)


@dataclass(frozen=True)
class DiscIsoWitness:
    """alpha with gcd(alpha, n) = 1 and d1 alpha^2 = d2 mod n^2, certifying
    isometric discriminant modules."""

    d1: int
    d2: int
    n: int
    alpha: int

    def __post_init__(self):
        if gcd(self.alpha, self.n) != 1:
            raise LatfmError("alpha is not a unit")
        if (self.d1 * self.alpha * self.alpha - self.d2) % (self.n * self.n):
            raise LatfmError("alpha does not satisfy d1 alpha^2 = d2 mod n^2")


@dataclass(frozen=True)
class NonIsometryCertificate:
    """Proof token that L_{d1,n} and L_{d2,n} are non-isometric: both necessary
    congruences fail.  Constructing an invalid certificate raises."""

    d1: int
    d2: int
    n: int

    def __post_init__(self):
        if (self.d1 - self.d2) % self.n == 0:
            raise LatfmError("certificate invalid: d1 = d2 mod n")
        if (self.d1 * self.d2 - 1) % self.n == 0:
            raise LatfmError("certificate invalid: d1 d2 = 1 mod n")


@dataclass(frozen=True)
class NecessaryConditions:
    a2: bool  # d1 = d2 mod n
    b2: bool  # d1 d2 = 1 mod n
    certificate: NonIsometryCertificate | None


def disc_groups_isomorphic(
    d1: int, n1: int, d2: int, n2: int
) -> DiscIsoWitness | None:
    """Least alpha in [1, n^2) with gcd(alpha, n) = 1 and d1 alpha^2 = d2 mod
    n^2, or None (in particular whenever n1 != n2).  For n = 1 both modules
    are trivial and the witness is alpha = 1."""
    for d, n in ((d1, n1), (d2, n2)):
        if gcd(2 * d, n) != 1:
            raise NotCoprimeError(f"gcd(2*{d}, {n}) != 1")
    if n1 != n2:
        return None
    n = n1
    if n == 1:
        return DiscIsoWitness(d1=d1, d2=d2, n=1, alpha=1)
    roots = unit_square_roots(d1, d2, n * n, n * n)
    return DiscIsoWitness(d1=d1, d2=d2, n=n, alpha=roots[0]) if roots else None


def isometry_necessary_conditions(d1: int, d2: int, n: int) -> NecessaryConditions:
    """Evaluate the two congruences any isometry L_{d1,n} = L_{d2,n} forces;
    when both fail, the pair carries a non-isometry certificate."""
    for d in (d1, d2):
        if gcd(2 * d, n) != 1:
            raise NotCoprimeError(f"gcd(2*{d}, {n}) != 1")
    a2 = (d1 - d2) % n == 0
    b2 = (d1 * d2 - 1) % n == 0
    certificate = None
    if not a2 and not b2:
        certificate = NonIsometryCertificate(d1=d1, d2=d2, n=n)
    return NecessaryConditions(a2=a2, b2=b2, certificate=certificate)


@dataclass(frozen=True)
class GenusData:
    """Signature plus discriminant module: what the isometry criterion for
    indefinite even sublattices consumes."""

    signature: Signature
    module: FiniteQuadraticModule

    @property
    def rank(self) -> int:
        return self.signature.rank


@dataclass(frozen=True)
class NikulinAttestation:
    """Verified hypothesis bundle standing in for the non-constructive
    conclusion that the two sublattices are isometric."""

    rank: int
    signature: Signature
    ell: int
    disc_iso: ModuleIsometry


def check_nikulin_hypotheses(
    t1: GenusData, t2: GenusData, order_bound: int = 10**6
) -> NikulinAttestation:
    """Verify: equal indefinite signatures, rank >= 2 + ell(A), and isometric
    discriminant modules.  Raises HypothesisFailedError naming the first
    hypothesis that fails."""
    if t1.signature != t2.signature:
        raise HypothesisFailedError(
            "signature", f"signatures differ: {t1.signature} vs {t2.signature}"
        )
    if t1.signature.plus <= 0 or t1.signature.minus <= 0:
        raise HypothesisFailedError(
            "indefinite", f"signature {t1.signature} is not indefinite"
        )
    ell = t1.module.ell
    if t1.rank < 2 + ell:
        raise HypothesisFailedError(
            "rank", f"rank {t1.rank} < 2 + ell(A) = {2 + ell}"
        )
    iso = is_isometric_modules(t1.module, t2.module, order_bound=order_bound)
    if iso is None:
        raise HypothesisFailedError(
            "discriminant", "discriminant modules are not isometric"
        )
    return NikulinAttestation(
        rank=t1.rank, signature=t1.signature, ell=ell, disc_iso=iso
    )


def embed_member(member: FamilyMember, ambient: str) -> SublatticeEmbedding:
    """Zero-pad the U+U embedding into the chosen ambient (its first four
    coordinates span U+U for both supported ambients)."""
    target = AMBIENTS[ambient]
    pad = target.rank - 4
    basis = tuple(vec + (0,) * pad for vec in member.embedding.basis)
    return SublatticeEmbedding(target, basis)


def complement_genus_data(member: FamilyMember, ambient: str) -> GenusData:
    complement = orthogonal_complement(embed_member(member, ambient))
    lattice = complement.lattice()
    return GenusData(
        signature=lattice.signature,
        module=LatticeDiscriminant(lattice).module,
    )


@dataclass(frozen=True)
class FamilyBundle:
    n: int
    degree: int  # 2d
    ambient: str
    members: tuple[FamilyMember, ...]
    witnesses: tuple[DiscIsoWitness, ...]  # over pairs i < j
    certificates: tuple[NonIsometryCertificate, ...]
    attestations: tuple[NikulinAttestation, ...]


def build_family(count: int, d: int, ambient: str = "k3") -> FamilyBundle:
    """Members L_{d i^2, n} for i = 1..count with n the least prime above
    max(2, d^2 count^4): every pair carries a discriminant-isometry witness
    and a non-isometry certificate, plus an isometry attestation for the
    orthogonal complements in the ambient lattice."""
    if count < 1 or d < 1:
        raise LatfmError("count and d must be positive")
    if ambient not in AMBIENTS:
        raise LatfmError(f"unknown ambient {ambient!r}; expected k3 or abelian")
    n = least_prime_above(max(2, d * d * count**4))
    d_values = [d * i * i for i in range(1, count + 1)]
    members = tuple(make_member(di, n) for di in d_values)
    witnesses = []
    certificates = []
    attestations = []
    profiles = [complement_genus_data(m, ambient) for m in members]
    for i in range(count):
        for j in range(i + 1, count):
            witness = disc_groups_isomorphic(d_values[i], n, d_values[j], n)
            if witness is None:
                raise LatfmError("family construction lost its isometry witness")
            witnesses.append(witness)
            conditions = isometry_necessary_conditions(d_values[i], d_values[j], n)
            if conditions.certificate is None:
                raise LatfmError("family construction lost its certificate")
            certificates.append(conditions.certificate)
            attestations.append(check_nikulin_hypotheses(profiles[i], profiles[j]))
    for member in members:
        if not is_primitive(member.embedding):
            raise LatfmError("family member embedding is not primitive")
        if member.lattice.square(member.represents_zero_vector) != 0:
            raise LatfmError("family member does not represent zero")
    if members[0].polarization_square != 2 * d:
        raise LatfmError("first member does not carry the degree-2d polarization")
    return FamilyBundle(
        n=n,
        degree=2 * d,
        ambient=ambient,
        members=members,
        witnesses=tuple(witnesses),
        certificates=tuple(certificates),
        attestations=tuple(attestations),
    )


@dataclass(frozen=True)
class OrbitReport:
    count: int
    representatives: tuple[tuple[int, int], ...]
    orbits: tuple[tuple[tuple[int, int], ...], ...]


_O_U = (
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((0, -1), (-1, 0)),
)


def polarization_orbits_in_u(d: int) -> OrbitReport:
    """Primitive vectors of square 2d in the hyperbolic plane, grouped under
    its four-element orthogonal group; the orbit count is 2^(p(d)-1)."""
    if d < 1:
        raise LatfmError("d must be positive")
    blocks = prime_power_blocks(d)
    m = len(blocks)
    vectors = set()
    for mask in range(1 << m):
        a = 1
        for i in range(m):
            if mask >> i & 1:
                a *= blocks[i]
        b = d // a
        vectors.add((a, b))
        vectors.add((-a, -b))
    orbits: dict[tuple[int, int], set] = {}
    for vec in vectors:
        orbit = {
            (g[0][0] * vec[0] + g[0][1] * vec[1], g[1][0] * vec[0] + g[1][1] * vec[1])
            for g in _O_U
        }
        rep = min((v for v in orbit if v[0] > 0 and v[0] <= v[1]), default=None)
        if rep is None:
            rep = min(orbit)
        orbits[rep] = orbit
    reps = tuple(sorted(orbits))
    return OrbitReport(
        count=len(reps),
        representatives=reps,
        orbits=tuple(tuple(sorted(orbits[rep])) for rep in reps),
    )
