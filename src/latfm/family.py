"""The rank-2 family L_{d,n} with Gram [[2d, n], [n, 0]].

For gcd(2d, n) = 1 the discriminant group is cyclic of order n^2 with
generator (n e - 2d f)/n^2 of square -2d/n^2 mod 2Z.  Members embed
primitively into U + U (and hence into the K3 lattice or U^3), represent
zero, and -- for the right parameter choices -- give arbitrarily many
pairwise non-isometric lattices in one genus.
"""

from __future__ import annotations

from math import gcd

from .arith import least_prime_above, unit_square_roots
from .discriminant import (
    FiniteQuadraticModule,
    ModuleIsometry,
    cyclic_module,
    is_isometric_modules,
)
from .errors import HypothesisFailedError, LatfmError, NotCoprimeError
from .fmcount import unitary_divisors
from .frozen import Frozen
from .intmat import Vec, smith_normal_form
from .lattices import (
    K3,
    Lattice,
    Signature,
    SublatticeEmbedding,
    U,
    direct_sum,
)

UU = direct_sum(U, U)
U3 = direct_sum(U, U, U)

AMBIENTS = {"k3": K3, "abelian": U3}


def family_gram(d: int, n: int):
    return ((2 * d, n), (n, 0))


def closed_form_module(d: int, n: int) -> FiniteQuadraticModule:
    """Cyclic module of order n^2 with generator (n e - 2d f)/n^2 and
    q(generator) = -2d/n^2 mod 2Z."""
    return cyclic_module(n * n, -2 * d, generator=(n, -2 * d))


class FamilyMember(Frozen):
    _fields = ("d", "n", "lattice", "embedding")  # embedding into U + U

    @property
    def represents_zero_vector(self) -> Vec:
        """Primitive isotropic vector: the second basis vector."""
        return (0, 1)


def make_member(d: int, n: int) -> FamilyMember:
    if d < 1 or n < 1:
        raise LatfmError("d and n must be positive")
    if gcd(2 * d, n) != 1:
        raise NotCoprimeError(f"gcd(2*{d}, {n}) != 1")
    lattice = Lattice(family_gram(d, n))
    embedding = SublatticeEmbedding(
        UU, ((1, d, 0, 0), (0, n, 1, 0))
    )
    return FamilyMember(d=d, n=n, lattice=lattice, embedding=embedding)


class DiscIsoWitness(Frozen):
    """alpha with gcd(alpha, n) = 1 and d1 alpha^2 = d2 mod n^2, certifying
    isometric discriminant modules."""

    _fields = ("d1", "d2", "n", "alpha")

    def __post_init__(self):
        self._require_int_fields()
        if gcd(self.alpha, self.n) != 1:
            raise LatfmError("alpha is not a unit")
        if (self.d1 * self.alpha * self.alpha - self.d2) % (self.n * self.n):
            raise LatfmError("alpha does not satisfy d1 alpha^2 = d2 mod n^2")


class NonIsometryCertificate(Frozen):
    """Proof token that L_{d1,n} and L_{d2,n} are non-isometric: both necessary
    congruences fail.  Constructing an invalid certificate raises."""

    _fields = ("d1", "d2", "n")

    def __post_init__(self):
        self._require_int_fields()
        if (self.d1 - self.d2) % self.n == 0:
            raise LatfmError("certificate invalid: d1 = d2 mod n")
        if (self.d1 * self.d2 - 1) % self.n == 0:
            raise LatfmError("certificate invalid: d1 d2 = 1 mod n")


class NecessaryConditions(Frozen):
    # a2: d1 = d2 mod n, b2: d1 d2 = 1 mod n, certificate: None unless both fail
    _fields = ("a2", "b2", "certificate")


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


class GenusData(Frozen):
    """Signature plus discriminant module: what the isometry criterion for
    indefinite even sublattices consumes."""

    _fields = ("signature", "module")

    @property
    def rank(self) -> int:
        return self.signature.rank


class NikulinAttestation(Frozen):
    """Verified hypothesis bundle standing in for the non-constructive
    conclusion that the two sublattices are isometric."""

    _fields = ("rank", "signature", "ell", "disc_iso")


def _check_genus_hypotheses(t1: GenusData, t2: GenusData) -> int:
    """The hypotheses on the genera that leave out the discriminant modules:
    equal indefinite signatures and rank >= 2 + ell(A).  Returns ell(A);
    raises HypothesisFailedError naming the first hypothesis that fails."""
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
    return ell


def check_nikulin_hypotheses(t1: GenusData, t2: GenusData) -> NikulinAttestation:
    """Verify: equal indefinite signatures, rank >= 2 + ell(A), and isometric
    discriminant modules.  Raises HypothesisFailedError naming the first
    hypothesis that fails.

    The general path: it finds the module isometry by the search of
    is_isometric_modules.  build_family attests its own pairs in closed form
    and does not call it; the tests and selftest hold it as the oracle of
    that closed form."""
    ell = _check_genus_hypotheses(t1, t2)
    iso = is_isometric_modules(t1.module, t2.module)
    if iso is None:
        raise HypothesisFailedError(
            "discriminant", "discriminant modules are not isometric"
        )
    return NikulinAttestation(
        rank=t1.rank, signature=t1.signature, ell=ell, disc_iso=iso
    )


def _attest_cyclic_pair(t1: GenusData, t2: GenusData, alpha: int) -> NikulinAttestation:
    """check_nikulin_hypotheses with the module isometry given: g1 -> alpha g2
    on two cyclic modules of one order f.  alpha must be a unit mod f with
    alpha^2 q(g2) = q(g1) mod 2Z, the condition the cyclic module search
    solves; otherwise HypothesisFailedError("discriminant")."""
    ell = _check_genus_hypotheses(t1, t2)
    a1, a2 = t1.module, t2.module
    f = a1.exponent
    if (
        ell != 1
        or a2.factors != a1.factors
        or gcd(alpha, f) != 1
        or (alpha * alpha * a2.gram[0][0] - a1.gram[0][0]) % (2 * f)
    ):
        raise HypothesisFailedError(
            "discriminant", f"alpha = {alpha} is not an isometry of the discriminant modules"
        )
    return NikulinAttestation(
        rank=t1.rank,
        signature=t1.signature,
        ell=ell,
        disc_iso=ModuleIsometry(a1, a2, ((alpha,),)),
    )


def embed_member(member: FamilyMember, ambient: str) -> SublatticeEmbedding:
    """The member in the full ambient, the reference path for the complement
    that `complement_genus_data` computes by splitting.

    Zero-pads the U+U embedding (the first four coordinates of the ambient
    span U+U for both supported ambients)."""
    target = AMBIENTS[ambient]
    pad = target.rank - 4
    basis = tuple(vec + (0,) * pad for vec in member.embedding.basis)
    return SublatticeEmbedding(target, basis)


def complement_genus_data(member: FamilyMember, ambient: str) -> GenusData:
    """Genus data of the member's orthogonal complement in the ambient.

    The ambient is (U+U) + W with W unimodular (U + E8(-1)^2 for k3, U for
    abelian) and the member lies in U+U, so its complement is K + W with K
    its rank-2 complement in U+U.  W adds nothing to the discriminant
    module, A(K + W) = A(K), and the signatures add.  K is L_{d,n}(-1): the
    canonical basis (1, -d, 0, -n), (0, 0, 1, 0) of K has Gram -G, and
    sig K is sig L_{d,n} with its two parts swapped.

    A(K) is cyclic of order n^2, read off the Smith form of -G: its
    generator is v / f with v the column of V at f = D[1][1], in the
    coordinates of that basis, as LatticeDiscriminant(K) would give it.  v
    is checked: f = |det K|, -G v = 0 mod f and gcd(v, f) = 1, so v / f
    lies in K* and has order |A(K)|."""
    lattice = member.lattice
    gram = family_gram(-member.d, -member.n)  # -G
    _, diagonal, transform = smith_normal_form(gram)
    f = diagonal[1][1]
    v0, v1 = transform[0][1], transform[1][1]
    (a, b), (_, c) = gram
    x0, x1 = a * v0 + b * v1, b * v0 + c * v1  # -G v
    if f != abs(lattice.det) or x0 % f or x1 % f or gcd(v0, v1, f) != 1:
        raise LatfmError("Smith generator of the complement does not generate A(K)")
    # sig W = sig(ambient) - sig(U+U), from signatures computed at import
    whole, head, own = AMBIENTS[ambient].signature, UU.signature, lattice.signature
    return GenusData(
        signature=Signature(
            own.minus + whole.plus - head.plus, own.plus + whole.minus - head.minus
        ),
        module=cyclic_module(f, (v0 * x0 + v1 * x1) // f, generator=(v0, v1)),
    )


class FamilyBundle(Frozen):
    # degree is 2d; the last three run over the pairs i < j of members
    _fields = (
        "n", "degree", "ambient", "members", "witnesses", "certificates", "attestations"
    )


def build_family(count: int, d: int, ambient: str = "k3") -> FamilyBundle:
    """Members L_{d i^2, n} for i = 1..count with n the least prime above
    max(2, d^2 count^4): every pair carries a discriminant-isometry witness
    and a non-isometry certificate, plus an isometry attestation for the
    orthogonal complements in the ambient lattice.

    Witnesses and attestations are written in closed form and checked, with
    no module search: check_nikulin_hypotheses and disc_groups_isomorphic
    give the same values and are their oracles."""
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
    # n is an odd prime above d^2 count^4, so d and every i <= count are
    # units mod n^2, and (Z/n^2)* is cyclic: d i^2 alpha^2 = d j^2 has
    # exactly the roots alpha = +-j/i, the least of which is the witness
    # disc_groups_isomorphic finds.  DiscIsoWitness checks it.  For i < j
    # both congruences of isometry_necessary_conditions fail, as
    # 0 < d (j^2 - i^2) < n and 1 < d^2 i^2 j^2 < n: NonIsometryCertificate
    # checks that.
    square = n * n
    # A(K_i) is generated by v_i / n^2 with v_i = s_i (n, -2 d i^2) mod n^2
    # for a unit s_i, and q = 2 d i^2 s_i^2 / n^2 mod 2Z.  So the units
    # alpha with alpha^2 q_j = q_i are exactly +-(i s_i) / (j s_j)
    # = +-(j / i) v_i[1] / v_j[1], and the least of them is the one
    # is_isometric_modules finds.  v_j[1] is a unit: complement_genus_data
    # checks -G v_j = 0 mod n^2 and gcd(v_j, n^2) = 1, so n divides v_j[0]
    # and not v_j[1].  _attest_cyclic_pair checks alpha.
    smith = [p.module.generators[0][1] for p in profiles]
    smith_inverses = [pow(v, -1, square) for v in smith]
    for i in range(count):
        inverse = pow(i + 1, -1, square)
        for j in range(i + 1, count):
            root = (j + 1) * inverse % square
            witnesses.append(
                DiscIsoWitness(d_values[i], d_values[j], n, min(root, square - root))
            )
            certificates.append(NonIsometryCertificate(d_values[i], d_values[j], n))
            root = root * smith[i] * smith_inverses[j] % square
            attestations.append(
                _attest_cyclic_pair(profiles[i], profiles[j], min(root, square - root))
            )
    # no primitivity, isotropy or polarization check, as each holds by
    # construction: the basis (1, d, 0, 0), (0, n, 1, 0) has the identity as
    # its minor on coordinates 0 and 2, so U+U / span is free; every Gram
    # family_gram(d i^2, n) has [1][1] = 0, so (0, 1) is isotropic; and at
    # i = 1 its [0][0] = 2d, the degree of the first member's polarization
    return FamilyBundle(
        n=n,
        degree=2 * d,
        ambient=ambient,
        members=members,
        witnesses=tuple(witnesses),
        certificates=tuple(certificates),
        attestations=tuple(attestations),
    )


class OrbitReport(Frozen):
    _fields = ("count", "representatives", "orbits")


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
    vectors = set()
    for a in unitary_divisors(d):
        vectors |= {(a, d // a), (-a, -(d // a))}
    orbits: dict[tuple[int, int], set] = {}
    for vec in vectors:
        orbit = {
            (g[0][0] * vec[0] + g[0][1] * vec[1], g[1][0] * vec[0] + g[1][1] * vec[1])
            for g in _O_U
        }
        # every orbit holds (min(a, b), max(a, b)) with both entries positive
        orbits[min(v for v in orbit if 0 < v[0] <= v[1])] = orbit
    reps = tuple(sorted(orbits))
    return OrbitReport(
        count=len(reps),
        representatives=reps,
        orbits=tuple(tuple(sorted(orbits[rep])) for rep in reps),
    )
