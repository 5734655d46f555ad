"""latfm: exact integral-lattice toolkit for K3 Fourier-Mukai bookkeeping.

Lattices, discriminant forms, brute-force isometry oracles, Fourier-Mukai
partner counts, Mukai-vector enumeration and the rank-2 family of
same-genus non-isometric Neron-Severi lattices.
"""

from .errors import (
    BudgetExhaustedError,
    DegenerateError,
    HypothesisFailedError,
    LatfmError,
    NotCoprimeError,
    NotIsotropicError,
    NotPrimitiveError,
    NotSubgroupError,
    NotSymmetricError,
    NotUnimodularError,
    OddLatticeError,
    RankUnsupportedError,
    SearchSpaceTooLargeError,
    ZeroScaleError,
)
from .intmat import hermite_normal_form, smith_normal_form
from .lattices import (
    E8,
    E8_MINUS,
    K3,
    U,
    Lattice,
    Signature,
    SublatticeEmbedding,
    direct_sum,
    is_primitive,
    make_lattice,
    orthogonal_complement,
    rescale,
)
from .discriminant import (
    FiniteQuadraticModule,
    LatticeDiscriminant,
    ModuleIsometry,
    cyclic_module,
    discriminant_module,
    gamma_complement_map,
    is_isometric_modules,
    orthogonal_group_of_module,
)
from .oracle import (
    IsometryWitness,
    SearchBudget,
    double_coset_count,
    enumerate_self_isometries,
    find_isometry_bounded,
    units_with_square_one,
)
from .fmcount import (
    distinct_prime_count,
    fm_count_genus_sum,
    fm_count_rho1,
    fm_count_rho1_via_cosets,
    pm_id_subgroup,
)
from .mukai import (
    MUKAI,
    ModuliShadow,
    MukaiVector,
    PolarizedEmbedding,
    embed_polarized,
    enumerate_mukai_vectors,
    moduli_lattice_shadow,
)
from .family import (
    DiscIsoWitness,
    FamilyBundle,
    FamilyMember,
    GenusData,
    NikulinAttestation,
    NonIsometryCertificate,
    build_family,
    check_nikulin_hypotheses,
    disc_groups_isomorphic,
    isometry_necessary_conditions,
    make_member,
    polarization_orbits_in_u,
)

__version__ = "0.1.0"
