"""Exception hierarchy. Everything domain-level derives from LatfmError so the
CLI can map failures to exit codes uniformly."""


class LatfmError(Exception):
    """Base class for all domain errors raised by this package."""


class NotSymmetricError(LatfmError):
    """Gram matrix is not symmetric."""


class DegenerateError(LatfmError):
    """Bilinear form is degenerate (determinant zero) where non-degeneracy is required."""


class ZeroScaleError(LatfmError):
    """Rescaling a lattice by zero."""


class NotPrimitiveError(LatfmError):
    """Vector or sublattice is not primitive."""


class NotIsotropicError(LatfmError):
    """Vector has nonzero self-intersection where isotropy is required."""


class OddLatticeError(LatfmError):
    """Quadratic form q on the discriminant group requested for an odd lattice."""


class NotUnimodularError(LatfmError):
    """Ambient lattice must be unimodular."""


class SearchSpaceTooLargeError(LatfmError):
    """Finite module exceeds the fixed order bound for exhaustive search."""


class BudgetExhaustedError(LatfmError):
    """Bounded isometry search finished without a decision.

    Distinct from a definitive negative: the search space within the budget
    contained no witness, which is evidence but not proof of non-isometry.
    The search state rides along: nodes visited, and the entry bound and
    node limit of the budget.
    """

    def __init__(
        self,
        message: str,
        *,
        nodes: int | None = None,
        entry_bound: int | None = None,
        node_limit: int | None = None,
    ):
        super().__init__(message)
        self.nodes = nodes
        self.entry_bound = entry_bound
        self.node_limit = node_limit


class NotSubgroupError(LatfmError):
    """Left/right factor passed to double-coset counting is not a subgroup."""


class NotCoprimeError(LatfmError):
    """Parameters (d, n) with gcd(2d, n) != 1."""


class RankUnsupportedError(LatfmError):
    """Operation restricted to lattices of rank <= 2."""


class HypothesisFailedError(LatfmError):
    """A named hypothesis of the sublattice-isometry criterion does not hold."""

    def __init__(self, hypothesis: str, message: str = ""):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis failed: {hypothesis}")
