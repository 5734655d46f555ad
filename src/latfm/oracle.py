"""Brute-force ground truth: bounded lattice-isometry search, unit-group
enumeration and double-coset counting.

The searches here are deliberately independent of every closed form in the
package; they exist to validate those closed forms.  A bounded search has
three outcomes: a verified witness, a definitive negative from the invariant
screen (determinant, parity, signature), or BudgetExhaustedError, which means
"nothing found within the budget" and nothing more.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import BudgetExhaustedError, LatfmError, NotSubgroupError
from .intmat import Mat, Vec, det, identity, mat_mul, mat_vec, transpose
from .lattices import Lattice


@dataclass(frozen=True)
class SearchBudget:
    entry_bound: int = 50
    node_limit: int = 10_000_000

    def __post_init__(self):
        if self.entry_bound <= 0 or self.node_limit <= 0:
            raise LatfmError("budget parameters must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class IsometryWitness:
    """Unimodular B with B^t G_source B = G_target, columns in source coordinates."""

    source: Lattice
    target: Lattice
    matrix: Mat

    def holds(self) -> bool:
        b = self.matrix
        if abs(det(b)) != 1:
            return False
        return mat_mul(transpose(b), mat_mul(self.source.gram, b)) == self.target.gram


class _NodeCounter:
    __slots__ = ("count", "budget")

    def __init__(self, budget: SearchBudget):
        self.count = 0
        self.budget = budget

    def exhausted(self, message: str) -> BudgetExhaustedError:
        return BudgetExhaustedError(
            message,
            nodes=self.count,
            entry_bound=self.budget.entry_bound,
            node_limit=self.budget.node_limit,
        )

    def tick(self):
        self.count += 1
        if self.count > self.budget.node_limit:
            raise self.exhausted(
                f"node limit {self.budget.node_limit} reached without a decision"
            )


def _norm_buckets(lattice: Lattice, bound: int, needed, nodes: _NodeCounter):
    """Nonzero vectors with entries in [-bound, bound], grouped by square,
    enumerated in lexicographic order (kept per bucket)."""
    buckets: dict = {norm: [] for norm in needed}
    n = lattice.rank
    gram = lattice.gram
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        nodes.tick()
        if not any(vec):
            continue
        gv = mat_vec(gram, vec)
        norm = sum(a * b for a, b in zip(vec, gv))
        if norm in buckets:
            buckets[norm].append(vec)
    return buckets


def _column_search(l1: Lattice, target_gram: Mat, nodes: _NodeCounter, find_all: bool):
    """Backtracking over candidate images of the target basis vectors inside l1.

    Leaves already satisfy B^t G1 B = target_gram entrywise, which forces
    |det B| = 1 when the determinants agree, so every leaf is a witness.
    """
    n = l1.rank
    needed = {target_gram[j][j] for j in range(n)}
    buckets = _norm_buckets(l1, nodes.budget.entry_bound, needed, nodes)
    found: list[Mat] = []
    chosen: list[Vec] = []

    def extend(j: int) -> bool:
        for cand in buckets[target_gram[j][j]]:
            nodes.tick()
            gcand = mat_vec(l1.gram, cand)
            ok = True
            for i in range(j):
                if sum(a * b for a, b in zip(chosen[i], gcand)) != target_gram[i][j]:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(cand)
            if j == n - 1:
                found.append(transpose(tuple(chosen)))
                if not find_all:
                    chosen.pop()
                    return True
            else:
                if extend(j + 1):
                    chosen.pop()
                    return True
            chosen.pop()
        return False

    extend(0)
    return found


def find_isometry_bounded(
    l1: Lattice, l2: Lattice, budget: SearchBudget = DEFAULT_BUDGET
) -> IsometryWitness | None:
    """Witness with B^t G1 B = G2, or None when the invariant screen rules an
    isometry out.  Raises BudgetExhaustedError when the bounded search ends
    undecided."""
    if l1.rank != l2.rank:
        raise LatfmError("lattices have different ranks")
    if l1.gram == l2.gram:
        return IsometryWitness(l1, l2, identity(l1.rank))
    if l1.det != l2.det or l1.is_even != l2.is_even or l1.signature != l2.signature:
        return None
    nodes = _NodeCounter(budget)
    found = _column_search(l1, l2.gram, nodes, find_all=False)
    if found:
        witness = IsometryWitness(l1, l2, found[0])
        if not witness.holds():
            raise LatfmError("search produced an invalid witness")
        return witness
    raise nodes.exhausted(
        f"no isometry with entries bounded by {budget.entry_bound}; "
        "absence within the budget does not prove non-isometry"
    )


def enumerate_self_isometries(
    lattice: Lattice, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[IsometryWitness, ...]:
    """All self-isometries with entries within the budget, in search order."""
    found = _column_search(lattice, lattice.gram, _NodeCounter(budget), find_all=True)
    out = []
    for mat in found:
        witness = IsometryWitness(lattice, lattice, mat)
        if not witness.holds():
            raise LatfmError("search produced an invalid witness")
        out.append(witness)
    return tuple(out)


def units_with_square_one(m: int) -> tuple[int, ...]:
    """All residues a mod m with gcd(a, m) = 1 and a^2 = 1 mod 2m.

    For m = 2d these are exactly the q-preserving units on the discriminant
    of the rank-one lattice of determinant 2d.
    """
    if m < 2 or m % 2:
        raise LatfmError("modulus must be an even integer >= 2")
    return tuple(
        a for a in range(1, m) if gcd(a, m) == 1 and (a * a - 1) % (2 * m) == 0
    )


def _as_group(isos, full_index) -> list[int]:
    indices = []
    for iso in isos:
        idx = full_index.get(iso.matrix)
        if idx is None:
            raise NotSubgroupError("element does not belong to the full group")
        indices.append(idx)
    return indices


def double_coset_count(left, full, right) -> int:
    """Number of orbits of `full` under x -> l.x.r over the subgroups `left`
    and `right` (union-find on the finite element list)."""
    full = list(full)
    left = list(left)
    right = list(right)
    if not full:
        raise LatfmError("full group is empty")
    module = full[0].source
    for iso in itertools.chain(full, left, right):
        if iso.source != module or iso.target != module:
            raise LatfmError("double cosets need automorphisms of one module")
    full_index = {iso.matrix: i for i, iso in enumerate(full)}
    if len(full_index) != len(full):
        raise LatfmError("full group contains duplicates")
    for a in full:
        for b in full:
            if a.compose(b).matrix not in full_index:
                raise NotSubgroupError("full set is not closed under composition")
    left_idx = set(_as_group(left, full_index))
    right_idx = set(_as_group(right, full_index))
    for group, idx_set in ((left, left_idx), (right, right_idx)):
        for a in group:
            for b in group:
                c = full_index[a.compose(b).matrix]
                if c not in idx_set:
                    raise NotSubgroupError("factor is not closed under composition")
    parent = list(range(len(full)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for i, x in enumerate(full):
        for li in left_idx:
            lx = full[li].compose(x)
            for ri in right_idx:
                y = full_index[lx.compose(full[ri]).matrix]
                union(i, y)
    return len({find(i) for i in range(len(full))})
