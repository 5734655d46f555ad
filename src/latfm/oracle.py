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
from functools import lru_cache
from math import gcd, isqrt

from .discriminant import compose_matrices
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

    def tick(self, count: int = 1):
        """Charge `count` nodes.  Past the limit the count stops at limit + 1,
        where charging one node at a time would have stopped."""
        self.count += count
        if self.count > self.budget.node_limit:
            self.count = self.budget.node_limit + 1
            raise self.exhausted(
                f"node limit {self.budget.node_limit} reached without a decision"
            )


def _last_coordinates(c: int, lin: int, const: int, bound: int):
    """Ascending integers t in [-bound, bound] with c t^2 + 2 lin t + const = 0."""
    if c == 0:
        if lin == 0:
            return range(-bound, bound + 1) if const == 0 else ()
        t, rem = divmod(-const, 2 * lin)
        return (t,) if rem == 0 and -bound <= t <= bound else ()
    disc = lin * lin - c * const
    if disc < 0:
        return ()
    root = isqrt(disc)
    if root * root != disc:
        return ()
    roots = set()
    for num in (-lin - root, -lin + root):
        t, rem = divmod(num, c)
        if rem == 0 and -bound <= t <= bound:
            roots.add(t)
    return sorted(roots)


@lru_cache(maxsize=1024)
def _norm_bucket(gram: Mat, bound: int, norm: int) -> tuple[tuple[Vec, Vec], ...]:
    """The pairs (v, G v) of nonzero v with entries in [-bound, bound] and
    square `norm`, v in lexicographic order; pure, so memoized per process.

    Only the prefixes p of the first n - 1 coordinates are walked: the last
    coordinate t solves Q(p, t) = c t^2 + 2 l t + Q(p, 0) = norm exactly,
    with c = g[n-1][n-1], and G v is the prefix's partial product plus t
    times the last column, whose last entry is l.
    """
    head = tuple(row[:-1] for row in gram)
    last_col = tuple(row[-1] for row in gram)
    c = gram[-1][-1]
    bucket = []
    for prefix in itertools.product(range(-bound, bound + 1), repeat=len(gram) - 1):
        partial = mat_vec(head, prefix)
        q0 = sum(a * b for a, b in zip(prefix, partial))
        nonzero = any(prefix)
        for t in _last_coordinates(c, partial[-1], q0 - norm, bound):
            if t or nonzero:
                gv = tuple(a + t * b for a, b in zip(partial, last_col))
                bucket.append((prefix + (t,), gv))
    return tuple(bucket)


def _norm_buckets(lattice: Lattice, bound: int, needed, nodes: _NodeCounter):
    """The bucket of each needed square: pairs (v, G v) of nonzero vectors v
    with entries in [-bound, bound], in lexicographic order of v.

    The whole box of (2 bound + 1)^n vectors is charged at once, before any
    bucket is read, so node counts and the exhaustion point do not depend on
    what the memo holds.
    """
    nodes.tick((2 * bound + 1) ** lattice.rank)
    return {norm: _norm_bucket(lattice.gram, bound, norm) for norm in needed}


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
        for cand, gcand in buckets[target_gram[j][j]]:
            nodes.tick()
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
    raise no_witness_within(budget, nodes.count)


def no_witness_within(budget: SearchBudget, nodes: int | None = None) -> BudgetExhaustedError:
    """The error of a search that ended without a witness inside the entry
    bound; nodes is None when the answer came without a search."""
    return BudgetExhaustedError(
        f"no isometry with entries bounded by {budget.entry_bound}; "
        "absence within the budget does not prove non-isometry",
        nodes=nodes,
        entry_bound=budget.entry_bound,
        node_limit=budget.node_limit,
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


def _as_group(mats, full_index) -> list[int]:
    indices = []
    for mat in mats:
        idx = full_index.get(mat)
        if idx is None:
            raise NotSubgroupError("element does not belong to the full group")
        indices.append(idx)
    return indices


def _composer(factors):
    """a o b for endomorphisms of the module with these invariant factors.
    On a cyclic module both are 1x1, and a o b is a product mod f."""
    if len(factors) == 1:
        (f,) = factors
        return lambda a, b: (((a[0][0] * b[0][0]) % f,),)
    return lambda a, b: compose_matrices(a, b, factors)


def closure(gens, factors, within=None):
    """Every product of the endomorphism matrices `gens` under composition,
    in the order reached; None as soon as a product falls outside `within`.

    The gens are taken in order; one not yet reached becomes a generator,
    and the reached set is closed under x -> x o t for every generator t.
    Every product of generators is then reached, so checking closure of a
    set S needs S o T within S for the generators T only, not all pairs.
    """
    compose = _composer(factors)
    reached: list = []
    seen: set = set()
    used: list = []

    def reach(x) -> bool:
        if within is not None and x not in within:
            return False
        if x not in seen:
            seen.add(x)
            reached.append(x)
        return True

    for s in gens:
        if s in seen:
            continue
        used.append(s)
        old = len(reached)
        if not reach(s):
            return None
        for x in reached[:old]:
            if not reach(compose(x, s)):
                return None
        i = old
        while i < len(reached):
            x = reached[i]
            i += 1
            for t in used:
                if not reach(compose(x, t)):
                    return None
    return reached


def double_coset_count(left, full, right, factors) -> int:
    """Number of orbits of `full` under x -> l.x.r over the subgroups `left`
    and `right` (union-find on the finite element list); an empty side is
    not a subgroup and raises NotSubgroupError.

    The elements are generator matrices of automorphisms of the module with
    invariant `factors`, such as ((a,),) for the unit a of a cyclic module."""
    full = list(full)
    left = list(left)
    right = list(right)
    if not full:
        raise LatfmError("full group is empty")
    # closure alone would pass an empty side, which holds no identity
    if not left or not right:
        raise NotSubgroupError("factor is empty")
    full_index = {mat: i for i, mat in enumerate(full)}
    if len(full_index) != len(full):
        raise LatfmError("full group contains duplicates")
    if closure(full, factors, within=full_index) is None:
        raise NotSubgroupError("full set is not closed under composition")
    left_idx = set(_as_group(left, full_index))
    right_idx = set(_as_group(right, full_index))
    for idx_set in (left_idx, right_idx):
        side = [full[i] for i in sorted(idx_set)]
        if closure(side, factors, within=set(side)) is None:
            raise NotSubgroupError("factor is not closed under composition")
    compose = _composer(factors)
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
            lx = compose(full[li], x)
            for ri in right_idx:
                union(i, full_index[compose(lx, full[ri])])
    return len({find(i) for i in range(len(full))})
