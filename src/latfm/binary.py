"""Exact isometries of binary forms of square discriminant.

A rank-2 lattice of determinant -n^2 (n >= 1) has exactly two isotropic
lines, spanned by primitive vectors p and q with b(p, q) = m != 0.  An
isometry maps the isotropic lines of one form onto those of the other, so
it sends (p2, q2) to (e p1, f q1) or (e q1, f p1) with e f m1 = m2: at most
four candidates, each fixed by the images of a rational basis.  The
integral candidates with B^t G1 B = G2 are every isometry there is.

search_outcome uses this to answer, without searching, what the bounded
search of latfm.oracle would answer on such a pair.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import LatfmError
from .intmat import Mat, identity
from .lattices import Lattice
from .oracle import IsometryWitness, SearchBudget, find_isometry_bounded, no_witness_within


def square_root_of_discriminant(gram: Mat) -> int:
    """The n >= 1 with det = -n^2 for a rank-2 Gram matrix, else 0."""
    if len(gram) != 2:
        return 0
    (a, b), (_, c) = gram
    minus_det = b * b - a * c
    n = isqrt(minus_det) if minus_det > 0 else 0
    return n if n * n == minus_det else 0


def isotropic_pair(gram: Mat, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Primitive vectors p, q spanning the two isotropic lines of the form
    [[a, b], [b, c]] of determinant -n^2: the lines through (-b + s n, a),
    or through (c, -b - s n) where that vector is zero, for s = 1, -1."""
    (a, b), (_, c) = gram
    pair = []
    for s in (n, -n):
        x, y = (-b + s, a) if (a or -b + s) else (c, -b - s)
        g = gcd(x, y)
        pair.append((x // g, y // g))
    return pair[0], pair[1]


def _pairing(gram: Mat, u, v) -> int:
    (a, b), (_, c) = gram
    return a * u[0] * v[0] + b * (u[0] * v[1] + u[1] * v[0]) + c * u[1] * v[1]


def isometries(g1: Mat, g2: Mat) -> tuple[Mat, ...]:
    """Every integral B with B^t g1 B = g2, for rank-2 Gram matrices of one
    determinant -n^2 with n >= 1, ordered by column 0 and then column 1."""
    n = square_root_of_discriminant(g1)
    if not n or square_root_of_discriminant(g2) != n:
        raise LatfmError("both forms must have one determinant -n^2 with n >= 1")
    p1, q1 = isotropic_pair(g1, n)
    p2, q2 = isotropic_pair(g2, n)
    m1, m2 = _pairing(g1, p1, q1), _pairing(g2, p2, q2)
    if m1 != m2 and m1 != -m2:
        return ()
    # B (p2 | q2) = (x | sign y), so B = (x | sign y) adj(p2 | q2) / det(p2 | q2);
    # -B is then an isometry too
    sign = 1 if m1 == m2 else -1
    det_p = p2[0] * q2[1] - q2[0] * p2[1]
    found = []
    for x, y in ((p1, q1), (q1, p1)):
        nums = [
            (x[i] * q2[1] - sign * y[i] * p2[1], sign * y[i] * p2[0] - x[i] * q2[0])
            for i in range(2)
        ]
        if any(num % det_p for row in nums for num in row):
            continue
        mat = tuple(tuple(num // det_p for num in row) for row in nums)
        if _transform(g1, mat) == g2:
            found += [mat, tuple(tuple(-v for v in row) for row in mat)]
    return tuple(sorted(found, key=lambda mat: tuple(zip(*mat))))


def _transform(gram: Mat, mat: Mat) -> Mat:
    """B^t G B for 2x2 matrices."""
    cols = tuple(zip(*mat))
    return tuple(tuple(_pairing(gram, u, v) for v in cols) for u in cols)


def _node_limit_out_of_reach(budget: SearchBudget) -> bool:
    """True when the bounded rank-2 search cannot reach its node limit: it
    charges the (2B+1)^2 box, then at most L nodes for column 0 and L for
    column 1 under each of them, where L = 3 (2B+1) bounds a norm bucket
    (at most two last coordinates per prefix, and 2B+1 on the one prefix
    whose equation vanishes identically)."""
    side = 2 * budget.entry_bound + 1
    bucket = 3 * side
    return side * side + bucket * (1 + bucket) <= budget.node_limit


def search_outcome(
    l1: Lattice, l2: Lattice, budget: SearchBudget
) -> IsometryWitness | None:
    """What find_isometry_bounded(l1, l2, budget) returns or raises.

    For rank-2 lattices of one determinant -n^2 and one parity, where the
    node limit cannot end the search, the answer is read off isometries():
    the identity for equal Gram matrices, else the least isometry (by column
    0, then column 1) with entries in [-B, B], which is the one the search
    meets first, else the search's exhaustion error.  Anything else goes to
    find_isometry_bounded.
    """
    n = square_root_of_discriminant(l1.gram)
    if (
        not n
        or l2.rank != 2
        or l2.det != l1.det
        or l2.is_even != l1.is_even
        or not _node_limit_out_of_reach(budget)
    ):
        return find_isometry_bounded(l1, l2, budget)
    if l1.gram == l2.gram:
        return IsometryWitness(l1, l2, identity(2))
    bound = budget.entry_bound
    for mat in isometries(l1.gram, l2.gram):
        if all(abs(x) <= bound for row in mat for x in row):
            return IsometryWitness(l1, l2, mat)
    raise no_witness_within(budget)
