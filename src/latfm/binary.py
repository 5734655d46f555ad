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


def isometries(g1: Mat, g2: Mat) -> tuple[Mat, ...]:
    """Every integral B with B^t g1 B = g2, for rank-2 Gram matrices of one
    determinant -n^2 with n >= 1, ordered by column 0 and then column 1."""
    n = square_root_of_discriminant(g1)
    if not n or square_root_of_discriminant(g2) != n:
        raise LatfmError("both forms must have one determinant -n^2 with n >= 1")
    return _isometries(g1, g2, n)


def _isometries(g1: Mat, g2: Mat, n: int) -> tuple[Mat, ...]:
    """isometries(g1, g2) for two symmetric forms of determinant -n^2."""
    (a1, b1), (_, c1) = g1
    (a2, b2), (_, c2) = g2
    (p1x, p1y), (q1x, q1y) = isotropic_pair(g1, n)
    (p2x, p2y), (q2x, q2y) = isotropic_pair(g2, n)
    m1 = a1 * p1x * q1x + b1 * (p1x * q1y + p1y * q1x) + c1 * p1y * q1y
    m2 = a2 * p2x * q2x + b2 * (p2x * q2y + p2y * q2x) + c2 * p2y * q2y
    if m1 == m2:
        candidates = ((p1x, p1y, q1x, q1y), (q1x, q1y, p1x, p1y))
    elif m1 == -m2:
        candidates = ((p1x, p1y, -q1x, -q1y), (q1x, q1y, -p1x, -p1y))
    else:
        return ()
    # B (p2 | q2) = (x | y) with y = +-(the other line), so
    # B = (x | y) adj(p2 | q2) / det(p2 | q2); -B is then an isometry too
    det_p = p2x * q2y - q2x * p2y
    found = []
    for x0, x1, y0, y1 in candidates:
        e, r0 = divmod(x0 * q2y - y0 * p2y, det_p)
        f, r1 = divmod(y0 * p2x - x0 * q2x, det_p)
        g, r2 = divmod(x1 * q2y - y1 * p2y, det_p)
        h, r3 = divmod(y1 * p2x - x1 * q2x, det_p)
        if r0 or r1 or r2 or r3:
            continue
        # B = [[e, f], [g, h]]: B^t g1 B pairs its columns (e, g) and (f, h)
        if (a1 * e * e + 2 * b1 * e * g + c1 * g * g == a2
                and a1 * e * f + b1 * (e * h + g * f) + c1 * g * h == b2
                and a1 * f * f + 2 * b1 * f * h + c1 * h * h == c2):
            found += [(e, g, f, h), (-e, -g, -f, -h)]
    found.sort()  # column 0 is (e, g), column 1 is (f, h)
    return tuple([((e, f), (g, h)) for e, g, f, h in found])


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
    g1, g2 = l1.gram, l2.gram
    n = square_root_of_discriminant(g1)
    if (
        not n
        or l2.rank != 2
        or l2.det != l1.det
        # a rank-2 form is even when both diagonal entries are
        or (g1[0][0] | g1[1][1]) & 1 != (g2[0][0] | g2[1][1]) & 1
        or not _node_limit_out_of_reach(budget)
    ):
        return find_isometry_bounded(l1, l2, budget)
    if g1 == g2:
        return IsometryWitness(l1, l2, identity(2))
    bound = budget.entry_bound
    for mat in _isometries(g1, g2, n):
        (e, f), (g, h) = mat
        if abs(e) <= bound and abs(f) <= bound and abs(g) <= bound and abs(h) <= bound:
            return IsometryWitness(l1, l2, mat)
    raise no_witness_within(budget)
