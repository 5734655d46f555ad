"""Exact linear algebra over Z on plain tuples.

Matrices are tuples of row tuples, vectors are tuples.  Entries are Python
ints (arbitrary precision); only rational_solve returns Fractions, and
nothing here ever touches a float.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

Vec = tuple
Mat = tuple


def freeze(rows) -> Mat:
    return tuple(tuple(entry for entry in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_dot(u: Vec, v: Vec):
    return sum(x * y for x, y in zip(u, v))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _gauss_jordan(rows) -> tuple[list, list, int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan reduction of an integer matrix.

    Returns (a, pivots, sign, last): the reduced rows, the pivot columns, the
    sign of the row permutation and the last pivot (1 if there is none).  Row
    t < len(pivots) of a holds last at column pivots[t] and 0 at every other
    pivot column; the rows below are zero.  Every entry is a minor of the
    input, so each division is exact.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    sign = prev = 1
    for j in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[j]
        for i, row in enumerate(a):
            c = row[j]
            if i != r and (c or p != prev):
                a[i] = [(p * x - c * y) // prev for x, y in zip(row, prow)]
        prev = p
        pivots.append(j)
    return a, pivots, sign, prev


def det(m: Mat) -> int:
    """Exact determinant of a square integer matrix."""
    _, pivots, sign, last = _gauss_jordan(m)
    return sign * last if len(pivots) == len(m) else 0


def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Return (U, D, V) with U*m*V = D diagonal, d_i >= 0, d_i | d_{i+1},
    and U, V unimodular.  A 2x2 input takes a straight-line form, which
    returns what _smith_loop returns."""
    if len(m) == 2 and len(m[0]) == 2:
        return _smith_2x2(m)
    return _smith_loop(m)


def _smith_2x2(m: Mat) -> tuple[Mat, Mat, Mat]:
    """_smith_loop's steps on a 2x2 matrix, on eight scalars for U and V.

    Pivot: the least nonzero |entry|, the first in row-major order on a tie,
    moved to (0, 0) and its row made positive.  Then row 1 and column 1 are
    reduced by floor division; a remainder picks the next pivot, and when
    both are clear but the pivot does not divide the corner, row 0 += row 1
    and the pivot is picked again.  Last, row 1 is negated if its corner is
    < 0.
    """
    (a, b), (c, d) = m
    if not (a or b or c or d):
        return ((1, 0), (0, 1)), ((0, 0), (0, 0)), ((1, 0), (0, 1))
    u00, u01, u10, u11 = 1, 0, 0, 1
    v00, v01, v10, v11 = 1, 0, 0, 1
    while True:
        best, k = abs(a), 0
        for i, x in ((1, b), (2, c), (3, d)):
            if x and (not best or abs(x) < best):
                best, k = abs(x), i
        if k > 1:
            a, b, c, d = c, d, a, b
            u00, u01, u10, u11 = u10, u11, u00, u01
        if k & 1:
            a, b, c, d = b, a, d, c
            v00, v01, v10, v11 = v01, v00, v11, v10
        if a < 0:
            a, b, u00, u01 = -a, -b, -u00, -u01
        q = c // a
        if q:
            c, d, u10, u11 = c - q * a, d - q * b, u10 - q * u00, u11 - q * u01
        q = b // a
        if q:
            b, d, v01, v11 = b - q * a, d - q * c, v01 - q * v00, v11 - q * v10
        if b or c:
            continue
        if d % a == 0:
            break
        b, u00, u01 = d, u00 + u10, u01 + u11
    if d < 0:
        d, u10, u11 = -d, -u10, -u11
    return ((u00, u01), (u10, u11)), ((a, 0), (0, d)), ((v00, v01), (v10, v11))


def _smith_loop(m: Mat) -> tuple[Mat, Mat, Mat]:
    """The generic Smith elimination, for every shape."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    a = [list(row) for row in m]
    u = [list(row) for row in identity(nrows)]
    v = [list(row) for row in identity(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        asrc, adst = a[src], a[dst]
        for k in range(ncols):
            adst[k] += q * asrc[k]
        usrc, udst = u[src], u[dst]
        for k in range(nrows):
            udst[k] += q * usrc[k]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(nrows, ncols)):
        while True:
            best = None
            where = None
            for i in range(t, nrows):
                row = a[i]
                for j in range(t, ncols):
                    x = abs(row[j])
                    if x and (best is None or x < best):
                        best, where = x, (i, j)
            if where is None:
                break
            i0, j0 = where
            if i0 != t:
                swap_rows(t, i0)
            if j0 != t:
                swap_cols(t, j0)
            if a[t][t] < 0:
                negate_row(t)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                q = a[i][t] // pivot
                if q:
                    add_row(t, i, -q)
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, ncols):
                q = a[t][j] // pivot
                if q:
                    add_col(t, j, -q)
                if a[t][j]:
                    dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, nrows):
                row = a[i]
                if any(row[j] % pivot for j in range(t + 1, ncols)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] == 0:
            break
    return freeze(u), freeze(a), freeze(v)


def invariant_factors(m: Mat) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form."""
    _, d, _ = smith_normal_form(m)
    k = min(len(m), len(m[0]) if m else 0)
    return tuple(d[i][i] for i in range(k) if d[i][i])


def hermite_normal_form(m: Mat) -> Mat:
    """Canonical row-style HNF: full-rank rows, positive pivots, entries above
    each pivot reduced into [0, pivot)."""
    nrows = len(m)
    if nrows == 0:
        return ()
    ncols = len(m[0])
    a = [list(row) for row in m]
    r = 0
    for j in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][j]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            while a[i][j]:
                q = a[r][j] // a[i][j]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return freeze(a[:r])


def kernel_basis(m: Mat) -> tuple[Vec, ...]:
    """Basis of the saturated integer kernel {x : m.x = 0} (columns of the SNF
    right transform at zero invariant factors)."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if ncols == 0:
        return ()
    if nrows == 0:
        return tuple(identity(ncols))
    _, d, v = smith_normal_form(m)
    out = []
    for j in range(ncols):
        dj = d[j][j] if j < nrows else 0
        if dj == 0:
            out.append(tuple(v[i][j] for i in range(ncols)))
    return tuple(out)


def integer_solver(m: Mat):
    """Factor m once (Smith normal form) and return the function mapping rhs
    to one integer solution of m.x = rhs, or None if none exists."""
    ncols = len(m[0]) if m else 0
    u, d, v = smith_normal_form(m)
    diag = tuple(d[i][i] if i < ncols else 0 for i in range(len(m)))

    def solve(rhs: Vec) -> Vec | None:
        y = [0] * ncols
        for i, (bi, di) in enumerate(zip(mat_vec(u, rhs), diag)):
            if di == 0:
                if bi:
                    return None
            elif bi % di:
                return None
            else:
                y[i] = bi // di
        return mat_vec(v, tuple(y))

    return solve


def solve_integer(m: Mat, rhs: Vec) -> Vec | None:
    """One integer solution of m.x = rhs, or None if none exists."""
    return integer_solver(m)(rhs)


def rational_solve(m: Mat, rhs: Vec) -> tuple[Fraction, ...] | None:
    """One rational solution of m.x = rhs (free coordinates 0), or None if
    inconsistent."""
    from fractions import Fraction

    ncols = len(m[0]) if m else 0
    a, pivots, _, last = _gauss_jordan(
        [tuple(row) + (y,) for row, y in zip(m, rhs)]
    )
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, j in zip(a, pivots):
        x[j] = Fraction(row[ncols], last)
    return tuple(x)


def rank(m: Mat) -> int:
    """Rank over Q.  Two rows take a straight-line form: zero, or else 2 iff
    some 2x2 minor on the first nonzero column is nonzero."""
    if len(m) == 2:
        r0, r1 = m
        for x, y in zip(r0, r1):
            if x or y:
                return 2 if any(x * w - y * v for v, w in zip(r0, r1)) else 1
        return 0
    return len(_gauss_jordan(m)[1])


def unimodular_inverse(m: Mat) -> Mat:
    """Integer inverse of a unimodular matrix."""
    n = len(m)
    a, pivots, _, last = _gauss_jordan(
        [tuple(row) + unit for row, unit in zip(m, identity(n))]
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    if abs(last) != 1:
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(last * x for x in row[n:]) for row in a)


def complete_primitive_vector(c: Vec) -> tuple[Mat, Mat]:
    """(W, W^-1) for a unimodular W with first column c (c primitive), via
    the Smith transform.

    U c = sign e_1 with sign = V[0][0] = +-1, so W is U^-1 with its first
    column times sign and W^-1 is U with its first row times sign.
    """
    k = len(c)
    col = tuple((x,) for x in c)
    u, d, v = smith_normal_form(col)
    if d[0][0] != 1:
        raise ValueError("vector is not primitive")
    sign = v[0][0]
    w = tuple(
        tuple(sign * row[0] if j == 0 else row[j] for j in range(k))
        for row in unimodular_inverse(u)
    )
    return w, (tuple(sign * x for x in u[0]),) + u[1:]


def complete_primitive_vector_gcd(c: Vec) -> Mat:
    """Unimodular W with first column c, built from a ladder of 2x2 gcd steps.

    Used as an independent cross-check of complete_primitive_vector.
    """
    k = len(c)
    t = [list(row) for row in identity(k)]
    vec = list(c)
    for i in range(1, k):
        a, b = vec[0], vec[i]
        if b == 0:
            continue
        g, x, y = xgcd(a, b)
        p, q = a // g, b // g
        row0 = [x * r0 + y * ri for r0, ri in zip(t[0], t[i])]
        rowi = [-q * r0 + p * ri for r0, ri in zip(t[0], t[i])]
        t[0], t[i] = row0, rowi
        vec[0], vec[i] = g, 0
    if vec[0] == -1:
        t[0] = [-x for x in t[0]]
        vec[0] = 1
    if vec[0] != 1:
        raise ValueError("vector is not primitive")
    return unimodular_inverse(freeze(t))
