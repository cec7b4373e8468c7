"""Dense reference copies of the row reduction and the linear solve.

These are the plain Gaussian elimination routines ``degkit.linalg`` used
before its elimination became sparse.  They touch every entry of every row,
so they are slow on the pure-contact systems, but they share no code with
the library and serve the tests as an independent oracle.
"""

from fractions import Fraction


def dense_rref(rows):
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    echelon = []
    pivots = []
    col = 0
    work = rows
    while work and col < ncols:
        pivot_row = None
        for r in work:
            if r[col]:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        work.remove(pivot_row)
        inv = Fraction(1) / pivot_row[col]
        pivot_row = [c * inv for c in pivot_row]
        for r in work:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        for r in echelon:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] -= f * pivot_row[j]
        echelon.append(pivot_row)
        pivots.append(col)
        work = [r for r in work if any(r)]
        col += 1
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [echelon[i] for i in order], [pivots[i] for i in order]


def dense_solve_linear(matrix_rows, rhs):
    if not matrix_rows:
        return [], []
    ncols = len(matrix_rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(matrix_rows, rhs)]
    echelon, pivots = dense_rref(aug)
    for i, (row, p) in enumerate(zip(echelon, pivots)):
        if p == ncols:
            return None, i
    solution = [Fraction(0)] * ncols
    for row, p in zip(echelon, pivots):
        solution[p] = row[ncols]
    free_cols = [j for j in range(ncols) if j not in pivots]
    null_basis = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(echelon, pivots):
            v[p] = -row[f]
        null_basis.append(v)
    return solution, null_basis


def dense_reduce(rows, pivots, vec):
    """Canonical representative of ``vec`` modulo the span of the echelon
    rows with the given pivots: the Fraction reduction ``Subspace.reduce``
    did before the subspace kept integer rows."""
    v = [c if type(c) is Fraction else Fraction(c) for c in vec]
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            for j in range(p, len(v)):
                v[j] -= f * row[j]
    return v
