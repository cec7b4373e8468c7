"""Exact linear algebra over Q: row reduction, spans, linear solves.

The elimination runs on integers.  Its one core, :func:`integer_eliminate`,
takes sparse integer rows and keeps every pivot row primitive: divided by
the gcd of its entries, with a positive leading entry.  A step replaces a
row by a * row - b * pivot_row, a and b the two entries at the column
being cleared divided by their gcd, so no entry is ever a Fraction.  Its output
is the unique reduced row echelon form, each row scaled to integers.  The
systems range from a handful of rows (truncated algebras, coefficient
collections) to the pure-contact systems of a few hundred rows and
columns, which are mostly zeros, so the core touches nonzero entries only.

Fractions are built only at the public edges: :func:`eliminate` (sparse
rows of Fractions in and out), :func:`rref` and :func:`solve_linear` (dense
rows), :func:`particular_solution`, and the ``rows``, :meth:`Subspace.reduce`
and :meth:`Subspace.contains` of a :class:`Subspace`, which keeps its
primitive rows as its state.  Rationals come in through one routine,
:func:`numerators`, which refuses floats and bools with TypeError, and
integer numerators go out as Fractions through one, :func:`_dense`.
Callers that hold integer numerators feed the core directly:
:meth:`Subspace.reduce_scaled` takes and returns a vector as integer
numerators over one denominator, (d, ((index, numerator), ...)), the one
state of an element of the exact algebra chain, which :func:`lowest_terms`
brings to lowest terms.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .polys import _coeff


def _combine(row, col, prow):
    """row := a * row - b * prow, clearing ``col``: a / b is prow[col] /
    row[col] in lowest terms, with a > 0 since prow's pivot is positive.
    Entries that cancel are dropped."""
    a = prow[col]
    b = row[col]
    g = math.gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, c in prow.items():
        v = row.get(j, 0) - b * c
        if v:
            row[j] = v
        else:
            del row[j]


def _primitive(row, lead):
    """Divide ``row`` in place by the gcd of its entries, signed so that
    the entry at ``lead`` is positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def integer_eliminate(rows):
    """The elimination core: the reduced row echelon form of sparse integer
    rows, each row scaled to primitive integers.

    ``rows`` is an iterable of dicts {column: nonzero int}; each is consumed
    (reduced in place).  Returns {pivot column: pivot row}, where each
    pivot row is primitive, positive at its pivot and zero at every other
    pivot column: the reduced row echelon form's row times the least
    common denominator of its entries.

    An incoming row is reduced against the pivot rows found so far, always
    at its leading column, until that column holds no pivot; it is then
    made primitive and becomes a pivot row.  A final back-substitution
    clears every pivot column from the other pivot rows, from the last
    pivot to the first, so each row is cleared against rows that are
    already final.  The reduced row echelon form of a row space is unique,
    so the result does not depend on the order of the steps.
    """
    pivot_rows = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                pivot_rows[lead] = _primitive(row, lead)
                break
            _combine(row, lead, prow)
    for p in sorted(pivot_rows, reverse=True):
        row = pivot_rows[p]
        cols = [q for q in row if q != p and q in pivot_rows]
        for q in cols:
            _combine(row, q, pivot_rows[q])
        if cols:
            _primitive(row, p)
    return pivot_rows


def numerators(pairs):
    """(index, rational) pairs as (D, ((index, numerator), ...)): the
    nonzero entries as integer numerators over their least common
    denominator D, in increasing order if the pairs were.

    This is the one conversion of rationals to integer numerators.  Ints
    and Fractions are taken as they are; any other value goes through
    :func:`polys._coeff`, which refuses floats and bools with TypeError.
    Fractions are in lowest terms, so D and the numerators share no factor:
    a prime dividing D divides the denominator of some entry as often as it
    divides D, and not that entry's numerator.
    """
    entries = []
    for j, c in pairs:
        if type(c) is not int and type(c) is not Fraction:
            c = _coeff(c)
        if c:
            entries.append((j, c))
    if all(type(c) is int for _, c in entries):
        return 1, tuple(entries)
    D = math.lcm(*[c.denominator for _, c in entries])
    return D, tuple([(j, c.numerator * (D // c.denominator)) for j, c in entries])


def _integer_rows(rows):
    """Dense rows of rationals as sparse integer rows {column: numerator}."""
    return (dict(numerators(enumerate(r))[1]) for r in rows)


def eliminate(rows):
    """The reduced row echelon form of sparse rows of Fractions.

    ``rows`` is an iterable of dicts {column: nonzero Fraction}.  Returns
    {pivot column: pivot row}, where each pivot row holds 1 at its pivot
    and no other pivot column.  A Fraction edge of
    :func:`integer_eliminate`.
    """
    pivot_rows = integer_eliminate(dict(numerators(row.items())[1]) for row in rows)
    return {
        p: {j: Fraction(c, row[p]) for j, c in row.items()}
        for p, row in pivot_rows.items()
    }


def _dense(d, pairs, ncols):
    """The integer numerators (index, n) over d as a dense list of
    Fractions."""
    dense = [Fraction(0)] * ncols
    for j, n in pairs:
        dense[j] = Fraction(n, d)
    return dense


def _width(rows):
    """The common length of dense rows; ValueError if they differ."""
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ambient dimension mismatch")
    return ncols


def rref(rows):
    """Reduced row echelon form of dense rows.

    Returns (echelon_rows, pivot_columns); zero rows are dropped, the rows
    are dense lists of Fractions and the pivots are increasing.  Rows of
    different lengths raise ValueError.  A dense edge of
    :func:`integer_eliminate`.
    """
    rows = list(rows)
    if not rows:
        return [], []
    ncols = _width(rows)
    pivot_rows = integer_eliminate(_integer_rows(rows))
    pivots = sorted(pivot_rows)
    echelon = [_dense(pivot_rows[p][p], pivot_rows[p].items(), ncols) for p in pivots]
    return echelon, pivots


def particular_solution(pivot_rows, ncols, scales=None):
    """Read the solution of an eliminated augmented system.

    ``pivot_rows`` is the elimination of the rows of A x = b, each with b
    in column ``ncols``; each pivot row may be any nonzero multiple of its
    reduced row (the output of :func:`integer_eliminate` or of
    :func:`eliminate`).  ``scales``, if given, are ncols + 1 nonzero
    integers by which the columns of A and then b were multiplied before
    the elimination; the unknowns are scaled back.  Returns (the solution
    whose free unknowns are zero, None), or (None, index) where index is
    the position of the inconsistent row 0 = 1 among the echelon rows: the
    last one, after every pivot of A.

    Scaling a column by a nonzero factor keeps the pivot columns, so the
    index and the free unknowns are those of the unscaled system: if x'
    solves the scaled one, x_j = scales[j] x'_j / scales[ncols] solves A x
    = b, and x'_j = 0 exactly when x_j = 0.
    """
    if ncols in pivot_rows:
        return None, len(pivot_rows) - 1
    solution = [Fraction(0)] * ncols
    for p, row in pivot_rows.items():
        value = row.get(ncols)
        if value is not None:
            if scales is None:
                solution[p] = Fraction(value, row[p])
            else:
                solution[p] = Fraction(scales[p] * value, scales[ncols] * row[p])
    return solution, None


def lowest_terms(d, nums):
    """The integer vector ``nums`` over the positive denominator ``d`` as
    (d', ((index, numerator), ...)) over its nonzero entries, in lowest
    terms: d' and the numerators share no factor, so d' is their least
    common denominator and equal vectors give equal forms."""
    pairs = tuple([(m, n) for m, n in enumerate(nums) if n])
    if not pairs:
        return 1, ()
    g = 1 if d == 1 else math.gcd(d, *[n for _, n in pairs])
    if g != 1:
        d //= g
        pairs = tuple([(m, n // g) for m, n in pairs])
    return d, pairs


class Subspace:
    """Subspace of Q^n stored as its reduced row echelon basis, each row
    kept as primitive integers.

    ``_integer_rows`` is that state: per echelon row, (pivot, D, ((column,
    R[column]), ...)) with R the row times the least common denominator D
    of its entries, so that R[pivot] = D.  ``rows`` and ``pivots`` read it
    as dense rows of Fractions.
    """

    def __init__(self, vectors, dim):
        self.ambient = dim
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != dim:
                raise ValueError("ambient dimension mismatch")
        pivot_rows = integer_eliminate(_integer_rows(vecs))
        self._integer_rows = [
            (p, pivot_rows[p][p], tuple(sorted(pivot_rows[p].items())))
            for p in sorted(pivot_rows)
        ]

    @property
    def dim(self):
        return len(self._integer_rows)

    @property
    def pivots(self):
        return [p for p, _, _ in self._integer_rows]

    @functools.cached_property
    def rows(self):
        """The echelon rows as dense lists of Fractions, 1 at each pivot."""
        return [_dense(D, row, self.ambient) for _, D, row in self._integer_rows]

    def reduce(self, vec):
        """Canonical representative of vec modulo this subspace, as a list
        of Fractions: a Fraction edge of :meth:`reduce_scaled`."""
        return _dense(*self.reduce_scaled(*numerators(enumerate(vec))), self.ambient)

    def reduce_scaled(self, d, pairs):
        """The canonical representative of the vector with entries n / d
        modulo this subspace, given and returned as (d, ((index, n), ...))
        in lowest terms.  Clearing pivot p against the row R over D is
        v D - v[p] R, which scales the denominator by D; one gcd at the end
        brings the result to lowest terms.  A vector that meets no pivot is
        returned as it was given."""
        vec = [0] * self.ambient
        for i, n in pairs:
            vec[i] = n
        touched = False
        for p, D, row in self._integer_rows:
            f = vec[p]
            if not f:
                continue
            touched = True
            if D != 1:
                vec = [n * D for n in vec]
                d *= D
            for j, r in row:
                vec[j] -= f * r
        if not touched:
            return d, pairs
        return lowest_terms(d, vec)

    def contains(self, vec):
        return not self.reduce_scaled(*numerators(enumerate(vec)))[1]

    def __eq__(self, other):
        # the primitive rows are the echelon rows scaled canonically, so
        # they are equal exactly when the echelon rows are
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._integer_rows == other._integer_rows
        )

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(r) for r in self.rows)))

    def sum(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.rows + other.rows, self.ambient)


def solve_linear(matrix_rows, rhs):
    """Solve A x = b exactly over Q.

    matrix_rows: list of equation coefficient rows, rhs: list of rationals.
    Returns (particular_solution, nullspace_basis) or (None, index) where
    index is the position of the first inconsistent equation row in the
    reduced system (used to surface certificates).  Rows of different
    lengths, or one rhs entry too many or too few, raise ValueError.  A
    dense edge of :func:`integer_eliminate`.
    """
    if len(matrix_rows) != len(rhs):
        raise ValueError("ambient dimension mismatch")
    if not matrix_rows:
        return [], []
    ncols = _width(matrix_rows)
    aug = [list(row) + [b] for row, b in zip(matrix_rows, rhs)]
    pivot_rows = integer_eliminate(_integer_rows(aug))
    solution, index = particular_solution(pivot_rows, ncols)
    if solution is None:
        return None, index
    null_basis = []
    for f in range(ncols):
        if f in pivot_rows:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, row in pivot_rows.items():
            c = row.get(f)
            if c is not None:
                v[p] = Fraction(-c, row[p])
        null_basis.append(v)
    return solution, null_basis
