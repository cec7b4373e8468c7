"""Exact linear algebra over Q: row reduction, spans, linear solves.

Vectors are lists/tuples of Fractions, with one exception:
:meth:`Subspace.reduce_scaled` takes and returns a vector as integer
numerators over one denominator, (d, ((index, numerator), ...)), the
form in which the exact algebra chain keeps its elements (built by
:func:`lowest_terms`).  The systems range from a handful of rows
(truncated algebras, coefficient collections) to the pure-contact
systems of a few hundred rows and columns, which are mostly zeros.  One
exact elimination, :func:`eliminate`, serves all of them: it works on
sparse rows, touches the nonzero entries only, and its output is the
unique reduced row echelon form.  :func:`rref` and :func:`solve_linear`
are its dense wrappers; the pure-contact solve hands it sparse rows
directly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def _subtract(row, f, prow):
    """row -= f * prow on sparse rows, dropping entries that cancel."""
    for j, c in prow.items():
        v = row.get(j)
        v = -f * c if v is None else v - f * c
        if v:
            row[j] = v
        else:
            del row[j]


def eliminate(rows):
    """The sparse elimination core: reduced row echelon form of sparse rows.

    ``rows`` is an iterable of dicts {column: nonzero Fraction}; each is
    consumed (reduced in place).  Returns {pivot column: pivot row}, where
    each pivot row holds 1 at its pivot and no other pivot column.

    An incoming row is reduced against the pivot rows found so far, always
    at its leading column, until that column holds no pivot; it is then
    scaled to a new pivot row.  A final back-substitution clears every
    pivot column from the other pivot rows.  The reduced row echelon form
    of a row space is unique, so the result does not depend on the order
    of the steps.
    """
    pivot_rows = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                inv = 1 / row[lead]
                pivot_rows[lead] = {j: c * inv for j, c in row.items()}
                break
            _subtract(row, row[lead], prow)
    for p in sorted(pivot_rows, reverse=True):
        row = pivot_rows[p]
        for q in [q for q in row if q != p and q in pivot_rows]:
            _subtract(row, row[q], pivot_rows[q])
    return pivot_rows


def _sparse(rows):
    """Dense rows as sparse dicts of Fractions; zero rows are dropped."""
    for r in rows:
        row = {
            j: c if type(c) is Fraction else Fraction(c)
            for j, c in enumerate(r)
            if c
        }
        if row:
            yield row


def rref(rows):
    """Reduced row echelon form of dense rows.

    Returns (echelon_rows, pivot_columns); zero rows are dropped, the rows
    are dense lists of Fractions and the pivots are increasing.  A dense
    wrapper around :func:`eliminate`.
    """
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivot_rows = eliminate(_sparse(rows))
    pivots = sorted(pivot_rows)
    echelon = []
    for p in pivots:
        dense = [Fraction(0)] * ncols
        for j, c in pivot_rows[p].items():
            dense[j] = c
        echelon.append(dense)
    return echelon, pivots


def particular_solution(pivot_rows, ncols):
    """Read the solution of an eliminated augmented system.

    ``pivot_rows`` is :func:`eliminate` of the rows of A x = b, each with b
    in column ``ncols``.  Returns (the solution whose free unknowns are
    zero, None), or (None, index) where index is the position of the
    inconsistent row 0 = 1 among the echelon rows: the last one, after
    every pivot of A.
    """
    if ncols in pivot_rows:
        return None, len(pivot_rows) - 1
    solution = [Fraction(0)] * ncols
    for p, row in pivot_rows.items():
        value = row.get(ncols)
        if value is not None:
            solution[p] = value
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
    """Subspace of Q^n stored as a reduced row echelon basis."""

    def __init__(self, vectors, dim):
        self.ambient = dim
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != dim:
                raise ValueError("ambient dimension mismatch")
        self.rows, self.pivots = rref(vecs)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Canonical representative of vec modulo this subspace."""
        v = [c if type(c) is Fraction else Fraction(c) for c in vec]
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                for j in range(p, self.ambient):
                    v[j] -= f * row[j]
        return v

    @functools.cached_property
    def _integer_rows(self):
        """Each echelon row as (pivot, D, ((column, R[column]), ...)): the
        row times the least common denominator D of its entries, so that
        R[pivot] = D.  A unit-vector row is the case D = 1."""
        out = []
        for row, p in zip(self.rows, self.pivots):
            entries = [(j, c) for j, c in enumerate(row) if c]
            D = math.lcm(*[c.denominator for _, c in entries])
            row = tuple([(j, c.numerator * (D // c.denominator)) for j, c in entries])
            out.append((p, D, row))
        return out

    def reduce_scaled(self, d, pairs):
        """:meth:`reduce` on integer numerators: the canonical
        representative of the vector with entries n / d, given and returned
        as (d, ((index, n), ...)) in lowest terms.  Clearing pivot p against
        the row R over D is v D - v[p] R, which scales the denominator by D;
        one gcd at the end brings the result to lowest terms.  A vector
        that meets no pivot is returned as it was given."""
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
        return not any(self.reduce(vec))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(r) for r in self.rows)))

    def sum(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.rows + other.rows, self.ambient)


def solve_linear(matrix_rows, rhs):
    """Solve A x = b exactly over Q.

    matrix_rows: list of equation coefficient rows, rhs: list of Fractions.
    Returns (particular_solution, nullspace_basis) or (None, index) where
    index is the position of the first inconsistent equation row in the
    reduced system (used to surface certificates).  A dense wrapper around
    :func:`eliminate`.
    """
    if not matrix_rows:
        return [], []
    ncols = len(matrix_rows[0])
    aug = [list(row) + [b] for row, b in zip(matrix_rows, rhs)]
    pivot_rows = eliminate(_sparse(aug))
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
                v[p] = -c
        null_basis.append(v)
    return solution, null_basis
