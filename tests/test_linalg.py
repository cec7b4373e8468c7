"""The integer elimination and its Fraction edges against the dense
reference elimination.

The reduced row echelon form of a row space is unique, so ``rref`` must
reproduce the dense routine's rows and pivots exactly, the core
``integer_eliminate`` must give those rows scaled to primitive integers,
and ``solve_linear``, ``Subspace`` and the sparse solve (``eliminate`` on
sparse rows, read by ``particular_solution``) must give the same
particular solutions, null bases, inconsistency indices, equality and
hashes.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

from degkit import TruncatedAlgebra
from degkit.linalg import (
    Subspace,
    eliminate,
    integer_eliminate,
    particular_solution,
    rref,
    solve_linear,
)
from dense_linalg import dense_reduce, dense_rref, dense_solve_linear

ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)


@st.composite
def matrices(draw, min_rows=0):
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(min_rows, 10))
    rows = [draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if rows and draw(st.booleans()):
        # repeated rows, exactly or up to a scalar, and zero rows
        rng = random.Random(draw(st.integers(0, 2**16)))
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(3)
            src = rng.choice(rows)
            if kind == 0:
                rows.insert(rng.randrange(len(rows) + 1), list(src))
            elif kind == 1:
                f = Fraction(rng.choice([-2, -1, 3]), rng.choice([1, 2]))
                rows.insert(rng.randrange(len(rows) + 1), [f * x for x in src])
            else:
                rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    if draw(st.integers(0, 9)) == 0:
        rows = [[0] * ncols for _ in rows]
    return rows


@given(matrices())
@settings(max_examples=400, deadline=None)
def test_rref_matches_dense(rows):
    echelon, pivots = rref(rows)
    assert (echelon, pivots) == dense_rref(rows)
    assert pivots == sorted(pivots)
    assert all(type(x) is Fraction for row in echelon for x in row)


@given(matrices(min_rows=1), st.data())
@settings(max_examples=400, deadline=None)
def test_solve_linear_matches_dense(rows, data):
    ncols = len(rows[0])
    x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
    rhs = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]
    if data.draw(st.booleans()):
        # perturb one equation; with a zero row this is always inconsistent
        i = data.draw(st.integers(0, len(rows) - 1))
        rhs[i] += data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    got = solve_linear(rows, rhs)
    assert got == dense_solve_linear(rows, rhs)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    assert rref(aug) == dense_rref(aug)
    if got[0] is None:
        assert got[1] == len(dense_rref(rows)[0])


@given(matrices(min_rows=1), st.data())
@settings(max_examples=400, deadline=None)
def test_sparse_solve_matches_dense(rows, data):
    # sparse augmented rows straight into the elimination, in shuffled
    # order, against the dense solve: the particular solution, or the
    # reduced-row index of the inconsistent equation
    ncols = len(rows[0])
    x = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
    rhs = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(rows) - 1))
        rhs[i] += data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    sparse = []
    for row, b in zip(rows, rhs):
        entry = {j: Fraction(c) for j, c in enumerate(list(row) + [b]) if c}
        if entry:
            sparse.append(entry)
    random.Random(data.draw(st.integers(0, 2**16))).shuffle(sparse)
    got = particular_solution(eliminate(sparse), ncols)
    solution, info = dense_solve_linear(rows, rhs)
    if solution is None:
        assert got == (None, info)
        event("inconsistent")
    else:
        assert got == (solution, None)
        event("solved")


@given(matrices(), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_subspace_matches_dense(rows, seed):
    dim = len(rows[0]) if rows else 3
    space = Subspace(rows, dim)
    # the subspace keeps integer rows, so the reference is spanned by the
    # dense echelon rows, and the hash is pinned to those rows directly
    ref_rows, ref_pivots = dense_rref(rows)
    ref = Subspace(ref_rows, dim)
    assert space == ref and hash(space) == hash(ref)
    assert hash(space) == hash((dim, tuple(tuple(r) for r in ref_rows)))
    assert (space.rows, space.pivots) == (ref_rows, ref_pivots)
    # the same span from shuffled, rescaled generators is the same object
    rng = random.Random(seed)
    others = []
    for row in rows:
        f = Fraction(rng.choice([1, -1, 2]), 3)
        others.append([f * x for x in row])
    rng.shuffle(others)
    other = Subspace(others, dim)
    assert other == space and hash(other) == hash(space)


def _scaled(vec):
    """A Fraction vector as (d, ((index, numerator), ...)) in lowest terms."""
    d = math.lcm(*[c.denominator for c in vec])
    return d, tuple(
        (i, c.numerator * (d // c.denominator)) for i, c in enumerate(vec) if c
    )


def test_reduce_scaled_matches_reduce():
    # random subspaces whose echelon rows have several entries over the
    # denominators 2 and 3, against the dense Fraction reduction over the
    # dense echelon rows; reduce, the Fraction edge, agrees too
    rng = random.Random(25)
    entries = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)]
    multi_entry_rows = 0
    for _ in range(300):
        dim = rng.randrange(2, 8)
        gens = [
            [rng.choice(entries) for _ in range(dim)]
            for _ in range(rng.randrange(1, 4))
        ]
        space = Subspace(gens, dim)
        echelon, pivots = dense_rref(gens)
        multi_entry_rows += sum(
            1
            for row in space.rows
            if sum(1 for c in row if c) > 1 and any(c.denominator > 1 for c in row)
        )
        for _ in range(4):
            scale = rng.choice([1, 5, Fraction(1, 4)])
            vec = [Fraction(rng.choice(entries)) * scale for _ in range(dim)]
            expected = dense_reduce(echelon, pivots, vec)
            assert space.reduce(vec) == expected
            d, pairs = space.reduce_scaled(*_scaled(vec))
            assert (d, pairs) == _scaled(expected)
            dense = [Fraction(0)] * dim
            for i, n in pairs:
                dense[i] = Fraction(n, d)
            assert dense == expected
    assert multi_entry_rows > 100


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def _large_entry_rows(rng, ncols=40, independent=30):
    """Sparse rows with prime denominators up to 97 and numerators up to
    10^6: ``independent`` random rows, then scalar repeats and two-row
    combinations of them, shuffled; the rank stays below ``ncols``."""
    def entry():
        return Fraction(rng.randint(1, 10**6) * rng.choice([1, -1]), rng.choice(PRIMES))

    rows = []
    for _ in range(independent):
        row = [0] * ncols
        for j in rng.sample(range(ncols), rng.randrange(1, 6)):
            row[j] = entry()
        rows.append(row)
    for _ in range(ncols - independent):
        a, b = rng.sample(rows[:independent], 2)
        f, g = entry(), entry()
        rows.append([f * x + g * y for x, y in zip(a, b)])
    for _ in range(6):
        f = Fraction(rng.choice([-1, 1]) * rng.randint(1, 97), rng.choice(PRIMES))
        rows.append([f * x for x in rng.choice(rows)])
    rng.shuffle(rows)
    return rows


def test_integer_core_on_large_entries():
    # coefficient growth: the core's primitive rows are the dense echelon
    # rows scaled to integers, and every Fraction edge agrees with the dense
    # reference; equal spans from shuffled, rescaled generators compare and
    # hash equal
    for seed in range(4):
        rng = random.Random(seed)
        rows = _large_entry_rows(rng)
        ncols = len(rows[0])
        echelon, pivots = dense_rref(rows)
        assert 0 < len(pivots) < ncols
        assert rref(rows) == (echelon, pivots)
        integer_rows = []
        for row in rows:
            d = math.lcm(*[c.denominator for c in row])
            integer_rows.append(
                {j: int(c * d) for j, c in enumerate(row) if c}
            )
        core = integer_eliminate(integer_rows)
        assert sorted(core) == pivots
        for p, dense in zip(pivots, echelon):
            row = core[p]
            assert row[p] > 0 and math.gcd(*row.values()) == 1
            assert all(type(c) is int for c in row.values())
            assert [Fraction(row.get(j, 0), row[p]) for j in range(ncols)] == dense
        x = [rng.choice([0, 1, Fraction(-3, 7)]) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        assert solve_linear(rows, rhs) == dense_solve_linear(rows, rhs)
        rhs[rng.randrange(len(rhs))] += Fraction(1, 89)
        assert solve_linear(rows, rhs) == dense_solve_linear(rows, rhs)
        space = Subspace(rows, ncols)
        assert hash(space) == hash((ncols, tuple(tuple(r) for r in echelon)))
        others = []
        for row in rows:
            f = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.choice(PRIMES))
            others.append([f * c for c in row])
        rng.shuffle(others)
        other = Subspace(others, ncols)
        assert other == space and hash(other) == hash(space)
        assert (other.rows, other.pivots) == (echelon, pivots)
        smaller = Subspace(others[1:], ncols)
        assert (smaller == space) == (smaller.dim == space.dim)


@pytest.mark.parametrize("bad", [0.5, 0.0, True, False])
@pytest.mark.parametrize(
    "build",
    [
        lambda c: TruncatedAlgebra(("s",), order=3).element([c, 1, 0]),
        lambda c: Subspace([[c, 1]], 2),
        lambda c: rref([[1, c]]),
        lambda c: solve_linear([[2]], [c]),
        lambda c: eliminate([{0: Fraction(1, 3), 1: c}]),
    ],
    ids=["element", "Subspace", "rref", "solve_linear", "eliminate"],
)
def test_floats_and_bools_refused(build, bad):
    # no float is rounded to a Fraction (0.1 to 3602879701896397 / 2^55)
    # and no bool read as 1 or 0; 0.0 and False are refused too, not
    # dropped as zeros
    with pytest.raises(TypeError):
        build(bad)


@pytest.mark.parametrize(
    "build",
    [
        # a short right-hand side used to drop the second equation
        lambda: solve_linear([[1, 0], [0, 1]], [1]),
        lambda: solve_linear([[1, 0], [0, 1]], [1, 2, 3]),
        lambda: solve_linear([], [1]),
        # a long row used to lend its last entry to the right-hand side
        lambda: solve_linear([[1, 0], [0, 1, 5]], [1, 2]),
        lambda: solve_linear([[1, 0, 0], [0, 1]], [1, 2]),
        # a long second row used to raise a bare IndexError
        lambda: rref([[1, 0], [0, 1, 1]]),
        lambda: rref([[1, 0, 1], [0, 1]]),
    ],
    ids=[
        "solve-short-rhs",
        "solve-long-rhs",
        "solve-no-rows",
        "solve-long-row",
        "solve-short-row",
        "rref-long-row",
        "rref-short-row",
    ],
)
def test_ragged_input_refused(build):
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        build()
