import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

import reference_exactalg
from degkit import (
    AlgebraHom,
    AlgebraIdeal,
    NodeRing,
    NodeSeries,
    Poly,
    TruncatedAlgebra,
    adjoin_nilpotent,
    element_from_json,
    hom_apply,
    ideal_membership,
    normal_form_stepwise,
    series_from_json,
)
from degkit import exactalg
from dense_linalg import dense_reduce
from reference_exactalg import fixture_algebra, ratio_algebra


def test_power_series_truncation_dimension(Qs8):
    assert Qs8.dim == 8
    assert (Qs8.s ** 8).is_zero()
    assert not (Qs8.s ** 7).is_zero()


def test_zero_algebra_rejected():
    with pytest.raises(ValueError):
        TruncatedAlgebra(("s",), relations=[Poly(1, {(0,): 1})], order=4)


def test_minimal_windows():
    # the smallest legal configuration still multiplies and inverts exactly
    alg = TruncatedAlgebra(("s",), relations=[Poly(1, {(1,): 1})], order=1)
    ring = NodeRing(alg, order=2)
    x = ring.one() + ring.z1()
    assert (x * ring.z2()).z2_coeff(1) == alg.one()
    inv = x.inverse()
    assert (x * inv - ring.one()).is_zero()


def test_reduce_is_idempotent(obstructed):
    rng = random.Random(7)
    for _ in range(100):
        poly = Poly(
            2,
            {
                (rng.randrange(4), rng.randrange(3)): Fraction(
                    rng.randrange(-5, 6), rng.randrange(1, 4)
                )
                for _ in range(4)
            },
        )
        once = obstructed.from_poly(poly)
        again = obstructed.from_poly(once.as_poly())
        assert once == again


def test_units_and_inverse(Qs8):
    u = Qs8.one() + Qs8.s * 3
    assert u.is_unit()
    assert (u * u.inverse()) == Qs8.one()
    assert not Qs8.s.is_unit()
    with pytest.raises(ZeroDivisionError):
        Qs8.s.inverse()


@pytest.mark.parametrize(
    "algebra", ["Qs8", "Qs6", "Qs4", "QQ", "Qeps", "Qc2", "obstructed", "fixture"]
)
def test_constant_inverse_matches_series(request, algebra):
    # a rational constant is inverted as 1 / c; the geometric series agrees
    alg = fixture_algebra() if algebra == "fixture" else request.getfixturevalue(algebra)
    for c in reference_exactalg.UNITS + (Fraction(-7, 3),):
        x = alg.const(c)
        got = x.inverse()
        assert got == reference_exactalg.algebra_inverse(x)
        assert got == alg.const(Fraction(1) / c)
    u = alg.one() + alg.gen(len(alg.gens) - 1)
    assert u.inverse() == reference_exactalg.algebra_inverse(u)


def test_valuation(Qs8):
    assert Qs8.valuation(Qs8.one()) == 0
    assert Qs8.valuation(Qs8.s ** 3) == 3
    assert Qs8.valuation(Qs8.zero()) == 8


# --- node ring normal forms -------------------------------------------------


def test_defining_relation(Rs8, Qs8):
    prod = Rs8.z1() * Rs8.z2()
    assert prod.a0 == Qs8.s
    assert all(x.is_zero() for x in prod.a + prod.b)


def test_relation_applied_once(Rs8, Qs8):
    p = Rs8.normal_form({(2, 1): Qs8.one()})
    assert p.z1_coeff(1) == Qs8.s
    assert p.a0.is_zero() and p.z1_coeff(2).is_zero()


def test_expansion_oracle(Rs8, Qs8):
    x = Rs8.one() + Rs8.z1()
    y = Rs8.one() + Rs8.z2()
    prod = x * y
    assert prod.a0 == Qs8.one() + Qs8.s
    assert prod.z1_coeff(1) == Qs8.one()
    assert prod.z2_coeff(1) == Qs8.one()


def test_power_products(Rs8, Qs8):
    for n in (1, 2, 3):
        prod = Rs8.z1(n) * Rs8.z2(n)
        assert prod.a0 == Qs8.s ** n
        assert all(x.is_zero() for x in prod.a + prod.b)


def test_overflow_rejected(Rs8, Qs8):
    with pytest.raises(ValueError):
        Rs8.normal_form({(9, 0): Qs8.one()})
    with pytest.raises(ValueError):
        Rs8.series(Qs8.zero(), [Qs8.one()] * 8)


def test_geometric_series_inverse():
    B = TruncatedAlgebra(("s", "c"), relations=[Poly(2, {(1, 0): 1})], order=3)
    R = NodeRing(B, order=4)
    u = R.one() + R.z2()
    inv = u.inverse()
    assert inv.z2_tail() == (
        -B.one(),
        B.one(),
        -B.one(),
    )
    assert (u * inv - R.one()).is_zero()


def test_scalar_inverse(Rs8):
    two = Rs8.const(2)
    assert two.inverse().a0.constant_term() == Fraction(1, 2)


def test_identity_inverse(Rs8):
    assert Rs8.one().inverse() == Rs8.one()


def test_nonunit_series_rejected(Rs8):
    with pytest.raises(ZeroDivisionError):
        Rs8.z1().inverse()


def _random_expr(rng, alg, max_deg):
    expr = {}
    for _ in range(rng.randrange(1, 6)):
        i = rng.randrange(0, max_deg + 1)
        j = rng.randrange(0, max_deg + 1 - i)
        coeff = alg.from_poly(
            Poly(
                len(alg.gens),
                {
                    tuple(
                        rng.randrange(0, 3) for _ in range(len(alg.gens))
                    ): Fraction(rng.randrange(-4, 5))
                },
            )
        )
        expr[(i, j)] = expr.get((i, j), alg.zero()) + coeff
    return expr


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_rewrite_strategies_agree(seed):
    alg = TruncatedAlgebra(("s",), order=4)
    ring = NodeRing(alg, order=6)
    rng = random.Random(seed)
    expr = _random_expr(rng, alg, 6)
    direct = ring.normal_form(expr)
    left = normal_form_stepwise(ring, expr, leftmost=True)
    right = normal_form_stepwise(ring, expr, leftmost=False)
    assert direct == left == right


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_ring_axioms(seed):
    alg = TruncatedAlgebra(("s",), order=4)
    ring = NodeRing(alg, order=5)
    rng = random.Random(seed)
    x = ring.normal_form(_random_expr(rng, alg, 5))
    y = ring.normal_form(_random_expr(rng, alg, 5))
    z = ring.normal_form(_random_expr(rng, alg, 5))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_zero_iff_all_coefficients_zero(Rs8, Qs8):
    s = Rs8.series(Qs8.zero(), [Qs8.zero(), Qs8.s])
    assert not s.is_zero()
    assert Rs8.series(Qs8.zero()).is_zero()


def _brute_multiply(ring, x, y):
    """Independent product: multiply as z-polynomials with algebra
    coefficients, rewrite z1 z2 -> s one step at a time, then project to
    the ring's window by rebuilding from the surviving monomials."""
    alg = ring.algebra

    def to_dict(series):
        out = {(0, 0): series.a0}
        for i, c in enumerate(series.a, start=1):
            out[(i, 0)] = c
        for j, c in enumerate(series.b, start=1):
            out[(0, j)] = c
        return out

    prod = {}
    for (i1, j1), c1 in to_dict(x).items():
        for (i2, j2), c2 in to_dict(y).items():
            key = (i1 + i2, j1 + j2)
            prod[key] = prod.get(key, alg.zero()) + c1 * c2
    while True:
        mixed = [k for k in prod if k[0] > 0 and k[1] > 0]
        if not mixed:
            break
        i, j = mixed[0]
        coeff = prod.pop((i, j))
        key = (i - 1, j - 1)
        prod[key] = prod.get(key, alg.zero()) + coeff * alg.s
    K = ring.internal - 1
    const = prod.get((0, 0), alg.zero())
    a = [prod.get((i, 0), alg.zero()) for i in range(1, K + 1)]
    b = [prod.get((0, j), alg.zero()) for j in range(1, K + 1)]
    return ring._series_internal(const, a, b)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_product_against_brute_force(seed):
    alg = TruncatedAlgebra(("s", "c"), relations=[Poly(2, {(1, 1): 1})], order=4)
    ring = NodeRing(alg, order=4)
    rng = random.Random(seed)
    x = ring.normal_form(_random_expr(rng, alg, 4))
    y = ring.normal_form(_random_expr(rng, alg, 4))
    assert x * y == _brute_multiply(ring, x, y)


@given(seed=st.integers(0, 10**6), branch=st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_shift_matches_multiplication(seed, branch):
    alg = TruncatedAlgebra(("s", "c"), relations=[Poly(2, {(0, 2): 1})], order=4)
    ring = NodeRing(alg, order=5)
    rng = random.Random(seed)
    x = ring.normal_form(_random_expr(rng, alg, 5))
    z = ring.z1() if branch == 1 else ring.z2()
    assert x.shift(branch) == x * z


# --- ideals -------------------------------------------------------------


def test_ideal_membership_basic(Qs8):
    I = AlgebraIdeal(Qs8, [Qs8.s])
    assert ideal_membership(I, Qs8.s ** 3)
    zero_ideal = AlgebraIdeal(Qs8, [])
    assert not ideal_membership(zero_ideal, Qs8.one())


def test_ideal_membership_span_example():
    # c*s lies in (c - s) once the span includes s*(c - s) = -s^2 and s^2 = 0
    A = TruncatedAlgebra(
        ("s", "c"),
        relations=[Poly(2, {(2, 0): 1}), Poly(2, {(0, 2): 1}), Poly(2, {(1, 1): 1})],
        order=3,
    )
    I = AlgebraIdeal(A, [A.gen(1) - A.s])
    assert ideal_membership(I, A.gen(1) * A.s)


def test_ideal_sum_and_quotient(obstructed):
    c = obstructed.gen(1)
    I = AlgebraIdeal(obstructed, [c])
    J = AlgebraIdeal(obstructed, [obstructed.s ** 2])
    total = I + J
    assert total.contains(c) and total.contains(obstructed.s ** 3)
    Q, hom = I.quotient_algebra()
    assert hom.apply(c).is_zero()
    assert not hom.apply(obstructed.s).is_zero()


# --- homomorphisms -------------------------------------------------------


def test_hom_identity(Rs8, Qs8):
    ident = AlgebraHom.identity(Qs8)
    x = Rs8.z1() + Rs8.z2() * Qs8.s
    assert hom_apply(ident, x, Rs8) == x


def test_hom_kills_generator(obstructed):
    # c -> 0 keeps s
    target = TruncatedAlgebra(("s",), order=4)
    hom = AlgebraHom(obstructed, target, [target.s, target.zero()])
    ring = NodeRing(obstructed, order=4)
    x = ring.z1() + ring.z2(1, obstructed.gen(1))
    image = hom_apply(hom, x)
    assert image.z1_coeff(1) == target.one()
    assert image.z2_coeff(1).is_zero()


def test_hom_substitution():
    # c -> s from the free nilpotent line into the power series line
    src = TruncatedAlgebra(("s", "c"), relations=[Poly(2, {(1, 0): 1})], order=4)
    tgt = TruncatedAlgebra(("s",), order=4)
    hom = AlgebraHom(src, tgt, [tgt.zero(), tgt.s])
    ring = NodeRing(src, order=4)
    x = ring.z1(1, src.gen(1))
    image = hom_apply(hom, x)
    assert image.z1_coeff(1) == tgt.s


def test_hom_relation_violation_rejected(obstructed, Qs4):
    # c -> s breaks c*s = 0 in the target
    with pytest.raises(ValueError):
        AlgebraHom(obstructed, Qs4, [Qs4.s, Qs4.s])


def test_hom_truncation_violation_rejected(Qc2, Qs4):
    # c is truncation-nilpotent of order two at the source, so its image
    # must square to zero
    with pytest.raises(ValueError):
        AlgebraHom(Qc2, Qs4, [Qs4.zero(), Qs4.s])


def test_adjoin_nilpotent(obstructed):
    ext, inc = adjoin_nilpotent(obstructed, "d", 2)
    assert inc.maps_smoothing
    d = ext.gen(2)
    assert (d * d).is_zero()
    assert not d.is_zero()


# --- structure constants -------------------------------------------------


ALGEBRAS = [
    "Qs8",
    "Qs6",
    "Qs4",
    "QQ",
    "Qeps",
    "Qc2",
    "obstructed",
    "fixture",
    "fixture_d",
    "ratio",
]


def _named_algebra(request, name):
    """A conftest algebra, a fixture algebra or the base with structure
    constants over 3, by name."""
    if name == "ratio":
        return ratio_algebra()
    if name.startswith("fixture"):
        return fixture_algebra(("d",) if name == "fixture_d" else ())
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_basis_product_pairs_match_monomial_reduction(request, name):
    # e_i * e_j is the product monomial reduced by the relations and the
    # truncation; the table holds exactly its nonzero coordinates, as
    # integer numerators over their least common denominator
    alg = _named_algebra(request, name)
    for i, mi in enumerate(alg.basis):
        for j, mj in enumerate(alg.basis):
            reduced = alg.from_poly(Poly.monomial(mi) * Poly.monomial(mj))
            expected = tuple((m, c) for m, c in enumerate(reduced.coeffs) if c)
            D, terms = alg._structure(i, j)
            assert type(D) is int and D >= 1
            assert all(type(n) is int and n for _, n in terms)
            assert math.gcd(D, *[n for _, n in terms]) == 1
            assert tuple((m, Fraction(n, D)) for m, n in terms) == expected


@functools.lru_cache(maxsize=None)
def _product_algebra(name):
    """Q[s]/s^8, the fixture bases and the base with structure constants
    over 3."""
    if name == "Qs8":
        return TruncatedAlgebra(("s",), order=8)
    if name == "ratio":
        return ratio_algebra()
    return fixture_algebra(("d",) if name == "fixture_d" else ())


@st.composite
def _element_triples(draw):
    alg = _product_algebra(draw(st.sampled_from(["Qs8", "fixture", "fixture_d", "ratio"])))
    coeff = st.sampled_from(
        [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
    )
    return tuple(
        alg.element(draw(st.lists(coeff, min_size=alg.dim, max_size=alg.dim)))
        for _ in range(3)
    )


@given(_element_triples())
@settings(max_examples=80, deadline=None)
def test_element_product_matches_relation_oracle(triple):
    # the integer kernel against the polynomial product reduced by the
    # relations; the second product reads the scaled form the first one kept;
    # sums and scalar multiples against coordinatewise Fraction arithmetic
    x, y, z = triple
    xy = x * y
    assert xy == reference_exactalg.multiply_elements(x, y)
    assert xy == y * x
    assert xy.is_zero() == all(c == 0 for c in xy.coeffs)
    assert xy * z == reference_exactalg.multiply_elements(
        reference_exactalg.multiply_elements(x, y), z
    )
    c = Fraction(-2, 3)
    assert (xy + z).coeffs == tuple(a + b for a, b in zip(xy.coeffs, z.coeffs))
    assert (x * c).coeffs == tuple(a * c for a in x.coeffs)


# --- serialization -------------------------------------------------------


def test_algebra_json_roundtrip(obstructed):
    data = obstructed.to_json()
    back = TruncatedAlgebra.from_json(data)
    assert back == obstructed


@pytest.mark.parametrize("local", ["no", "yes", "true", 0, 1, None, []])
def test_algebra_json_local_must_be_boolean(obstructed, local):
    data = obstructed.to_json()
    with pytest.raises(ValueError):
        TruncatedAlgebra.from_json({**data, "local": local})
    assert TruncatedAlgebra.from_json({**data, "local": False}).local is False
    del data["local"]
    assert TruncatedAlgebra.from_json(data).local is True


def test_locality_is_part_of_the_algebra():
    # flat_local_forcing refuses a non-local base, so an algebra that differs
    # only in ``local`` is another algebra, and its elements do not mix
    A = TruncatedAlgebra(("s",), order=3, local=False)
    B = TruncatedAlgebra(("s",), order=3)
    assert A != B and A == TruncatedAlgebra(("s",), order=3, local=False)
    assert len({A, B, TruncatedAlgebra(("s",), order=3)}) == 2
    assert A.s != B.s and NodeRing(A, order=3) != NodeRing(B, order=3)
    with pytest.raises(ValueError, match="elements of different algebras"):
        A.s + B.s
    assert TruncatedAlgebra.from_json(A.to_json()) == A


def test_element_and_series_json_roundtrip(Rs8, Qs8):
    x = Qs8.one() + Qs8.s * Fraction(3, 2)
    assert element_from_json(Qs8, x.to_json()) == x
    series = Rs8.series(x, [Qs8.s], [Qs8.one(), Qs8.zero(), Qs8.s ** 2])
    assert series_from_json(Rs8, series.to_json()) == series


# --- exact scalars only ----------------------------------------------------


def test_series_times_float_refused(Rs8):
    with pytest.raises(TypeError):
        Rs8.z1() * 1.5
    with pytest.raises(TypeError):
        1.5 * Rs8.z1()


def test_series_times_bool_refused(Rs8):
    with pytest.raises(TypeError):
        Rs8.z1() * True


def test_element_times_bool_refused(Qs8):
    with pytest.raises(TypeError):
        Qs8.s * True


def test_series_float_power_refused(Rs8):
    with pytest.raises(TypeError):
        (Rs8.one() + Rs8.z1()) ** 1.5


def test_element_float_power_refused(Qs8):
    with pytest.raises(TypeError):
        Qs8.s ** 2.7


def test_float_branch_power_refused(Rs8):
    with pytest.raises(TypeError):
        Rs8.z1(2.0)


@pytest.mark.parametrize("branch", [0, 3, -1])
def test_branch_outside_one_and_two_refused(Rs8, branch):
    # a branch other than 1 must not be read as branch 2
    with pytest.raises(ValueError):
        Rs8.branch_power(branch, 1)
    with pytest.raises(ValueError):
        Rs8.branch_power(branch, 2, Rs8.algebra.s)
    with pytest.raises(ValueError):
        Rs8.z1().shift(branch + 4)


@pytest.mark.parametrize("branch", [1.0, True, "2"], ids=["float", "bool", "str"])
def test_non_int_branch_refused(Rs8, branch):
    with pytest.raises(TypeError):
        Rs8.branch_power(branch, 1)
    with pytest.raises(TypeError):
        Rs8.z1().shift(branch)


@pytest.mark.parametrize("order", [4.7, True], ids=["float", "bool"])
def test_node_ring_order_refused(Qs8, order):
    # int() would build an order-4 (or order-1) ring
    with pytest.raises(TypeError):
        NodeRing(Qs8, order=order)


@pytest.mark.parametrize("order", [3.9, True], ids=["float", "bool"])
def test_algebra_order_refused(order):
    with pytest.raises(TypeError):
        TruncatedAlgebra(("s",), order=order)


@pytest.mark.parametrize("where", ["const", "tail"])
def test_float_series_coefficient_refused(Rs8, Qs8, where):
    # a float stored as a slot only failed later, in a product
    with pytest.raises(TypeError):
        if where == "const":
            Rs8.series(1.5)
        else:
            Rs8.series(Qs8.one(), [Qs8.s, 0.5])


def test_series_lifts_exact_scalars(Rs8, Qs8):
    x = Rs8.series(Fraction(1, 2), [0, 3])
    assert x == Rs8.series(Qs8.const(Fraction(1, 2)), [Qs8.zero(), Qs8.const(3)])


def test_exact_scalars_still_work(Rs8, Qs8):
    x = Rs8.one() + Rs8.z1(2, Qs8.s)
    assert x * 2 == x + x == 2 * x
    assert (x * Fraction(1, 2)) * 2 == x
    assert (Qs8.s * Fraction(3, 2)).coeffs[1] == Fraction(3, 2)
    assert x ** 2 == x * x and (Qs8.s ** 2) == Qs8.s * Qs8.s
    assert Rs8.z1(2, Fraction(1, 3)).z1_coeff(2) == Qs8.const(Fraction(1, 3))


def test_elements_of_another_algebra_refused():
    # B's coordinates must not be read as A's: B's c would pass as A's s
    A = TruncatedAlgebra(("s",), order=4)
    B = TruncatedAlgebra(("s", "c"), relations=[Poly(2, {(0, 2): 1})], order=4)
    R = NodeRing(A, order=4)
    c = B.gen(1)
    for build in (
        lambda: R.series(c),
        lambda: R.series(A.one(), [A.s, c]),
        lambda: (R.one() + R.z1()) * c,
        lambda: R.z1(1, c),
        lambda: R.normal_form({(1, 1): c}),
        lambda: A.s + c,
        lambda: A.s - c,
        lambda: c - A.s,
    ):
        with pytest.raises(ValueError, match="elements of different algebras"):
            build()
    # an equal algebra built separately is the same algebra
    same = TruncatedAlgebra(("s",), order=4)
    assert R.series(same.s) == R.series(A.s) and A.s + same.s == A.s * 2


@pytest.mark.parametrize("expr", [{(True, 0): 1}, {(0, 1.5): 1}, {(1, "2"): 1}])
def test_normal_form_non_int_exponent_refused(Rs8, expr):
    # a bool must not pass as exponent 1, nor a float reach a list index
    with pytest.raises(TypeError, match="exponent"):
        Rs8.normal_form(expr)
    with pytest.raises(TypeError, match="exponent"):
        normal_form_stepwise(Rs8, expr)


@pytest.mark.parametrize("expr", [{(-1, 0): 1}, {(2, -1): 1}, {(-1, -1): 1}])
def test_normal_form_negative_exponent_refused(Rs8, expr):
    # a negative exponent must not reach the power of s
    with pytest.raises(ValueError, match="negative exponent"):
        Rs8.normal_form(expr)
    with pytest.raises(ValueError, match="negative exponent"):
        normal_form_stepwise(Rs8, expr)


def test_branch_coefficient_index_checked(Rs8, Qs8):
    x = Rs8.series(1, [2, 3], [Qs8.s])
    assert [x.z1_coeff(i) for i in range(4)] == [Qs8.const(c) for c in (1, 2, 3, 0)]
    assert x.z2_coeff(1) == Qs8.s and x.z2_coeff(Rs8.internal + 3).is_zero()
    for read in (x.z1_coeff, x.z2_coeff):
        # -1 must not read the tail from its end
        with pytest.raises(ValueError):
            read(-1)
        for i in (1.0, True):
            with pytest.raises(TypeError):
                read(i)


# --- the sparse product against the slot-by-slot oracle ----------------------


@functools.lru_cache(maxsize=None)
def _oracle_ring(name):
    """Q[s]/s^N for N = 4, 5, 6, the fixture algebra Q[s, c, d] and the
    base with structure constants over 3."""
    if name == "fixture":
        return NodeRing(fixture_algebra(("d",)), order=4)
    if name == "ratio":
        return NodeRing(ratio_algebra(), order=4)
    N = int(name)
    return NodeRing(TruncatedAlgebra(("s",), order=N), order=N - 1)


@st.composite
def _oracle_series(draw, ring):
    """A series whose slots reach the internal window: a product, an
    inverse or a coordinate swap of short series, or a short series."""
    alg = ring.algebra
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])

    def short():
        const = alg.element(draw(st.lists(coeff, min_size=alg.dim, max_size=alg.dim)))
        if not const.is_unit():
            const = const + alg.one()
        tails = [
            [
                alg.element(draw(st.lists(coeff, min_size=alg.dim, max_size=alg.dim)))
                for _ in range(draw(st.integers(0, ring.order - 1)))
            ]
            for _ in (1, 2)
        ]
        return ring.series(const, *tails)

    how = draw(st.sampled_from(["short", "product", "inverse", "swapped"]))
    x = short()
    if how == "product":
        x = x * short()
    elif how == "inverse":
        x = x.inverse()
    elif how == "swapped":
        x = x * short()
        x = NodeSeries(ring, x.a0, x.b, x.a)
    return x


@st.composite
def _oracle_pairs(draw):
    ring = _oracle_ring(draw(st.sampled_from(["4", "5", "6", "fixture", "ratio"])))
    return ring, draw(_oracle_series(ring)), draw(_oracle_series(ring))


def _deep(x):
    K = x.ring.order - 1
    return any(not c.is_zero() for c in x.a[K:] + x.b[K:])


@given(_oracle_pairs())
@settings(max_examples=60, deadline=None)
def test_sparse_product_matches_slot_oracle(pair):
    ring, x, y = pair
    event("deep factor" if _deep(x) or _deep(y) else "exposed factors")
    prod = x * y
    assert prod == reference_exactalg.multiply(x, y)
    assert prod == _brute_multiply(ring, x, y)
    assert prod == y * x


@given(_oracle_pairs())
@settings(max_examples=40, deadline=None)
def test_inverse_matches_slot_oracle(pair):
    ring, x, _ = pair
    if not x.is_unit():
        x = x + ring.one()
    event("deep" if _deep(x) else "exposed")
    inv = x.inverse()
    assert inv == reference_exactalg.inverse(x)
    assert x * inv == ring.one()


def _check_powers(base, unit, product, inverse, one):
    """base ** k and unit ** k for k = 0..9 against the k-fold ``product``
    starting from ``one``, and unit ** -k against the k-fold product of
    ``inverse(unit)``."""
    inv = inverse(unit)
    for x, factor, sign in ((base, base, 1), (unit, unit, 1), (unit, inv, -1)):
        expected = one
        for k in range(10):
            assert x ** (sign * k) == expected
            expected = product(expected, factor)


@given(_oracle_pairs())
@settings(max_examples=10, deadline=None)
def test_powers_match_the_oracle_product(pair):
    # square-and-multiply against repeated oracle products, for series and
    # for algebra elements taken from their slots
    ring, x, y = pair
    unit = x if x.is_unit() else x + ring.one()
    _check_powers(
        y, unit, reference_exactalg.multiply, reference_exactalg.inverse, ring.one()
    )
    _check_powers(
        y.a[0],
        unit.a0,
        reference_exactalg.multiply_elements,
        reference_exactalg.algebra_inverse,
        ring.algebra.one(),
    )


@pytest.mark.parametrize(
    "algebra", ["Qs8", "Qs6", "Qs4", "QQ", "Qeps", "Qc2", "obstructed"]
)
def test_algebra_powers_match_the_oracle_product(request, algebra):
    alg = request.getfixturevalue(algebra)
    rng = random.Random(11)
    coeff = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    for _ in range(5):
        x = alg.element([rng.choice(coeff) for _ in range(alg.dim)])
        _check_powers(
            x,
            x if x.is_unit() else x + alg.one(),
            reference_exactalg.multiply_elements,
            reference_exactalg.algebra_inverse,
            alg.one(),
        )


@given(_oracle_pairs(), st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_shift_matches_slot_oracle(pair, branch):
    ring, x, _ = pair
    z = ring.z1() if branch == 1 else ring.z2()
    shifted = x.shift(branch)
    assert shifted == reference_exactalg.shift(x, branch)
    assert shifted == x * z == reference_exactalg.multiply(x, z)


# --- elements hold integer numerators; coeffs is computed from them --------


def _lazy_cases(elems):
    """(element, expected coefficient vector) for the products, sums,
    negations and inverses of ``elems``; the expected vectors come from
    the polynomial product reduced by the relations and from coordinatewise
    Fraction arithmetic."""
    cases = []
    for x in elems:
        cases.append((-x, tuple(-c for c in x.coeffs)))
        for y in elems:
            cases.append((x * y, reference_exactalg.multiply_elements(x, y).coeffs))
            cases.append((x + y, tuple(a + b for a, b in zip(x.coeffs, y.coeffs))))
        unit = x if x.is_unit() else x + x.algebra.one()
        inv = unit.inverse()
        product = reference_exactalg.multiply_elements(unit, inv)
        assert product.coeffs == x.algebra.one().coeffs
        cases.append((inv, reference_exactalg.algebra_inverse(unit).coeffs))
    return cases


def _check_lazy(elems):
    cases = _lazy_cases(elems)
    alg = elems[0].algebra
    for value, expected in cases:
        assert all(type(c) is Fraction for c in expected)
        assert value.coeffs == expected
        assert all(type(c) is Fraction for c in value.coeffs)
        rebuilt = alg.element(expected)
        assert rebuilt == value and value == rebuilt
        assert hash(rebuilt) == hash(value)
    values = [value for value, _ in cases]
    for u in values:
        for v in values:
            assert (u == v) == (u.coeffs == v.coeffs)
            if u == v:
                assert hash(u) == hash(v)


def _random_elements(alg, rng, count):
    coeff = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
    return [
        alg.element([rng.choice(coeff) for _ in range(alg.dim)]) for _ in range(count)
    ]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_lazy_coefficients_match_the_oracle(request, name):
    alg = _named_algebra(request, name)
    rng = random.Random(25)
    for _ in range(3):
        elems = _random_elements(alg, rng, 4)
        # a repeated element and a product that cancels a denominator, so
        # that equal values reach the checks by different routes
        elems += [elems[0], alg.const(Fraction(1, 2)) * alg.const(2)]
        _check_lazy(elems)


@given(_oracle_pairs())
@settings(max_examples=20, deadline=None)
def test_lazy_coefficients_of_series_slots(pair):
    ring, x, y = pair
    elems = [c for c in (x.a0, y.a0) + x.a[:2] + y.b[:2] if not c.is_zero()]
    elems.append(ring.algebra.one())
    _check_lazy(elems)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_slot_reduction_on_numerators_matches_subspace_reduce(request, name):
    # every slot space of node rings of several orders: basis elements,
    # random elements and their products, against the dense Fraction
    # reduction over the space's echelon rows
    alg = _named_algebra(request, name)
    rng = random.Random(7)
    elems = [alg.basis_element(i) for i in range(alg.dim)]
    elems += _random_elements(alg, rng, 6)
    elems += [x * y for x, y in zip(elems[-6:], elems[-5:])]
    for order in (2, 4, 6):
        ring = NodeRing(alg, order)
        for k, space in ring._slot_spaces.items():
            for x in elems:
                expected = tuple(
                    dense_reduce(space.rows, space.pivots, x.coeffs)
                )
                got = ring._slot_reduce(k, x)
                assert got.coeffs == expected
                assert got == alg.element(expected)


# --- one exact state per element ---------------------------------------------


def _assert_canonical(x):
    d, pairs = x._scaled
    assert type(d) is int and d > 0
    indices = [i for i, _ in pairs]
    assert indices == sorted(set(indices))
    assert all(0 <= i < x.algebra.dim for i in indices)
    assert all(type(n) is int and n for _, n in pairs)
    assert math.gcd(d, *[n for _, n in pairs]) == 1


@pytest.mark.parametrize("name", ALGEBRAS)
def test_every_builder_gives_the_canonical_scaled_form(request, name):
    # whatever the route, an element is in lowest terms with d > 0,
    # increasing indices and no zero numerators, so equality on the scaled
    # form is equality of the Fraction vectors, and the hash is that of
    # the Fraction vector (hash values and set orders do not move)
    alg = _named_algebra(request, name)
    rng = random.Random(27)
    nvars = len(alg.gens)
    elems = [alg.zero(), alg.one(), alg.const(Fraction(-4, 6))]
    elems.append(alg.const(Fraction(1, 2)) * 2)
    elems += [alg.gen(i) for i in range(nvars)]
    elems += [alg.basis_element(i) for i in range(alg.dim)]
    elems += [alg.monomial_element(m) for m in alg._monomials]
    elems += _random_elements(alg, rng, 4)
    elems.append(alg.element([Fraction(2, 4)] * alg.dim))
    for _ in range(4):
        terms = {
            tuple(rng.randrange(alg.order + 1) for _ in range(nvars)): Fraction(
                rng.randrange(-6, 7), rng.choice([1, 2, 3, 6])
            )
            for _ in range(5)
        }
        elems.append(alg.from_poly(Poly(nvars, terms)))
    elems += [element_from_json(alg, x.to_json()) for x in elems[-8:]]
    built = list(elems)
    for x, y in zip(built, built[1:]):
        elems += [x + y, x - y, x * y, -x, x * Fraction(2, 3), 3 * x, x - x]
    for order in (2, 4):
        ring = NodeRing(alg, order)
        for k in ring._slot_spaces:
            elems += [ring._slot_reduce(k, x) for x in elems[: alg.dim + 8]]
    coeffs = [x.coeffs for x in elems]
    for x, cx in zip(elems, coeffs):
        _assert_canonical(x)
        assert hash(x) == hash(cx)
        for y, cy in zip(elems, coeffs):
            assert (x == y) == (cx == cy)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_constant_inverse_read_off_the_scaled_form(request, name):
    # a rational constant inverts off its one scaled pair to what the
    # geometric series gives, in canonical form, without the series; a unit
    # with a nilpotent part still takes the series
    alg = _named_algebra(request, name)
    one = alg.one()
    cap = alg.order + 1
    with mock.patch.object(
        exactalg, "_unit_inverse", side_effect=exactalg._unit_inverse
    ) as series:
        for c in (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 7)):
            x = alg.const(c)
            got = x.inverse()
            assert series.call_count == 0
            _assert_canonical(got)
            assert got == exactalg._unit_inverse(x, 1 / Fraction(c), one, cap)
            assert got * x == one
            series.reset_mock()
        constant = alg._basis_index[(0,) * len(alg.gens)]
        for i in range(alg.dim):
            if i == constant:
                continue
            x = alg.const(Fraction(-3, 7)) + alg.basis_element(i)
            got = x.inverse()
            assert series.call_count == 1
            _assert_canonical(got)
            assert got * x == one
            series.reset_mock()


CONFTEST_ALGEBRAS = ["Qs8", "Qs6", "Qs4", "QQ", "Qeps", "Qc2", "obstructed"]


@pytest.mark.parametrize("name", CONFTEST_ALGEBRAS)
def test_times_basis_columns_are_the_products(request, name):
    # the one builder of the columns of multiplication by x, against the
    # products x * e_j as rationals: the basis, 0, 1 and seeded elements
    alg = request.getfixturevalue(name)
    rng = random.Random(35)
    xs = [alg.basis_element(i) for i in range(alg.dim)] + [alg.zero(), alg.one()]
    for _ in range(20):
        coeffs = [Fraction(rng.randrange(-3, 4), rng.randint(1, 3)) for _ in xs[: alg.dim]]
        xs.append(alg.element(coeffs))
    for x in xs:
        cols = alg._times_basis(x._scaled)
        assert len(cols) == alg.dim
        for j, (q, nums) in enumerate(cols):
            assert q > 0 and len(nums) == alg.dim
            expected = (x * alg.basis_element(j)).coeffs
            assert tuple(Fraction(n, q) for n in nums) == expected


@pytest.mark.parametrize("nvars, total", [(1, 0), (1, 5), (2, 0), (2, 4), (3, 3)])
def test_degree_monomials_in_lexicographic_order(nvars, total):
    got = list(exactalg._degree_monomials(nvars, total))
    every = itertools.product(range(total + 1), repeat=nvars)
    assert got == sorted(e for e in every if sum(e) == total)
    assert len(got) == math.comb(total + nvars - 1, nvars - 1)
