from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from degkit import Poly, RatFunc, RationalMap, compose, equal_on_dense
from reference_ratmaps import ref_compose, ref_diff_witness, ref_equal_on_dense


def _v(n, i):
    return RatFunc(Poly.var(n, i))


def _pool():
    """Small pool of self-maps of the plane for property checks."""
    maps = [
        RationalMap.identity(("x", "y")),
        RationalMap(("x", "y"), [_v(2, 0) * _v(2, 1), _v(2, 1)]),
        RationalMap(("x", "y"), [_v(2, 0) + _v(2, 1), _v(2, 0) - _v(2, 1)]),
        RationalMap(("x", "y"), [RatFunc(Poly.one(2)) / _v(2, 1), _v(2, 0)]),
        RationalMap(("x", "y"), [_v(2, 0) ** 2, _v(2, 1) * 3]),
    ]
    return maps


def test_compose_identity():
    ident = RationalMap.identity(("x", "y"))
    f = _pool()[1]
    assert compose(ident, f).equal_on_dense(f)
    assert compose(f, ident).equal_on_dense(f)


def test_arity_mismatch():
    f = RationalMap(("x",), [_v(1, 0)])
    g = RationalMap(("x", "y"), [_v(2, 0), _v(2, 1)])
    with pytest.raises(ValueError):
        compose(g, f)


def test_division_by_zero_after_substitution():
    inv = RationalMap(("x",), [RatFunc(Poly.one(1)) / _v(1, 0)])
    zero = RationalMap(("x",), [RatFunc(Poly.const(1, 0))])
    with pytest.raises(ZeroDivisionError):
        compose(inv, zero)


@given(
    i=st.integers(0, 4), j=st.integers(0, 4), k=st.integers(0, 4)
)
@settings(max_examples=40, deadline=None)
def test_compose_associative(i, j, k):
    pool = _pool()
    f, g, h = pool[i], pool[j], pool[k]
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    assert left.equal_on_dense(right)


def test_reduction_equality():
    # x*y as a plain product versus with a spurious denominator
    f = RationalMap(("x", "y"), [_v(2, 0) * _v(2, 1)])
    g = RationalMap(("x", "y"), [_v(2, 0) * _v(2, 1) ** 2 / _v(2, 1)])
    assert equal_on_dense(f, g)


def test_equality_is_an_equivalence():
    pool = _pool()
    for f in pool:
        assert f.equal_on_dense(f)
    for f in pool:
        for g in pool:
            assert f.equal_on_dense(g) == g.equal_on_dense(f)
    # transitivity across the reduction example
    a = RationalMap(("x", "y"), [_v(2, 0)])
    b = RationalMap(("x", "y"), [_v(2, 0) * _v(2, 1) / _v(2, 1)])
    c = RationalMap(("x", "y"), [_v(2, 0) ** 2 / _v(2, 0)])
    assert a.equal_on_dense(b) and b.equal_on_dense(c) and a.equal_on_dense(c)


def test_parameters_pass_through_composition():
    # map with a torus symbol composed with a plain map keeps the symbol
    n = 2
    scale = RationalMap(("x",), [RatFunc(Poly.var(n, 1)) * RatFunc(Poly.var(n, 0))], params=("q",))
    shift = RationalMap(("x",), [_v(1, 0) + 1])
    out = compose(scale, shift)
    assert out.params == ("q",)
    expected = RationalMap(
        ("x",), [RatFunc(Poly.var(2, 1)) * (RatFunc(Poly.var(2, 0)) + 1)], params=("q",)
    )
    assert out.equal_on_dense(expected)


def test_render_is_stable():
    f = _pool()[3]
    assert f.render() == "(x, y) -> ((1)/(y), x)"


def test_inexact_constant_components_are_refused():
    for const in (0.1, True, False):
        with pytest.raises(TypeError):
            RationalMap(("x",), [const])
    assert RationalMap(("x",), [0, Poly.var(1, 0)]).render() == "(x) -> (0, x)"


def test_component_count_difference_is_reported():
    one = RationalMap(("x", "y"), [_v(2, 0)])
    two = RationalMap(("x", "y"), [_v(2, 0), _v(2, 1)])
    assert one.difference(two) == "component count 1 != 2"
    assert not one.equal_on_dense(two) and not two.equal_on_dense(one)


# ------------------------------------------- frames against the reference

SOURCE = ("x", "y")
PARAMS = ("p", "q", "r")


@st.composite
def plane_maps(draw):
    """Self-maps of the plane over a drawn parameter list (a subset of
    PARAMS in any order).  Components are bare variables of the frame or
    small fractions with non-monomial denominators."""
    params = tuple(draw(st.permutations(PARAMS))[: draw(st.integers(0, 3))])
    n = len(SOURCE) + len(params)
    exps = st.tuples(*[st.integers(0, 1)] * n)
    coeffs = st.sampled_from([1, -1, 2, Fraction(1, 2)])
    poly = lambda k: st.dictionaries(exps, coeffs, min_size=k, max_size=2).map(
        lambda t: Poly(n, t)
    )
    fraction = st.builds(RatFunc, poly(0), poly(1))
    bare = st.integers(0, n - 1).map(lambda i: _v(n, i))
    comps = draw(st.lists(st.one_of(bare, fraction), min_size=2, max_size=2))
    return RationalMap(SOURCE, comps, params)


def terms(m):
    return [
        (list(c.num.terms.items()), list(c.den.terms.items())) for c in m.components
    ]


@given(plane_maps(), plane_maps(), st.permutations(PARAMS))
@settings(max_examples=150, deadline=None)
def test_compose_matches_reference(f, g, order):
    # the swap of x and y over other parameters: bare variables, but not in
    # place, so composing with it must substitute
    swap = RationalMap(SOURCE, [_v(5, 1), _v(5, 0)], order)
    for inner in (g, swap):
        try:
            expected = ref_compose(f, inner)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                f.compose(inner)
            continue
        out = f.compose(inner)
        assert out.params == expected.params
        assert terms(out) == terms(expected)


@given(plane_maps(), plane_maps(), st.permutations(PARAMS))
@settings(max_examples=150, deadline=None)
def test_comparison_matches_reference(f, g, order):
    # the same map in a larger, reordered frame: equal, whatever the frames
    same = RationalMap.identity(SOURCE, order).compose(f)
    for a, b in ((f, g), (g, f), (f, same), (same, f)):
        assert a.difference(b) == ref_diff_witness(a, b)
        assert a.equal_on_dense(b) == ref_equal_on_dense(a, b)
    assert f.difference(same) is None


# ------------------------------------------- stored forms against the reference


@st.composite
def twin_maps(draw):
    """Two self-maps of the plane over one frame, their components drawn from
    one pool: Laurent monomials, the same monomials scaled, fractions with a
    two-term factor in numerator and denominator, equal to a monomial as
    functions but stored differently, and the monomial's numerator over the
    factored denominator."""
    params = tuple(draw(st.permutations(PARAMS))[: draw(st.integers(0, 2))])
    n = len(SOURCE) + len(params)
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.sampled_from([1, -1, 2, Fraction(-3, 2)])
    pool = []
    for _ in range(2):
        p, q, c = draw(exps), draw(exps), draw(coeffs)
        mono = RatFunc(Poly.monomial(p, c), Poly.monomial(q))
        # the leading term has coefficient one, so a denominator times the
        # factor needs no rescaling
        factor = Poly(n, {draw(exps.filter(any)): 1, (0,) * n: draw(coeffs)})
        pool += [
            mono,
            mono * 2,
            RatFunc(mono.num * factor, mono.den * factor),
            RatFunc(mono.num, mono.den * factor),
        ]
    pick = st.sampled_from(pool)
    f = RationalMap(SOURCE, [draw(pick), draw(pick)], params)
    g = RationalMap(SOURCE, [draw(pick), draw(pick)], params)
    return f, g


@given(twin_maps())
@settings(max_examples=200, deadline=None)
def test_stored_form_comparison_matches_reference(maps):
    # identical stored forms skip the cross-multiplication; every other
    # component keeps the reference's verdict and witness text
    f, g = maps
    for a, b in ((f, g), (g, f), (f, f)):
        assert a.difference(b) == ref_diff_witness(a, b)
        assert a.equal_on_dense(b) == ref_equal_on_dense(a, b)


def test_equal_functions_stored_differently_are_equal():
    x, y = _v(2, 0), _v(2, 1)
    factor = Poly(2, {(1, 0): 1, (0, 0): 2})
    mono = x / y
    wide = RatFunc(mono.num * factor, mono.den * factor)
    assert wide.num.terms != mono.num.terms and len(wide.den.terms) == 2
    f = RationalMap(SOURCE, [mono, y])
    for g in (RationalMap(SOURCE, [wide, y]), RationalMap(SOURCE, [wide, y * 3])):
        assert f.difference(g) == ref_diff_witness(f, g)
        assert f.equal_on_dense(g) == ref_equal_on_dense(f, g)
    assert f.difference(RationalMap(SOURCE, [wide, y * 3])) == "component 2: -2*y"
    # the same numerator over another denominator is another function
    g = RationalMap(SOURCE, [RatFunc(mono.num, mono.den * factor), y])
    assert g.components[0].num.terms == mono.num.terms
    assert f.difference(g) == ref_diff_witness(f, g) == "component 1: x^2*y + x*y"
