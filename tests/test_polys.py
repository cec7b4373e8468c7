"""Polynomial and rational-function arithmetic against a reference copy.

``reference_polys`` keeps the plain double-loop products and the
factor-by-factor substitution; the library's shortcuts (single-term
products by exponent shift, one reduction per substituted term) must give
the same terms, the same texts and the same equality answers.  Values have
non-monomial denominators, negative and fractional coefficients, zeros, and
substituted sums that cancel to zero part-way, where the normal form
depends on the order of the sum.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from degkit.polys import Poly, RatFunc, _monomial, _power
from reference_polys import (
    ref_mul,
    ref_one,
    ref_pow,
    ref_rat_pow,
    ref_reduce,
    ref_substitute,
)

NV = 3  # variables of the substituted function
NAMES = ("x", "y", "z")

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def polys(nvars, min_terms=0, max_terms=3):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms)
    return terms.map(lambda t: Poly(nvars, t))


@st.composite
def ratfuncs(draw, nvars, max_terms=3):
    num = draw(polys(nvars, max_terms=max_terms))
    return RatFunc(num, draw(polys(nvars, min_terms=1, max_terms=max_terms)))


@st.composite
def substitution_cases(draw):
    """(f, values, arity).  When two values coincide, f may start with two
    terms that cancel after substitution, so the running sum hits zero."""
    arity = draw(st.integers(1, 3))
    pool = draw(st.lists(ratfuncs(arity), min_size=1, max_size=3))
    if draw(st.booleans()):
        pool.append(RatFunc(Poly.zero(arity)))
    values = [draw(st.sampled_from(pool)) for _ in range(NV)]
    if draw(st.booleans()):
        values[1] = values[0]
    num = dict(draw(polys(NV)).terms)
    if values[0] is values[1] and draw(st.booleans()):
        a, c = draw(st.integers(1, 2)), draw(coeffs)
        pair = {(a, 0, 0): c, (0, a, 0): -c}
        num = {**pair, **{e: v for e, v in num.items() if e not in pair}}
    f = RatFunc(Poly(NV, num), draw(polys(NV, min_terms=1)))
    return f, values, arity


def pair(r):
    return dict(r.num.terms), dict(r.den.terms)


def render_pair(num, den, nvars):
    names = NAMES[:nvars]
    if den == ref_one(nvars):
        return Poly(nvars, num).render(names)
    return "(%s)/(%s)" % (Poly(nvars, num).render(names), Poly(nvars, den).render(names))


def ref_same(a, b):
    cross = ref_mul(a.num.terms, b.den.terms)
    for e, c in ref_mul(b.num.terms, a.den.terms).items():
        cross[e] = cross.get(e, Fraction(0)) - c
    return not any(cross.values())


# ---------------------------------------------------------------- products


@given(polys(NV, max_terms=4), polys(NV, max_terms=4), st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_products_and_powers_match_reference(a, b, k):
    # term order too: a substitution sums terms in this order
    assert list((a * b).terms.items()) == list(ref_mul(a.terms, b.terms).items())
    assert list((a**k).terms.items()) == list(ref_pow(a.terms, k, NV).items())


class _Counted:
    """An integer whose products are counted."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


def test_power_takes_no_square_past_the_top_bit():
    # square-and-multiply: one product per set bit, one squaring per bit
    # below the top one
    for k in range(1, 10):
        _Counted.products = 0
        got = _power(_Counted(3), k, _Counted(1))
        assert got.value == 3**k
        assert _Counted.products == bin(k).count("1") + k.bit_length() - 1, k


@given(polys(NV), polys(NV, min_terms=1), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_reduction_and_powers_match_reference(num, den, k):
    r = RatFunc(num, den)
    assert pair(r) == ref_reduce(num.terms, den.terms, NV)
    if k < 0 and r.is_zero():
        with pytest.raises(ZeroDivisionError):
            r**k
        return
    assert pair(r**k) == ref_rat_pow(pair(r), k, NV)


# ------------------------------------------------------------ substitution


def check_substitution(f, values, arity):
    try:
        expected = ref_substitute(pair(f), [pair(v) for v in values], arity)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.substitute(values)
        return
    out = f.substitute(values)
    # equal terms in the same order: a later substitution sums in this order
    assert list(out.num.terms.items()) == list(expected[0].items())
    assert list(out.den.terms.items()) == list(expected[1].items())
    assert out.render(NAMES[:arity]) == render_pair(*expected, arity)


@given(substitution_cases())
@settings(max_examples=200, deadline=None)
def test_substitute_matches_reference(case):
    check_substitution(*case)


def test_cancelling_partial_sum_resets_the_denominator():
    # x - y + z at x = y = 1/(u + 2v): the first two terms sum to zero, so
    # the result is z's value with its own denominator, not a product
    u, v = RatFunc(Poly.var(2, 0)), RatFunc(Poly.var(2, 1))
    w = RatFunc(Poly.one(2)) / (u + 2 * v)
    z = (u - v) / (3 * u + v)
    f = RatFunc(Poly(NV, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1}))
    out = f.substitute([w, w, z])
    assert pair(out) == pair(z)
    assert out.render(("u", "v")) == "(1/3*u - 1/3*v)/(u + 1/3*v)"
    check_substitution(f, [w, w, z], 2)


# ------------------------------------------------------ Laurent monomials


def laurent(nvars):
    """c*x^p / x^q with one term a side, reduced by the constructor."""
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.builds(
        lambda p, q, c, d: RatFunc(Poly.monomial(p, c), Poly.monomial(q, d)),
        exps,
        exps,
        coeffs,
        coeffs,
    )


@st.composite
def laurent_cases(draw):
    """(f, values, arity) with f = c*x^a / x^b.  At a nonzero k_i = a_i - b_i
    the value is a Laurent monomial, a bare variable, a constant or zero; at
    k_i = 0 it may also have several terms."""
    arity = draw(st.integers(1, 3))
    f = draw(laurent(NV))
    (a, _), = f.num.terms.items()
    b, = f.den.terms
    monomial = st.one_of(
        laurent(arity),
        st.integers(0, arity - 1).map(lambda j: RatFunc(Poly.var(arity, j))),
        coeffs.map(lambda c: RatFunc.const(arity, c)),
        st.just(RatFunc(Poly.zero(arity))),
    )
    values = [
        draw(st.one_of(monomial, ratfuncs(arity)) if ai == bi else monomial)
        for ai, bi in zip(a, b)
    ]
    return f, values, arity


@given(laurent_cases())
@settings(max_examples=300, deadline=None)
def test_laurent_route_matches_reference(case):
    f, values, arity = case
    (a, _), = f.num.terms.items()
    b, = f.den.terms
    zero_at_k = any(ai != bi and v.is_zero() for ai, bi, v in zip(a, b, values))
    # the route takes every case without a zero value at a nonzero exponent
    assert (f._substitute_laurent(values, arity) is None) == zero_at_k
    # a zero value: 0 at a positive exponent, ZeroDivisionError at a negative one
    check_substitution(f, values, arity)


@given(st.lists(st.integers(-3, 3), max_size=5), coeffs)
@settings(max_examples=200, deadline=None)
def test_monomial_is_the_reduced_laurent_fraction(exp, c):
    # the builder of every chart formula writes c*x^E+ / x^E- without a
    # reduction; it must be the form RatFunc reaches from the two monomials
    got = _monomial(exp, c)
    ref = RatFunc(
        Poly.monomial([max(e, 0) for e in exp], c),
        Poly.monomial([max(-e, 0) for e in exp]),
    )
    assert got.nvars == len(exp)
    assert list(got.num.terms.items()) == list(ref.num.terms.items())
    assert list(got.den.terms.items()) == list(ref.den.terms.items())
    assert got.render(NAMES + ("w", "v")) == ref.render(NAMES + ("w", "v"))


# --------------------------------------------------------------- renaming


@st.composite
def renaming_cases(draw):
    """(f, nvars, positions): distinct target variables, some frames larger
    than f's own and some permuting it."""
    nvars = draw(st.integers(NV, NV + 2))
    positions = draw(st.permutations(range(nvars)))[:NV]
    return draw(ratfuncs(NV)), nvars, positions


@given(renaming_cases())
@settings(max_examples=200, deadline=None)
def test_rename_matches_substitution_of_bare_variables(case):
    f, nvars, positions = case
    out = f.rename(nvars, positions)
    expected = f.substitute([RatFunc(Poly.var(nvars, k)) for k in positions])
    # equal terms in the same order: a later substitution sums in this order
    assert list(out.num.terms.items()) == list(expected.num.terms.items())
    assert list(out.den.terms.items()) == list(expected.den.terms.items())


@given(polys(NV, max_terms=4), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_extend_is_an_offset_renaming(p, offset, extra):
    nvars = offset + NV + extra
    out = p.extend(nvars, offset)
    shifted = {(0,) * offset + e + (0,) * extra: c for e, c in p.terms.items()}
    assert list(out.terms.items()) == list(shifted.items())
    assert out == p.rename(nvars, range(offset, offset + NV))


def test_rename_refuses_clashing_positions():
    for positions in ((0, 0, 1), (0, 1), (0, 1, 3), (0, 1, True)):
        with pytest.raises((ValueError, TypeError)):
            Poly.var(NV, 0).rename(3, positions)


@given(ratfuncs(2), ratfuncs(2), polys(2, min_terms=1))
@settings(max_examples=200, deadline=None)
def test_same_matches_reference(a, b, p):
    scaled = RatFunc(a.num * p, a.den * p)
    assert a.same(scaled)
    assert a.same(b) == ref_same(a, b)
    assert b.same(scaled) == ref_same(b, scaled)


# -------------------------------------------------------------- validation


x = Poly.var(1, 0)

REFUSED = [
    ("float exponent", lambda: Poly(1, {(1.5,): 1}), TypeError),
    ("bool exponent", lambda: Poly(1, {(True,): 1}), TypeError),
    ("float power", lambda: x**1.5, TypeError),
    ("float rational power", lambda: RatFunc(x) ** 2.7, TypeError),
    ("bool power", lambda: x**True, TypeError),
    ("float constant", lambda: Poly.const(1, 0.1), TypeError),
    ("bool constant", lambda: Poly.const(1, True), TypeError),
    ("float coefficient", lambda: Poly(1, {(1,): 0.5}), TypeError),
    ("float scalar", lambda: x * 0.5, TypeError),
    ("float rational scalar", lambda: RatFunc(x) + 0.25, TypeError),
    ("negative index", lambda: Poly.var(3, -1), ValueError),
    ("index past the end", lambda: Poly.var(3, 3), ValueError),
    ("bool index", lambda: Poly.var(3, True), TypeError),
    ("float variable count", lambda: Poly(2.0), TypeError),
]


@pytest.mark.parametrize(
    "build,error", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED]
)
def test_inexact_input_is_refused(build, error):
    with pytest.raises(error):
        build()


def test_exact_input_is_accepted():
    assert Poly(1, {(2,): Fraction(1, 2)}).render(["x"]) == "1/2*x^2"
    assert (Poly.const(1, Fraction(1, 10)) * 10).render(["x"]) == "1"
    assert RatFunc(x) ** -2 == RatFunc(Poly.one(1)) / RatFunc(x * x)
