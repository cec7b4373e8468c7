"""Rational-function equality and substitution against sympy.

sympy is a test-only oracle (the ``test`` extra); the library never imports
it.  ``RatFunc.same`` must agree with ``sympy.cancel(A - B) == 0``, and
``RatFunc.substitute`` with sympy's ``subs`` up to equality.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

sympy = pytest.importorskip("sympy")

from degkit.polys import Poly, RatFunc  # noqa: E402
from test_polys import NV, polys, ratfuncs  # noqa: E402

ARITY = 2
X = sympy.symbols("x0:%d" % ARITY)
Y = sympy.symbols("y0:%d" % NV)


def to_sympy(p, symbols):
    out = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(symbols, e):
            term *= s**k
        out += term
    return out


def rat(r, symbols):
    return to_sympy(r.num, symbols) / to_sympy(r.den, symbols)


@given(ratfuncs(ARITY), ratfuncs(ARITY), polys(ARITY, min_terms=1))
@settings(max_examples=60, deadline=None)
def test_same_agrees_with_sympy(a, b, p):
    scaled = RatFunc(a.num * p, a.den * p)
    for u, v in ((a, b), (a, scaled), (b, scaled)):
        assert u.same(v) == (sympy.cancel(rat(u, X) - rat(v, X)) == 0)


def as_fraction(expr):
    """Numerator and denominator of ``expr`` over one common denominator,
    expanded; no gcd is taken."""
    num, den = sympy.fraction(sympy.together(expr))
    return sympy.expand(num), sympy.expand(den)


@given(ratfuncs(NV, 2), st.lists(ratfuncs(ARITY, 2), min_size=NV, max_size=NV))
@settings(max_examples=60, deadline=None)
def test_substitute_agrees_with_sympy(f, values):
    images = dict(zip(Y, (rat(v, X) for v in values)))
    n1, d1 = as_fraction(to_sympy(f.num, Y).subs(images))
    n2, d2 = as_fraction(to_sympy(f.den, Y).subs(images))
    if n2 == 0:
        try:
            f.substitute(values)
        except ZeroDivisionError:
            return
        raise AssertionError("substitution into a vanishing denominator")
    out = f.substitute(values)
    # out = (n1/d1) / (n2/d2), cross-multiplied
    cross = to_sympy(out.num, X) * d1 * n2 - to_sympy(out.den, X) * n1 * d2
    assert sympy.expand(cross) == 0
