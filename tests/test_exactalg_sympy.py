"""TruncatedAlgebra against a Gröbner basis computed by sympy.

The truncation of Q[gens] / (relations) at order N is the quotient by the
ideal of the relations and every monomial of degree N.  A grevlex Gröbner
basis G of that ideal gives an independent model of the algebra: its
dimension is the number of standard monomials of G, and two polynomials are
the same element exactly when their normal forms modulo G agree.  sympy is a
test-only oracle (the ``test`` extra); the library never imports it.
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from test_polys_sympy import to_sympy  # noqa: E402  (needs sympy)

ALGEBRAS = ["Qs8", "Qs6", "Qs4", "QQ", "Qeps", "Qc2", "obstructed"]


def groebner_model(algebra):
    """The symbols and a grevlex Gröbner basis of the truncation ideal."""
    symbols = sympy.symbols("x0:%d" % len(algebra.gens))
    cutoff = [
        sympy.Mul(*(s**k for s, k in zip(symbols, e)))
        for e in itertools.product(range(algebra.order + 1), repeat=len(symbols))
        if sum(e) == algebra.order
    ]
    ideal = [to_sympy(r, symbols) for r in algebra.relations] + cutoff
    return symbols, sympy.groebner(ideal, *symbols, order="grevlex", domain="QQ")


def standard_monomials(algebra, symbols, basis):
    """Exponents of degree below the order that no leading monomial of the
    basis divides; the cutoff puts every other monomial in the ideal."""
    leads = [
        sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in basis.exprs
    ]
    return [
        e
        for e in itertools.product(range(algebra.order), repeat=len(symbols))
        if sum(e) < algebra.order
        and not any(all(a >= b for a, b in zip(e, lead)) for lead in leads)
    ]


def random_element(algebra, rng):
    return algebra.element(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(algebra.dim)
    )


@pytest.mark.parametrize("name", ALGEBRAS)
def test_dimension_is_the_standard_monomial_count(name, request):
    algebra = request.getfixturevalue(name)
    symbols, basis = groebner_model(algebra)
    assert algebra.dim == len(standard_monomials(algebra, symbols, basis))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_products_agree_with_groebner_normal_forms(name, request):
    algebra = request.getfixturevalue(name)
    symbols, basis = groebner_model(algebra)
    rng = random.Random(name)

    def normal_form(expr):
        remainder = sympy.reduced(
            sympy.expand(expr), basis.exprs, *symbols, order="grevlex", domain="QQ"
        )[1]
        return sympy.expand(remainder)

    for _ in range(12):
        x, y = random_element(algebra, rng), random_element(algebra, rng)
        product = to_sympy(x.as_poly(), symbols) * to_sympy(y.as_poly(), symbols)
        assert normal_form(product) == normal_form(
            to_sympy((x * y).as_poly(), symbols)
        ), (x, y)
