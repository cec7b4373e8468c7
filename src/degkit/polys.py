"""Exact multivariate polynomials and rational functions over Q.

A polynomial is a dict mapping exponent tuples to nonzero Fractions; the
number of variables is fixed per value.  Variable names live in the layers
above (rational maps, truncated algebras) and only matter for rendering.
No floating point is used anywhere.

A Laurent monomial c*x^E, E an int vector of any signs, has one normal form
c*x^E+ / x^E-, which ``_monomial`` writes directly and ``_laurent`` reads
back.  The layers above build every chart formula, bare variable and
substituted Laurent monomial through ``_monomial``; it checks nothing, so
they check their integer arguments where they enter.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

_ONE = Fraction(1)


def _key(exp):
    # graded ordering: total degree first, then reverse-lex, so term output
    # and pivot choices are deterministic
    return (sum(exp), exp)


def _int(value, what):
    """``value`` if it is an int; bools and every other type are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, not %r" % (what, value))
    return value


def _json_ints(error, *values):
    """Integer fields of JSON input; floats and booleans raise ``error``."""
    for v in values:
        if type(v) is not int:
            raise error("expected an integer, got %r" % (v,))
    return values


def _power(base, k, one):
    """base**k for an int k >= 0 by square-and-multiply, starting from the
    unit ``one``; every type with a product shares it.  The base is squared
    only while a higher bit remains, so k takes popcount(k) + bit_length(k)
    - 1 products."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _coeff(c):
    """An exact coefficient; floats and bools are refused, never rounded."""
    if type(c) is Fraction:
        return c
    if isinstance(c, (float, bool)):
        raise TypeError(
            "%s coefficient %r; use an int or a Fraction" % (type(c).__name__, c)
        )
    return Fraction(c)


def _arity(nvars):
    if _int(nvars, "variable count") < 0:
        raise ValueError("negative variable count")
    return nvars


def _poly(nvars, terms):
    """Poly with ``terms`` taken as they are: int exponent tuples of length
    ``nvars`` mapped to nonzero Fractions.  Arithmetic builds its results
    here; user input goes through ``Poly(...)``, which checks it."""
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out.terms = terms
    return out


def _scaled_shift(terms, mono, c):
    """The terms times c*x^mono, in their own order."""
    if any(mono):
        if c == 1:
            return {tuple(map(add, e, mono)): co for e, co in terms.items()}
        return {tuple(map(add, e, mono)): co * c for e, co in terms.items()}
    if c == 1:
        return dict(terms)
    return {e: co * c for e, co in terms.items()}


class Poly:
    """Polynomial in ``nvars`` variables with Fraction coefficients.

    The constructor and the builders check their input: exponents, powers
    and variable indices are ints (not bools), coefficients are exact (not
    floats).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        nvars = _arity(nvars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise ValueError("exponent arity mismatch")
                for e in exp:
                    if _int(e, "exponent") < 0:
                        raise ValueError("negative exponent")
                c = _coeff(c)
                if c:
                    s = clean.get(exp, 0) + c
                    if s:
                        clean[exp] = s
                    else:
                        del clean[exp]
        self.nvars = nvars
        self.terms = clean

    # ------------------------------------------------------------ builders
    @classmethod
    def zero(cls, nvars):
        return _poly(_arity(nvars), {})

    @classmethod
    def const(cls, nvars, c):
        nvars = _arity(nvars)
        c = _coeff(c)
        return _poly(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars):
        nvars = _arity(nvars)
        return _poly(nvars, {(0,) * nvars: _ONE})

    @classmethod
    def var(cls, nvars, i, power=1):
        nvars = _arity(nvars)
        if not 0 <= _int(i, "variable index") < nvars:
            raise ValueError("variable index %d out of range(%d)" % (i, nvars))
        if _int(power, "power") < 0:
            raise ValueError("negative exponent")
        exp = [0] * nvars
        exp[i] = power
        return _poly(nvars, {tuple(exp): _ONE})

    @classmethod
    def monomial(cls, exp, c=1):
        return cls(len(exp), {tuple(exp): c})

    # ---------------------------------------------------------- predicates
    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(sum(e) == 0 for e in self.terms)

    def const_coeff(self):
        return self.terms.get(tuple([0] * self.nvars), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ---------------------------------------------------------- arithmetic
    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            prev = terms.get(e)
            if prev is None:
                terms[e] = c
                continue
            s = prev + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return _poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _coeff(other)
            return _poly(
                self.nvars, {e: co * c for e, co in self.terms.items()} if c else {}
            )
        self._check(other)
        a, b = self.terms, other.terms
        # a single term multiplies by an exponent shift, in the order of the
        # other side's terms (the order the double loop below would give)
        if len(b) == 1:
            (mono, c), = b.items()
            return _poly(self.nvars, _scaled_shift(a, mono, c))
        if len(a) == 1:
            (mono, c), = a.items()
            return _poly(self.nvars, _scaled_shift(b, mono, c))
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                prev = terms.get(e)
                if prev is None:
                    terms[e] = c
                    continue
                s = prev + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return _poly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if _int(k, "power") < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return _poly(self.nvars, {tuple(p * k for p in e): c**k})
        return _power(self, k, Poly.one(self.nvars))

    # -------------------------------------------------------- manipulation
    def substitute(self, values):
        """Substitute values[i] (Poly or Fraction, common arity) for variable i.

        Returns a Poly in the arity of the values.
        """
        arity = None
        vals = []
        for v in values:
            if isinstance(v, Poly):
                arity = v.nvars
            vals.append(v)
        if arity is None:
            raise ValueError("need at least one Poly value to fix arity")
        vals = [v if isinstance(v, Poly) else Poly.const(arity, v) for v in vals]
        if len(vals) != self.nvars:
            raise ValueError("substitution arity mismatch")
        out = Poly.zero(arity)
        for e, c in self.terms.items():
            term = Poly.const(arity, c)
            for i, p in enumerate(e):
                if p:
                    term = term * (vals[i] ** p)
            out = out + term
        return out

    def rename(self, nvars, positions):
        """The same polynomial in an ``nvars``-variable frame, variable i
        renamed to variable ``positions[i]``.  The positions are distinct, so
        this moves exponents and never multiplies."""
        nvars = _arity(nvars)
        positions = tuple(positions)
        if (
            len(positions) != self.nvars
            or len(set(positions)) != self.nvars
            or not all(0 <= _int(k, "position") < nvars for k in positions)
        ):
            raise ValueError("rename: need %d distinct positions below %d" % (self.nvars, nvars))
        terms = {}
        for e, c in self.terms.items():
            exp = [0] * nvars
            for k, p in zip(positions, e):
                exp[k] = p
            terms[tuple(exp)] = c
        return _poly(nvars, terms)

    def extend(self, nvars, offset=0):
        """View in a larger variable list, original variable i at offset+i."""
        if _int(offset, "offset") < 0 or offset + self.nvars > _arity(nvars):
            raise ValueError("extend: does not fit")
        return self.rename(nvars, range(offset, offset + self.nvars))

    def monomial_content(self):
        """Largest monomial dividing every term (zero poly: None)."""
        if not self.terms:
            return None
        return tuple(map(min, zip(*self.terms)))

    def divide_monomial(self, mono):
        terms = {}
        for e, c in self.terms.items():
            q = tuple(map(sub, e, mono))
            if q and min(q) < 0:
                raise ValueError("monomial does not divide")
            terms[q] = c
        return _poly(self.nvars, terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        terms = self.terms
        if len(terms) == 1:
            return next(iter(terms.items()))
        if not terms:
            raise ValueError("zero polynomial")
        e = max(terms, key=_key)
        return e, terms[e]

    # ----------------------------------------------------------- rendering
    def render(self, names):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(names[i])
                elif p > 1:
                    factors.append("%s^%d" % (names[i], p))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return "Poly(%d, %s)" % (
            self.nvars,
            self.render(["x%d" % i for i in range(self.nvars)]),
        )


def _unit(n, *indices):
    """The exponent vector of the product of x_i over ``indices`` (0-based,
    repeats multiply) in n variables."""
    exp = [0] * n
    for i in indices:
        exp[i] += 1
    return exp


def _monomial(exp, c=_ONE):
    """The rational function c*x^exp for an int exponent vector ``exp`` of
    any signs and a nonzero Fraction c, in its normal form c*x^E+ / x^E-.
    The two sides share no variable and the denominator's coefficient is
    one, so it is reduced as built; nothing is checked."""
    out = RatFunc.__new__(RatFunc)
    out.num = _poly(len(exp), {tuple(e if e > 0 else 0 for e in exp): c})
    out.den = _poly(len(exp), {tuple(0 if e > 0 else -e for e in exp): _ONE})
    return out


def _laurent(f):
    """(c, p, q) when the reduced fraction f is c*x^p / x^q, one term a
    side (the denominator's coefficient is one), else None; the inverse of
    ``_monomial`` with exp = p - q."""
    num, den = f.num.terms, f.den.terms
    if len(num) != 1 or len(den) != 1:
        return None
    (p, c), = num.items()
    q, = den
    return c, p, q


class RatFunc:
    """Reduced fraction of two polynomials; denominators never vanish.

    Reduction removes the common monomial factor and rational content and
    normalizes the denominator's leading coefficient to one.  Full
    multivariate gcd is not attempted, so equality checks always use cross
    multiplication.

    The normal form is unique when the denominator is a monomial, which
    holds for every value in the atlas, resolution, chart and splice checks.
    Otherwise it depends on the order of operations.  Products do not
    matter: each variable is prime, so monomial content adds up under
    products, and the leading coefficient of a product is the product of the
    leading coefficients, so a product reduces to the same form however its
    factors are grouped.  Sums do matter, and :meth:`substitute` adds its
    terms left to right in the order of the polynomial's terms.

    A fraction with one term a side, c*x^p / x^q, is a Laurent monomial.
    Reduced, its denominator's coefficient is one and its two sides share
    no variable, so c and the vector p - q fix its normal form, and
    :meth:`substitute` maps Laurent monomials to Laurent monomials on those
    alone.  ``_monomial`` builds that form from c and the vector, the one
    place a fraction is made without the constructor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        nvars = num.nvars
        if den is None:
            self.num = num
            self.den = _poly(nvars, {(0,) * nvars: _ONE})
            return
        if not den.terms:
            raise ZeroDivisionError("zero denominator")
        if nvars != den.nvars:
            raise ValueError("variable count mismatch")
        if not num.terms:
            self.num = num
            self.den = _poly(nvars, {(0,) * nvars: _ONE})
            return
        gd = den.monomial_content()
        if any(gd):
            g = tuple(map(min, num.monomial_content(), gd))
            if any(g):
                num = num.divide_monomial(g)
                den = den.divide_monomial(g)
        _, lead = den.leading()
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p):
        return cls(p)

    @classmethod
    def const(cls, nvars, c):
        return cls(Poly.const(nvars, c))

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        if _int(k, "power") < 0:
            inv = RatFunc(self.den, self.num)
            return inv ** (-k)
        return RatFunc(self.num**k, self.den**k)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        return RatFunc.const(self.nvars, other)

    def same(self, other):
        """Equality as rational functions (cross multiplication; exact)."""
        other = self._coerce(other)
        return (self.num * other.den - other.num * self.den).is_zero()

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, Poly, int, Fraction)):
            return NotImplemented
        return self.same(other)

    def __hash__(self):
        raise TypeError("RatFunc is unhashable; compare with .same()")

    def bare_variable(self):
        """Index k if this is the bare variable x_k, else None."""
        num, den = self.num.terms, self.den.terms
        if len(num) != 1 or len(den) != 1 or any(next(iter(den))):
            return None
        (e, c), = num.items()
        if c != 1 or sum(e) != 1:
            return None
        return e.index(1)

    def rename(self, nvars, positions):
        """:meth:`Poly.rename` of both sides.  The fraction is reduced again,
        as renaming can change which denominator term leads."""
        return RatFunc(self.num.rename(nvars, positions), self.den.rename(nvars, positions))

    def substitute(self, values):
        """Substitute RatFunc values for the variables; exact.

        Laurent route: when this is c*x^a / x^b and every value at a nonzero
        k_i = a_i - b_i is c_i*x^p_i / x^q_i, one term a side, the result
        is C*x^E+ / x^E- with E = sum k_i (p_i - q_i) and
        C = c * prod c_i^k_i, built from the exponent tuples.  It is the
        form the general route gives, as the normal form is unique over a
        monomial denominator, k_i = 0 only where a_i = b_i = 0 (values the
        general route never reads either), and one term a side has no order.

        General route: with reduced values P_i/Q_i, a term c*x^e becomes the
        single reduced fraction c*prod P_i^e_i / prod Q_i^e_i, each power
        computed once per call.  The terms are added left to right, as the
        normal form of a sum depends on its order (see the class
        docstring).  Several terms on either side take this route, and so
        does a zero value at a nonzero exponent: the result is 0 at a
        positive exponent and ``ZeroDivisionError`` at a negative one.
        """
        arity = None
        vals = []
        for v in values:
            if isinstance(v, (RatFunc, Poly)):
                arity = v.nvars
            vals.append(v)
        if arity is None:
            raise ValueError("need at least one RatFunc/Poly value")
        vals = [
            v
            if isinstance(v, RatFunc)
            else (RatFunc(v) if isinstance(v, Poly) else RatFunc.const(arity, v))
            for v in vals
        ]
        if len(vals) != self.nvars:
            raise ValueError("substitution arity mismatch")
        out = self._substitute_laurent(vals, arity)
        if out is not None:
            return out
        origin = (0,) * arity
        one = _poly(arity, {origin: _ONE})
        powers = {}

        def image(poly):
            total = None
            for e, c in poly.terms.items():
                num = _poly(arity, {origin: c})
                den = one
                for i, p in enumerate(e):
                    if p:
                        power = powers.get((i, p))
                        if power is None:
                            v = vals[i]
                            power = (v.num, v.den) if p == 1 else (v.num**p, v.den**p)
                            powers[i, p] = power
                        num = num * power[0]
                        den = den * power[1]
                term = RatFunc(num, den)
                total = term if total is None else total + term
            return RatFunc(_poly(arity, {})) if total is None else total

        num = image(self.num)
        den = image(self.den)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes after substitution")
        return num / den

    def _substitute_laurent(self, vals, arity):
        """:meth:`substitute`'s Laurent route, or None when it does not
        apply."""
        form = _laurent(self)
        if form is None:
            return None
        c, a, b = form
        exp = [0] * arity
        for v, k in zip(vals, map(sub, a, b)):
            if not k:
                continue
            form = _laurent(v)
            # a value in another arity is left to the general route's error
            if form is None or v.num.nvars != arity:
                return None
            ci, p, q = form
            if ci != 1:
                c = c * ci**k
            exp = [e + k * (x - y) for e, x, y in zip(exp, p, q)]
        return _monomial(exp, c)

    def render(self, names):
        if self.den.is_const() and self.den.const_coeff() == 1:
            return self.num.render(names)
        return "(%s)/(%s)" % (self.num.render(names), self.den.render(names))

    def __repr__(self):
        return self.render(["x%d" % i for i in range(self.nvars)])
