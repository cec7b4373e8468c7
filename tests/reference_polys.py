"""Reference copies of the polynomial products, powers and substitution.

These follow the arithmetic ``degkit.polys`` used before its products took
single-term shortcuts and before substitution reduced each term once: every
product runs the full double loop, every power is square-and-multiply from
one, and every factor of a substituted term is a separately reduced
fraction, summed left to right from zero.  They work on plain term dicts
(exponent tuple -> Fraction), share no code with the library and serve the
tests as an independent oracle.  A rational function is a pair of term
dicts ``(num, den)``.
"""

from fractions import Fraction


def _key(exp):
    return (sum(exp), exp)


def ref_one(nvars):
    return {(0,) * nvars: Fraction(1)}


def ref_add(a, b):
    terms = dict(a)
    for e, c in b.items():
        s = terms.get(e, Fraction(0)) + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return terms


def ref_mul(a, b):
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s:
                terms[e] = s
            else:
                del terms[e]
    return terms


def ref_pow(a, k, nvars):
    out = ref_one(nvars)
    base = a
    while k:
        if k & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        k >>= 1
    return out


def ref_reduce(num, den, nvars):
    """The normal form: common monomial content removed, the leading
    coefficient of the denominator made one; a zero numerator gets
    denominator one."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, ref_one(nvars)
    gn = tuple(min(e[i] for e in num) for i in range(nvars))
    gd = tuple(min(e[i] for e in den) for i in range(nvars))
    g = tuple(min(a, b) for a, b in zip(gn, gd))
    if any(g):
        num = {tuple(a - b for a, b in zip(e, g)): c for e, c in num.items()}
        den = {tuple(a - b for a, b in zip(e, g)): c for e, c in den.items()}
    lead = den[max(den, key=_key)]
    if lead != 1:
        inv = Fraction(1) / lead
        num = {e: c * inv for e, c in num.items()}
        den = {e: c * inv for e, c in den.items()}
    return num, den


def ref_rat_mul(x, y, nvars):
    return ref_reduce(ref_mul(x[0], y[0]), ref_mul(x[1], y[1]), nvars)


def ref_rat_add(x, y, nvars):
    num = ref_add(ref_mul(x[0], y[1]), ref_mul(y[0], x[1]))
    return ref_reduce(num, ref_mul(x[1], y[1]), nvars)


def ref_rat_div(x, y, nvars):
    if not y[0]:
        raise ZeroDivisionError("division by zero rational function")
    return ref_reduce(ref_mul(x[0], y[1]), ref_mul(x[1], y[0]), nvars)


def ref_rat_pow(x, k, nvars):
    if k < 0:
        return ref_rat_pow(ref_reduce(x[1], x[0], nvars), -k, nvars)
    return ref_reduce(ref_pow(x[0], k, nvars), ref_pow(x[1], k, nvars), nvars)


def ref_substitute(f, values, arity):
    """Substitute the pairs ``values`` (reduced, in ``arity`` variables) for
    the variables of the pair ``f``."""

    def image(poly):
        total = ({}, ref_one(arity))
        for e, c in poly.items():
            t = ({(0,) * arity: c}, ref_one(arity))
            for i, p in enumerate(e):
                if p:
                    t = ref_rat_mul(t, ref_rat_pow(values[i], p, arity), arity)
            total = ref_rat_add(total, t, arity)
        return total

    num = image(f[0])
    den = image(f[1])
    if not den[0]:
        raise ZeroDivisionError("denominator vanishes after substitution")
    return ref_rat_div(num, den, arity)
