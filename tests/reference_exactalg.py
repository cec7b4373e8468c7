"""Slot-by-slot node-ring arithmetic kept as a test oracle.

These are the series product, branch shift and geometric-series inverse
that ``degkit.exactalg.NodeSeries`` used before its product became a sparse
kernel over the nonzero slots, and the algebra-element inverse by the
geometric series alone, as it was before constants were inverted directly.  They read the same normal form and go
through the ring's public slot reduction, so their results must equal the
library's bit for bit.  :func:`multiply_elements` multiplies two algebra
elements as polynomials and reduces the product by the relations, without
the structure-constant table.  :func:`fixture_algebra` is the fixture base
of the acceptance suite, an algebra of dimension above one, and
:func:`ratio_algebra` is a base whose structure constants are not all
integers.
"""

from fractions import Fraction

from degkit import Poly, TruncatedAlgebra


def multiply_elements(x, y):
    """x * y for two algebra elements: the product of their polynomials,
    reduced by the relations and the truncation."""
    return x.algebra.from_poly(x.as_poly() * y.as_poly())


def multiply(x, y):
    """x * y by summing every slot pair, one algebra product at a time."""
    ring = x.ring
    alg = ring.algebra
    K = ring.internal - 1
    s_pows = ring._s_pows

    def A(x, i):
        return x.a0 if i == 0 else x.a[i - 1]

    def B(x, i):
        return x.a0 if i == 0 else x.b[i - 1]

    const = x.a0 * y.a0
    for i in range(1, min(len(s_pows), K + 1)):
        term = A(x, i) * B(y, i) + B(x, i) * A(y, i)
        const = const + term * s_pows[i]
    a_out = []
    b_out = []
    for k in range(1, K + 1):
        ck = alg.zero()
        dk = alg.zero()
        for i in range(0, k + 1):
            ck = ck + A(x, i) * A(y, k - i)
            dk = dk + B(x, i) * B(y, k - i)
        for i in range(1, len(s_pows)):
            if k + i <= K:
                ck = ck + (A(x, k + i) * B(y, i) + B(x, i) * A(y, k + i)) * s_pows[i]
                dk = dk + (B(x, k + i) * A(y, i) + A(x, i) * B(y, k + i)) * s_pows[i]
        a_out.append(ck)
        b_out.append(dk)
    return ring._series_internal(const, a_out, b_out)


def shift(x, branch):
    """x * z1 (branch 1) or x * z2 (branch 2), every slot rebuilt."""
    ring = x.ring
    alg = ring.algebra
    K = ring.internal - 1
    if branch == 1:
        const = alg.s * x.b[0]
        a = [x.a0] + [x.a[i] for i in range(K - 1)]
        b = [alg.s * x.b[j + 1] if j + 1 < K else alg.zero() for j in range(K)]
    else:
        const = alg.s * x.a[0]
        b = [x.a0] + [x.b[i] for i in range(K - 1)]
        a = [alg.s * x.a[j + 1] if j + 1 < K else alg.zero() for j in range(K)]
    return ring._series_internal(const, a, b)


def inverse(x):
    """Geometric series 1 - y + y^2 - ... of y = x / a0 - 1, with every
    product taken by :func:`multiply`."""
    ring = x.ring
    c_inv = ring.const(x.a0.inverse())
    y = multiply(x, c_inv) - ring.one()
    out = ring.one()
    power = ring.one()
    for _ in range(ring.internal + 2 * ring.algebra.order + 2):
        power = multiply(power, -y)
        if power.is_zero():
            break
        out = out + power
    else:
        raise ArithmeticError("inversion did not terminate")
    return multiply(out, c_inv)


def algebra_inverse(x):
    """Geometric series 1 - y + y^2 - ... of y = x / c - 1 for an element x
    of a truncated algebra with constant term c, run for constants too."""
    alg = x.algebra
    c = x.constant_term()
    y = x * (Fraction(1) / c) - alg.one()
    out = alg.one()
    power = alg.one()
    for _ in range(alg.order + 1):
        power = power * (-y)
        if power.is_zero():
            break
        out = out + power
    return out * (Fraction(1) / c)


def fixture_algebra(extra=()):
    """Q[s, c, ...] / (every extra squared, s times it, any two extras),
    truncated at order 4."""
    gens = ("s", "c") + tuple(extra)
    k = len(gens)

    def mono(*idx):
        return Poly(k, {tuple(idx.count(j) for j in range(k)): 1})

    rels = []
    for i in range(1, k):
        rels += [mono(i, i), mono(0, i)]
        rels += [mono(i, i2) for i2 in range(i + 1, k)]
    return TruncatedAlgebra(gens, rels, order=4)


def ratio_algebra():
    """Q[s, c, d] / (3 d^2 - 2 c^2), truncated at order 4: d^2 = 2/3 c^2,
    so some structure constants have denominator 3."""
    return TruncatedAlgebra(
        ("s", "c", "d"), [Poly(3, {(0, 0, 2): 3, (0, 2, 0): -2})], order=4
    )


UNITS = (1, -1, 2, 3, Fraction(1, 2))


def witnesses_hold(phi1, phi2, beta, beta_inv, eps, n, branch):
    """phi1 = beta z^n on ``branch`` and phi2 = beta^{-1} eps z^n on the
    other, with ``beta_inv`` the :func:`inverse` of beta."""
    ring = phi1.ring
    one = ring.algebra.one()
    zn_a = ring.branch_power(branch, n, one)
    zn_b = ring.branch_power(3 - branch, n, one)
    return multiply(beta, zn_a) == phi1 and (
        multiply(multiply(beta_inv, zn_b), ring.const(eps)) == phi2
    )
