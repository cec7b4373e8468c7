"""The pure-contact system's shift levels and A-linear rows as they were
built before the levels were read off the nonzero slots of z^k x, kept as a
test oracle.

:func:`shift_levels` chains the slot-by-slot ``reference_exactalg.shift``,
so every level is a full normal form built without ``NodeSeries._levels``,
the library's one landing rule.  :func:`linear_rows` writes the first
identity's rows by hand and reads the second identity's rows off those
levels.  Both read the ring only through its normal-form builder and slot
accessors, so the library's levels and rows must equal theirs on the
exposed slots.

:func:`obstructions` is the unit-pivot elimination as it was before it
became one forward pass: after every pivot it restarts its scan from the
first live row, so it never relies on a passed row keeping no unit.
"""

from degkit.contact import _Row
from reference_exactalg import shift


def shift_levels(x):
    """x, then z1^k x for k = 1 .. internal - 1, then z2^k x: each level is
    one shift of the one before."""
    levels = [x]
    for branch in (1, 2):
        y = x
        for _ in range(x.ring.internal - 1):
            y = shift(y, branch)
            levels.append(y)
    return levels


def linear_rows(phi1, levels2, n):
    """The coefficient equations of phi1 = beta z1^n and beta phi2 = eps
    z2^n on the exposed slots, ``levels2`` being :func:`shift_levels` of
    phi2.  Unknowns: 0 is the constant of beta, 1..K its z1 tail, K+1..2K
    its z2 tail, 2K+1 is eps."""
    ring = phi1.ring
    alg = ring.algebra
    K = ring.internal - 1
    top = ring.order
    s_pows = ring._s_pows

    def spow(j):
        return s_pows[j] if j < len(s_pows) else alg.zero()

    rows = []
    # first identity: slot matching of beta * z1^n against phi1;
    # constant slot: x_b[n] s^n contributes, rhs is phi1's constant
    rows.append(_Row({K + n: spow(n)}, phi1.a0, "first branch constant slot"))
    for slot in range(1, top + 1):
        coeffs = {}
        if slot == n:
            coeffs[0] = alg.one()
        if slot > n:
            coeffs[slot - n] = alg.one()
        if slot < n:
            coeffs[K + n - slot] = spow(n - slot)
        rows.append(
            _Row(coeffs, phi1.z1_coeff(slot), "first branch z1^%d slot" % slot)
        )
    for slot in range(1, top + 1):
        coeffs = {}
        j = slot + n
        if j <= K:
            coeffs[K + j] = spow(n)
        rows.append(
            _Row(coeffs, phi1.z2_coeff(slot), "first branch z2^%d slot" % slot)
        )
    # second identity: beta * phi2 = eps z2^n, slot by slot
    coeffs = {u: y.a0 for u, y in enumerate(levels2)}
    rows.append(_Row(coeffs, alg.zero(), "second branch constant slot"))
    for slot in range(1, top + 1):
        coeffs = {u: y.z1_coeff(slot) for u, y in enumerate(levels2)}
        rows.append(_Row(coeffs, alg.zero(), "second branch z1^%d slot" % slot))
    for slot in range(1, top + 1):
        coeffs = {u: y.z2_coeff(slot) for u, y in enumerate(levels2)}
        if slot == n:
            coeffs[2 * K + 1] = -alg.one()
        rows.append(_Row(coeffs, alg.zero(), "second branch z2^%d slot" % slot))
    return rows


def obstructions(rows):
    """Gaussian elimination over the base algebra dividing only by units,
    restarted after every pivot.

    Returns the rows left with no unknowns and a nonzero right-hand side,
    in their original order.
    """
    live = list(rows)
    progress = True
    while progress:
        progress = False
        for row in live:
            pivot = None
            for u in sorted(row.coeffs):
                if row.coeffs[u].is_unit():
                    pivot = u
                    break
            if pivot is None:
                continue
            inv = row.coeffs[pivot].inverse()
            dep = {
                u: -(inv * c) for u, c in row.coeffs.items() if u != pivot
            }
            val = inv * row.rhs
            live.remove(row)
            # substitute into every other row
            for other in live:
                c = other.coeffs.pop(pivot, None)
                if c is None or c.is_zero():
                    continue
                other.rhs = other.rhs - c * val
                for u, d in dep.items():
                    merged = other.coeffs.get(u)
                    add = c * d
                    total = add if merged is None else merged + add
                    if total.is_zero():
                        other.coeffs.pop(u, None)
                    else:
                        other.coeffs[u] = total
            progress = True
            break
    return [r for r in live if not r.coeffs and not r.rhs.is_zero()]
