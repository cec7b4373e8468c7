"""Contact orders, pure contact, and the universal pre-deformability ideal.

The local data is a pair of node-ring elements phi_w1, phi_w2 together with
the base image psi_t of the deformation parameter, constrained by
phi_w1 * phi_w2 = psi_t.  Purity of contact at order n means

    phi_w1 = beta z1^n,   phi_w2 = eps beta^{-1} z2^n

for a unit beta of the node ring and a unit eps of the base algebra.  Both
the decision procedure and the universal ideal run on exact linear algebra
over Q at the fixed truncation orders of the algebra and the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    AlgebraElement,
    AlgebraHom,
    AlgebraIdeal,
    NodeRing,
    NodeSeries,
    hom_apply,
)
from .linalg import Subspace, integer_eliminate, particular_solution, solve_linear


class ContactError(ValueError):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


NODE = "node"
TRIVIAL = "trivial"


@dataclass(frozen=True)
class ContactData:
    """One node's worth of local data over a truncated base algebra."""

    ring: NodeRing
    psi_t: AlgebraElement
    phi_w1: NodeSeries
    phi_w2: NodeSeries
    mode: str = NODE

    def __post_init__(self):
        if self.mode not in (NODE, TRIVIAL):
            raise ContactError("mode", "unknown smoothing mode %r" % (self.mode,))
        if self.phi_w1.ring != self.ring or self.phi_w2.ring != self.ring:
            raise ContactError("mismatch", "series live in a different node ring")
        if self.psi_t.algebra != self.ring.algebra:
            raise ContactError("mismatch", "psi_t lives in a different algebra")
        if self.phi_w1 * self.phi_w2 != self.ring.const(self.psi_t):
            raise ContactError(
                "homomorphism",
                "phi_w1 * phi_w2 must equal psi_t as a base element",
            )

    @property
    def algebra(self):
        return self.ring.algebra

    def swapped(self):
        """Exchange the two branches and the two coordinates simultaneously."""
        return ContactData(
            self.ring, self.psi_t, _zswap(self.phi_w2), _zswap(self.phi_w1), self.mode
        )

    def push(self, hom, target_ring=None):
        """Base change along an algebra map carrying s to s."""
        if not hom.maps_smoothing:
            raise ContactError(
                "mismatch", "base change must carry the smoothing parameter to itself"
            )
        if target_ring is None:
            target_ring = NodeRing(hom.target, self.ring.order)
        return ContactData(
            target_ring,
            hom.apply(self.psi_t),
            hom_apply(hom, self.phi_w1, target_ring),
            hom_apply(hom, self.phi_w2, target_ring),
            self.mode,
        )


@dataclass(frozen=True)
class ContactReport:
    left_order: int | None
    right_order: int | None
    pure: bool
    order: int | None = None
    beta: NodeSeries | None = None
    epsilon: AlgebraElement | None = None
    orientation: str | None = None
    certificate: str | None = None


def contact_orders(data):
    """Smallest branch exponents whose coefficient is a unit of the base.

    Returns (n1, n2) reading the z1 tail of phi_w1 and the z2 tail of
    phi_w2.  Raises with code ``degenerate_order`` when a tail is
    identically zero and ``order_truncation`` when no unit shows inside the
    exposed window.
    """
    out = []
    for series, pick in ((data.phi_w1, "z1"), (data.phi_w2, "z2")):
        tail = series.z1_tail() if pick == "z1" else series.z2_tail()
        order = None
        for i, coeff in enumerate(tail, start=1):
            if coeff.is_unit():
                order = i
                break
        if order is None:
            if all(c.is_zero() for c in tail):
                raise ContactError(
                    "degenerate_order", "the %s tail is identically zero" % pick
                )
            raise ContactError(
                "order_truncation",
                "no unit %s coefficient inside the exposed window" % pick,
            )
        out.append(order)
    return tuple(out)


def _series_numerators(x):
    """A node series as one flat vector (constant block, then both tails,
    ``dim`` coordinates a slot) of integer numerators over one denominator:
    (d, [(position, numerator), ...]) over the nonzero positions, in lowest
    terms."""
    ring = x.ring
    dim = ring.algebra.dim
    K = ring.internal - 1
    slots = [(k, c._scaled) for k, c in x._slots() if not c.is_zero()]
    d = math.lcm(*[q for _, (q, _) in slots])
    return d, [
        (dim * (k if k >= 0 else K - k) + m, n * (d // q))
        for k, (q, pairs) in slots
        for m, n in pairs
    ]


def is_nondegenerate(data):
    """Check (z1, z2)^m inside (phi_w1, phi_w2) inside (z1, z2) for some m.

    Returns (flag, m or None); all membership tests are exact spans.
    """
    alg = data.algebra
    ring = data.ring
    s_ideal = AlgebraIdeal(alg, [alg.s])
    for phi in (data.phi_w1, data.phi_w2):
        if not s_ideal.contains(phi.a0):
            return False, None
    dim = alg.dim * (2 * (ring.internal - 1) + 1)
    vectors = []
    for phi in (data.phi_w1, data.phi_w2):
        for _, col in _slot_columns(ring, _shift_levels(phi)):
            vec = [0] * dim
            for r, n in col.items():
                vec[r] = n
            vectors.append(vec)
    ideal_span = Subspace(vectors, dim)
    for m in range(1, ring.order + 1):
        good = True
        for i in range(m + 1):
            gen = ring.normal_form({(i, m - i): 1})
            if ideal_span.reduce_scaled(*_series_numerators(gen))[1]:
                good = False
                break
        if good:
            return True, m
    return False, None


def _shift_levels(x):
    """The levels x, then z1^k x for k = 1 .. internal - 1, then z2^k x, by
    :meth:`NodeSeries._levels`: each the (signed z-degree, element) pairs of
    its nonzero slots, the deep ones unreduced (:func:`_slot_columns`
    reduces them).  Level u is what the u-th unknown of beta multiplies in
    the pure-contact equations (its constant, then its z1 tail, then its z2
    tail)."""
    K = x.ring.internal - 1
    return x._levels((0, *range(1, K + 1), *range(-1, -K - 1, -1)))


def _slot_columns(ring, levels):
    """The columns y * e_j over the basis e_j of the base, level by level,
    as (q, {position: numerator}): integer numerators over a common
    denominator q of the column's entries.  Each level y is given by its
    nonzero slots, (signed z-degree, element) pairs as
    :func:`_shift_levels` makes them.

    Each slot's products with the e_j come from the algebra's
    ``_times_basis`` on its scaled form, and only the deep slots are
    reduced, by their slot space's ``reduce_scaled``; nothing else is
    brought to lowest terms.  A slot element's products depend only on it
    and on its slot's reduction, so each distinct pair is computed once per
    call: an up-branch shift carries its slot elements unchanged.  Flat
    positions run over the constant slot, then the z1 tail, then the z2
    tail, ``dim`` coordinates a slot.
    """
    alg = ring.algebra
    dim = alg.dim
    K = ring.internal - 1
    spaces = ring._slot_spaces
    products = {}
    fam = []
    for slots in levels:
        parts = [[] for _ in range(dim)]
        for k, c in slots:
            deep = abs(k) if abs(k) in spaces else 0
            got = products.get((deep, c._scaled))
            if got is None:
                got = products[deep, c._scaled] = []
                for q, nums in alg._times_basis(c._scaled):
                    xs = [(m, x) for m, x in enumerate(nums) if x]
                    if deep and xs:
                        q, xs = spaces[deep].reduce_scaled(q, xs)
                    got.append((q, xs))
            offset = dim * (k if k >= 0 else K - k)
            for part, (q, xs) in zip(parts, got):
                if xs:
                    part.append((offset, q, xs))
        for part in parts:
            q = math.lcm(*[p for _, p, _ in part])
            col = {}
            for offset, p, xs in part:
                f = q // p
                for m, n in xs:
                    col[offset + m] = n * f
            fam.append((q, col))
    return fam


def _zswap(series):
    """The coordinate exchange z1 <-> z2 (a ring automorphism over the base)."""
    return NodeSeries(series.ring, series.a0, series.b, series.a)


class _Row:
    """One exact coefficient equation: sum coeffs[x] * x = rhs."""

    __slots__ = ("coeffs", "rhs", "label")

    def __init__(self, coeffs, rhs, label):
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
        self.rhs = rhs
        self.label = label


def _linear_rows(phi1, levels1, levels2, n):
    """The coefficient equations of phi1 = beta z1^n and beta phi2 = eps
    z2^n, A-linear in the unknowns, on the exposed slots z^1..z^order.

    ``levels1`` and ``levels2`` are :func:`_shift_levels` of z1^n and of
    phi2.  Unknowns: 0 is the constant of beta, 1..K its z1 tail, K+1..2K
    its z2 tail, 2K+1 is eps; unknown u of beta multiplies level u, and eps
    multiplies one more level of the second identity, -z2^n.  Both
    identities are built the same way, their coefficients grouped by slot
    in one pass over the levels; each has a row for the constant slot, then
    z1^1..z1^order, then z2^1..z2^order.  The slots past the exposed order
    are reduced modulo powers of s and give no exact equation.
    """
    alg = phi1.ring.algebra
    top = phi1.ring.order
    slots = (0, *range(1, top + 1), *range(-1, -top - 1, -1))
    names = ["constant"] + ["z%d^%d" % (1 if k > 0 else 2, abs(k)) for k in slots[1:]]
    rows = []
    for name, levels, rhs in (
        ("first", levels1, (phi1.a0, *phi1.a[:top], *phi1.b[:top])),
        ("second", levels2 + [[(-n, -alg.one())]], (alg.zero(),) * len(slots)),
    ):
        coeffs = {slot: {} for slot in slots}
        for u, level in enumerate(levels):
            for k, c in level:
                if k in coeffs:
                    coeffs[k][u] = c
        for slot, where, value in zip(slots, names, rhs):
            rows.append(_Row(coeffs[slot], value, "%s branch %s slot" % (name, where)))
    return rows


def _obstructions(rows):
    """Gaussian elimination over the base algebra dividing only by units,
    in one forward pass.

    Returns the rows left with no unknowns and a nonzero right-hand side,
    in their original order: each is an equation 0 = rhs that no base
    change keeping rhs nonzero can satisfy.

    Each row in turn pivots on its first unit coefficient, if it has one,
    and is substituted into every other live row.  A row passed without a
    unit gains only multiples of its own pivot coefficient, which lies in
    the ideal of non-units (every generator is nilpotent): it never needs a
    second look.
    """
    live = []
    for i, row in enumerate(rows):
        pivot = None
        for u in sorted(row.coeffs):
            if row.coeffs[u].is_unit():
                pivot = u
                break
        if pivot is None:
            live.append(row)
            continue
        inv = row.coeffs[pivot].inverse()
        dep = {u: -(inv * c) for u, c in row.coeffs.items() if u != pivot}
        val = inv * row.rhs
        # substitute into every other row still live
        for other in live + rows[i + 1 :]:
            c = other.coeffs.pop(pivot, None)
            if c is None:
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
    return [r for r in live if not r.coeffs and not r.rhs.is_zero()]


def _pure_solve(phi1, levels1, levels2, n):
    """Exact Q-linear decision of phi1 = beta z1^n and beta phi2 = eps z2^n
    over the whole quotient ring, on sparse rows.

    ``levels1`` and ``levels2`` are :func:`_shift_levels` of z1^n and of
    phi2.  The unknowns are the Q-coordinates of beta (constant block, then
    the z1 tail, then the z2 tail, in the column order of
    :func:`_slot_columns`) and of eps; the right-hand side is the last
    column.  There is one row per flat position of the first identity, then
    of the second.  Every column comes from :func:`_slot_columns`: beta's
    unknown holds its column over ``levels1`` above its column over
    ``levels2``, and eps's unknown e_j holds nothing above -e_j in the z2^n
    slot, the level it multiplies in :func:`_linear_rows`; the right-hand
    side is phi1's numerators.  Each column is scaled to integers by the
    least common denominator of its two halves.  The window is a quotient
    ring, so each column is the same rational vector whatever route builds
    it, and the reduced row echelon form is unique, so the particular
    solution read from it, and so the reported beta, and the index of an
    inconsistent row do not depend on how the elimination reaches it.
    Returns (beta, eps, None) or (None, None, certificate).
    """
    ring = phi1.ring
    alg = ring.algebra
    dim = alg.dim
    K = ring.internal - 1
    vec_len = dim * (2 * K + 1)
    ncols = vec_len + dim
    # integer rows: each column scaled by the least common denominator of
    # its entries, the right-hand side by its own; particular_solution
    # scales the unknowns back
    rows = [{} for _ in range(2 * vec_len)]
    scales = []
    # eps's unknowns: nothing in the first identity, -e_j z2^n in the second
    first = _slot_columns(ring, levels1 + [[]])
    second = _slot_columns(ring, levels2 + [[(-n, -alg.one())]])
    for c, ((q1, ua), (q2, u2)) in enumerate(zip(first, second)):
        q = math.lcm(q1, q2)
        f1, f2 = q // q1, q // q2
        for r, v in ua.items():
            rows[r][c] = v * f1
        for r, v in u2.items():
            rows[vec_len + r][c] = v * f2
        scales.append(q)
    d, rhs = _series_numerators(phi1)
    for r, v in rhs:
        rows[r][ncols] = v
    scales.append(d)
    solution, index = particular_solution(
        integer_eliminate(row for row in rows if row), ncols, scales
    )
    if solution is None:
        return None, None, "unsolvable coefficient equation (reduced row %d)" % index
    # solution blocks of beta: constant, z1^1 .. z1^K, z2^1 .. z2^K
    blocks = [alg.element(solution[i : i + dim]) for i in range(0, vec_len, dim)]
    beta = ring._series_internal(blocks[0], blocks[1 : K + 1], blocks[K + 1 :])
    eps = alg.element(solution[vec_len:])
    if not beta.is_unit():
        return None, None, "solved unit has vanishing constant term"
    if not eps.is_unit():
        return None, None, "solved base unit has vanishing constant term"
    return beta, eps, None


def _pure_witness(data, n, swap):
    """Witness (beta, eps) for pure n-contact in one orientation, or a
    certificate string.

    A non-unit leading coefficient rules purity out at once.  Otherwise the
    first obstruction row of the unit-pivot elimination, if there is one,
    names the failing coefficient equation; with none, the exact solve
    decides and supplies the witnesses.  Both read the shift levels of
    z1^n and of phi2, built once here.
    """
    phi1 = _zswap(data.phi_w1) if swap else data.phi_w1
    phi2 = _zswap(data.phi_w2) if swap else data.phi_w2
    if n < 1 or n >= data.ring.internal:
        raise ContactError("order_overflow", "contact order outside the window")
    if not phi1.z1_coeff(n).is_unit():
        return None, None, "leading first-branch coefficient is not a unit"
    levels1 = _shift_levels(data.ring.branch_power(1, n))
    levels2 = _shift_levels(phi2)
    obstructions = _obstructions(_linear_rows(phi1, levels1, levels2, n))
    if obstructions:
        row = obstructions[0]
        return (
            None,
            None,
            "unsolvable coefficient equation at the %s: %s"
            % (row.label, row.rhs.render()),
        )
    beta, eps, cert = _pure_solve(phi1, levels1, levels2, n)
    if beta is None:
        return None, None, cert
    if swap:
        beta = _zswap(beta)
    return beta, eps, None


def _witnesses_hold(phi1, phi2, beta, eps, n, branch):
    """phi1 = beta z^n on ``branch`` and beta phi2 = eps z^n on the other
    branch: one product each, no inverse (see :func:`check_pure_contact`)."""
    ring = phi1.ring
    return (
        beta * ring.branch_power(branch, n) == phi1
        and beta * phi2 == ring.branch_power(3 - branch, n, eps)
    )


def check_pure_contact(data, n, allow_swap=True):
    """Decide pure n-contact, producing witnesses or a certificate.

    The reported beta satisfies phi_w1 = beta z^n on the branch named by the
    orientation, and phi_w2 = eps beta^{-1} z^n on the other branch.  Both
    identities re-verify exactly, each by one product: the second as
    beta phi_w2 = eps z^n, with no inverse.

    That test is exactly as strong.  The internal window is the quotient of
    A[z1, z2]/(z1 z2 - s) by the A-span of s^e(k) z^k, e(k) = max(N - k, 0),
    over both branches and all k >= 1, N the internal window.  Multiplying
    s^e(k) z1^k by z1 gives s^e(k) z1^(k+1), a multiple of s^e(k+1) z1^(k+1);
    by z2 it gives s^(e(k)+1) z1^(k-1), a multiple of s^e(k-1) z1^(k-1), or
    s^N = 0 in A when k = 1.  So the span is an ideal, the truncated node
    ring is a quotient ring, commutative and associative, and by the
    uniqueness of the normal form, equality there is equality of the stored
    slots.  For a unit beta, multiplication by beta is a bijection with
    inverse multiplication by beta^{-1}, so phi_w2 = beta^{-1} eps z^n holds
    iff beta phi_w2 = eps z^n does.
    """
    try:
        n1, n2 = contact_orders(data)
    except ContactError:
        n1 = n2 = None
    beta, eps, cert = _pure_witness(data, n, swap=False)
    orientation = "straight"
    if beta is None and allow_swap:
        beta, eps, cert2 = _pure_witness(data, n, swap=True)
        orientation = "swapped"
    if beta is None:
        return ContactReport(n1, n2, False, n, certificate=cert)
    branch = 2 if orientation == "swapped" else 1
    if not _witnesses_hold(data.phi_w1, data.phi_w2, beta, eps, n, branch):
        raise ArithmeticError("pure-contact witnesses failed re-verification")
    return ContactReport(n1, n2, True, n, beta, eps, orientation)


def predeformability_ideal(data, n):
    """The universal base ideal for pure n-contact, by elimination.

    Requires the z1^n coefficient of phi_w1 and the z2^n coefficient of
    phi_w2 to be units.  The coefficient equations of the two purity
    identities are reduced by Gaussian elimination dividing only by units
    of the base (so every step stays valid after arbitrary base change);
    the equations left with no unknowns generate the ideal.  Equations that
    keep a non-unit unknown coefficient carry no base-change-stable content
    at this truncation and are dropped, and the reduced slots past the
    exposed order give no exact equation at all; the universality check is
    the ground truth, not any closed-form generator guess.
    """
    ring = data.ring
    alg = ring.algebra
    if n < 1 or n >= ring.internal:
        raise ContactError("order_overflow", "contact order outside the window")
    lead1 = data.phi_w1.z1_coeff(n)
    lead2 = data.phi_w2.z2_coeff(n)
    if not (lead1.is_unit() and lead2.is_unit()):
        raise ContactError(
            "nonunit_leading",
            "both branch coefficients at the requested order must be units",
        )
    levels1 = _shift_levels(ring.branch_power(1, n))
    levels2 = _shift_levels(data.phi_w2)
    rows = _obstructions(_linear_rows(data.phi_w1, levels1, levels2, n))
    return AlgebraIdeal(alg, [row.rhs for row in rows])


def verify_universality(data, n, homs):
    """Pure contact after base change iff the ideal dies; all homs checked."""
    ideal = predeformability_ideal(data, n)
    results = []
    for hom in homs:
        pushed = data.push(hom)
        report = check_pure_contact(pushed, n, allow_swap=False)
        killed = all(hom.apply(g).is_zero() for g in ideal.generators)
        results.append((hom, report.pure, killed))
    return all(p == k for _, p, k in results), results


def verify_base_change(data, n, hom):
    """Compare the pushed-forward ideal with the directly recomputed one."""
    ideal = predeformability_ideal(data, n)
    pushed_ideal = ideal.push(hom)
    direct = predeformability_ideal(data.push(hom), n)
    return direct.span == pushed_ideal.span


def combined_predeformability_ideal(node_data):
    """Sum of per-node ideals on a shared base; node_data is (data, n) pairs."""
    if not node_data:
        raise ContactError("mismatch", "need at least one node")
    algebra = node_data[0][0].algebra
    total = None
    for data, n in node_data:
        if data.algebra != algebra:
            raise ContactError("mismatch", "nodes must share the base algebra")
        ideal = predeformability_ideal(data, n)
        total = ideal if total is None else total + ideal
    return total


@dataclass(frozen=True)
class ForcingReport:
    order: int
    beta1: NodeSeries
    beta2: NodeSeries
    epsilon: AlgebraElement
    orientation: str


def flat_local_forcing(data):
    """Pure form forced by flatness for local bases.

    Verifies the no-torsion precondition, equates the two contact orders,
    produces beta1, beta2, eps with phi_wi = zi^n beta_i, beta1 beta2 = eps
    and psi_t = s^n eps, all exactly.  The trivial smoothing mode is
    rejected: no flat local family exists there.
    """
    alg = data.algebra
    if not alg.local:
        raise ContactError("flatness", "base algebra must be local")
    if data.mode == TRIVIAL:
        raise ContactError(
            "flatness",
            "trivial smoothing mode admits no flat local pure form",
        )
    if data.psi_t.is_zero():
        raise ContactError("flatness", "psi_t = 0 has torsion everywhere")
    # kernel of multiplication by psi_t, with truncation-induced torsion
    # discounted: torsion below the truncation order is a real obstruction
    # column j is psi_t * e_j as integer numerators; all columns over one
    # common denominator, which leaves the kernel as it is
    cols = alg._times_basis(data.psi_t._scaled)
    den = math.lcm(*[q for q, _ in cols])
    rows = [[nums[m] * (den // q) for q, nums in cols] for m in range(alg.dim)]
    _, kernel = solve_linear(rows, [0] * alg.dim)
    v_psi = alg.valuation(data.psi_t)
    for vec in kernel:
        elem = alg.element(vec)
        if alg.valuation(elem) + v_psi < alg.order:
            raise ContactError(
                "flatness",
                "torsion below the truncation order: %s" % elem.render(),
            )
    n1, n2 = contact_orders(data)
    if n1 != n2:
        raise ContactError(
            "flatness", "branch orders disagree (%d vs %d)" % (n1, n2)
        )
    report = check_pure_contact(data, n1, allow_swap=True)
    if not report.pure:
        raise ContactError(
            "flatness",
            "no pure form at the forced order; precondition fails at this "
            "truncation (%s)" % report.certificate,
        )
    beta1 = report.beta
    beta2 = report.beta.inverse() * report.epsilon
    if beta1 * beta2 != data.ring.const(report.epsilon):
        raise ArithmeticError("witness product failed to collapse")
    if data.psi_t != alg.s**n1 * report.epsilon:
        raise ContactError(
            "flatness", "psi_t does not match s^n times the forced unit"
        )
    return ForcingReport(n1, beta1, beta2, report.epsilon, report.orientation)


def enumerate_homs(source, target, coeffs=(0, 1, -1), max_terms=2, limit=64):
    """All algebra maps source -> target with s going to s and the other
    generator images drawn from small combinations of basis monomials.

    The enumeration is deterministic and capped at ``limit`` maps.
    """
    from itertools import combinations, product

    nil_basis = [
        target.monomial_element(m) for m in target.basis if sum(m) > 0
    ]
    candidates = [target.zero()]
    seen = {target.zero()._scaled}
    for size in range(1, max_terms + 1):
        for combo in combinations(range(len(nil_basis)), size):
            for cs in product([c for c in coeffs if c], repeat=size):
                elem = target.zero()
                for idx, c in zip(combo, cs):
                    elem = elem + nil_basis[idx] * Fraction(c)
                if elem._scaled not in seen:
                    seen.add(elem._scaled)
                    candidates.append(elem)
    out = []
    free = len(source.gens) - 1
    for images in product(candidates, repeat=free):
        try:
            hom = AlgebraHom(source, target, (target.s,) + images)
        except ValueError:
            continue
        out.append(hom)
        if len(out) >= limit:
            break
    return out
