"""Chart atlas of the one-dimensional expanded local model and its checks.

The model ``Gamma(n)`` lives over affine (n+1)-space with base coordinates
t1..t{n+1} and is covered by n+1 affine charts U_1..U_{n+1}, each with
coordinates u1..u{n+2}.  On chart l the projection multiplies the two chart
coordinates at the distinguished slot,

    pi_l : (u_1, .., u_{n+2}) -> (u_1, .., u_{l-1}, u_l u_{l+1}, u_{l+2}, ..),

the rank-n torus acts diagonally by Laurent monomials in sigma_1..sigma_n,
and the transition from chart l to chart l+1 inverts the (l+1)-st
coordinate:

    (.., u_l u_{l+1}, 1/u_{l+1}, u_{l+2} u_{l+1}, ..).

The model is toric, so every chart formula here (projections, actions,
transitions, the quadric resolution, the principal charts and their
inverses, the splice boundary charts) is a Laurent monomial x^E.  Each is
written as its int exponent vector E and built by ``polys._monomial``; the
chart inverses are solved by integer arithmetic on those vectors.  That
builder checks nothing, so every public function and class here checks its
integer arguments where they enter: bools and floats raise ``TypeError``,
out-of-range values ``ValueError``.

Everything here is verified as an exact identity of rational functions; the
verification reports never rely on numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import rref
from .polys import Poly, RatFunc, _int, _laurent, _monomial, _unit
from .ratmaps import RationalMap


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class Report:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            c.name: ("pass" if c.passed else {"fail": c.witness or "mismatch"})
            for c in sorted(self.checks, key=lambda c: c.name)
        }


def _chart_vars(n):
    return tuple("u%d" % i for i in range(1, n + 3))

def _base_vars(n):
    return tuple("t%d" % i for i in range(1, n + 2))

def _torus_params(n):
    return tuple("sigma%d" % i for i in range(1, n + 1))


def _monomial_map(source_vars, rows, params=()):
    """The map whose components are the Laurent monomials x^row, each row
    an exponent vector over ``source_vars + params``."""
    return RationalMap(source_vars, [_monomial(row) for row in rows], params)


def _identity_rows(m):
    """The exponent rows of the identity of an m-symbol frame, to be edited
    into a chart formula."""
    return [_unit(m, i) for i in range(m)]


def _sigma_ratio(n, up, down):
    """The exponents of sigma_up / sigma_down over sigma_1..sigma_n, with
    the boundary convention sigma_0 = sigma_{n+1} = 1."""
    exp = [0] * n
    if 1 <= up <= n:
        exp[up - 1] += 1
    if 1 <= down <= n:
        exp[down - 1] -= 1
    return exp


def _base_scaling(n, count, shift):
    """The rank-n torus on t_1..t_count, scaling t_i by
    sigma_{i+shift} / sigma_{i+shift-1}."""
    rows = [
        _unit(count, i - 1) + _sigma_ratio(n, i + shift, i + shift - 1)
        for i in range(1, count + 1)
    ]
    t_names = tuple("t%d" % i for i in range(1, count + 1))
    return _monomial_map(t_names, rows, _torus_params(n))


class GammaAtlas:
    """Charts, projections, torus actions and transitions of ``Gamma(n)``."""

    def __init__(self, n, transitions=None):
        if _int(n, "n") < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        self.chart_vars = _chart_vars(n)
        self.base_vars = _base_vars(n)
        self.params = _torus_params(n)
        if transitions is None:
            transitions = tuple(self._transition(l) for l in range(1, n + 1))
        self.transitions = tuple(transitions)

    # projections and actions are built on first use: splice checks read
    # only the projections
    @cached_property
    def projections(self):
        return tuple(self._projection(l) for l in range(1, self.n + 2))

    @cached_property
    def actions(self):
        return tuple(self._action(l) for l in range(1, self.n + 2))

    @cached_property
    def base_action(self):
        return _base_scaling(self.n, self.n + 1, 0)

    # ----------------------------------------------- formulas, as exponents
    def _projection(self, l):
        # t_l = u_l u_{l+1}; the other t take the other u in order
        rows = _identity_rows(self.n + 2)
        rows[l - 1][l] = 1
        del rows[l]
        return _monomial_map(self.chart_vars, rows)

    def _action(self, l):
        # u_j scales by sigma_j / sigma_{j-1} before the slot and by
        # sigma_{j-1} / sigma_{j-2} after it; u_l and u_{l+1} split
        # sigma_l / sigma_{l-1} into 1/sigma_{l-1} and sigma_l
        ratios = (
            [(j, j - 1) for j in range(1, l)]
            + [(0, l - 1), (l, 0)]
            + [(j, j - 1) for j in range(l + 1, self.n + 2)]
        )
        rows = [
            row + _sigma_ratio(self.n, *ratio)
            for row, ratio in zip(_identity_rows(self.n + 2), ratios)
        ]
        return _monomial_map(self.chart_vars, rows, self.params)

    def _transition(self, l):
        # u_{l+1} is inverted; u_l and u_{l+2} take a factor u_{l+1}
        rows = _identity_rows(self.n + 2)
        rows[l - 1][l] = rows[l + 1][l] = 1
        rows[l][l] = -1
        return _monomial_map(self.chart_vars, rows)

    # ------------------------------------------------------------ accessors
    @staticmethod
    def _index(l, top):
        """l - 1 for an int l in 1..top: TypeError for a bool or a non-int,
        ValueError outside the range."""
        if not 1 <= _int(l, "l") <= top:
            raise ValueError("l out of range")
        return l - 1

    def projection(self, l):
        return self.projections[self._index(l, self.n + 1)]

    def action(self, l):
        return self.actions[self._index(l, self.n + 1)]

    def transition(self, l):
        return self.transitions[self._index(l, self.n)]

    def with_transition(self, l, rmap):
        """Copy of the atlas with transition l replaced (negative controls)."""
        ts = list(self.transitions)
        ts[self._index(l, self.n)] = rmap
        return GammaAtlas(self.n, tuple(ts))

    def sigma_exponent(self, chart, coord, sig_index):
        """Exponent of sigma_{sig_index} on coordinate ``coord`` of the chart
        action (the action is by Laurent monomials, so this is well defined).
        """
        n = self.n
        if not (
            1 <= _int(chart, "chart") <= n + 1
            and 1 <= _int(coord, "coord") <= n + 2
            and 1 <= _int(sig_index, "sigma index") <= n
        ):
            raise ValueError("chart, coordinate or sigma index out of range")
        form = _laurent(self.actions[chart - 1].components[coord - 1])
        if form is None:
            raise ValueError("action component is not a sigma-monomial")
        _, p, q = form
        pos = len(self.chart_vars) + sig_index - 1
        return p[pos] - q[pos]


def gamma_atlas(n, bound=8):
    """Atlas of ``Gamma(n)``; n = 0 is the single-chart model u1*u2 = t1."""
    if _int(n, "n") > _int(bound, "bound"):
        raise ValueError("n exceeds the configured bound %d" % bound)
    return GammaAtlas(n)


# ---------------------------------------------------------------------------
# atlas verification
# ---------------------------------------------------------------------------


def _check_equal(name, f, g):
    w = f.difference(g)
    return CheckResult(name, w is None, w)


def _check_zero(name, f):
    zero = f.is_zero()
    return CheckResult(name, zero, None if zero else repr(f))


def verify_atlas(atlas):
    """Exact verification of every structural identity of the atlas."""
    n = atlas.n
    checks = []

    def add_equal(name, f, g):
        checks.append(_check_equal(name, f, g))

    # projection compatibility: pi_{l+1} after T_l = pi_l
    for l in range(1, n + 1):
        add_equal(
            "projection_transition_compat_l%d" % l,
            atlas.projection(l + 1).compose(atlas.transition(l)),
            atlas.projection(l),
        )

    # transition consistency: each T_l is its own inverse on the overlap and
    # every chain of adjacent transitions is invertible by the reverse chain.
    # Each chain is built once: backward[a, b] = T_a after ... after T_{b-1}
    # grows downward from the end b, the forward chain T_{b-1} after ...
    # after T_a grows upward from the start a.
    ident = RationalMap.identity(atlas.chart_vars)
    for l in range(1, n + 1):
        add_equal(
            "transition_involution_l%d" % l,
            atlas.transition(l).compose(atlas.transition(l)),
            ident,
        )
    backward = {}
    for b in range(2, n + 2):
        chain = ident
        for a in range(b - 1, 0, -1):
            chain = atlas.transition(a).compose(chain)
            backward[a, b] = chain
    for a in range(1, n + 1):
        forward = ident
        for b in range(a + 1, n + 2):
            forward = atlas.transition(b - 1).compose(forward)
            add_equal(
                "transition_cocycle_%d_to_%d" % (a, b),
                backward[a, b].compose(forward),
                ident,
            )

    # base equivariance: pi_l(u^sigma) = (pi_l(u))^sigma
    for l in range(1, n + 2):
        add_equal(
            "base_equivariance_l%d" % l,
            atlas.projection(l).compose(atlas.action(l)),
            atlas.base_action.compose(atlas.projection(l)),
        )

    # action/transition compatibility: T_l(u^sigma) = (T_l(u))^sigma
    for l in range(1, n + 1):
        add_equal(
            "action_transition_compat_l%d" % l,
            atlas.transition(l).compose(atlas.action(l)),
            atlas.action(l + 1).compose(atlas.transition(l)),
        )

    # the total multiplication map t1*...*t{n+1} pulls back to the full
    # coordinate product in every chart
    full = _monomial([1] * (n + 2))
    for l in range(1, n + 2):
        prod = _monomial([0] * (n + 2))
        for comp in atlas.projection(l).components:
            prod = prod * comp
        ok = prod.same(full)
        checks.append(
            CheckResult(
                "total_product_chart_independent_l%d" % l,
                ok,
                None if ok else prod.render(atlas.chart_vars),
            )
        )

    # single-factor support: sigma_l moves exactly the bubble coordinate
    # u_{l+1} of charts U_l and U_{l+1}; the fiber axes of every other chart
    # are sigma_l-invariant
    for sig in range(1, n + 1):
        ok = True
        witness = None
        for chart in range(1, n + 2):
            for coord in (chart, chart + 1):
                e = atlas.sigma_exponent(chart, coord, sig)
                expected = coord == sig + 1 and chart in (sig, sig + 1)
                if (e != 0) != expected:
                    ok = False
                    witness = "chart %d coord %d exponent %d" % (chart, coord, e)
        checks.append(
            CheckResult("single_factor_support_sigma%d" % sig, ok, witness)
        )
    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# the fourfold quadric resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourfoldResolution:
    """Charted small resolution of the quadric fourfold z1 z2 = t1 t2."""

    quadric_param: RationalMap
    resolution: RationalMap          # homogeneous form of ([b], e1, e2) -> (z, t)
    chart_b1: RationalMap            # chart b = [b0, 1]
    chart_b0: RationalMap            # chart b = [1, b1]
    bundle_transition: RationalMap   # (b0, e1, e2) -> (1/b0, e1 b0, e2 b0)
    contraction: RationalMap         # ([a], [b], zeta) -> ([b], a0 zeta, a1 zeta)
    base_projection: RationalMap     # ([b], e1, e2) -> (t1, t2)


def fourfold_resolution():
    return FourfoldResolution(
        quadric_param=_monomial_map(
            ("a0", "a1", "b0", "b1"),
            [(1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1)],
        ),
        resolution=_monomial_map(
            ("b0", "b1", "e1", "e2"),
            [(0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1)],
        ),
        chart_b1=_monomial_map(
            ("b0", "e1", "e2"), [(0, 1, 0), (1, 0, 1), (1, 1, 0), (0, 0, 1)]
        ),
        chart_b0=_monomial_map(
            ("b1", "e1", "e2"), [(1, 1, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1)]
        ),
        bundle_transition=_monomial_map(
            ("b0", "e1", "e2"), [(-1, 0, 0), (1, 1, 0), (1, 0, 1)]
        ),
        contraction=_monomial_map(
            ("a0", "a1", "b0", "b1", "zeta"),
            [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 1), (0, 1, 0, 0, 1)],
        ),
        base_projection=_monomial_map(
            ("b0", "b1", "e1", "e2"), [(1, 0, 1, 0), (0, 1, 0, 1)]
        ),
    )


def verify_resolution(res=None):
    """All exact identities of the resolution package, plus the incidence
    pattern of the four axis proper transforms on the exceptional curve."""
    if res is None:
        res = fourfold_resolution()
    checks = []

    def quadric_pullback(m):
        z1, z2, t1, t2 = m.components
        return z1 * z2 - t1 * t2

    for name, m in (
        ("resolution_kills_quadric_homogeneous", res.resolution),
        ("resolution_kills_quadric_chart_b1", res.chart_b1),
        ("resolution_kills_quadric_chart_b0", res.chart_b0),
    ):
        checks.append(_check_zero(name, quadric_pullback(m)))

    w1, w2, w3, w4 = res.quadric_param.components
    checks.append(_check_zero("parametrization_on_quadric", w1 * w2 - w3 * w4))

    checks.append(
        _check_equal(
            "chart_compatibility_via_bundle_transition",
            res.chart_b0.compose(res.bundle_transition),
            res.chart_b1,
        )
    )

    # blowup projection factors through the contraction
    blowup = _monomial_map(
        ("a0", "a1", "b0", "b1", "zeta"),
        [(1, 0, 0, 1, 1), (0, 1, 1, 0, 1), (1, 0, 1, 0, 1), (0, 1, 0, 1, 1)],
    )
    checks.append(
        _check_equal(
            "contraction_compatibility",
            res.resolution.compose(res.contraction),
            blowup,
        )
    )

    checks.append(
        _check_equal(
            "base_projection_is_t_part",
            RationalMap(
                ("b0", "b1", "e1", "e2"), list(res.resolution.components[2:])
            ),
            res.base_projection,
        )
    )

    # axis incidence: in the chart b = [0, 1] the proper transforms of the
    # z1-axis (e2 = 0) and the t2-axis (e1 = 0) meet the exceptional curve at
    # the origin; mirror pattern for z2/t1 in the chart b = [1, 0]
    free, zero = _monomial((1,)), RatFunc.const(1, 0)

    def axis_preimage_check(name, chart, fix_zero, axis_coord):
        # parametrize (b=0, one e free); the image must lie on the named axis
        values = [zero if v in fix_zero else free for v in chart.source_vars]
        img = [c.substitute(values) for c in chart.components]
        ok = True
        for i, comp in enumerate(img):
            if i == axis_coord:
                ok = ok and comp.same(free)
            else:
                ok = ok and comp.is_zero()
        return CheckResult(name, ok, None if ok else str([repr(c) for c in img]))

    checks.append(
        axis_preimage_check(
            "z1_axis_meets_exceptional_at_b01", res.chart_b1, {"b0", "e2"}, 0
        )
    )
    checks.append(
        axis_preimage_check(
            "t2_axis_meets_exceptional_at_b01", res.chart_b1, {"b0", "e1"}, 3
        )
    )
    checks.append(
        axis_preimage_check(
            "z2_axis_meets_exceptional_at_b10", res.chart_b0, {"b1", "e1"}, 1
        )
    )
    checks.append(
        axis_preimage_check(
            "t1_axis_meets_exceptional_at_b10", res.chart_b0, {"b1", "e2"}, 2
        )
    )

    # cross pattern is empty: away from the exceptional locus the z1-axis
    # preimage forces e1 = 0 in the chart b = [1, 0] and then z1 itself dies
    z1_comp, z2_comp, t1_comp, t2_comp = res.chart_b0.components
    forced = [free, zero, zero]  # e1 = e2 = 0 (t1 = z2 = 0 forced)
    checks.append(_check_zero("z1_axis_misses_chart_b10", z1_comp.substitute(forced)))
    checks.append(
        _check_zero(
            "z2_axis_misses_chart_b01", res.chart_b1.components[1].substitute(forced)
        )
    )
    return res, Report(tuple(checks))


# ---------------------------------------------------------------------------
# standard embeddings and coordinate planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardEmbedding:
    """Subset data for an affine-space embedding with unit or zero filling."""

    ambient: int          # dimension n+1 of the target
    subset: tuple         # strictly increasing entries in 1..ambient
    unit_fill: bool = True

    def __post_init__(self):
        _int(self.ambient, "ambient")
        I = tuple(_int(i, "subset entry") for i in self.subset)
        if not I:
            raise ValueError("subset must be nonempty")
        if list(I) != sorted(set(I)) or I[0] < 1 or I[-1] > self.ambient:
            raise ValueError("subset must be strictly increasing inside the ambient range")
        object.__setattr__(self, "subset", I)


def standard_embedding(emb):
    """The embedding map: z_k goes to slot I(k); other slots carry 1 or 0."""
    m = len(emb.subset)
    fill = RatFunc.const(m, 1 if emb.unit_fill else 0)
    pos = {slot: k for k, slot in enumerate(emb.subset)}
    comps = [
        _monomial(_unit(m, pos[slot])) if slot in pos else fill
        for slot in range(1, emb.ambient + 1)
    ]
    return RationalMap(tuple("z%d" % k for k in range(1, m + 1)), comps)


# ---------------------------------------------------------------------------
# torus reparametrizations of missing coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusHom:
    """Subtorus G_m^k -> G_m^n placing the i-th parameter on component j_i.

    ``slots`` must lie in 1..n; components outside the slots are 1.
    """

    target_rank: int
    slots: tuple

    def __post_init__(self):
        _int(self.target_rank, "target rank")
        J = tuple(_int(j, "slot") for j in self.slots)
        if list(J) != sorted(set(J)):
            raise ValueError("slots must be strictly increasing")
        if J and (J[0] < 1 or J[-1] > self.target_rank):
            raise ValueError("slots out of range")
        object.__setattr__(self, "slots", J)

    @property
    def source_rank(self):
        return len(self.slots)

    def component_exponents(self):
        """Row m (1..target_rank): exponent vector of component m in the
        source parameters."""
        rows = []
        for m in range(1, self.target_rank + 1):
            row = [0] * self.source_rank
            if m in self.slots:
                row[self.slots.index(m)] = 1
            rows.append(row)
        return rows


def _lambda_component_exponents(n, complement):
    """Exponent matrix of the reparametrizing subtorus for a missing-slot set
    ``complement`` inside 1..n+1.

    Entries <= n follow the one-parameter-per-component rule of
    :class:`TorusHom`; a missing last slot n+1 is swept by the inverse
    diagonal one-parameter subgroup, which rescales every component.
    """
    J = tuple(complement)
    r = len(J)
    rows = [[0] * r for _ in range(n)]
    for i, j in enumerate(J):
        if j <= n:
            rows[j - 1][i] = 1
        else:
            for m in range(n):
                rows[m][i] -= 1
    return rows


def principal_chart_map(n, subset, exponents=None):
    """The action-of-embedded-chart map Psi(sigma, z) in coordinates.

    subset I (size l+1) fixes the unit-fill embedding; the complement slots
    are swept by the reparametrizing subtorus, whose component exponents
    are ``exponents`` (n rows of one int per complement slot; by default
    those of :func:`_lambda_component_exponents`).  Returns (Psi,
    complement).
    """
    emb = StandardEmbedding(_int(n, "n") + 1, subset, True)
    I = emb.subset
    complement = tuple(j for j in range(1, n + 2) if j not in I)
    r = len(complement)
    if exponents is None:
        exponents = _lambda_component_exponents(n, complement)
    else:
        exponents = [[_int(e, "exponent") for e in row] for row in exponents]
        if len(exponents) != n or any(len(row) != r for row in exponents):
            raise ValueError("exponents must be %d rows of length %d" % (n, r))
    sig_names = tuple("sigma%d" % i for i in range(1, r + 1))
    z_names = tuple("z%d" % k for k in range(1, len(I) + 1))

    # slot s carries the image subtorus element's bar factor, row s minus
    # row s - 1 of the exponents (rows 0 and n + 1 are zero), times z at
    # the slots of I
    padded = [[0] * r] + exponents + [[0] * r]
    pos = {slot: k for k, slot in enumerate(I)}
    rows = []
    for slot in range(1, n + 2):
        row = [a - b for a, b in zip(padded[slot], padded[slot - 1])] + [0] * len(I)
        if slot in pos:
            row[r + pos[slot]] = 1
        rows.append(row)
    return _monomial_map(sig_names + z_names, rows), complement


def verify_principal_chart(n, subset, exponents=None):
    """Build Psi for the subset and solve for its rational inverse on the
    locus where the complement coordinates are invertible.

    Returns (report, Psi, inverse or None).  The inverse is found by exact
    integer linear algebra on the Laurent exponents of the complement
    components, then checked by symbolic composition both ways.
    """
    psi, complement = principal_chart_map(n, subset, exponents)
    I = tuple(subset)
    r = len(complement)
    checks = []
    w_names = tuple("w%d" % i for i in range(1, n + 2))
    nvars = n + 1

    if r == 0:
        inverse = _monomial_map(w_names, _identity_rows(nvars))
        checks.append(
            _check_equal(
                "inverse_after_psi",
                inverse.compose(psi),
                RationalMap.identity(psi.source_vars),
            )
        )
        return Report(tuple(checks)), psi, inverse

    # the sigma exponents of every component, read from its Laurent form;
    # every component is a monomial of _monomial_map
    sigma_exps = [
        [a - b for a, b in zip(p[:r], q[:r])]
        for _, p, q in map(_laurent, psi.components)
    ]
    rows = [sigma_exps[j - 1] for j in complement]
    # this check cannot fail, but its line is part of the report's output
    checks.append(CheckResult("complement_components_are_monomials", True, None))
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if k == i else 0) for k in range(r)]
        for i, row in enumerate(rows)
    ]
    echelon, pivots = rref(aug)
    invertible = pivots == list(range(r)) and len(echelon) == r
    inverse_entries = None
    if invertible:
        inverse_entries = [[echelon[i][r + k] for k in range(r)] for i in range(r)]
        integral = all(x.denominator == 1 for row in inverse_entries for x in row)
        invertible = integral
    checks.append(
        CheckResult(
            "exponent_matrix_unimodular",
            bool(invertible),
            None if invertible else "sigma exponents not invertibly solvable",
        )
    )
    if not invertible:
        return Report(tuple(checks)), psi, None

    # sigma_i = prod_k w_{complement_k}^(inverse entry i, k), and z at slot s
    # is w_s over the bar factor of slot s evaluated at that sigma
    sigma_rows = []
    for entries in inverse_entries:
        row = [0] * nvars
        for j, e in zip(complement, entries):
            row[j - 1] = int(e)
        sigma_rows.append(row)
    z_rows = []
    for slot in I:
        row = _unit(nvars, slot - 1)
        for b, sigma in zip(sigma_exps[slot - 1], sigma_rows):
            row = [x - b * y for x, y in zip(row, sigma)]
        z_rows.append(row)
    inverse = _monomial_map(w_names, sigma_rows + z_rows)

    checks.append(
        _check_equal(
            "inverse_after_psi",
            inverse.compose(psi),
            RationalMap.identity(psi.source_vars),
        )
    )
    checks.append(
        _check_equal(
            "psi_after_inverse",
            psi.compose(inverse),
            RationalMap.identity(w_names),
        )
    )
    return Report(tuple(checks)), psi, inverse


# ---------------------------------------------------------------------------
# relative torus actions
# ---------------------------------------------------------------------------


def relative_action(n, reversed_order=False):
    """Torus action on the base of the n-step relative model.

    Non-reversed: t_i scales by sigma_{i+1}/sigma_i; the equivariant
    embedding into the (n+1)-base places the relative base at slots 2..n+1.
    Reversed: t_i scales by sigma_i/sigma_{i-1}; the embedding keeps slots
    1..n.  Returns (action_map, report).
    """
    if _int(n, "n") < 1:
        raise ValueError("n must be at least 1")
    action = _base_scaling(n, n, 0 if reversed_order else 1)
    t_names = action.source_vars
    big = _base_scaling(n, n + 1, 0)
    zero = RatFunc.const(n, 0)
    ts = [_monomial(row) for row in _identity_rows(n)]
    emb_comps = ts + [zero] if reversed_order else [zero] + ts
    embedding = RationalMap(t_names, emb_comps)
    report = Report(
        (
            _check_equal(
                "hyperplane_embedding_equivariance",
                embedding.compose(action),
                big.compose(embedding),
            ),
        )
    )
    return action, report


# ---------------------------------------------------------------------------
# splice decomposition of the vanishing locus of one base coordinate
# ---------------------------------------------------------------------------


def _restrict_transition(trans, n, deleted):
    """Restriction of a chart transition to {u_deleted = 0}, with the deleted
    coordinate removed on both sides.  Requires the deleted target component
    to vanish on the locus; returns None if it does not."""
    m = n + 2
    kept = [i for i in range(1, m + 1) if i != deleted]
    values = [_monomial(row) for row in _identity_rows(m - 1)]
    values.insert(deleted - 1, RatFunc.const(m - 1, 0))
    comps = [c.substitute(values) for c in trans.components]
    if not comps[deleted - 1].is_zero():
        return None
    kept_comps = [comps[i - 1] for i in kept]
    return RationalMap(tuple("v%d" % i for i in range(1, m)), kept_comps)


def _extended_transition(inner_atlas, j, lead, total_vars):
    """inner transition T'_j extended by identity on ``lead`` leading
    coordinates, as a map on total_vars variables."""
    inner = inner_atlas.transition(j)
    shifted = range(lead, lead + inner.arity_in)
    comps = [_monomial(_unit(total_vars, i)) for i in range(lead)]
    comps += [c.rename(total_vars, shifted) for c in inner.components]
    return RationalMap(tuple("v%d" % i for i in range(1, total_vars + 1)), comps)


def _mirror_map(rmap, n):
    """Conjugate a chart self-map by the coordinate reversal u_i -> u_{m+1-i}."""
    m = n + 2
    comps = [c.rename(m, range(m - 1, -1, -1)) for c in reversed(rmap.components)]
    return RationalMap(rmap.source_vars, comps)


def splice_check(n, l):
    """Chart-level verification that {t_l = 0} splits into two expanded
    models glued along the l-th node locus.

    Checks, all exact: the pullback of t_l is the expected chart monomial;
    the two loci map into themselves under the transitions; the restricted
    transitions on the right piece reproduce the (n-l)-model extended by the
    untouched leading base directions; the atlas is mirror symmetric and the
    left piece reproduces the (l-1)-model in reversed order through the
    mirror.
    """
    _int(n, "n")
    if not 1 <= _int(l, "l") <= n + 1:
        raise ValueError("l out of range")
    atlas = gamma_atlas(n)
    m = n + 2
    checks = []

    # expected pullback monomials
    for j in range(1, n + 2):
        proj = atlas.projection(j).components[l - 1]
        if j == l:
            expect = _monomial(_unit(m, l - 1, l))
        elif j < l:
            expect = _monomial(_unit(m, l))
        else:
            expect = _monomial(_unit(m, l - 1))
        ok = proj.same(expect)
        checks.append(
            CheckResult(
                "pullback_monomial_chart%d" % j,
                ok,
                None if ok else proj.render(atlas.chart_vars),
            )
        )

    # locus stability under the transitions: left locus {u_{l+1} = 0} lives
    # in charts 1..l, right locus {u_l = 0} in charts l..n+1
    for side, charts, deleted in (
        ("left", range(1, l), l + 1),
        ("right", range(l, n + 1), l),
    ):
        for j in charts:
            kept = _restrict_transition(atlas.transition(j), n, deleted) is not None
            checks.append(
                CheckResult(
                    "%s_locus_preserved_T%d" % (side, j),
                    kept,
                    None if kept else "locus not preserved",
                )
            )
    # the left locus closes off in chart l: T_l inverts u_{l+1}
    if l <= n:
        den = atlas.transition(l).components[l].den
        closes = den == Poly.monomial(_unit(m, l))
        checks.append(
            CheckResult(
                "left_piece_closed_in_chart%d" % l,
                closes,
                None if closes else den.render(atlas.chart_vars),
            )
        )

    def right_piece_checks(base_atlas, split_l, tag):
        out = []
        nn = base_atlas.n
        if split_l <= nn:
            inner = gamma_atlas(nn - split_l)
            for j in range(split_l + 1, nn + 1):
                restricted = _restrict_transition(base_atlas.transition(j), nn, split_l)
                expected = _extended_transition(inner, j - split_l, split_l - 1, nn + 1)
                if restricted is None:
                    out.append(CheckResult("%s_transition_T%d" % (tag, j), False, "locus lost"))
                else:
                    out.append(
                        _check_equal("%s_transition_T%d" % (tag, j), restricted, expected)
                    )
            # boundary chart: the extra inversion chart attached to the model
            restricted = _restrict_transition(base_atlas.transition(split_l), nn, split_l)
            if restricted is None:
                out.append(CheckResult("%s_boundary_chart" % tag, False, "locus lost"))
            else:
                # v_{split_l} is inverted and v_{split_l+1}, if there is
                # one, takes a factor v_{split_l}
                mm = nn + 1
                rows = _identity_rows(mm)
                rows[split_l - 1][split_l - 1] = -1
                if split_l < mm:
                    rows[split_l][split_l - 1] = 1
                expected = _monomial_map(tuple("v%d" % i for i in range(1, mm + 1)), rows)
                out.append(_check_equal("%s_boundary_chart" % tag, restricted, expected))
        return out

    checks.extend(right_piece_checks(atlas, l, "right_piece"))

    # mirror symmetry of the whole atlas: reversing coordinates and chart
    # order carries T_j to T_{n+1-j}
    mirror_ok = True
    witness = None
    for j in range(1, n + 1):
        w = _mirror_map(atlas.transition(j), n).difference(atlas.transition(n + 1 - j))
        if w is not None:
            mirror_ok = False
            witness = "T%d: %s" % (j, w)
    checks.append(CheckResult("mirror_symmetry", mirror_ok, witness))

    # coordinate reversal carries the left piece at node l to the right piece
    # at node n+2-l, so with the symmetry established the same checks apply
    checks.extend(right_piece_checks(atlas, n + 2 - l, "left_piece_mirrored"))

    # gluing locus: both loci meet chart l in the node locus
    # {u_l = u_{l+1} = 0}, which the projection carries onto {t_l = 0} with
    # the other n base coordinates free
    values = [_monomial(row) for row in _identity_rows(m)]
    values[l - 1] = values[l] = RatFunc.const(m, 0)
    image = [c.substitute(values) for c in atlas.projection(l).components]
    free = {c.bare_variable() for k, c in enumerate(image) if k != l - 1}
    glued = image[l - 1].is_zero() and None not in free and len(free) == n
    checks.append(
        CheckResult(
            "gluing_locus_in_chart%d" % l,
            glued,
            None if glued else "(%s)" % ", ".join(c.render(atlas.chart_vars) for c in image),
        )
    )
    return Report(tuple(checks))
