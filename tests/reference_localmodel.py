"""Reference copies of the chart formulas of ``degkit.localmodel``.

These follow the local model as it was written before its formulas were
built from exponent vectors: every chart formula is a product of bare
variables and torus parameters, each a separately reduced ``RatFunc``, and
the chart inverses are products of powers of such fractions.  The splice
check is copied whole and runs on the reference atlas.  They use the
library's ``Poly``, ``RatFunc`` and ``RationalMap`` and serve the tests as
an oracle for the stored forms of the formulas.
"""

from fractions import Fraction

from degkit.linalg import rref
from degkit.localmodel import CheckResult
from degkit.polys import Poly, RatFunc
from degkit.ratmaps import RationalMap


def _var(nvars, i):
    return RatFunc(Poly.var(nvars, i))


def _one(nvars):
    return RatFunc(Poly.one(nvars))


def _zero(nvars):
    return RatFunc(Poly.const(nvars, 0))


def _names(prefix, count):
    return tuple("%s%d" % (prefix, i) for i in range(1, count + 1))


def _sigma(n, nvars, offset, i):
    """sigma_i at ``offset``; sigma_0 = sigma_{n+1} = 1."""
    if i == 0 or i == n + 1:
        return _one(nvars)
    return _var(nvars, offset + i - 1)


def _power_product(nvars, factors):
    out = _one(nvars)
    for f, e in factors:
        if e:
            out = out * f**e
    return out


def ref_base_scaling(n, count, shift):
    """t_i -> t_i * sigma_{i+shift} / sigma_{i+shift-1}, i = 1..count."""
    m = count + n
    comps = [
        _sigma(n, m, count, i + shift) / _sigma(n, m, count, i + shift - 1) * _var(m, i - 1)
        for i in range(1, count + 1)
    ]
    return RationalMap(_names("t", count), comps, _names("sigma", n))


class RefAtlas:
    """Projections, actions, transitions and base action of Gamma(n)."""

    def __init__(self, n):
        self.n = n
        self.chart_vars = _names("u", n + 2)
        self.params = _names("sigma", n)
        self.projections = tuple(self._projection(l) for l in range(1, n + 2))
        self.actions = tuple(self._action(l) for l in range(1, n + 2))
        self.transitions = tuple(self._transition(l) for l in range(1, n + 1))
        self.base_action = ref_base_scaling(n, n + 1, 0)

    def projection(self, l):
        return self.projections[l - 1]

    def transition(self, l):
        return self.transitions[l - 1]

    def _sigma_bar(self, nvars, i):
        c = len(self.chart_vars)
        return _sigma(self.n, nvars, c, i) / _sigma(self.n, nvars, c, i - 1)

    def _projection(self, l):
        m = self.n + 2
        comps = []
        for t in range(1, self.n + 2):
            if t < l:
                comps.append(_var(m, t - 1))
            elif t == l:
                comps.append(_var(m, l - 1) * _var(m, l))
            else:
                comps.append(_var(m, t))
        return RationalMap(self.chart_vars, comps)

    def _action(self, l):
        c = len(self.chart_vars)
        m = c + len(self.params)
        comps = []
        for j in range(1, self.n + 3):
            u = _var(m, j - 1)
            if j <= l - 1:
                comps.append(self._sigma_bar(m, j) * u)
            elif j == l:
                comps.append(u / _sigma(self.n, m, c, l - 1))
            elif j == l + 1:
                comps.append(_sigma(self.n, m, c, l) * u)
            else:
                comps.append(self._sigma_bar(m, j - 1) * u)
        return RationalMap(self.chart_vars, comps, self.params)

    def _transition(self, l):
        m = self.n + 2
        comps = []
        for j in range(1, self.n + 3):
            if j == l:
                comps.append(_var(m, l - 1) * _var(m, l))
            elif j == l + 1:
                comps.append(_one(m) / _var(m, l))
            elif j == l + 2:
                comps.append(_var(m, l + 1) * _var(m, l))
            else:
                comps.append(_var(m, j - 1))
        return RationalMap(self.chart_vars, comps)


def ref_resolution_maps():
    """The seven maps of ``fourfold_resolution()`` in field order, then the
    blow-up map of ``verify_resolution``."""
    V = _var
    return [
        RationalMap(
            ("a0", "a1", "b0", "b1"),
            [V(4, 0) * V(4, 3), V(4, 1) * V(4, 2), V(4, 0) * V(4, 2), V(4, 1) * V(4, 3)],
        ),
        RationalMap(
            ("b0", "b1", "e1", "e2"),
            [V(4, 1) * V(4, 2), V(4, 0) * V(4, 3), V(4, 0) * V(4, 2), V(4, 1) * V(4, 3)],
        ),
        RationalMap(
            ("b0", "e1", "e2"),
            [V(3, 1), V(3, 0) * V(3, 2), V(3, 0) * V(3, 1), V(3, 2)],
        ),
        RationalMap(
            ("b1", "e1", "e2"),
            [V(3, 0) * V(3, 1), V(3, 2), V(3, 1), V(3, 0) * V(3, 2)],
        ),
        RationalMap(
            ("b0", "e1", "e2"),
            [_one(3) / V(3, 0), V(3, 1) * V(3, 0), V(3, 2) * V(3, 0)],
        ),
        RationalMap(
            ("a0", "a1", "b0", "b1", "zeta"),
            [V(5, 2), V(5, 3), V(5, 0) * V(5, 4), V(5, 1) * V(5, 4)],
        ),
        RationalMap(
            ("b0", "b1", "e1", "e2"),
            [V(4, 0) * V(4, 2), V(4, 1) * V(4, 3)],
        ),
        RationalMap(
            ("a0", "a1", "b0", "b1", "zeta"),
            [
                RatFunc(Poly.var(5, 0) * Poly.var(5, 3) * Poly.var(5, 4)),
                RatFunc(Poly.var(5, 1) * Poly.var(5, 2) * Poly.var(5, 4)),
                RatFunc(Poly.var(5, 0) * Poly.var(5, 2) * Poly.var(5, 4)),
                RatFunc(Poly.var(5, 1) * Poly.var(5, 3) * Poly.var(5, 4)),
            ],
        ),
    ]


def ref_lambda_exponents(n, complement):
    rows = [[0] * len(complement) for _ in range(n)]
    for i, j in enumerate(complement):
        if j <= n:
            rows[j - 1][i] = 1
        else:
            for m in range(n):
                rows[m][i] -= 1
    return rows


def _bar_exponents(exponents, n, r, slot):
    top = exponents[slot - 1] if slot <= n else [0] * r
    bot = exponents[slot - 2] if slot >= 2 else [0] * r
    return [a - b for a, b in zip(top, bot)]


def _laurent_exponent(f, pos):
    nums = {e[pos] for e in f.num.terms}
    dens = {e[pos] for e in f.den.terms}
    if len(nums) != 1 or len(dens) != 1:
        return None
    return nums.pop() - dens.pop()


def ref_principal_chart(n, subset, exponents=None):
    """(Psi, inverse or None) of ``verify_principal_chart``."""
    I = tuple(subset)
    complement = tuple(j for j in range(1, n + 2) if j not in I)
    r = len(complement)
    exps = exponents if exponents is not None else ref_lambda_exponents(n, complement)
    m = r + len(I)
    sigmas = [_var(m, i) for i in range(r)]
    pos = {slot: k for k, slot in enumerate(I)}
    comps = []
    for slot in range(1, n + 2):
        factor = _power_product(m, zip(sigmas, _bar_exponents(exps, n, r, slot)))
        comps.append(factor * _var(m, r + pos[slot]) if slot in pos else factor)
    psi = RationalMap(_names("sigma", r) + _names("z", len(I)), comps)

    w_names = _names("w", n + 1)
    nvars = n + 1
    if r == 0:
        return psi, RationalMap(w_names, [_var(nvars, k) for k in range(len(I))])
    rows = [
        [_laurent_exponent(psi.components[j - 1], i) or 0 for i in range(r)]
        for j in complement
    ]
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if k == i else 0) for k in range(r)]
        for i, row in enumerate(rows)
    ]
    echelon, pivots = rref(aug)
    if pivots != list(range(r)) or len(echelon) != r:
        return psi, None
    entries = [[echelon[i][r + k] for k in range(r)] for i in range(r)]
    if any(x.denominator != 1 for row in entries for x in row):
        return psi, None
    ws = [_var(nvars, j - 1) for j in complement]
    sigma_sol = [_power_product(nvars, zip(ws, map(int, row))) for row in entries]
    z_sol = [
        _var(nvars, slot - 1)
        / _power_product(nvars, zip(sigma_sol, _bar_exponents(exps, n, r, slot)))
        for slot in I
    ]
    return psi, RationalMap(w_names, sigma_sol + z_sol)


def ref_relative_action(n, reversed_order=False):
    """(action, the two maps compared by its equivariance check)."""
    action = ref_base_scaling(n, n, 0 if reversed_order else 1)
    big = ref_base_scaling(n, n + 1, 0)
    vars_ = [_var(n, i) for i in range(n)]
    comps = vars_ + [_zero(n)] if reversed_order else [_zero(n)] + vars_
    embedding = RationalMap(action.source_vars, comps)
    return action, embedding.compose(action), big.compose(embedding)


# ---------------------------------------------------------------------------
# the splice check, on the reference atlas
# ---------------------------------------------------------------------------


def _check_equal(name, f, g):
    w = f.difference(g)
    return CheckResult(name, w is None, w)


def _restrict_transition(trans, n, deleted):
    m = n + 2
    values = []
    pos = 0
    for i in range(1, m + 1):
        if i == deleted:
            values.append(_zero(m - 1))
        else:
            values.append(_var(m - 1, pos))
            pos += 1
    comps = [c.substitute(values) for c in trans.components]
    if not comps[deleted - 1].is_zero():
        return None
    kept = [comps[i - 1] for i in range(1, m + 1) if i != deleted]
    return RationalMap(_names("v", m - 1), kept)


def _extended_transition(inner_atlas, j, lead, total_vars):
    inner = inner_atlas.transition(j)
    shifted = range(lead, lead + len(inner.source_vars))
    comps = [_var(total_vars, i) for i in range(lead)]
    comps += [c.rename(total_vars, shifted) for c in inner.components]
    return RationalMap(_names("v", total_vars), comps)


def _mirror_map(rmap, n):
    m = n + 2
    comps = [c.rename(m, range(m - 1, -1, -1)) for c in reversed(rmap.components)]
    return RationalMap(rmap.source_vars, comps)


def ref_boundary_chart(split_l, mm):
    """The expected restriction of the boundary transition."""
    comps = [_var(mm, i) for i in range(split_l - 1)]
    comps.append(_one(mm) / _var(mm, split_l - 1))
    if split_l < mm:
        comps.append(RatFunc(Poly.var(mm, split_l) * Poly.var(mm, split_l - 1)))
    comps += [_var(mm, i) for i in range(split_l + 1, mm)]
    return RationalMap(_names("v", mm), comps)


def ref_splice_checks(n, l):
    """The checks of ``splice_check(n, l)``, as a tuple of CheckResults."""
    atlas = RefAtlas(n)
    m = n + 2
    checks = []
    for j in range(1, n + 2):
        proj = atlas.projection(j).components[l - 1]
        if j == l:
            expect = RatFunc(Poly.var(m, l - 1) * Poly.var(m, l))
        elif j < l:
            expect = _var(m, l)
        else:
            expect = _var(m, l - 1)
        ok = proj.same(expect)
        checks.append(
            CheckResult(
                "pullback_monomial_chart%d" % j, ok, None if ok else proj.render(atlas.chart_vars)
            )
        )
    for tag, js, deleted in (
        ("left_locus_preserved_T%d", range(1, l), l + 1),
        ("right_locus_preserved_T%d", range(l, n + 1), l),
    ):
        for j in js:
            ok = _restrict_transition(atlas.transition(j), n, deleted) is not None
            checks.append(CheckResult(tag % j, ok, None if ok else "locus not preserved"))
    if l <= n:
        den = atlas.transition(l).components[l].den
        closes = den == Poly.var(m, l)
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
            inner = RefAtlas(nn - split_l)
            for j in range(split_l + 1, nn + 1):
                restricted = _restrict_transition(base_atlas.transition(j), nn, split_l)
                expected = _extended_transition(inner, j - split_l, split_l - 1, nn + 1)
                if restricted is None:
                    out.append(CheckResult("%s_transition_T%d" % (tag, j), False, "locus lost"))
                else:
                    out.append(
                        _check_equal("%s_transition_T%d" % (tag, j), restricted, expected)
                    )
            restricted = _restrict_transition(base_atlas.transition(split_l), nn, split_l)
            if restricted is None:
                out.append(CheckResult("%s_boundary_chart" % tag, False, "locus lost"))
            else:
                out.append(
                    _check_equal(
                        "%s_boundary_chart" % tag, restricted, ref_boundary_chart(split_l, nn + 1)
                    )
                )
        return out

    checks.extend(right_piece_checks(atlas, l, "right_piece"))
    mirror_ok = True
    witness = None
    for j in range(1, n + 1):
        w = _mirror_map(atlas.transition(j), n).difference(atlas.transition(n + 1 - j))
        if w is not None:
            mirror_ok = False
            witness = "T%d: %s" % (j, w)
    checks.append(CheckResult("mirror_symmetry", mirror_ok, witness))
    checks.extend(right_piece_checks(atlas, n + 2 - l, "left_piece_mirrored"))

    values = [_var(m, i) for i in range(m)]
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
    return tuple(checks)
