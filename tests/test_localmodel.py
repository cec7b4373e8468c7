import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from degkit import (
    GammaAtlas,
    Poly,
    RatFunc,
    RationalMap,
    StandardEmbedding,
    TorusHom,
    fourfold_resolution,
    gamma_atlas,
    principal_chart_map,
    relative_action,
    splice_check,
    standard_embedding,
    verify_atlas,
    verify_principal_chart,
    verify_resolution,
)
from degkit.localmodel import CheckResult
import toric_oracle
from reference_localmodel import (
    RefAtlas,
    ref_lambda_exponents,
    ref_principal_chart,
    ref_relative_action,
    ref_resolution_maps,
    ref_splice_checks,
)


def _map(vars_, comps):
    n = len(vars_)
    return RationalMap(vars_, [RatFunc(c) if isinstance(c, Poly) else c for c in comps])


def test_transition_formula_n1():
    at = gamma_atlas(1)
    u1, u2, u3 = (Poly.var(3, i) for i in range(3))
    expected = RationalMap(
        ("u1", "u2", "u3"),
        [RatFunc(u1 * u2), RatFunc(Poly.one(3)) / RatFunc(u2), RatFunc(u3 * u2)],
    )
    assert at.transition(1).equal_on_dense(expected)


def test_projection_and_action_n1():
    at = gamma_atlas(1)
    u1, u2, u3 = (Poly.var(3, i) for i in range(3))
    proj = RationalMap(("u1", "u2", "u3"), [RatFunc(u1 * u2), RatFunc(u3)])
    assert at.projection(1).equal_on_dense(proj)
    # (u1, u2, u3)^sigma = (u1, sigma u2, u3 / sigma)
    comps = at.action(1).components
    names = at.chart_vars + at.params
    assert comps[0].render(names) == "u1"
    assert comps[1].render(names) == "u2*sigma1"
    assert comps[2].render(names) == "(u3)/(sigma1)"


def test_transition_formula_n2_l1():
    at = gamma_atlas(2)
    u = [Poly.var(4, i) for i in range(4)]
    expected = RationalMap(
        ("u1", "u2", "u3", "u4"),
        [
            RatFunc(u[0] * u[1]),
            RatFunc(Poly.one(4)) / RatFunc(u[1]),
            RatFunc(u[2] * u[1]),
            RatFunc(u[3]),
        ],
    )
    assert at.transition(1).equal_on_dense(expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_atlas_identities(n):
    report = verify_atlas(gamma_atlas(n))
    assert report.passed, report.failures()


def test_atlas_identities_at_random_points():
    # independent route: evaluate the chart identities at random rational
    # points instead of comparing symbolically
    import random
    from fractions import Fraction

    rng = random.Random(11)
    at = gamma_atlas(2)
    for _ in range(25):
        pt = [Fraction(rng.randrange(1, 9), rng.randrange(1, 5)) for _ in range(4)]
        moved = [c.substitute([RatFunc(Poly.const(1, v)) for v in pt])
                 for c in at.transition(1).components]
        via = [c.substitute(moved) for c in at.projection(2).components]
        direct = [c.substitute([RatFunc(Poly.const(1, v)) for v in pt])
                  for c in at.projection(1).components]
        for a, b in zip(via, direct):
            assert a.same(b)


def substitute_routes(monkeypatch, call):
    """(Laurent, general): how many ``RatFunc.substitute`` calls made by
    ``call()`` take the Laurent-monomial route and how many fall back."""
    routes = []
    real = RatFunc._substitute_laurent

    def spy(self, vals, arity):
        out = real(self, vals, arity)
        routes.append(out is not None)
        return out

    with monkeypatch.context() as m:
        m.setattr(RatFunc, "_substitute_laurent", spy)
        call()
    return routes.count(True), routes.count(False)


def test_atlas_substitutions_take_the_laurent_route(monkeypatch):
    # transitions, projections and torus actions are Laurent monomial maps,
    # so every substitution of the atlas checks maps monomials to monomials
    for n in range(1, 9):
        laurent, general = substitute_routes(
            monkeypatch, lambda n=n: verify_atlas(gamma_atlas(n))
        )
        assert laurent and not general, (n, laurent, general)
    # the quadric resolution and the splice checks have multi-term inputs
    for call in (verify_resolution, lambda: splice_check(2, 2)):
        laurent, general = substitute_routes(monkeypatch, call)
        assert laurent and general, (laurent, general)


def test_corrupted_transition_detected():
    at = gamma_atlas(2)
    bad = at.with_transition(1, at.transition(2))
    report = verify_atlas(bad)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert any("compat" in x or "cocycle" in x for x in names)


def test_atlas_bound():
    with pytest.raises(ValueError):
        gamma_atlas(9)


@pytest.mark.parametrize("args", [(True,), (2, 2.5)], ids=["bool n", "float bound"])
def test_atlas_refuses_inexact_parameters(args):
    with pytest.raises(TypeError):
        gamma_atlas(*args)


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
def test_atlas_class_refuses_inexact_n(n):
    # GammaAtlas(True) built an atlas with n == True
    with pytest.raises(TypeError):
        GammaAtlas(n)


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
def test_relative_action_refuses_inexact_n(n):
    with pytest.raises(TypeError):
        relative_action(n)


def test_trivial_model():
    at = gamma_atlas(0)
    assert len(at.projections) == 1
    assert at.transitions == ()
    assert verify_atlas(at).passed


# --- resolution of the quadric fourfold -----------------------------------


def test_resolution_report():
    _, report = verify_resolution()
    assert report.passed, report.failures()


def test_resolution_point_evaluation():
    res = fourfold_resolution()
    # the exceptional chart b = [0, 1] sends (eta1, eta2) = (1, 0) to the
    # first axis
    values = [Fraction(0), Fraction(1), Fraction(0)]
    out = [
        c.substitute([RatFunc(Poly.const(1, v)) for v in values])
        for c in res.chart_b1.components
    ]
    assert [o.num.const_coeff() for o in out] == [1, 0, 0, 0]


def test_resolution_kills_relation():
    res = fourfold_resolution()
    z1, z2, t1, t2 = res.resolution.components
    assert (z1 * z2 - t1 * t2).is_zero()


# --- embeddings and coordinate planes --------------------------------------


def test_standard_embedding_unit_fill():
    emb = standard_embedding(StandardEmbedding(3, (1, 3), True))
    names = ("z1", "z2")
    assert [c.render(names) for c in emb.components] == ["z1", "1", "z2"]


def test_standard_embedding_zero_fill():
    emb = standard_embedding(StandardEmbedding(3, (1, 3), False))
    names = ("z1", "z2")
    assert [c.render(names) for c in emb.components] == ["z1", "0", "z2"]


def test_standard_embedding_identity():
    emb = standard_embedding(StandardEmbedding(3, (1, 2, 3), True))
    assert emb.equal_on_dense(RationalMap.identity(("z1", "z2", "z3")))


def test_standard_embedding_validation():
    with pytest.raises(ValueError):
        StandardEmbedding(3, ())
    with pytest.raises(ValueError):
        StandardEmbedding(3, (2, 2))
    with pytest.raises(ValueError):
        StandardEmbedding(3, (0, 1))


# --- reparametrized chart inverses -----------------------------------------


def test_principal_chart_full_subset_is_identity():
    report, psi, inverse = verify_principal_chart(1, (1, 2))
    assert report.passed
    assert psi.equal_on_dense(RationalMap.identity(psi.source_vars))


def test_principal_chart_example():
    report, psi, inverse = verify_principal_chart(2, (1, 3))
    assert report.passed
    names = psi.source_vars + psi.params
    rendered = [c.render(names) for c in psi.components]
    assert rendered == ["z1", "sigma1", "(z2)/(sigma1)"]
    inv_names = inverse.source_vars
    assert [c.render(inv_names) for c in inverse.components] == [
        "w2",
        "w1",
        "w2*w3",
    ]


@pytest.mark.parametrize(
    "n,subset",
    [
        (2, (1, 2)),
        (2, (2,)),
        (2, (3,)),
        (3, (1, 4)),
        (3, (2,)),
        (3, (1, 2, 3)),
        (4, (2, 4)),
    ],
)
def test_principal_chart_inverses(n, subset):
    report, _, inverse = verify_principal_chart(n, subset)
    assert report.passed, report.failures()
    assert inverse is not None


def test_principal_chart_corrupted_fails():
    complement = (2,)
    report, _, inverse = verify_principal_chart(2, (1, 3), exponents=[[0], [0]])
    assert not report.passed
    assert inverse is None


# --- relative actions -------------------------------------------------------


def test_relative_action_formulas():
    act, report = relative_action(1, reversed_order=False)
    names = act.source_vars + act.params
    assert [c.render(names) for c in act.components] == ["(t1)/(sigma1)"]
    assert report.passed
    act_rev, report_rev = relative_action(1, reversed_order=True)
    assert [c.render(names) for c in act_rev.components] == ["t1*sigma1"]
    assert report_rev.passed


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rev", [False, True])
def test_relative_action_equivariance(n, rev):
    _, report = relative_action(n, rev)
    assert report.passed


def test_splice_and_relative_action_build_no_chart_action(monkeypatch):
    # the chart actions are built on first use, and neither a splice check
    # nor a relative action reads one; a relative action builds no atlas
    actions, atlases = [], []
    real_action, real_init = GammaAtlas._action, GammaAtlas.__init__

    def action(self, l):
        actions.append(l)
        return real_action(self, l)

    def init(self, *args, **kwargs):
        atlases.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(GammaAtlas, "_action", action)
    monkeypatch.setattr(GammaAtlas, "__init__", init)
    assert splice_check(3, 2).passed
    assert actions == [] and atlases
    atlases.clear()
    assert relative_action(3)[1].passed
    assert atlases == []
    assert verify_atlas(gamma_atlas(2)).passed
    assert actions == [1, 2, 3]


# --- splice decomposition ----------------------------------------------------


def test_splice_pullback_examples():
    at = gamma_atlas(1)
    # t1 pulls back to u1*u2 on the first chart and to u1 on the second
    names = at.chart_vars
    assert at.projection(1).components[0].render(names) == "u1*u2"
    assert at.projection(2).components[0].render(names) == "u1"
    # t2 pulls back to u3 on the first chart and u2*u3 on the second
    assert at.projection(1).components[1].render(names) == "u3"
    assert at.projection(2).components[1].render(names) == "u2*u3"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_splice_reports(n):
    for l in range(1, n + 2):
        report = splice_check(n, l)
        assert report.passed, (n, l, report.failures())


@pytest.mark.parametrize(
    "corrupt,witness",
    [(lambda c: c[1] * c[2], "(0, u3*u4, u4)"), (lambda c: c[1] * 2, "(0, 2*u3, u4)")],
    ids=["product", "scaled"],
)
def test_splice_checks_the_gluing_locus(monkeypatch, corrupt, witness):
    # chart 1 of Gamma(2) with a second base coordinate that is not a free
    # coordinate of the node locus {u1 = u2 = 0}; only the gluing check sees it
    from degkit import localmodel

    bad = gamma_atlas(2)
    proj = bad.projection(1)
    comps = list(proj.components)
    comps[1] = corrupt(comps)
    bad.projections = (RationalMap(proj.source_vars, comps),) + bad.projections[1:]
    real = localmodel.gamma_atlas
    monkeypatch.setattr(
        localmodel, "gamma_atlas", lambda n, bound=8: bad if n == 2 else real(n, bound)
    )
    failed = {c.name: c.witness for c in splice_check(2, 1).failures()}
    assert failed == {"gluing_locus_in_chart1": witness}


def test_splice_index_range():
    with pytest.raises(ValueError):
        splice_check(2, 4)


def test_principal_chart_map_shape():
    psi, complement = principal_chart_map(2, (1, 3))
    assert complement == (2,)
    assert psi.arity_out == 3


def test_torus_hom_placement():
    hom = TorusHom(3, (1, 3))
    assert hom.source_rank == 2
    assert hom.component_exponents() == [[1, 0], [0, 0], [0, 1]]
    with pytest.raises(ValueError):
        TorusHom(2, (3,))


# --- integer arguments at the doors ------------------------------------------


@pytest.mark.parametrize(
    "call,what",
    [
        (lambda: verify_principal_chart(2, (True, 3)), "subset entry"),
        (lambda: verify_principal_chart(2, (1.0, 3)), "subset entry"),
        (lambda: principal_chart_map(True, (1,)), "n"),
        (lambda: principal_chart_map(2, (1, 3), [[True], [0]]), "exponent"),
        (lambda: StandardEmbedding(3, (1.0, 2)), "subset entry"),
        (lambda: StandardEmbedding(True, (1,)), "ambient"),
        (lambda: TorusHom(3, (True,)), "slot"),
        (lambda: gamma_atlas(3).sigma_exponent(True, 2, 1), "chart"),
        (lambda: gamma_atlas(2).with_transition(True, None), "l"),
        (lambda: gamma_atlas(2).action(True), "l"),
        (lambda: gamma_atlas(2).projection(1.0), "l"),
        (lambda: gamma_atlas(2).transition(True), "l"),
        (lambda: splice_check(2, True), "l"),
        (lambda: splice_check(2, 1.0), "l"),
    ],
    ids=[
        "chart bool subset",
        "chart float subset",
        "chart map bool n",
        "chart map bool exponent",
        "embedding float subset",
        "embedding bool ambient",
        "torus bool slot",
        "sigma exponent bool chart",
        "replaced transition bool l",
        "action bool l",
        "projection float l",
        "transition bool l",
        "splice bool l",
        "splice float l",
    ],
)
def test_doors_refuse_bools_and_floats(call, what):
    # each argument is refused by name where it enters, not by accident
    # deeper down (or not at all)
    with pytest.raises(TypeError, match="^%s must be an int" % what):
        call()


@pytest.mark.parametrize(
    "exponents",
    [[[1, 5], [0, 7]], [[1], [0], [4]], [[1]], [[]]],
    ids=["long rows", "extra row", "missing row", "empty row"],
)
@pytest.mark.parametrize("door", [principal_chart_map, verify_principal_chart])
def test_chart_exponents_are_n_rows_of_r_ints(door, exponents):
    # n = 2 with the complement (2,): two rows of one int each
    with pytest.raises(ValueError, match="exponents must be 2 rows of length 1"):
        door(2, (1, 3), exponents)
    assert door(2, (1, 3), [[1], [0]])[1] is not None


def test_atlas_indices_in_range():
    # index 0 read the last chart, coordinate or transition, and sigma
    # index 0 the last chart coordinate; the accessors read l - 1 unchecked,
    # so transition(0) was the last transition and projection(-1) the last
    # projection
    at = gamma_atlas(2)
    assert at.sigma_exponent(2, 2, 1) == -1
    for args in [(0, 1, 1), (4, 1, 1), (1, 0, 1), (1, 5, 1), (1, 1, 0), (1, 1, 3)]:
        with pytest.raises(ValueError):
            at.sigma_exponent(*args)
    for l in (0, 3):
        with pytest.raises(ValueError):
            at.with_transition(l, at.transition(1))
        with pytest.raises(ValueError, match="l out of range"):
            at.transition(l)
    for l in (-1, 0, 4):
        for accessor in (at.projection, at.action):
            with pytest.raises(ValueError, match="l out of range"):
                accessor(l)
    assert at.projection(3) is at.projections[2]
    assert at.action(3) is at.actions[2]
    assert at.transition(2) is at.transitions[1]


# --- the formulas against the product-built reference ------------------------


def forms(rmap):
    """A map's frame and its components' stored terms, in order."""
    return (
        rmap.source_vars,
        rmap.params,
        [(list(c.num.terms.items()), list(c.den.terms.items())) for c in rmap.components],
    )


def test_atlas_formulas_match_reference():
    for n in range(9):
        at, ref = gamma_atlas(n), RefAtlas(n)
        for family in ("projections", "actions", "transitions"):
            got = [forms(m) for m in getattr(at, family)]
            assert got == [forms(m) for m in getattr(ref, family)], (n, family)
        assert forms(at.base_action) == forms(ref.base_action), n


def _whole_monomial(f):
    """A fraction with one term a side, c x^p / (d x^q), as (c / d, p - q),
    read off its stored terms."""
    [(p, c)] = f.num.terms.items()
    [(q, d)] = f.den.terms.items()
    return Fraction(c) / d, tuple(a - b for a, b in zip(p, q))


def _whole_monomials(rmap):
    return [_whole_monomial(c) for c in rmap.components]


@pytest.mark.parametrize("n", range(1, 9))
def test_atlas_matches_the_fan(n):
    # every projection, transition (read both ways: each is an involution)
    # and torus action against the formulas derived from the staircase fan
    at = gamma_atlas(n)
    for l in range(1, n + 2):
        assert _whole_monomials(at.projection(l)) == toric_oracle.projection(n, l), l
        assert _whole_monomials(at.action(l)) == toric_oracle.action(n, l), l
    for l in range(1, n + 1):
        got = _whole_monomials(at.transition(l))
        assert got == toric_oracle.transition(n, l, l + 1), l
        assert got == toric_oracle.transition(n, l + 1, l), l


def test_resolution_formulas_match_reference(monkeypatch):
    # the blow-up map lives only inside verify_resolution: catch it where it
    # is compared with the composite through the contraction
    from degkit import localmodel

    seen = {}
    real = localmodel._check_equal

    def spy(name, f, g):
        seen[name] = g
        return real(name, f, g)

    monkeypatch.setattr(localmodel, "_check_equal", spy)
    res, report = verify_resolution()
    assert report.passed
    got = [getattr(res, f.name) for f in dataclasses.fields(res)]
    got.append(seen["contraction_compatibility"])
    assert [forms(m) for m in got] == [forms(m) for m in ref_resolution_maps()]


def test_principal_chart_formulas_match_reference():
    rng = random.Random(29)
    inverted = 0
    for n in range(5):
        for k in range(1, n + 2):
            for subset in itertools.combinations(range(1, n + 2), k):
                complement = [j for j in range(1, n + 2) if j not in subset]
                r = len(complement)
                drawn = [[rng.randrange(-2, 3) for _ in range(r)] for _ in range(n)]
                for exponents in (None, ref_lambda_exponents(n, complement), drawn):
                    report, psi, inverse = verify_principal_chart(n, subset, exponents)
                    ref_psi, ref_inverse = ref_principal_chart(n, subset, exponents)
                    assert forms(psi) == forms(ref_psi), (n, subset, exponents)
                    assert (inverse is None) == (ref_inverse is None)
                    if inverse is not None:
                        assert forms(inverse) == forms(ref_inverse), (n, subset, exponents)
                        assert report.passed
                        inverted += 1
    # the drawn matrices include invertible ones beyond the defaults
    assert inverted > 2 * 57


def test_relative_action_formulas_match_reference():
    for n in range(1, 7):
        for rev in (False, True):
            action, report = relative_action(n, rev)
            ref_action, left, right = ref_relative_action(n, rev)
            assert forms(action) == forms(ref_action), (n, rev)
            w = left.difference(right)
            assert report.checks == (
                CheckResult("hyperplane_embedding_equivariance", w is None, w),
            )


def test_splice_reports_match_reference():
    for n in range(6):
        for l in range(1, n + 2):
            assert splice_check(n, l).checks == ref_splice_checks(n, l), (n, l)
