"""Byte-exact CLI reports against golden files.

The expected stdout bytes and exit codes under ``tests/golden/`` were
recorded once by running ``python -m degkit.cli`` on each case of
``cases.json``; an argument starting with ``@`` names an input file in that
directory.  Any change to a report, however small, fails here.

``symbolic_pins.json`` holds library texts that print polynomials (failure
witnesses, chart inverses, torus actions); the CLI goldens are all passing
reports, which print none.  ``witness_pins.json`` holds the failure witnesses
of the resolution and splice checks on corrupted inputs.  Rewrites of the
polynomial arithmetic must keep these bytes.  ``contact_pins.json`` holds
node-ring products, inverses and shifts with their whole internal window,
and the pure-contact, forcing and ideal answers built on them.
``enumeration_pins.json`` holds the count and a sha256 of the ordered JSON
list of split maps for every enumeration the window tests and the
``enumerate`` benchmark run.
"""

import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from degkit import (
    ContactData,
    ContactError,
    NodeRing,
    NodeSeries,
    TruncatedAlgebra,
    check_pure_contact,
    enumerate_split_maps,
    flat_local_forcing,
    localmodel,
    predeformability_ideal,
)
from degkit.cli import main
from degkit.localmodel import (
    fourfold_resolution,
    gamma_atlas,
    relative_action,
    splice_check,
    verify_atlas,
    verify_principal_chart,
    verify_resolution,
)
from degkit.polys import RatFunc
from degkit.ratmaps import RationalMap
from reference_combgraphs import (
    HEAVY_TYPES,
    NORM3_TYPES,
    WINDOW_CAPS,
    acceptance_caps,
)
from reference_exactalg import UNITS, fixture_algebra

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_golden(case, capsys):
    argv = [
        str(GOLDEN / a[1:]) if a.startswith("@") else a for a in case["argv"]
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_CODES[case["name"]]
    assert out.encode() == (GOLDEN / (case["name"] + ".out")).read_bytes()


# ---------------------------------------------------------------------------
# symbolic texts that expose normal forms
# ---------------------------------------------------------------------------


FACTORS = (2, -1, 3, Fraction(1, 2))


def scaled(rmap, j, factor):
    """``rmap`` with component j multiplied by a constant factor."""
    comps = list(rmap.components)
    comps[j] = comps[j] * RatFunc.const(comps[j].nvars, factor)
    return RationalMap(rmap.source_vars, comps, rmap.params)


def corrupted_atlases(n):
    """(label, atlas of Gamma(n) with one transition component scaled), for
    each transition, each component and each factor."""
    atlas = gamma_atlas(n)
    for l in range(1, n + 1):
        old = atlas.transition(l)
        for j in range(len(old.components)):
            for factor in FACTORS:
                bad = atlas.with_transition(l, scaled(old, j, factor))
                yield "n=%d l=%d comp=%d x%s" % (n, l, j + 1, factor), bad


def symbolic_pins():
    """Texts whose bytes depend on the normal form of rational functions:
    the witnesses of every corrupted atlas at n <= 3 (each transition, each
    component, each factor), the principal-chart inverses at n <= 4 and the
    relative actions at n <= 4 in both orders."""
    pins = {}
    for n in range(1, 4):
        for label, bad in corrupted_atlases(n):
            pins["atlas " + label] = verify_atlas(bad).to_json()
    for n in range(1, 5):
        for k in range(1, n + 2):
            for subset in itertools.combinations(range(1, n + 2), k):
                _, _, inverse = verify_principal_chart(n, subset)
                pins["chart inverse n=%d %s" % (n, subset)] = inverse.render()
    for n in range(1, 5):
        for rev in (False, True):
            action, _ = relative_action(n, rev)
            pins["relative n=%d reversed=%s" % (n, rev)] = action.render()
    return pins


def test_symbolic_normal_form_pins():
    text = json.dumps(symbolic_pins(), indent=1) + "\n"
    assert text.encode() == (GOLDEN / "symbolic_pins.json").read_bytes()


def witness_pins():
    """Failure texts of the resolution and splice checks: the resolution
    with each map scaled in one component, and ``splice_check(n, l)`` at
    n <= 3 with only the top model Gamma(n) corrupted as in
    :func:`symbolic_pins` (the inner models stay intact)."""
    pins = {}
    res = fourfold_resolution()
    for field in dataclasses.fields(res):
        rmap = getattr(res, field.name)
        for j in range(len(rmap.components)):
            for factor in FACTORS:
                bad = dataclasses.replace(res, **{field.name: scaled(rmap, j, factor)})
                key = "resolution %s comp=%d x%s" % (field.name, j + 1, factor)
                pins[key] = verify_resolution(bad)[1].to_json()
    real = gamma_atlas
    for n in range(1, 4):
        for label, bad in corrupted_atlases(n):
            top = lambda k, bound=8, bad=bad: bad if k == bad.n else real(k, bound)
            with mock.patch.object(localmodel, "gamma_atlas", top):
                for l in range(1, n + 2):
                    pins["splice l=%d %s" % (l, label)] = splice_check(n, l).to_json()
    return pins


def test_witness_pins():
    text = json.dumps(witness_pins(), indent=1) + "\n"
    assert text.encode() == (GOLDEN / "witness_pins.json").read_bytes()


# ---------------------------------------------------------------------------
# node-ring arithmetic and the contact answers built on it
# ---------------------------------------------------------------------------


def series_json(x):
    """Every coefficient of a series, the internal window included."""
    return {
        "a0": x.a0.to_json(),
        "a": [c.to_json() for c in x.a],
        "b": [c.to_json() for c in x.b],
    }


def zswap(x):
    return NodeSeries(x.ring, x.a0, x.b, x.a)


def random_series(rng, ring, unit):
    """A series with exposed tails of random length; each basis coefficient
    is zero half of the time."""
    alg = ring.algebra

    def elem():
        return alg.element(
            [rng.choice([0, 0, 1, -2, Fraction(3, 2)]) for _ in range(alg.dim)]
        )

    const = elem()
    while unit and not const.is_unit():
        const = const + alg.const(rng.choice(UNITS))
    tails = [[elem() for _ in range(rng.randrange(ring.order))] for _ in (1, 2)]
    return ring.series(const, *tails)


def arithmetic_pins(label, ring, seed):
    """Products of deep and swapped series, inverses, powers and shifts."""
    rng = random.Random(seed)
    x, y, z = (random_series(rng, ring, True) for _ in range(3))
    p = x * y
    q = p * z
    results = {
        "x*y": p,
        "(x*y)*z": q,
        "swap(q)*q": zswap(q) * q,
        "q*s": q * ring.algebra.s,
        "q*-3/2": q * Fraction(-3, 2),
        "x^3": x**3,
        "inv x": x.inverse(),
        "inv q": q.inverse(),
        "inv swap(q)": zswap(q).inverse(),
        "q/q": q * q.inverse(),
        "shift1 q": q.shift(1),
        "shift2 q": q.shift(2),
        "shift1 swap(q)": zswap(q).shift(1),
    }
    return {"%s %s" % (label, k): series_json(v) for k, v in results.items()}


def pure_data(rng, ring, n, swap):
    """A pure n-contact input as in acceptance criterion 4.  ``swap`` is
    None, "roles" (the two series exchanged with the coordinates, as in
    criterion 4) or "mirror" (the coordinates alone exchanged, so only the
    swapped orientation is pure)."""
    alg = ring.algebra
    tails = [
        [
            alg.s ** rng.randrange(0, 3) * Fraction(rng.randrange(-2, 3))
            for _ in range(rng.randrange(0, 3))
        ]
        for _ in (1, 2)
    ]
    beta = ring.series(alg.const(rng.choice(UNITS)), *tails)
    eps = alg.const(rng.choice([1, 2, -3, Fraction(3, 2)]))
    eps = eps + alg.s * rng.randrange(-2, 3)
    phi1 = beta * ring.z1(n)
    phi2 = (beta.inverse() * eps) * ring.z2(n)
    if swap == "roles":
        phi1, phi2 = zswap(phi2), zswap(phi1)
    elif swap == "mirror":
        phi1, phi2 = zswap(phi1), zswap(phi2)
    return ContactData(ring, (phi1 * phi2).a0, phi1, phi2)


def report_pin(report):
    return {
        "pure": report.pure,
        "beta": None if report.beta is None else series_json(report.beta),
        "epsilon": None if report.epsilon is None else report.epsilon.to_json(),
        "orientation": report.orientation,
        "certificate": report.certificate,
    }


def forcing_pin(data):
    try:
        forced = flat_local_forcing(data)
    except ContactError as err:
        return "error: %s" % err
    return "%d %s | %s | %s | %s" % (
        forced.order,
        forced.beta1.render(),
        forced.beta2.render(),
        forced.epsilon.render(),
        forced.orientation,
    )


def shape_data(shape, u, v, w):
    """The fixture shapes of acceptance criterion 5 with unit coefficients."""
    if shape == "two obstructions":
        B = fixture_algebra(("d",))
        R = NodeRing(B, order=4)
        phi1 = R.normal_form({(2, 0): B.const(u), (1, 0): B.gen(1) * w})
        phi2 = R.normal_form({(0, 2): B.const(v), (0, 1): B.gen(2)})
        return ContactData(R, B.const(u * v) * B.s**2, phi1, phi2), 2
    n = 3 if shape == "obstructed order three" else 2
    A = fixture_algebra()
    R = NodeRing(A, order=6 if n == 3 else 4)
    c = A.gen(1)
    if shape == "unit twist":
        phi1 = R.normal_form({(2, 0): A.const(u)})
        phi2 = R.normal_form({(0, 2): A.const(v), (0, 1): c * w})
    else:
        phi1 = R.normal_form({(n, 0): A.const(u), (1, 0): c * w})
        phi2 = R.normal_form({(0, n): A.const(v)})
    return ContactData(R, A.const(u * v) * A.s**n, phi1, phi2), n


SHAPES = ("obstructed order two", "obstructed order three", "two obstructions", "unit twist")


def contact_pins():
    """Node-ring arithmetic over Q[s]/s^N (N = 4, 5, 6) and the fixture
    algebras; pure-contact reports and forcing at orders 4-6, contact
    orders 1-3, straight and swapped; certificates of non-pure inputs; the
    ideal generators of the fixture shapes."""
    pins = {}
    rings = [
        ("Q[s]/s^%d" % N, NodeRing(TruncatedAlgebra(("s",), order=N), order=N))
        for N in (4, 5, 6)
    ]
    rings.append(("Q[s,c] order 6", NodeRing(fixture_algebra(), order=6)))
    rings.append(("Q[s,c,d] order 4", NodeRing(fixture_algebra(("d",)), order=4)))
    for seed, (label, ring) in enumerate(rings):
        pins.update(arithmetic_pins(label, ring, seed))
    rng = random.Random(2024)
    for order in (4, 5, 6):
        ring = NodeRing(TruncatedAlgebra(("s",), order=order), order=order)
        for n in (1, 2, 3):
            for swap in (None, "roles", "mirror"):
                data = pure_data(rng, ring, n, swap)
                key = "order=%d n=%d swap=%s" % (order, n, swap)
                pins["pure " + key] = report_pin(check_pure_contact(data, n))
                pins["forcing " + key] = forcing_pin(data)
        ring = NodeRing(fixture_algebra(), order=order)
        alg = ring.algebra
        for n, j in ((2, 1), (3, 1), (3, 2)):
            const = alg.const(rng.choice(UNITS))
            beta = ring.series(const, [alg.s * rng.randrange(-2, 3)], [alg.s])
            phi2 = (beta.inverse() * alg.const(rng.choice(UNITS))) * ring.z2(n)
            phi1 = beta * ring.z1(n) + ring.z1(j, alg.gen(1) * rng.choice([1, -1, 2]))
            data = ContactData(ring, (phi1 * phi2).a0, phi1, phi2)
            report = check_pure_contact(data, n)
            pins["nonpure order=%d n=%d j=%d" % (order, n, j)] = report_pin(report)
    for shape in SHAPES:
        for k in range(3):
            u, v, w = rng.choice(UNITS), rng.choice(UNITS), rng.choice([1, -1, 2])
            data, n = shape_data(shape, u, v, w)
            ideal = predeformability_ideal(data, n)
            pins["ideal %s %d" % (shape, k)] = {
                "generators": [g.to_json() for g in ideal.generators],
                "rendered": [g.render() for g in ideal.generators],
                "span_dimension": ideal.span.dim,
                "nonpure": report_pin(check_pure_contact(data, n)),
            }
    return pins


def test_contact_pins():
    text = json.dumps(contact_pins(), indent=1) + "\n"
    assert text.encode() == (GOLDEN / "contact_pins.json").read_bytes()


def test_product_reverification_on_pinned_inputs():
    # every re-verification behind the pins agrees with the inverse-based
    # test of the reference arithmetic, on the witnesses as found and with
    # phi_w2 or eps moved off them
    from degkit import contact
    from reference_exactalg import inverse, witnesses_hold

    real = contact._witnesses_hold
    seen = []

    def checked(phi1, phi2, beta, eps, n, branch):
        ring = phi1.ring
        beta_inv = inverse(beta)
        moved = (
            (phi2, eps),
            (phi2 + ring.branch_power(3 - branch, n), eps),
            (phi2, eps + ring.algebra.s),
        )
        for x, e in moved:
            got = real(phi1, x, beta, e, n, branch)
            assert got == witnesses_hold(phi1, x, beta, beta_inv, e, n, branch)
            seen.append(got)
        return seen[-3]

    with mock.patch.object(contact, "_witnesses_hold", checked):
        text = json.dumps(contact_pins(), indent=1) + "\n"
    assert text.encode() == (GOLDEN / "contact_pins.json").read_bytes()
    assert seen.count(True) * 2 == seen.count(False) > 0


# ---------------------------------------------------------------------------
# split-map enumeration, in emitted order
# ---------------------------------------------------------------------------


def maps_pin(maps):
    text = json.dumps([m.to_json() for m in maps], separators=(",", ":"))
    return {"count": len(maps), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def enumeration_pins():
    """Every norm <= 3 type under each caps variant of the window tests, in
    both modes, and the benchmark's norm-four and norm-five types, stable,
    at the acceptance caps."""
    pins = {}
    for name, caps in WINDOW_CAPS.items():
        for t in NORM3_TYPES:
            for stable in (False, True):
                maps = enumerate_split_maps(t, caps, stable_only=stable)
                key = "%s (%d, %d, %d) %s" % (
                    name, t.degree, t.genus, t.marks, "stable" if stable else "all"
                )
                pins[key] = maps_pin(maps)
    for t in HEAVY_TYPES:
        maps = enumerate_split_maps(t, acceptance_caps(t), stable_only=True)
        pins["acceptance (%d, %d, %d) stable" % (t.degree, t.genus, t.marks)] = (
            maps_pin(maps)
        )
    return pins


def test_enumeration_pins():
    text = json.dumps(enumeration_pins(), indent=1) + "\n"
    assert text.encode() == (GOLDEN / "enumeration_pins.json").read_bytes()
