"""Workload ``contact``: the linalg -> exactalg -> contact chain.

Why: node-ring queries use both faces of the exact linear algebra, the
dense pure-contact solve and the subspace spans behind the contact ideal,
and never touch the graph code.  The queries are

- pure-form inputs from the flat-local-forcing generator of the acceptance
  suite, at truncation orders 4, 5 and 6 (the order sets most of the cost);
- non-pure inputs, a pure form plus an obstruction ``c z1^j`` (``c`` is
  killed by ``s``), which take the certificate path of the pure check;
- the contact ideal and its base change on the shapes of the fixtures of
  the acceptance suite (obstructions of order two and three, two
  obstructions, a unit twist);
- a share of these through ``degkit contact check|ideal``.

Orders, contact orders and shapes come in fixed numbers per run and the
seed draws the rest, so every seed asks for about the same work.
"""

from __future__ import annotations

import random
from fractions import Fraction

import degkit.contact as ct
from degkit.exactalg import (
    AlgebraHom,
    NodeRing,
    TruncatedAlgebra,
    adjoin_nilpotent,
    series_from_json,
)
from degkit.polys import Poly

from wl_common import Op, cli_json, cli_op, require, write_json

SIZES = {
    # forcing: (orders, contact orders, inputs per pair); nonpure: the same
    # for the obstructed inputs; shapes: fixture variants; cli_*: how many
    # inputs also go through the command line
    "full": {
        "forcing": ((4, 5, 6), (1, 2, 3), 2),
        "nonpure": ((4, 5, 6), ((2, 1), (3, 1), (3, 2)), 2),
        "shapes": 10,
        "cli_pure": 4,
        "cli_nonpure": 4,
        "cli_ideal": 4,
    },
    "smoke": {
        "forcing": ((4,), (1,), 1),
        "nonpure": ((4,), ((2, 1),), 1),
        "shapes": 4,
        "cli_pure": 1,
        "cli_nonpure": 1,
        "cli_ideal": 1,
    },
}

UNITS = [1, -1, 2, 3, Fraction(1, 2)]


def fixture_algebra(extra=()):
    """Q[s, c, ...] with every extra generator squaring to zero and killed by
    s and by the other extras (the acceptance-suite fixture algebra)."""
    gens = ("s", "c") + tuple(extra)
    k = len(gens)

    def mono(*idx):
        return Poly(k, {tuple(idx.count(j) for j in range(k)): 1})

    rels = []
    for i in range(1, k):
        rels += [mono(i, i), mono(0, i)]
        rels += [mono(i, i2) for i2 in range(i + 1, k)]
    return TruncatedAlgebra(gens, rels, order=4)


def exact_in_json(ring, *series):
    """Whether the series survive the JSON round trip unchanged (their deep
    internal window is empty), so the CLI sees the same input."""
    return all(series_from_json(ring, x.to_json()) == x for x in series)


class Rings:
    """One algebra and node ring per truncation order, shared by the inputs
    as a caller of the package would share them."""

    def __init__(self):
        self.plain = {}
        self.fixture = {}

    def of(self, order):
        if order not in self.plain:
            alg = TruncatedAlgebra(("s",), order=order)
            self.plain[order] = NodeRing(alg, order=order)
        return self.plain[order]

    def fixture_ring(self, order, extra=()):
        key = (order, extra)
        if key not in self.fixture:
            self.fixture[key] = NodeRing(fixture_algebra(extra), order=order)
        return self.fixture[key]


def pure_input(rng, ring, n, lengths, swap):
    """A pure n-contact input as in acceptance criterion 4: phi1 = beta z1^n,
    phi2 = beta^-1 eps z2^n, the branches swapped if asked.  ``lengths`` are
    the lengths of beta's two tails, or None for short tails with
    coefficients in sA, which keep every series inside the exposed window
    more often."""
    alg = ring.algebra
    const = alg.const(rng.choice(UNITS))

    def tail(length):
        if length is None:
            return [alg.s * rng.randrange(-2, 3) for _ in range(rng.randrange(0, 2))]
        return [
            alg.s ** rng.randrange(0, 3) * rng.choice([-2, -1, 1, 2])
            for _ in range(length)
        ]

    z1_len, z2_len = lengths or (None, None)
    beta = ring.series(const, tail(z1_len), tail(z2_len))
    eps = alg.const(rng.choice([1, 2, -3, Fraction(3, 2)])) + alg.s * rng.randrange(-2, 3)
    phi1 = beta * ring.z1(n)
    phi2 = (beta.inverse() * eps) * ring.z2(n)
    if swap:
        phi1, phi2 = (
            ring._series_internal(phi2.a0, phi2.b, phi2.a),
            ring._series_internal(phi1.a0, phi1.b, phi1.a),
        )
    return ct.ContactData(ring, (phi1 * phi2).a0, phi1, phi2)


def nonpure_input(rng, ring, n, j):
    """A pure n-contact input over the fixture algebra plus w c z1^j with
    j < n: no unit multiple of z1^n has that term, so neither orientation is
    pure.  The product with phi2 is unchanged because s c = 0."""
    alg = ring.algebra
    beta = ring.series(
        alg.const(rng.choice(UNITS)),
        [alg.s * rng.randrange(-2, 3)],
        [alg.s * rng.randrange(-2, 3)],
    )
    eps = alg.const(rng.choice(UNITS))
    phi2 = (beta.inverse() * eps) * ring.z2(n)
    phi1 = beta * ring.z1(n) + ring.z1(j, alg.gen(1) * rng.choice([1, -1, 2]))
    return ct.ContactData(ring, (phi1 * phi2).a0, phi1, phi2)


SHAPES = ("obstructed order two", "obstructed order three", "two obstructions", "unit twist")


def shape_input(rng, rings, shape):
    """One fixture shape with seeded unit coefficients.  Returns the data,
    its contact order and the obstruction elements the ideal must contain."""
    u, v = rng.choice(UNITS), rng.choice(UNITS)
    w = rng.choice([1, -1, 2])
    if shape == "two obstructions":
        R = rings.fixture_ring(4, ("d",))
        A = R.algebra
        phi1 = R.normal_form({(2, 0): A.const(u), (1, 0): A.gen(1) * w})
        phi2 = R.normal_form({(0, 2): A.const(v), (0, 1): A.gen(2)})
        return ct.ContactData(R, A.const(u * v) * A.s**2, phi1, phi2), 2, [A.gen(1), A.gen(2)]
    n = 3 if shape == "obstructed order three" else 2
    # the order-three obstruction needs the deeper series window
    R = rings.fixture_ring(6 if n == 3 else 4)
    A = R.algebra
    c = A.gen(1)
    if shape == "unit twist":
        phi1 = R.normal_form({(2, 0): A.const(u)})
        phi2 = R.normal_form({(0, 2): A.const(v), (0, 1): c * w})
    else:
        phi1 = R.normal_form({(n, 0): A.const(u), (1, 0): c * w})
        phi2 = R.normal_form({(0, n): A.const(v)})
    return ct.ContactData(R, A.const(u * v) * A.s**n, phi1, phi2), n, [c]


def base_changes(rng, data, obstructions):
    """Algebra maps carrying s to s: the identity, the quotient by the
    obstructions (built here, not from the package's ideal), adjoining a
    square-zero element, and a map to Q[s]/s^4 sending each obstruction
    generator to a seeded multiple of s^3."""
    A = data.algebra
    rels = list(A.relations) + [g.as_poly() for g in obstructions]
    Q = TruncatedAlgebra(A.gens, rels, A.order, A.local)
    T = TruncatedAlgebra(("s",), order=4)
    images = [T.s] + [T.s**3 * rng.choice([0, 1, -1, 2]) for _ in A.gens[1:]]
    return [
        ("identity", AlgebraHom.identity(A)),
        ("quotient", AlgebraHom(A, Q, [Q.gen(i) for i in range(len(A.gens))])),
        ("adjoin", adjoin_nilpotent(A, "w", 2)[1]),
        ("to Q[s]/s^4", AlgebraHom(A, T, images)),
    ]


def contact_json(data, n):
    return {
        "algebra": data.algebra.to_json(),
        "series_order": data.ring.order,
        "psi_t": data.psi_t.to_json(),
        "phi_w1": data.phi_w1.to_json(),
        "phi_w2": data.phi_w2.to_json(),
        "order": n,
    }


# ------------------------------------------------------------------ oracles


def verify_witness(data, n, beta, eps, orientation):
    """phi_w1 = beta z^n and phi_w2 = beta^-1 eps z'^n, by multiplication."""
    ring = data.ring
    one = ring.algebra.one()
    first, second = (2, 1) if orientation == "swapped" else (1, 2)
    require(beta * ring.branch_power(first, n, one) == data.phi_w1, "phi_w1 != beta z^n")
    require(
        beta.inverse() * ring.branch_power(second, n, one) * eps == data.phi_w2,
        "phi_w2 != beta^-1 eps z^n",
    )


def forcing_check(data, n):
    def check(forced):
        require(forced.order == n, "forced order %d, expected %d" % (forced.order, n))
        prod = forced.beta1 * forced.beta2
        require(prod.a0 == forced.epsilon, "beta1 beta2 != eps")
        require(all(x.is_zero() for x in prod.a + prod.b), "beta1 beta2 has a tail")
        alg = data.algebra
        require(data.psi_t == alg.s**n * forced.epsilon, "psi_t != s^n eps")
        verify_witness(data, n, forced.beta1, forced.epsilon, forced.orientation)
        return "%s %s" % (forced.orientation, forced.beta1.render())

    return check


def pure_check(data, n):
    def check(report):
        require(report.pure, "a pure input was reported not pure")
        verify_witness(data, n, report.beta, report.epsilon, report.orientation)
        return "%s %s" % (report.orientation, report.beta.render())

    return check


def nonpure_check(report):
    require(not report.pure, "a non-pure input was reported pure")
    require(report.certificate, "a non-pure answer carries no certificate")
    return report.certificate


def ideal_check(data, n, obstructions):
    """The ideal is nonzero, holds every obstruction, and dies exactly where
    the data becomes pure: after the quotient by it the input is pure."""

    def check(ideal):
        require(not ideal.is_zero(), "zero ideal for a non-pure input")
        for g in obstructions:
            require(ideal.contains(g), "obstruction %s not in the ideal" % g.render())
        _, quotient = ideal.quotient_algebra()
        pushed = data.push(quotient)
        report = ct.check_pure_contact(pushed, n)
        require(report.pure, "not pure after the quotient by the ideal")
        verify_witness(pushed, n, report.beta, report.epsilon, report.orientation)
        return "dim %d: %s" % (ideal.span.dim, ", ".join(g.render() for g in ideal.generators))

    return check


def base_change_check(holds):
    require(holds is True, "pushed ideal differs from the recomputed one")
    return "holds"


def cli_check_check(direct, code):
    def check(result):
        payload = cli_json(result, code)
        report = direct.result
        require(report is not None, "no direct answer to compare with")
        require(payload["pure"] == report.pure, "CLI purity differs")
        if report.pure:
            require(payload["beta"] == report.beta.render(), "CLI beta differs")
            require(payload["epsilon"] == report.epsilon.render(), "CLI epsilon differs")
            require(payload["orientation"] == report.orientation, "CLI orientation differs")
        else:
            require(payload["certificate"] == report.certificate, "CLI certificate differs")
        return "exit %d" % code

    return check


def cli_ideal_check(direct):
    def check(result):
        payload = cli_json(result, 0)
        ideal = direct.result
        require(ideal is not None, "no direct answer to compare with")
        require(
            payload["generators"] == [g.render() for g in ideal.generators],
            "CLI generators differ",
        )
        require(payload["span_dimension"] == ideal.span.dim, "CLI span dimension differs")
        require(payload["zero"] == ideal.is_zero(), "CLI zero flag differs")
        return "dim %d" % ideal.span.dim

    return check


# ------------------------------------------------------------------- set-up


def setup(seed, size, workdir):
    rng = random.Random(seed)
    cfg = SIZES[size]
    rings = Rings()

    # per (order, contact order): tails of lengths (1, 2) and (2, 1), and a
    # third of the inputs with swapped branches, which the pure check decides
    # only on its second orientation
    orders, ns, per = cfg["forcing"]
    forcing = [
        (o, n, pure_input(rng, rings.of(o), n, (1 + k % 2, 2 - k % 2), k % 2 == 1 and n != 3))
        for o in orders
        for n in ns
        for k in range(per)
    ]
    rng.shuffle(forcing)

    orders, pairs, per = cfg["nonpure"]
    nonpure = [
        (o, n, j, nonpure_input(rng, rings.fixture_ring(o), n, j))
        for o in orders
        for n, j in pairs
        for _ in range(per)
    ]
    rng.shuffle(nonpure)

    shapes = []
    for k in range(cfg["shapes"]):
        shape = SHAPES[k % len(SHAPES)]
        data, n, obstructions = shape_input(rng, rings, shape)
        shapes.append((shape, data, n, obstructions, base_changes(rng, data, obstructions)))

    # inputs of the command-line share, drawn until their JSON is exact
    def exact_inputs(count, draw):
        out = []
        for _ in range(100 * count):
            if len(out) == count:
                return out
            label, n, data = draw()
            if exact_in_json(data.ring, data.phi_w1, data.phi_w2):
                out.append((label, n, data))
        raise RuntimeError("no JSON-exact contact input drawn")

    def draw_pure():
        o, n = rng.choice([4, 5]), 1
        data = pure_input(rng, rings.of(o), n, None, rng.random() < 0.3)
        return "pure order=%d n=%d" % (o, n), n, data

    def draw_nonpure():
        o, n, j = 6, 2, 1
        data = nonpure_input(rng, rings.fixture_ring(o), n, j)
        return "nonpure order=%d n=%d j=%d" % (o, n, j), n, data

    cli_checks = [
        (label, n, data, pure_check(data, n), 0)
        for label, n, data in exact_inputs(cfg["cli_pure"], draw_pure)
    ] + [
        (label, n, data, nonpure_check, 1)
        for label, n, data in exact_inputs(cfg["cli_nonpure"], draw_nonpure)
    ]
    cli_ideal = rng.sample(range(len(shapes)), cfg["cli_ideal"])

    files = {}
    for k, (_, n, data, _, _) in enumerate(cli_checks):
        files["check", k] = write_json(workdir, "check%d.json" % k, contact_json(data, n))
    for k in cli_ideal:
        _, data, n, _, _ = shapes[k]
        files["ideal", k] = write_json(workdir, "ideal%d.json" % k, contact_json(data, n))
    return ops(forcing, nonpure, shapes, cli_checks, cli_ideal, files)


def ops(forcing, nonpure, shapes, cli_checks, cli_ideal, files):
    for o, n, data in forcing:
        yield Op(
            "forcing order=%d n=%d" % (o, n),
            lambda data=data: ct.flat_local_forcing(data),
            forcing_check(data, n),
        )

    for o, n, j, data in nonpure:
        yield Op(
            "nonpure order=%d n=%d j=%d" % (o, n, j),
            lambda data=data, n=n: ct.check_pure_contact(data, n),
            nonpure_check,
        )

    ideal_ops = []
    for shape, data, n, obstructions, homs in shapes:
        op = Op(
            "ideal %s" % shape,
            lambda data=data, n=n: ct.predeformability_ideal(data, n),
            ideal_check(data, n, obstructions),
        )
        ideal_ops.append(op)
        yield op
        for label, hom in homs:
            yield Op(
                "base change %s along %s" % (shape, label),
                lambda data=data, n=n, hom=hom: ct.verify_base_change(data, n, hom),
                base_change_check,
            )

    for k, (label, n, data, check, code) in enumerate(cli_checks):
        direct = Op(
            label,
            lambda data=data, n=n: ct.check_pure_contact(data, n),
            check,
        )
        yield direct
        yield cli_op(
            "cli contact check %s" % label,
            ["contact", "check", "--input", files["check", k]],
            cli_check_check(direct, code),
        )
    for k in cli_ideal:
        yield cli_op(
            "cli contact %s" % ideal_ops[k].name,
            ["contact", "ideal", "--input", files["ideal", k]],
            cli_ideal_check(ideal_ops[k]),
        )
