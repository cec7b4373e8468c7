import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

from degkit import (
    AlgebraHom,
    ContactData,
    ContactError,
    NodeRing,
    NodeSeries,
    Poly,
    TruncatedAlgebra,
    adjoin_nilpotent,
    check_pure_contact,
    combined_predeformability_ideal,
    contact_orders,
    enumerate_homs,
    flat_local_forcing,
    is_nondegenerate,
    predeformability_ideal,
    verify_base_change,
    verify_universality,
)
from degkit import contact
from degkit.contact import TRIVIAL
from dense_linalg import dense_solve_linear
import reference_contact
import reference_exactalg


def simple_data(ring):
    alg = ring.algebra
    return ContactData(ring, alg.s, ring.z1(), ring.z2())


def obstructed_data(obstructed):
    ring = NodeRing(obstructed, order=4)
    phi1 = ring.normal_form({(2, 0): obstructed.one(), (1, 0): obstructed.gen(1)})
    phi2 = ring.normal_form({(0, 2): obstructed.one()})
    return ContactData(ring, obstructed.s ** 2, phi1, phi2)


def test_homomorphism_constraint_enforced(Rs8, Qs8):
    with pytest.raises(ContactError):
        ContactData(Rs8, Qs8.s, Rs8.z1(), Rs8.z1())


def test_contact_orders_basic(Rs8):
    assert contact_orders(simple_data(Rs8)) == (1, 1)


def test_contact_orders_scalar_units(Rs8, Qs8):
    d = ContactData(
        Rs8,
        Qs8.s ** 3,
        Rs8.z1(3, Qs8.const(2)),
        Rs8.z2(3, Qs8.const(Fraction(1, 2))),
    )
    assert contact_orders(d) == (3, 3)


def test_contact_orders_residue_field(obstructed):
    assert contact_orders(obstructed_data(obstructed)) == (2, 2)


def test_contact_order_errors(Rs8, Qs8):
    flat = ContactData(Rs8, Qs8.zero(), Rs8.zero(), Rs8.z2())
    with pytest.raises(ContactError) as err:
        contact_orders(flat)
    assert err.value.code == "degenerate_order"
    masked = ContactData(
        Rs8, Qs8.s ** 2, Rs8.z1(1, Qs8.s), Rs8.z2()
    )
    with pytest.raises(ContactError) as err:
        contact_orders(masked)
    assert err.value.code == "order_truncation"


def test_nondegeneracy(Rs8, Qs8):
    assert is_nondegenerate(simple_data(Rs8)) == (True, 1)
    squares = ContactData(Rs8, Qs8.s ** 2, Rs8.z1(2), Rs8.z2(2))
    assert is_nondegenerate(squares) == (True, 3)
    broken = ContactData(Rs8, Qs8.zero(), Rs8.zero(), Rs8.z2())
    assert is_nondegenerate(broken) == (False, None)


# --- purity -------------------------------------------------------------


def test_pure_basic(Rs8):
    report = check_pure_contact(simple_data(Rs8), 1)
    assert report.pure and report.orientation == "straight"
    assert report.beta == Rs8.one()
    assert report.epsilon == Rs8.algebra.one()


def test_pure_order_mismatch(Rs8):
    report = check_pure_contact(simple_data(Rs8), 2)
    assert not report.pure
    assert report.certificate is not None


def test_pure_with_unit_reparametrization():
    alg = TruncatedAlgebra(("s", "c"), relations=[Poly(2, {(1, 0): 1})], order=3)
    ring = NodeRing(alg, order=5)
    phi2 = ring.normal_form({(0, 1): alg.one(), (0, 2): alg.gen(1)})
    data = ContactData(ring, alg.zero(), ring.z1(), phi2)
    report = check_pure_contact(data, 1)
    assert report.pure
    # beta is the inverse of 1 + c z2 because z1 z2 = 0 here
    assert report.beta.z2_tail()[0] == -alg.gen(1)
    assert report.epsilon == alg.one()


def test_pure_swapped_orientation(Rs8, Qs8):
    data = ContactData(Rs8, Qs8.s, Rs8.z2(), Rs8.z1())
    report = check_pure_contact(data, 1)
    assert report.pure and report.orientation == "swapped"
    assert not check_pure_contact(data, 1, allow_swap=False).pure


@given(seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_swap_symmetry(seed):
    alg = TruncatedAlgebra(("s",), order=4)
    ring = NodeRing(alg, order=4)
    rng = random.Random(seed)
    n = rng.randrange(1, 3)
    beta = ring.one() * Fraction(rng.randrange(1, 4))
    if rng.random() < 0.5:
        beta = beta + ring.z1(1, alg.s)
    eps = alg.const(rng.randrange(1, 4))
    phi1 = beta * ring.z1(n)
    phi2 = (beta.inverse() * eps) * ring.z2(n)
    data = ContactData(ring, (phi1 * phi2).a0, phi1, phi2)
    straight = check_pure_contact(data, n)
    swapped = check_pure_contact(data.swapped(), n)
    assert straight.pure == swapped.pure
    assert straight.order == swapped.order


# --- the universal ideal --------------------------------------------------


def test_ideal_zero_for_pure_input(Rs8):
    ideal = predeformability_ideal(simple_data(Rs8), 1)
    assert ideal.is_zero()


def test_ideal_precondition(Rs8):
    with pytest.raises(ContactError) as err:
        predeformability_ideal(simple_data(Rs8), 2)
    assert err.value.code == "nonunit_leading"


def test_obstructed_ideal_is_c(obstructed):
    data = obstructed_data(obstructed)
    ideal = predeformability_ideal(data, 2)
    c = obstructed.gen(1)
    assert ideal.contains(c)
    assert not ideal.contains(obstructed.s)
    assert ideal.span.dim == 1


def standard_targets(QQ, Qeps, Qs4, Qc2):
    return (QQ, Qeps, Qs4, Qc2)


def test_universality_on_obstructed(obstructed, QQ, Qeps, Qs4, Qc2):
    data = obstructed_data(obstructed)
    homs = []
    for target in standard_targets(QQ, Qeps, Qs4, Qc2):
        homs.extend(enumerate_homs(obstructed, target, limit=40))
    assert len(homs) >= 8
    holds, results = verify_universality(data, 2, homs)
    assert holds
    assert any(pure for _, pure, _ in results)
    assert any(not pure for _, pure, _ in results)


def test_quotient_makes_it_pure(obstructed):
    data = obstructed_data(obstructed)
    ideal = predeformability_ideal(data, 2)
    _, quotient = ideal.quotient_algebra()
    pushed = data.push(quotient)
    assert check_pure_contact(pushed, 2, allow_swap=False).pure


def test_non_killing_hom_stays_obstructed(obstructed, Qc2):
    data = obstructed_data(obstructed)
    hom = AlgebraHom(obstructed, Qc2, [Qc2.s, Qc2.gen(1)])
    pushed = data.push(hom)
    assert not check_pure_contact(pushed, 2, allow_swap=False).pure


def test_base_change_identity(obstructed):
    data = obstructed_data(obstructed)
    ident = AlgebraHom.identity(obstructed)
    assert verify_base_change(data, 2, ident)


def test_base_change_quotient_and_extension(obstructed):
    data = obstructed_data(obstructed)
    ideal = predeformability_ideal(data, 2)
    _, quotient = ideal.quotient_algebra()
    assert verify_base_change(data, 2, quotient)
    _, inclusion = adjoin_nilpotent(obstructed, "d", 2)
    assert verify_base_change(data, 2, inclusion)


def test_universality_on_randomized_fixtures(QQ, Qeps, Qs4, Qc2):
    # random obstructed data over the two-obstruction base algebra; the
    # ideal must predict purity after every enumerated base change
    rels = [
        Poly(3, {(0, 2, 0): 1}),
        Poly(3, {(0, 0, 2): 1}),
        Poly(3, {(0, 1, 1): 1}),
        Poly(3, {(1, 1, 0): 1}),
        Poly(3, {(1, 0, 1): 1}),
    ]
    A = TruncatedAlgebra(("s", "c", "d"), rels, order=4)
    ring = NodeRing(A, order=4)
    homs = []
    for target in (QQ, Qeps, Qs4, Qc2):
        homs.extend(enumerate_homs(A, target, limit=30))
    assert homs
    rng = random.Random(5150)
    for _ in range(8):
        n = rng.randrange(1, 3)
        beta = ring.series(
            A.const(rng.choice([1, 2, -1])),
            [A.s * rng.randrange(-1, 2)],
            [A.const(rng.randrange(-1, 2))],
        )
        eps = A.const(rng.choice([1, 3])) + A.s * rng.randrange(0, 2)
        phi1 = beta * ring.z1(n)
        phi2 = (beta.inverse() * eps) * ring.z2(n)
        # nilpotent obstructions multiply to zero against everything
        for gen, low in ((A.gen(1), 1), (A.gen(2), 1)):
            if rng.random() < 0.7:
                phi1 = phi1 + ring.z1(rng.randrange(low, n + 1), gen)
        data = ContactData(ring, (phi1 * phi2).a0, phi1, phi2)
        holds, _ = verify_universality(data, n, homs)
        assert holds


def test_combined_ideal(obstructed):
    data = obstructed_data(obstructed)
    ring = data.ring
    pure = ContactData(ring, obstructed.s, ring.z1(), ring.z2())
    total = combined_predeformability_ideal([(data, 2), (pure, 1)])
    assert total.contains(obstructed.gen(1))
    assert total.span.dim == 1


# --- flatness forcing -----------------------------------------------------


def test_forcing_basic(Rs8, Qs8):
    report = flat_local_forcing(simple_data(Rs8))
    assert report.order == 1
    assert report.beta1 == Rs8.one() and report.beta2 == Rs8.one()
    assert report.epsilon == Qs8.one()


def test_forcing_scalars(Rs6, Qs6):
    data = ContactData(
        Rs6,
        Qs6.const(6) * Qs6.s ** 2,
        Rs6.z1(2, Qs6.const(2)),
        Rs6.z2(2, Qs6.const(3)),
    )
    report = flat_local_forcing(data)
    assert report.order == 2
    assert report.beta1.a0 == Qs6.const(2)
    assert report.beta2.a0 == Qs6.const(3)
    assert report.epsilon == Qs6.const(6)


def test_forcing_unit_series(Rs6, Qs6):
    one_plus_s = Qs6.one() + Qs6.s
    data = ContactData(
        Rs6, Qs6.s * one_plus_s, Rs6.z1(1, one_plus_s), Rs6.z2()
    )
    report = flat_local_forcing(data)
    assert report.order == 1
    assert report.beta1.a0 == one_plus_s
    assert report.epsilon == one_plus_s


def test_forcing_rejects_trivial_mode(Rs8, Qs8):
    data = ContactData(Rs8, Qs8.s, Rs8.z1(), Rs8.z2(), mode=TRIVIAL)
    with pytest.raises(ContactError) as err:
        flat_local_forcing(data)
    assert err.value.code == "flatness"


def test_forcing_rejects_torsion():
    # s itself killed: psi_t = 0 has torsion everywhere
    alg = TruncatedAlgebra(("s",), relations=[Poly(1, {(1,): 1})], order=2)
    ring = NodeRing(alg, order=4)
    data = ContactData(ring, alg.zero(), ring.z1(), ring.z2(2))
    with pytest.raises(ContactError):
        flat_local_forcing(data)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_obstruction_exit_agrees_with_dense_solve(seed):
    # the unit-pivot obstruction rows are the one fast exit before the
    # dense solve: an input they reject must have no dense solution, and on
    # every other input the witnesses are the dense solve's own
    from degkit.contact import _pure_solve, _pure_witness, _shift_levels, _zswap

    alg = TruncatedAlgebra(
        ("s", "c"),
        relations=[Poly(2, {(1, 1): 1}), Poly(2, {(0, 2): 1})],
        order=3,
    )
    ring = NodeRing(alg, order=4)
    rng = random.Random(seed)
    n = rng.randrange(1, 3)
    c = alg.gen(1)
    if rng.random() < 0.5:
        phi1 = ring.z1(n, alg.const(rng.choice([1, 2, -1])))
        phi2 = ring.z2(n, alg.const(rng.choice([1, 3])))
        if rng.random() < 0.3:
            phi2 = phi2 + ring.z2(rng.randrange(1, n + 1), c)
    else:
        # a pure pair from a unit beta with tails, so some equations keep
        # non-unit coefficients such as s
        beta = ring.series(
            alg.const(rng.choice([1, 2, -1])),
            [alg.s * rng.randrange(-1, 2)],
            [alg.const(rng.randrange(-1, 2))],
        )
        eps = alg.const(rng.choice([1, 3])) + alg.s * rng.randrange(0, 2)
        phi1 = beta * ring.z1(n)
        phi2 = (beta.inverse() * eps) * ring.z2(n)
    if rng.random() < 0.6:
        # a c z1^k term obstructs purity when k < n
        phi1 = phi1 + ring.z1(rng.randrange(1, n + 1), c)
    prod = phi1 * phi2
    if not (all(x.is_zero() for x in prod.a) and all(x.is_zero() for x in prod.b)):
        return
    swap = rng.random() < 0.3
    if swap:
        # exchange the coordinates so the swapped orientation is the live one
        data = ContactData(ring, prod.a0, _zswap(phi1), _zswap(phi2))
    else:
        data = ContactData(ring, prod.a0, phi1, phi2)
    beta, eps, cert = _pure_witness(data, n, swap)
    dense_beta, dense_eps, _ = _pure_solve(
        phi1, _shift_levels(ring.z1(n)), _shift_levels(phi2), n
    )
    if cert is not None and cert.startswith("unsolvable coefficient equation at"):
        assert dense_beta is None
        return
    if swap and dense_beta is not None:
        dense_beta = _zswap(dense_beta)
    assert (beta, eps) == (dense_beta, dense_eps)


def test_product_conserved_by_reparametrization(obstructed):
    # the defining product is untouched by the elimination: whenever the
    # witnesses exist, s^n eps reproduces psi_t; on an obstructed input the
    # discrepancy collected by the ideal accounts for the difference
    data = obstructed_data(obstructed)
    ideal = predeformability_ideal(data, 2)
    _, quotient = ideal.quotient_algebra()
    pushed = data.push(quotient)
    report = check_pure_contact(pushed, 2, allow_swap=False)
    T = pushed.algebra
    assert pushed.psi_t == T.s ** 2 * report.epsilon


def test_forcing_witness_product(Rs6, Qs6):
    beta = Rs6.one() + Rs6.z1(1, Qs6.s) + Rs6.z2(2)
    eps = Qs6.one() + Qs6.s * 2
    phi1 = beta * Rs6.z1(2)
    phi2 = (beta.inverse() * eps) * Rs6.z2(2)
    data = ContactData(Rs6, (phi1 * phi2).a0, phi1, phi2)
    report = flat_local_forcing(data)
    prod = report.beta1 * report.beta2
    assert prod.a0 == report.epsilon == eps
    assert all(x.is_zero() for x in prod.a + prod.b)
    assert data.psi_t == Qs6.s ** 2 * report.epsilon


# --- the structured solve against the product-first dense reference -------


def _reference_series_vec(x):
    out = list(x.a0.coeffs)
    for c in x.a:
        out.extend(c.coeffs)
    for c in x.b:
        out.extend(c.coeffs)
    return out


def _reference_shifted_family(x):
    # the node-series products x * e_j first, then their shifts, by the
    # slot-by-slot oracles, which do not read NodeSeries._levels
    ring = x.ring
    alg = ring.algebra
    base = [
        reference_exactalg.multiply(x, ring.const(alg.basis_element(j)))
        for j in range(alg.dim)
    ]
    fam = list(base)
    for branch in (1, 2):
        level = base
        for _ in range(ring.internal - 1):
            level = [reference_exactalg.shift(y, branch) for y in level]
            fam.extend(level)
    return [_reference_series_vec(y) for y in fam]


def _level_series(ring, level):
    # the normal form of a level given by its (signed z-degree, element) slots
    K = ring.internal - 1
    slots = dict(level)
    zero = ring.algebra.zero()
    return ring._series_internal(
        slots.get(0, zero),
        [slots.get(k, zero) for k in range(1, K + 1)],
        [slots.get(-k, zero) for k in range(1, K + 1)],
    )


def _densify(columns, ring):
    # each column is (q, {row: numerator}), its entries numerator / q
    length = ring.algebra.dim * (2 * ring.internal - 1)
    out = []
    for q, col in columns:
        vec = [Fraction(0)] * length
        for r, n in col.items():
            vec[r] = Fraction(n, q)
        out.append(vec)
    return out


def _reference_dense_pure_solve(phi1, phi2, n):
    # beta summed from its basis series, the system solved densely
    ring = phi1.ring
    alg = ring.algebra
    K = ring.internal - 1
    one = alg.one()
    basis_series = [ring.const(alg.basis_element(j)) for j in range(alg.dim)]
    zn_a = ring.branch_power(1, n, one)
    zn_b = ring.branch_power(2, n, one)
    for branch in (1, 2):
        for k in range(1, K + 1):
            for j in range(alg.dim):
                basis_series.append(
                    ring.branch_power(branch, k, alg.basis_element(j))
                )
    vec_len = alg.dim * (2 * K + 1)
    columns = [
        ua + u2
        for ua, u2 in zip(
            _reference_shifted_family(zn_a), _reference_shifted_family(phi2)
        )
    ]
    zero_block = [Fraction(0)] * vec_len
    for j in range(alg.dim):
        second = _reference_series_vec(zn_b * alg.basis_element(j))
        columns.append(zero_block + [-c for c in second])
    rhs = _reference_series_vec(phi1) + [Fraction(0)] * vec_len
    rows = [[col[i] for col in columns] for i in range(2 * vec_len)]
    solution, info = dense_solve_linear(rows, rhs)
    if solution is None:
        return None, None, "unsolvable coefficient equation (reduced row %d)" % info
    nb = len(basis_series)
    beta = ring.zero()
    for coeff, u in zip(solution[:nb], basis_series):
        if coeff:
            beta = beta + u * coeff
    eps = alg.element(solution[nb:])
    if not beta.is_unit():
        return None, None, "solved unit has vanishing constant term"
    if not eps.is_unit():
        return None, None, "solved base unit has vanishing constant term"
    return beta, eps, None


_SC_BASE = TruncatedAlgebra(
    ("s", "c"), relations=[Poly(2, {(1, 1): 1}), Poly(2, {(0, 2): 1})], order=3
)
_S_BASE = TruncatedAlgebra(("s",), order=4)
_RINGS = (NodeRing(_SC_BASE, order=3), NodeRing(_SC_BASE, order=4), NodeRing(_S_BASE, order=4))
_COEFF = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])


@st.composite
def _elements(draw, alg, unit=False):
    coeffs = draw(st.lists(_COEFF, min_size=alg.dim, max_size=alg.dim))
    if unit and not coeffs[0]:
        coeffs[0] = draw(st.sampled_from([1, -1, 3]))
    return alg.element(coeffs)


@st.composite
def _series(draw, ring, unit=False):
    alg = ring.algebra
    tails = [
        [draw(_elements(alg)) for _ in range(draw(st.integers(0, ring.order - 1)))]
        for _ in range(2)
    ]
    return ring.series(draw(_elements(alg, unit)), *tails)


@st.composite
def _solve_inputs(draw):
    """(phi1, phi2, n): arbitrary pairs, pure pairs, perturbed pure pairs,
    each possibly in the swapped orientation."""
    ring = draw(st.sampled_from(_RINGS))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["arbitrary", "pure", "perturbed"]))
    if kind == "arbitrary":
        phi1 = draw(_series(ring))
        phi2 = draw(_series(ring))
        if draw(st.booleans()):
            phi1 = phi1 + ring.z1(n, draw(_elements(ring.algebra, unit=True)))
    else:
        beta = draw(_series(ring, unit=True))
        # a non-unit eps reaches the vanishing-constant exit for eps
        eps = draw(_elements(ring.algebra, unit=draw(st.integers(0, 3)) > 0))
        phi1 = beta * ring.z1(n)
        phi2 = (beta.inverse() * eps) * ring.z2(n)
        if kind == "perturbed":
            k = draw(st.integers(1, ring.order - 1))
            coeff = draw(_elements(ring.algebra))
            if draw(st.booleans()):
                phi1 = phi1 + ring.z1(k, coeff)
            else:
                phi2 = phi2 + ring.z2(k, coeff)
    if draw(st.booleans()):
        phi1, phi2 = contact._zswap(phi1), contact._zswap(phi2)
    return phi1, phi2, n


@given(_solve_inputs())
@settings(max_examples=120, deadline=None)
def test_structured_solve_matches_dense_reference(inputs):
    # the shift-first sparse family, the sparse elimination and beta read
    # off the solution blocks reproduce the product-first dense solve
    # exactly: witnesses, certificates and their reduced-row indices
    phi1, phi2, n = inputs
    ring = phi1.ring
    for x in (phi1, phi2):
        fam = contact._slot_columns(ring, contact._shift_levels(x))
        assert _densify(fam, ring) == _reference_shifted_family(x)
    levels1 = contact._shift_levels(ring.z1(n))
    got = contact._pure_solve(phi1, levels1, contact._shift_levels(phi2), n)
    assert got == _reference_dense_pure_solve(phi1, phi2, n)
    event("solved" if got[2] is None else got[2])
    prod = phi1 * phi2
    if all(x.is_zero() for x in prod.a + prod.b):
        data = ContactData(phi1.ring, prod.a0, phi1, phi2)
        flag = is_nondegenerate(data)

        def reference_columns(ring, levels):
            # the reference vectors in the columns' integer form
            out = []
            for vec in _reference_shifted_family(_level_series(ring, levels[0])):
                q = math.lcm(*[v.denominator for v in vec])
                col = {
                    r: v.numerator * (q // v.denominator)
                    for r, v in enumerate(vec)
                    if v
                }
                out.append((q, col))
            return out

        with mock.patch.object(contact, "_slot_columns", reference_columns):
            assert flag == is_nondegenerate(data)


def test_z1_power_columns_match_the_shifted_family():
    # the z1^n columns, read off the one nonzero slot of z1^n, against the
    # products z1^n e_j and their shifts, for every contact order of the
    # window; the columns of z1^k past the window and of z2^k past the last
    # nonzero power of s are zero
    vanished = set()
    for ring in _RINGS:
        K = ring.internal - 1
        dim = ring.algebra.dim
        for n in range(1, ring.internal):
            cols = contact._slot_columns(ring, contact._shift_levels(ring.z1(n)))
            expected = _reference_shifted_family(ring.branch_power(1, n))
            assert _densify(cols, ring) == expected
            for u in range(2 * K + 1):
                if u <= K and n + u > K:
                    reason = "past the window"
                elif u > K and min(n, u - K) >= len(ring._s_pows):
                    reason = "past the last power of s"
                else:
                    continue
                assert all(not col for _, col in cols[u * dim : (u + 1) * dim])
                vanished.add(reason)
    assert vanished == {"past the window", "past the last power of s"}


@given(_solve_inputs())
@settings(max_examples=60, deadline=None)
def test_shift_levels_match_the_shift_chain(inputs):
    # each level, read off the nonzero slots of x, is z^k x: brought to
    # normal form it is the ring product, and its exposed slots 0..order are
    # those of the NodeSeries.shift chain it replaced
    phi1, phi2, n = inputs
    ring = phi1.ring
    K = ring.internal - 1
    zero = ring.algebra.zero()
    powers = [ring.one()]
    powers += [ring.branch_power(b, k) for b in (1, 2) for k in range(1, K + 1)]
    for x in (phi1, phi2, ring.z1(n)):
        levels = contact._shift_levels(x)
        reference = reference_contact.shift_levels(x)
        assert len(levels) == len(reference) == len(powers)
        for level, ref, power in zip(levels, reference, powers):
            assert all(not c.is_zero() for _, c in level)
            assert _level_series(ring, level) == x * power
            slots = dict(level)
            for k in range(ring.order + 1):
                assert slots.get(k, zero) == ref.z1_coeff(k)
                assert slots.get(-k, zero) == ref.z2_coeff(k)


@given(_solve_inputs())
@settings(max_examples=60, deadline=None)
def test_linear_rows_match_the_reference(inputs):
    # both identities' rows built from the levels against the hand-written
    # first identity and the second read off the shift chain, for every
    # contact order of the window, in order: label, coefficients, rhs
    phi1, phi2, _ = inputs
    ring = phi1.ring
    levels2 = contact._shift_levels(phi2)
    reference2 = reference_contact.shift_levels(phi2)
    for n in range(1, ring.internal):
        levels1 = contact._shift_levels(ring.z1(n))
        got = contact._linear_rows(phi1, levels1, levels2, n)
        expected = reference_contact.linear_rows(phi1, reference2, n)
        assert [(r.label, r.coeffs, r.rhs) for r in got] == [
            (r.label, r.coeffs, r.rhs) for r in expected
        ]


# --- re-verification by one product against the inverse-based test -------


@st.composite
def _witness_inputs(draw):
    """(phi1, phi2, beta, eps, n, branch) over the rings of the solve tests:
    the witnesses of a pure pair, the same pair perturbed in one slot or with
    a perturbed eps, and arbitrary series, on either branch."""
    ring = draw(st.sampled_from(_RINGS))
    alg = ring.algebra
    n = draw(st.integers(1, 3))
    branch = draw(st.sampled_from([1, 2]))
    beta = draw(_series(ring, unit=True))
    eps = draw(_elements(alg, unit=draw(st.integers(0, 3)) > 0))
    phi1 = beta * ring.branch_power(branch, n)
    phi2 = (beta.inverse() * eps) * ring.branch_power(3 - branch, n)
    kind = draw(st.sampled_from(["pure", "phi1", "phi2", "eps", "arbitrary"]))
    k = draw(st.integers(0, ring.order - 1))
    bump = ring.branch_power(draw(st.sampled_from([1, 2])), k, draw(_elements(alg)))
    if kind == "phi1":
        phi1 = phi1 + bump
    elif kind == "phi2":
        phi2 = phi2 + bump
    elif kind == "eps":
        eps = eps + draw(_elements(alg))
    elif kind == "arbitrary":
        phi1, phi2 = draw(_series(ring)), draw(_series(ring))
    return phi1, phi2, beta, eps, n, branch


@given(_witness_inputs())
@settings(max_examples=150, deadline=None)
def test_product_reverification_matches_inverse(inputs):
    # for a unit beta, beta phi2 = eps z^n holds exactly when the old test
    # phi2 = beta^{-1} eps z^n does, through the reference inverse
    from reference_exactalg import inverse, witnesses_hold

    phi1, phi2, beta, eps, n, branch = inputs
    got = contact._witnesses_hold(phi1, phi2, beta, eps, n, branch)
    assert got == witnesses_hold(phi1, phi2, beta, inverse(beta), eps, n, branch)
    event("holds" if got else "fails")


def test_pure_check_makes_no_series_inverse(Rs6, Qs6):
    # re-verification is by products only, in either orientation; forcing
    # inverts beta once, for beta2
    beta = Rs6.one() + Rs6.z1(1, Qs6.s) + Rs6.z2(2)
    eps = Qs6.one() + Qs6.s * 2
    phi1 = beta * Rs6.z1(2)
    phi2 = (beta.inverse() * eps) * Rs6.z2(2)
    zswap = contact._zswap
    cases = (
        ((phi1, phi2), "straight", True),
        ((zswap(phi2), zswap(phi1)), "straight", True),
        ((zswap(phi1), zswap(phi2)), "swapped", False),
    )
    for (x, y), orientation, forces in cases:
        data = ContactData(Rs6, (x * y).a0, x, y)
        with mock.patch.object(
            NodeSeries, "inverse", autospec=True, side_effect=NodeSeries.inverse
        ) as inverse:
            report = check_pure_contact(data, 2)
            assert report.pure and report.orientation == orientation
            assert inverse.call_count == 0
            if forces:
                flat_local_forcing(data)
                assert inverse.call_count == 1


# --- the one-pass unit-pivot elimination against the restarting one ------


def _eliminated(phi1, phi2, n, obstructions):
    # fresh rows for each elimination, which rewrites them in place: the
    # obstruction rows, then every row as the elimination left it, a pivot
    # row as it stood at its pivot
    ring = phi1.ring
    levels1 = contact._shift_levels(ring.branch_power(1, n))
    rows = contact._linear_rows(phi1, levels1, contact._shift_levels(phi2), n)
    found = [(r.label, r.rhs.render()) for r in obstructions(rows)]
    return found, [(r.label, r.coeffs, r.rhs) for r in rows]


def _ideal_texts(data, n):
    try:
        ideal = predeformability_ideal(data, n)
    except ContactError as exc:
        return exc.code
    return [g.render() for g in ideal.generators]


def _elimination_matches_reference(phi1, phi2, n):
    """The one-pass elimination against the restarting reference: the
    obstruction rows in order, every row's final state, and so the ideal
    when (phi1, phi2) is contact data; returns the obstruction rows."""
    got, rows = _eliminated(phi1, phi2, n, contact._obstructions)
    assert (got, rows) == _eliminated(phi1, phi2, n, reference_contact.obstructions)
    prod = phi1 * phi2
    if all(x.is_zero() for x in prod.a + prod.b):
        data = ContactData(phi1.ring, prod.a0, phi1, phi2)
        ideal = _ideal_texts(data, n)
        with mock.patch.object(contact, "_obstructions", reference_contact.obstructions):
            assert _ideal_texts(data, n) == ideal
    return got


@given(_solve_inputs())
@settings(max_examples=100, deadline=None)
def test_one_pass_elimination_matches_the_restarting_reference(inputs):
    phi1, phi2, n = inputs
    for x, y in ((phi1, phi2), (contact._zswap(phi1), contact._zswap(phi2))):
        got = _elimination_matches_reference(x, y, n)
        event("obstructed" if got else "no obstruction")


def test_one_pass_elimination_under_coordinate_changes(obstructed):
    # the inputs of test_contact_coordinates, the shallow ring order 4
    # included, each as given and after every change of coordinates
    from test_contact_coordinates import CHANGES, cube_or_fixture

    with_obstructions = 0
    for n in (2, 3):
        for order in range(4, 7):
            data = cube_or_fixture(obstructed, n, order)
            moved = [change(data, value) for change, value in CHANGES]
            for d in [data] + moved:
                if _elimination_matches_reference(d.phi_w1, d.phi_w2, n):
                    with_obstructions += 1
    assert with_obstructions > 0


def test_one_pass_elimination_on_the_acceptance_fixtures():
    from test_acceptance import _fixtures

    counts = []
    for _, data, n in _fixtures():
        for d in (data, data.swapped()):
            counts.append(len(_elimination_matches_reference(d.phi_w1, d.phi_w2, n)))
    assert any(counts)
