import dataclasses
import itertools
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from degkit import (
    AdmissibleGraph,
    AdmissibleTriple,
    ClassGroup,
    EnumerationCaps,
    GraphError,
    NUMERIC_GROUP,
    Piece,
    SplitMap,
    SplitMapError,
    TopType,
    TripleAlphabet,
    decompose,
    enumerate_split_maps,
    enumerate_stable_types,
    enumerate_triples,
    eq_group,
    fiber_count,
    glue,
    glue_halves,
    graph_from_json,
    half_to_graph,
    max_length_bound,
    phi_degree,
    realize_split_map,
    specialization_sum_check,
    split_map_from_json,
    triples_equivalent,
)
import degkit.combgraphs as cg
from degkit.combgraphs import DisconnectedMapError, _alphabet_graphs, _assemble
from reference_combgraphs import (
    NORM3_TYPES,
    NORM4_TYPES,
    WINDOW_CAPS,
    acceptance_caps,
    gluing_identity_causes,
    ref_assemble,
    ref_distribute_marks,
    ref_fiber_count,
    ref_halves,
    ref_interface_image,
    ref_is_group,
    ref_mark_need,
    ref_matchings,
    ref_orders_onto,
    ref_piece_need,
    ref_symmetry,
    ref_triple_key,
    triples_digest,
)


# --- split maps and weights -------------------------------------------------


def test_weight_formula():
    # middle piece of degree 2 with one mark and two nodes weighs 3
    m = SplitMap(
        [[Piece(0, 1, 3)], [Piece(0, 2, 1)], [Piece(1, 1, 0)]],
        [((1, 0, 0),), ((1, 0, 0),)],
    )
    assert m.weight(2) == 2 + 0 - 2 + 1 + 2
    assert m.weight(1) == 1 - 2 + 3 + 1


def test_weight_of_empty_group():
    m = SplitMap([[Piece(0, 3, 3)], []], [()])
    assert m.weight(2) == 0


def test_trivial_piece_weighs_zero():
    m = SplitMap(
        [[Piece(1, 1, 1)], [Piece(0, 0, 0)], [Piece(1, 1, 1)]],
        [((2, 0, 0),), ((2, 0, 0),)],
    )
    assert m.weight(2) == 0
    assert m.is_trivial_piece(2, 0)
    assert not m.is_stable()
    assert not m.stability_oracle()


def test_mixed_middle_is_stable():
    m = SplitMap(
        [[Piece(1, 1, 1)], [Piece(0, 0, 0), Piece(0, 1, 0)], [Piece(1, 1, 1)]],
        [((2, 0, 0), (1, 0, 1)), ((2, 0, 0), (1, 1, 0))],
    )
    assert m.weight(2) == 1
    assert m.is_stable() and m.stability_oracle()


def test_single_end_map_is_stable():
    m = SplitMap([[Piece(0, 3, 3)], []], [()])
    assert m.is_stable()
    assert m.verify_norm_identity()


def test_norm_identity_example():
    m = SplitMap([[Piece(1, 3, 2)], []], [()])
    t = m.total_type()
    assert (t.degree, t.genus, t.marks) == (3, 1, 2)
    assert t.norm() == 5 == sum(m.weights())


def test_invalid_maps_rejected():
    with pytest.raises(SplitMapError):
        SplitMap([[Piece(0, 1, 0)], [Piece(0, 1, 0)]], [()])  # disconnected
    with pytest.raises(SplitMapError):
        SplitMap([[Piece(0, 1, 0)], []], [((1, 0, 5),)])  # out of range
    with pytest.raises(SplitMapError):
        SplitMap([[Piece(0, 1, 0)], [Piece(0, 1, 0)]], [((0, 0, 0),)])  # weight


@pytest.mark.parametrize(
    "call, index, error",
    [
        (SplitMap.automorphism_interface_image, 0, SplitMapError),
        (SplitMap.automorphism_interface_image, 3, SplitMapError),
        (SplitMap.automorphism_interface_image, True, TypeError),
        (SplitMap.automorphism_interface_image, 1.0, TypeError),
        (decompose, True, TypeError),
        (decompose, 1.0, TypeError),
        (SplitMap.weight, True, TypeError),
        (SplitMap.weight, 1.0, TypeError),
        (SplitMap.interface_weights, 0, SplitMapError),
        (SplitMap.interface_weights, 3, SplitMapError),
        (SplitMap.interface_weights, True, TypeError),
        (SplitMap.interface_weights, 1.0, TypeError),
    ],
)
def test_split_map_indices_refused(call, index, error):
    # on a map with n = 1, interface 0 must not wrap around to interface 2,
    # interface 3 must not leak an IndexError, and no bool or float is an
    # index
    m = SplitMap(
        [[Piece(0, 1, 0)], [Piece(0, 1, 0)], [Piece(0, 1, 0)]],
        [((1, 0, 0),), ((1, 0, 0),)],
    )
    with pytest.raises(error):
        call(m, index)


PIECE_READERS = [
    SplitMap.left_contacts,
    SplitMap.right_contacts,
    SplitMap.is_trivial_piece,
]


@pytest.mark.parametrize(
    "i, p, error",
    [
        (0, 0, SplitMapError),
        (-1, 0, SplitMapError),
        (4, 0, SplitMapError),
        (2, 2, SplitMapError),
        (2, -1, SplitMapError),
        (True, 0, TypeError),
        (2.0, 0, TypeError),
        (2, True, TypeError),
        (2, 0.0, TypeError),
    ],
)
@pytest.mark.parametrize("call", PIECE_READERS, ids=lambda f: f.__name__)
def test_split_map_piece_indices_refused(call, i, p, error):
    # on a map with n = 1, group 0 must not wrap around to group 3, nor
    # piece -1 to the last piece, and no bool or float is an index
    m = SplitMap(
        [[Piece(0, 1, 0)], [Piece(0, 0, 0), Piece(0, 1, 0)], [Piece(0, 1, 0)]],
        [((1, 0, 0), (1, 0, 1)), ((1, 0, 0), (1, 1, 0))],
    )
    with pytest.raises(error):
        call(m, i, p)


def test_disconnection_has_its_own_error():
    with pytest.raises(DisconnectedMapError):
        SplitMap([[Piece(0, 1, 0)], [Piece(0, 1, 0)]], [()])
    # other rejections must not look like disconnections
    with pytest.raises(SplitMapError) as info:
        SplitMap([[Piece(0, 1, 0)], [Piece(0, 1, 0)]], [((0, 0, 0),)])
    assert not isinstance(info.value, DisconnectedMapError)


def test_ample_weights():
    m = SplitMap(
        [
            [Piece(0, 2, 1)],
            [Piece(0, 1, 0)],
            [Piece(1, 1, 1)],
        ],
        [((1, 0, 0),), ((1, 0, 0),)],
    )
    assert m.weights() == (2, 1, 3)
    assert m.ample_weights() == (2, 3)


def test_ample_weights_length_one():
    m = SplitMap([[Piece(0, 3, 3)], []], [()])
    assert m.ample_weights() == (4,)


def test_ample_weights_need_stability():
    m = SplitMap(
        [[Piece(1, 1, 1)], [Piece(0, 0, 0)], [Piece(1, 1, 1)]],
        [((2, 0, 0),), ((2, 0, 0),)],
    )
    with pytest.raises(SplitMapError):
        m.ample_weights()


def test_max_length_bound():
    assert max_length_bound(TopType(1, 0, 2)) == 1
    assert max_length_bound(TopType(3, 1, 2)) == 5
    with pytest.raises(SplitMapError):
        max_length_bound(TopType(0, 0, 0))


@pytest.mark.parametrize(
    "t", [TopType(2.5, 0, 1), TopType(1, True, 1)], ids=["float", "bool"]
)
def test_max_length_bound_refuses_inexact_fields(t):
    # TopType(2.5, 0, 1) had the bound 1.5
    with pytest.raises(TypeError):
        max_length_bound(t)


def test_split_map_json_roundtrip():
    m = SplitMap(
        [[Piece(0, 2, 1)], [Piece(0, 1, 0)], [Piece(1, 1, 1)]],
        [((1, 0, 0),), ((1, 0, 0),)],
    )
    assert split_map_from_json(m.to_json()) == m


# --- enumeration --------------------------------------------------------------


def test_enumeration_includes_plain_map():
    maps = enumerate_split_maps(TopType(1, 0, 0))
    plain = SplitMap([[Piece(0, 1, 0)], []], [()])
    assert any(m.n == 0 and m.canonical_key() == plain.canonical_key() for m in maps)


def test_enumeration_regression_counts():
    assert len(enumerate_stable_types(TopType(2, 0, 0))) == 4
    assert len(enumerate_stable_types(TopType(1, 0, 2))) == 6
    assert len(enumerate_stable_types(TopType(0, 2, 0))) == 4


def test_enumeration_is_deterministic():
    a = [m.canonical_key() for m in enumerate_split_maps(TopType(2, 0, 1))]
    b = [m.canonical_key() for m in enumerate_split_maps(TopType(2, 0, 1))]
    assert a == b


def test_enumeration_norm_and_bound():
    t = TopType(2, 0, 1)
    for m in enumerate_split_maps(t):
        assert m.verify_norm_identity()
        assert m.total_type() == t
        assert m.n <= t.norm()


def test_enumeration_stability_agreement():
    for t in (TopType(2, 0, 0), TopType(1, 0, 2), TopType(0, 2, 0), TopType(2, 0, 1)):
        for m in enumerate_split_maps(t):
            assert m.is_stable() == m.stability_oracle()


REFUSED_ENUMERATIONS = [
    ("negative degree", (TopType(-1, 0, 4), EnumerationCaps()), SplitMapError),
    ("negative marks", (TopType(3, 0, -1), EnumerationCaps()), SplitMapError),
    (
        "negative interface cap",
        (TopType(1, 0, 1), EnumerationCaps(nodes_per_interface=-1)),
        SplitMapError,
    ),
    (
        "negative node budget",
        (TopType(1, 0, 1), EnumerationCaps(max_total_nodes=-1)),
        SplitMapError,
    ),
    ("bool cap", (TopType(1, 0, 2), EnumerationCaps(pieces_per_group=True)), TypeError),
    ("float cap", (TopType(1, 0, 2), EnumerationCaps(max_weight=2.0)), TypeError),
    ("float degree", (TopType(2.0, 0, 1), EnumerationCaps()), TypeError),
    # (1, 0, 1) has norm 0, so comparing with the bound let these through
    ("float norm bound", (TopType(1, 0, 1), EnumerationCaps(), False, 2.5), TypeError),
    ("bool norm bound", (TopType(1, 0, 1), EnumerationCaps(), False, True), TypeError),
]


@pytest.mark.parametrize(
    "args, error",
    [case[1:] for case in REFUSED_ENUMERATIONS],
    ids=[case[0] for case in REFUSED_ENUMERATIONS],
)
def test_enumeration_refuses_bad_input(args, error):
    with pytest.raises(error):
        enumerate_split_maps(*args)


def test_enumeration_refuses_a_norm_above_the_bound():
    # (9, 0, 0) has norm 7, one above the default bound of 6, and is refused
    # before any expansion length is enumerated, in both modes
    t = TopType(9, 0, 0)
    assert t.norm() == 7
    with mock.patch.object(cg, "_enumerate_for_n", side_effect=AssertionError):
        for enumerate_maps in (
            enumerate_split_maps,
            lambda t: enumerate_split_maps(t, stable_only=True),
            enumerate_stable_types,
        ):
            with pytest.raises(SplitMapError) as info:
                enumerate_maps(t)
            assert str(info.value) == "norm above the configured bound 6"
        for bad in (6.0, True):
            with pytest.raises(TypeError):
                enumerate_split_maps(t, max_norm=bad)
            with pytest.raises(TypeError):
                enumerate_stable_types(t, max_norm=bad)


@pytest.mark.parametrize("field", ["max_roots", "max_vertices", "max_legs_per_side"])
def test_triple_enumeration_refuses_bad_alphabet_counts(field):
    # True enumerated as 1 (max_roots=True gave the 12 triples of r <= 1)
    # and max_roots=-1 gave []; each field is checked before any graph is
    # built
    with mock.patch.object(cg, "_alphabet_graphs", side_effect=AssertionError):
        for bad in (True, False, 1.0, 2.5):
            with pytest.raises(TypeError, match=field):
                enumerate_triples(TripleAlphabet(**{field: bad}))
        with pytest.raises(GraphError, match="%s must be nonnegative" % field):
            enumerate_triples(TripleAlphabet(**{field: -1}))
    # zero is a count, not a refusal
    assert enumerate_triples(TripleAlphabet(**{"max_roots": 2, field: 0}))


@pytest.mark.parametrize("bad", [1.9, True, "1"])
def test_triple_refuses_inexact_leg_indices(bad):
    # int() made each of these leg 1
    legged = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 1),), (0,), ((0, 1),))
    bare = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 1),), (), ((0, 1),))
    assert AdmissibleTriple(legged, bare, (1,)).first_legs == (1,)
    with pytest.raises(TypeError):
        AdmissibleTriple(legged, bare, (bad,))


def test_enumeration_accepts_zero_and_absent_caps():
    caps = EnumerationCaps(max_weight=None, max_total_nodes=0)
    assert len(enumerate_split_maps(TopType(1, 0, 1), caps)) == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: ClassGroup(2, (1.5, 0), (0, 1)),
        lambda: ClassGroup(2, (1, 0), (0, True)),
        lambda: ClassGroup(2.0, (1, 0), (0, 1)),
    ],
    ids=["float", "bool", "float rank"],
)
def test_class_group_refuses_inexact_values(build):
    # int() made these the numeric group (1, 0), (0, 1)
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "field, value",
    [("genera", (1.5,)), ("classes", ((1, 0.5),)), ("roots", ((0, True),))],
)
def test_graph_refuses_inexact_values(field, value):
    data = {"genera": (1,), "classes": ((1, 0),), "legs": (), "roots": ((0, 1),)}
    data[field] = value
    with pytest.raises(TypeError):
        AdmissibleGraph(NUMERIC_GROUP, **data)


PLAIN = [[Piece(0, 1, 0)], [Piece(0, 1, 0)]]


@pytest.mark.parametrize(
    "groups, nodes, field",
    [
        ([[Piece(0.5, True, 0)], [Piece(0, 1, 0)]], [[(True, 0, 0)]], "piece genus"),
        ([[Piece(0, True, 0)], [Piece(0, 1, 0)]], [[(1, 0, 0)]], "piece degree"),
        ([[Piece(0, 1, 1.0)], [Piece(0, 1, 0)]], [[(1, 0, 0)]], "piece marks"),
        (PLAIN, [[(True, 0, 0)]], "node weight"),
        (PLAIN, [[(1.5, 0, 0)]], "node weight"),
        (PLAIN, [[(1, False, 0)]], "left piece index"),
        (PLAIN, [[(1, 0, 0.0)]], "right piece index"),
    ],
)
def test_split_map_refuses_inexact_values(groups, nodes, field):
    # each of these was accepted and keyed; a float node weight was refused
    # only inside fiber_count, by the graph constructor
    with pytest.raises(TypeError, match=field):
        SplitMap(groups, nodes)


# --- the node-total window --------------------------------------------------

# (all maps, stable maps) per type (degree, genus, marks) under each caps
# variant, recorded before the node-total window moved into the search
ALL_MAPS_COUNTS = {
    "default": {
        (0, 0, 0): (0, 0), (0, 0, 1): (0, 0), (0, 0, 2): (0, 0),
        (0, 0, 3): (2, 2), (0, 0, 4): (8, 4), (0, 0, 5): (42, 14),
        (0, 1, 0): (0, 0), (0, 1, 1): (2, 2), (0, 1, 2): (17, 9),
        (0, 1, 3): (94, 34), (0, 2, 0): (8, 4), (0, 2, 1): (58, 22),
        (1, 0, 0): (2, 2), (1, 0, 1): (2, 2), (1, 0, 2): (10, 6),
        (1, 0, 3): (46, 22), (1, 0, 4): (262, 92), (1, 1, 0): (10, 6),
        (1, 1, 1): (54, 30), (1, 1, 2): (410, 156), (1, 2, 0): (140, 48),
        (2, 0, 0): (4, 4), (2, 0, 1): (18, 14), (2, 0, 2): (110, 62),
        (2, 0, 3): (746, 304), (2, 1, 0): (79, 43), (2, 1, 1): (746, 316),
        (3, 0, 0): (20, 16), (3, 0, 1): (126, 78), (3, 0, 2): (1258, 582),
        (3, 1, 0): (690, 298), (4, 0, 0): (102, 66), (4, 0, 1): (1251, 635),
        (5, 0, 0): (737, 381),
    },
    "total2": {
        (0, 0, 0): (0, 0), (0, 0, 1): (0, 0), (0, 0, 2): (0, 0),
        (0, 0, 3): (2, 2), (0, 0, 4): (6, 4), (0, 0, 5): (18, 14),
        (0, 1, 0): (0, 0), (0, 1, 1): (2, 2), (0, 1, 2): (13, 9),
        (0, 1, 3): (36, 28), (0, 2, 0): (6, 4), (0, 2, 1): (24, 20),
        (1, 0, 0): (2, 2), (1, 0, 1): (2, 2), (1, 0, 2): (10, 6),
        (1, 0, 3): (30, 22), (1, 0, 4): (72, 60), (1, 1, 0): (10, 6),
        (1, 1, 1): (36, 28), (1, 1, 2): (110, 94), (1, 2, 0): (46, 38),
        (2, 0, 0): (4, 4), (2, 0, 1): (18, 14), (2, 0, 2): (58, 48),
        (2, 0, 3): (134, 118), (2, 1, 0): (45, 37), (2, 1, 1): (138, 122),
        (3, 0, 0): (20, 16), (3, 0, 1): (56, 48), (3, 0, 2): (154, 138),
        (3, 1, 0): (102, 90), (4, 0, 0): (40, 34), (4, 0, 1): (120, 108),
        (5, 0, 0): (70, 62),
    },
    "total0": {
        (0, 0, 0): (0, 0), (0, 0, 1): (0, 0), (0, 0, 2): (0, 0),
        (0, 0, 3): (2, 2), (0, 0, 4): (2, 2), (0, 0, 5): (2, 2),
        (0, 1, 0): (0, 0), (0, 1, 1): (2, 2), (0, 1, 2): (2, 2),
        (0, 1, 3): (2, 2), (0, 2, 0): (2, 2), (0, 2, 1): (2, 2),
        (1, 0, 0): (2, 2), (1, 0, 1): (2, 2), (1, 0, 2): (2, 2),
        (1, 0, 3): (2, 2), (1, 0, 4): (2, 2), (1, 1, 0): (2, 2),
        (1, 1, 1): (2, 2), (1, 1, 2): (2, 2), (1, 2, 0): (2, 2),
        (2, 0, 0): (2, 2), (2, 0, 1): (2, 2), (2, 0, 2): (2, 2),
        (2, 0, 3): (2, 2), (2, 1, 0): (2, 2), (2, 1, 1): (2, 2),
        (3, 0, 0): (2, 2), (3, 0, 1): (2, 2), (3, 0, 2): (2, 2),
        (3, 1, 0): (2, 2), (4, 0, 0): (2, 2), (4, 0, 1): (2, 2),
        (5, 0, 0): (2, 2),
    },
    "npi1": {
        (0, 0, 0): (0, 0), (0, 0, 1): (0, 0), (0, 0, 2): (0, 0),
        (0, 0, 3): (2, 2), (0, 0, 4): (8, 4), (0, 0, 5): (30, 8),
        (0, 1, 0): (0, 0), (0, 1, 1): (2, 2), (0, 1, 2): (14, 6),
        (0, 1, 3): (58, 14), (0, 2, 0): (8, 4), (0, 2, 1): (30, 8),
        (1, 0, 0): (2, 2), (1, 0, 1): (2, 2), (1, 0, 2): (10, 6),
        (1, 0, 3): (38, 14), (1, 0, 4): (162, 34), (1, 1, 0): (10, 6),
        (1, 1, 1): (38, 14), (1, 1, 2): (226, 46), (1, 2, 0): (82, 18),
        (2, 0, 0): (4, 4), (2, 0, 1): (12, 8), (2, 0, 2): (76, 28),
        (2, 0, 3): (404, 84), (2, 1, 0): (56, 20), (2, 1, 1): (374, 76),
        (3, 0, 0): (14, 10), (3, 0, 1): (82, 34), (3, 0, 2): (598, 134),
        (3, 1, 0): (338, 70), (4, 0, 0): (64, 28), (4, 0, 1): (550, 136),
        (5, 0, 0): (322, 82),
    },
    "w1npi3": {
        (0, 0, 0): (0, 0), (0, 0, 1): (0, 0), (0, 0, 2): (0, 0),
        (0, 0, 3): (2, 2), (0, 0, 4): (5, 3), (0, 0, 5): (20, 7),
        (0, 1, 0): (0, 0), (0, 1, 1): (2, 2), (0, 1, 2): (9, 5),
        (0, 1, 3): (41, 15), (0, 2, 0): (6, 4), (0, 2, 1): (28, 13),
        (1, 0, 0): (2, 2), (1, 0, 1): (2, 2), (1, 0, 2): (6, 4),
        (1, 0, 3): (22, 10), (1, 0, 4): (102, 33), (1, 1, 0): (6, 4),
        (1, 1, 1): (26, 14), (1, 1, 2): (153, 57), (1, 2, 0): (56, 23),
        (2, 0, 0): (3, 3), (2, 0, 1): (9, 7), (2, 0, 2): (42, 22),
        (2, 0, 3): (237, 91), (2, 1, 0): (30, 16), (2, 1, 1): (237, 102),
        (3, 0, 0): (9, 7), (3, 0, 1): (43, 25), (3, 0, 2): (329, 145),
        (3, 1, 0): (181, 82), (4, 0, 0): (30, 18), (4, 0, 1): (286, 138),
        (5, 0, 0): (148, 72),
    },
}


def _reference_piece_tuples(count, deg_budget, gen_budget):
    options = [(g, d) for g in range(gen_budget + 1) for d in range(deg_budget + 1)]
    return [
        combo
        for combo in itertools.combinations_with_replacement(options, count)
        if sum(c[1] for c in combo) <= deg_budget
        and sum(c[0] for c in combo) <= gen_budget
    ]


def _reference_group_data(t, counts, n, caps, stable_only):
    # every placement of degree and genus, with the stable-mode weight bounds
    # but no node-total window
    groups_count = len(counts)
    middle_floor = 1 - 2 * caps.nodes_per_interface - t.marks

    def base_of(combo):
        return sum(d + 2 * g - 2 for g, d in combo)

    def rec(i, deg_left, gen_left, end_base):
        if i == groups_count:
            if deg_left == 0:
                yield []
            return
        for combo in _reference_piece_tuples(counts[i], deg_left, gen_left):
            if stable_only and n >= 1:
                base = base_of(combo)
                if 1 <= i <= groups_count - 2 and base < middle_floor:
                    continue
                if i == groups_count - 1 and end_base + base > t.norm() - n - 2:
                    continue
            d = sum(c[1] for c in combo)
            g = sum(c[0] for c in combo)
            nxt = end_base + base_of(combo) if i == 0 else end_base
            for rest in rec(i + 1, deg_left - d, gen_left - g, nxt):
                yield [combo] + rest

    yield from rec(0, t.degree, t.genus, 0)


def _reference_candidates(t, n, caps, stable_only):
    """Every count vector and group-data placement boxed into pieces, then
    filtered by node total after the fact; the last bound, at most
    ``nodes_per_interface`` per interface, leaves no node-count vector."""
    for counts in itertools.product(
        *[range(1 if n >= 1 else 0, caps.pieces_per_group + 1)] * (n + 2)
    ):
        if sum(counts) == 0:
            continue
        for group_data in _reference_group_data(t, counts, n, caps, stable_only):
            pieces = [tuple(Piece(g, d, 0) for g, d in gd) for gd in group_data]
            loops = t.genus - sum(p.genus for g in pieces for p in g)
            node_total = sum(counts) - 1 + loops
            if node_total < 0 or (n >= 1 and node_total < n + 1):
                continue
            if node_total > caps.node_budget(t):
                continue
            if n == 0 and node_total > 0 and (not pieces[0] or not pieces[1]):
                continue
            if node_total > (n + 1) * caps.nodes_per_interface:
                continue
            yield pieces, node_total


def _reference_maps(t, caps, stable_only, candidates):
    """The maps the reference assembly and mark placement make of the given
    (n, pieces, node_total) candidates, deduped in order."""
    maps, seen = [], set()
    for n, pieces, node_total in candidates:
        for skeleton in ref_assemble(
            n, pieces, node_total, caps, caps.weight_cap(t), stable_only, t.marks
        ):
            for sm in ref_distribute_marks(skeleton, t.marks):
                if stable_only and not sm.is_stable():
                    continue
                key = (sm.n, sm.canonical_key())
                if key not in seen:
                    seen.add(key)
                    maps.append(sm)
    return maps


def _reference_enumeration(t, caps, stable_only):
    """(maps, candidates handed to _assemble) of the unwindowed search."""
    calls = [
        (n, tuple(pieces), node_total)
        for n in range(max(0, t.norm()) + 1)
        for pieces, node_total in _reference_candidates(t, n, caps, stable_only)
    ]
    return _reference_maps(t, caps, stable_only, calls), calls


def _recorded_enumeration(t, caps, stable_only):
    """enumerate_split_maps with the candidates it hands to _assemble."""
    calls = []
    real = cg._assemble

    def recording(n, pieces, node_total, *rest):
        calls.append((n, tuple(pieces), node_total))
        return real(n, pieces, node_total, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "_assemble", recording)
        maps = enumerate_split_maps(t, caps, stable_only=stable_only)
    return maps, calls


@pytest.fixture(scope="module")
def windowed_runs():
    """enumerate_split_maps on every type of norm <= 3, both modes, under
    each caps variant, with the candidates it hands to _assemble."""
    return {
        (name, t, stable): _recorded_enumeration(t, caps, stable)
        for name, caps in WINDOW_CAPS.items()
        for t in NORM3_TYPES
        for stable in (False, True)
    }


def test_all_maps_counts_pinned(windowed_runs):
    got = {
        name: {
            (t.degree, t.genus, t.marks): tuple(
                len(windowed_runs[name, t, stable][0]) for stable in (False, True)
            )
            for t in NORM3_TYPES
        }
        for name in WINDOW_CAPS
    }
    assert got == ALL_MAPS_COUNTS


def _left_out(calls, ref_calls):
    """The entries of ``ref_calls`` that ``calls`` leaves out; ``calls`` must
    be ``ref_calls`` with some entries removed, in the same order."""
    kept = iter(calls)
    nxt = next(kept, None)
    left_out = []
    for call in ref_calls:
        if call == nxt:
            nxt = next(kept, None)
        else:
            left_out.append(call)
    assert nxt is None, "a candidate the reference does not hand over, or out of order"
    return left_out


@pytest.mark.parametrize("variant", list(WINDOW_CAPS))
def test_window_matches_unwindowed_reference(windowed_runs, variant):
    # the window and the forced-mark floor only cut candidates that assemble
    # nothing: the candidates that reach _assemble are the unwindowed
    # search's with some left out, in order; the reference assembles no
    # skeleton from a left-out one whose forced marks fit the budget; and
    # the emitted lists, in order, are the unwindowed search's
    caps = WINDOW_CAPS[variant]
    removed = 0
    for t in NORM3_TYPES:
        for stable in (False, True):
            maps, calls = windowed_runs[variant, t, stable]
            ref_maps, ref_calls = _reference_enumeration(t, caps, stable)
            for n, pieces, node_total in _left_out(calls, ref_calls):
                removed += 1
                for skeleton in ref_assemble(
                    n, pieces, node_total, caps, caps.weight_cap(t), stable, t.marks
                ):
                    assert _forced_marks(skeleton) > t.marks, skeleton
            assert maps == ref_maps, (t, stable)
    assert removed


def test_piece_tuples_match_reference():
    # the cached group data: the reference's (g, d) tuples in order, each
    # as mark-free Pieces with their degree sum, genus sum and base
    for count, deg_budget, gen_budget in itertools.product(
        range(4), range(6), range(6)
    ):
        got = cg._piece_tuples(count, deg_budget, gen_budget)
        expected = _reference_piece_tuples(count, deg_budget, gen_budget)
        assert [
            tuple((p.genus, p.degree) for p in pieces) for pieces, _, _, _ in got
        ] == expected, (count, deg_budget, gen_budget)
        for (pieces, degree, genus, base), combo in zip(got, expected):
            assert all(type(p) is Piece and p.marks == 0 for p in pieces), combo
            assert degree == sum(d for _, d in combo), combo
            assert genus == sum(g for g, _ in combo), combo
            assert base == sum(d + 2 * g - 2 for g, d in combo), combo


def _forced_marks(skeleton):
    return sum(
        ref_mark_need(skeleton, i + 1, p)
        for i, g in enumerate(skeleton.groups)
        for p in range(len(g))
    )


@pytest.mark.parametrize("t", NORM4_TYPES, ids=str)
def test_pruned_assembly_matches_reference(t):
    # for every candidate, _assemble yields exactly the reference's connected
    # skeletons whose forced marks fit the budget, in order, and the emitted
    # list is the reference's; the norm-four types of the benchmark draw
    # three and more interfaces over groups of two pieces, where components
    # merge and close mid-assembly
    caps = acceptance_caps(t)
    maps, calls = _recorded_enumeration(t, caps, True)
    for n, pieces, node_total in calls:
        args = (n, pieces, node_total, caps, caps.weight_cap(t), True, t.marks)
        expected = [
            sk for sk in ref_assemble(*args) if _forced_marks(sk) <= t.marks
        ]
        assert list(_assemble(*args)) == expected, (n, pieces, node_total)
    assert maps == _reference_maps(t, caps, True, calls)


def test_mark_floor_is_the_least_forced_marks():
    # with C contacts a group carries at least max(0, floor - C) forced
    # marks, and exactly that many under its best split of C over the
    # pieces: the floor of every group of one to three pieces, in an end or
    # a middle group, with and without a contact on every piece, against
    # the least forced marks over every such split
    cap = EnumerationCaps().nodes_per_interface
    data = [Piece(g, d, 0) for g in range(3) for d in range(3)]
    for size in (1, 2, 3):
        for group in itertools.combinations_with_replacement(data, size):
            for end, touch in itertools.product((True, False), (0, 1)):
                floor = cg._mark_floor(group, end, touch)
                for contacts in range(touch * size, 2 * cap + 1):
                    least = min(
                        sum(map(ref_piece_need, group, [end] * size, split))
                        for split in itertools.product(
                            range(touch, contacts + 1), repeat=size
                        )
                        if sum(split) == contacts
                    )
                    assert max(0, floor - contacts) == least, (
                        group, end, touch, contacts
                    )


def _clear_enumeration_caches():
    # every memo of the module, found by introspection so a new one is not
    # missed
    for value in vars(cg).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def test_level_memo_is_independent_of_fill_order():
    # _assemble keeps each level's surviving options across calls, keyed by
    # what they depend on; filled in the opposite order, or read warm, the
    # memo must give the same lists in the same order
    runs = sorted(BURNSIDE_RUNS, key=lambda run: (run[0], run[2]))

    def enumerate_all(order):
        return {
            (t, stable): enumerate_split_maps(t, caps, stable_only=stable)
            for t, caps, stable in order
        }

    _clear_enumeration_caches()
    forward = enumerate_all(runs)
    _clear_enumeration_caches()
    backward = enumerate_all(runs[::-1])
    assert cg._level_options.cache_info().currsize
    assert backward == forward
    assert enumerate_all(runs) == forward


# every left piece kind around the "mid" one whose allowance varies, over
# right groups with fiber and non-fiber pieces in one or two classes
CLAMP_LEFT = [
    lambda a: (("mid", 0, a),),
    lambda a: (("mid", 0, a), ("mid", 0, a)),
    lambda a: (("mid", 0, a), ("mid", 1, 0)),
    lambda a: (("fiber", 0, 2), ("mid", 1, a)),
    lambda a: (("mid", 0, a), ("mid", 1, a)),
]
CLAMP_RIGHT = [
    ((0, False),),
    ((0, True),),
    ((0, False), (0, False)),
    ((0, True), (1, False)),
]


def test_interface_options_read_the_allowance_only_up_to_one():
    # _assemble clamps a mid piece's allowance at 1 and shares the cache
    # entry; a clamp at 0 would not be exact
    zero_differs = 0
    for left, right_spec, q, wcap, needs_left in itertools.product(
        CLAMP_LEFT, CLAMP_RIGHT, range(4), (1, 2), (False, True)
    ):
        at_one = cg._interface_options(left(1), q, wcap, right_spec, needs_left)
        for a in range(-3, 5):
            got = cg._interface_options(left(a), q, wcap, right_spec, needs_left)
            clamped = cg._interface_options(
                left(min(a, 1)), q, wcap, right_spec, needs_left
            )
            assert got == clamped, (left(a), q, wcap, right_spec, needs_left)
        at_zero = cg._interface_options(left(0), q, wcap, right_spec, needs_left)
        zero_differs += at_zero != at_one
    assert zero_differs > 0


def test_interface_options_need_a_contact_on_right_fiber_pieces():
    # one end piece on the left, two degree-zero pieces of distinct classes
    # on the right, weights up to 1: with needs_left an interface must reach
    # both right pieces, without it the ones that miss a piece stay
    left, right = (("free", 0),), ((0, True), (1, True))
    one = (((1, 0, 0),), (0, 1)), (((1, 0, 1),), (0, 1))
    both = (((1, 0, 0), (1, 0, 1)), (0, 1))
    two = (((1, 0, 0), (1, 0, 0)), (0, 1)), both, (((1, 0, 1), (1, 0, 1)), (0, 1))
    assert cg._interface_options(left, 1, 1, right, False) == one
    assert cg._interface_options(left, 1, 1, right, True) == ()
    assert cg._interface_options(left, 2, 1, right, False) == two
    assert cg._interface_options(left, 2, 1, right, True) == (both,)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_orbit_extras_match_a_filter_over_all_tuples(size):
    for budget in range(7):
        expected = sorted(
            (
                vals
                for vals in itertools.product(range(budget + 1), repeat=size)
                if sum(vals) <= budget
                and all(a >= b for a, b in zip(vals, vals[1:]))
            ),
            reverse=True,
        )
        assert cg._orbit_extras(size, budget) == tuple(expected), budget


# --- canonical form and automorphisms -------------------------------------


def _maps_of_norm_at_most_2():
    out = []
    for d in range(5):
        for g in range(3):
            for k in range(5):
                t = TopType(d, g, k)
                if t.norm() <= 2:
                    for stable in (False, True):
                        out.extend(enumerate_split_maps(t, stable_only=stable))
    return out


SMALL_MAPS = _maps_of_norm_at_most_2()


def _draw_shuffled(data):
    """A map of norm <= 2 and a copy with the pieces of every group
    shuffled and the node attachments remapped to match."""
    m = data.draw(st.sampled_from(SMALL_MAPS))
    perms = [data.draw(st.permutations(range(len(g)))) for g in m.groups]
    groups = []
    for g, perm in zip(m.groups, perms):
        moved = [None] * len(g)
        for p, piece in enumerate(g):
            moved[perm[p]] = piece
        groups.append(moved)
    nodes = [
        [(mu, perms[i][a], perms[i + 1][b]) for mu, a, b in iface]
        for i, iface in enumerate(m.nodes)
    ]
    return m, SplitMap(groups, nodes)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_key_ignores_piece_order(data):
    m, shuffled = _draw_shuffled(data)
    assert shuffled.canonical_key() == m.canonical_key()


def test_relabeling_search_is_bounded():
    # k identical pieces in one group have k! relabelings: 7! = 5,040 are
    # searched, 8! = 40,320 are too many
    piece = Piece(0, 1, 0)

    def star(size):
        return SplitMap([[piece] * size, [piece]], [[(1, a, 0) for a in range(size)]])

    assert len(star(7).automorphisms()) == math.factorial(7)
    with pytest.raises(SplitMapError, match="too many relabelings to search"):
        star(8).canonical_key()


def _brute_force_automorphisms(m):
    found = []
    for perms in itertools.product(
        *[itertools.permutations(range(len(g))) for g in m.groups]
    ):
        if any(
            g[perm[p]] != g[p]
            for g, perm in zip(m.groups, perms)
            for p in range(len(g))
        ):
            continue
        if all(
            sorted(iface)
            == sorted((mu, perms[i][a], perms[i + 1][b]) for mu, a, b in iface)
            for i, iface in enumerate(m.nodes)
        ):
            found.append(perms)
    return sorted(found)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_automorphisms_match_brute_force(data):
    m, shuffled = _draw_shuffled(data)
    for sm in (m, shuffled):
        assert sorted(sm.automorphisms()) == _brute_force_automorphisms(sm)


# --- mark placement against a Burnside count ----------------------------------


def _cycle_lengths(perm):
    seen = set()
    for start in range(len(perm)):
        length = 0
        p = start
        while p not in seen:
            seen.add(p)
            p = perm[p]
            length += 1
        if length:
            yield length


def _placement_classes(automorphisms, shortfall):
    """Orbits of the automorphisms on the ways to hand ``shortfall`` extra
    marks to the pieces, by Cauchy-Frobenius: a placement fixed by sigma is
    constant on its cycles, so sigma fixes [x^shortfall] of the product over
    its cycles of 1 / (1 - x^length) of them; the orbits are the mean."""
    if shortfall < 0:
        return 0
    fixed = 0
    for perms in automorphisms:
        coeffs = [1] + [0] * shortfall
        for perm in perms:
            for length in _cycle_lengths(perm):
                for j in range(length, shortfall + 1):
                    coeffs[j] += coeffs[j - length]
        fixed += coeffs[shortfall]
    assert fixed % len(automorphisms) == 0
    return fixed // len(automorphisms)


def _orbit_factorials(automorphisms):
    """Product of (orbit size)! over the orbits of pieces: the order of the
    full product of symmetric groups on the orbits."""
    out = 1
    for i, perm in enumerate(automorphisms[0]):
        orbits = {frozenset(perms[i][p] for perms in automorphisms) for p in perm}
        for orbit in orbits:
            out *= math.factorial(len(orbit))
    return out


def _recorded_placements(runs):
    """The emitted list of each (type, caps, stable) run, and every
    _distribute_marks call as (skeleton, marks, stable_only, placements
    yielded)."""
    calls = []
    real = cg._distribute_marks

    def recording(skeleton, k, stable_only, memo=None):
        placed = list(real(skeleton, k, stable_only, memo))
        calls.append((skeleton, k, stable_only, placed))
        return iter(placed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "_distribute_marks", recording)
        lists = [enumerate_split_maps(t, caps, stable_only=s) for t, caps, s in runs]
    return lists, calls


BURNSIDE_RUNS = [
    (t, EnumerationCaps(), stable) for t in NORM3_TYPES for stable in (False, True)
] + [(t, acceptance_caps(t), True) for t in NORM4_TYPES]


@pytest.fixture(scope="module")
def burnside_placements():
    return _recorded_placements(BURNSIDE_RUNS)


def test_mark_placements_against_burnside_count(burnside_placements):
    # enumerate_split_maps keeps no dedupe of its own: no two emitted maps
    # may be isomorphic, and every skeleton's placements must be distinct
    # classes, as many as the Burnside count when the automorphisms are the
    # full product of symmetric groups on the piece orbits and at most that
    # many otherwise (there the per-orbit placement can fall short).  The
    # stable placements are the all-mode ones that pass is_stable, in order,
    # and the Burnside bounds apply to the all-mode list.  Over the all-mode
    # runs the shortfall is pinned per type: 4 classes each on (2,0,3) and
    # (3,0,2), none on every other type of norm <= 3
    lists, calls = burnside_placements
    for maps in lists:
        keys = [(m.n, m.canonical_key()) for m in maps]
        assert len(set(keys)) == len(keys)
    assert len(calls) > 8000
    gap = Counter()
    for skeleton, k, stable_only, placed in calls:
        if stable_only:
            assert all(m.stability_oracle() for m in placed), skeleton
            everything = list(cg._distribute_marks(skeleton, k, False))
            assert placed == [m for m in everything if m.is_stable()], skeleton
            placed = everything
        assert len({m.canonical_key() for m in placed}) == len(placed), skeleton
        automorphisms = _brute_force_automorphisms(skeleton)
        classes = _placement_classes(automorphisms, k - _forced_marks(skeleton))
        assert len(placed) <= classes, skeleton
        if len(automorphisms) == _orbit_factorials(automorphisms):
            assert len(placed) == classes, skeleton
        if not stable_only:
            t = skeleton.total_type()
            gap[t.degree, t.genus, k] += classes - len(placed)
    expected = {(t.degree, t.genus, t.marks): 0 for t in NORM3_TYPES}
    expected.update({(2, 0, 3): 4, (3, 0, 2): 4})
    assert {key: gap[key] for key in expected} == expected
    assert set(gap) <= set(expected)


def test_forced_marks_never_below_the_floor(burnside_placements):
    # every assembled skeleton carries at least the floor that its
    # interface node counts q give, group i getting q[i - 1] + q[i]
    # contacts, and some carry exactly that many
    _, calls = burnside_placements
    tight = 0
    for skeleton, _, _, _ in calls:
        groups = skeleton.groups
        touch = 1 if sum(map(len, groups)) >= 2 else 0
        q = [len(iface) for iface in skeleton.nodes]
        floor = sum(
            max(0, cg._mark_floor(g, i in (0, len(groups) - 1), touch) - a - b)
            for i, (g, a, b) in enumerate(zip(groups, [0] + q, q + [0]))
        )
        assert _forced_marks(skeleton) >= floor, skeleton
        tight += _forced_marks(skeleton) == floor > 0
    assert tight > 1000, tight


def test_placements_without_extras_match_the_reference(burnside_placements):
    # when the forced marks use up every mark, _placed_groups runs no orbit
    # search: its one placement must be the reference's, dropped in stable
    # mode exactly when that map is unstable (a middle group weighs zero or
    # less)
    _, calls = burnside_placements
    kinds = Counter()
    for skeleton, k, stable_only, placed in calls:
        if _forced_marks(skeleton) != k:
            continue
        expected = list(ref_distribute_marks(skeleton, k))
        assert len(expected) == 1, skeleton
        if stable_only:
            expected = [m for m in expected if m.is_stable()]
        assert placed == expected, skeleton
        kinds[stable_only, len(placed)] += 1
    assert kinds[False, 1] > 1000 and kinds[True, 1] > 1000, kinds
    assert kinds[True, 0] > 0, kinds


def _tuples_all_the_way_down(m):
    return (
        type(m.groups) is tuple
        and all(type(g) is tuple for g in m.groups)
        and type(m.nodes) is tuple
        and all(
            type(iface) is tuple and all(type(x) is tuple for x in iface)
            for iface in m.nodes
        )
    )


def test_enumerator_builds_only_valid_maps(burnside_placements):
    # the enumerator builds its skeletons and placements without the
    # constructor's checks; every one of them must pass those checks and
    # come out equal, with the same hash and tuple containers throughout
    lists, calls = burnside_placements
    skeletons = [skeleton for skeleton, _, _, _ in calls]
    for m in skeletons + [m for maps in lists for m in maps]:
        checked = SplitMap(m.groups, m.nodes)
        assert checked == m and hash(checked) == hash(m), m
        assert checked.n == m.n and _tuples_all_the_way_down(m), m


def _repeats_a_piece(m):
    return any(len(set(g)) < len(g) for g in m.groups)


def test_mark_placement_builds_only_stable_maps():
    # over the stable runs, mark placement builds no unstable map, and each
    # placement call counts its skeleton's contacts once.  What the
    # relabeling walk reads of the groups alone (_relabelings) is computed
    # once per _assemble call whose piece set repeats a piece within some
    # group and that assembles a skeleton, and never otherwise; each such
    # skeleton still walks its own node encodings.  Maps are counted through
    # both the checking constructor and the unchecked builder the
    # enumerator uses
    built, placed, calls, piece_sets, relabeled = [], [], [], [], []
    real_init = SplitMap.__init__
    real_built = SplitMap._built
    real_place = cg._distribute_marks
    real_assemble = cg._assemble
    real_relabelings = cg._relabelings

    def init(self, groups, nodes):
        real_init(self, groups, nodes)
        built.append(self)

    def build(groups, nodes):
        sm = real_built(groups, nodes)
        built.append(sm)
        return sm

    def placing(skeleton, k, stable_only, memo=None):
        calls.append(skeleton)
        start = len(built)
        out = list(real_place(skeleton, k, stable_only, memo))
        assert built[start:] == out
        placed.extend(out)
        return iter(out)

    def assembling(n, pieces, *rest):
        first = True
        for sm in real_assemble(n, pieces, *rest):
            if first and _repeats_a_piece(sm):
                piece_sets.append(pieces)
            first = False
            yield sm

    def relabelings(groups):
        relabeled.append(groups)
        return real_relabelings(groups)

    with pytest.MonkeyPatch.context() as mp, mock.patch.object(
        SplitMap,
        "_symmetry",
        autospec=True,
        side_effect=SplitMap._symmetry,
    ) as walks, mock.patch.object(
        SplitMap,
        "contact_counts",
        autospec=True,
        side_effect=SplitMap.contact_counts,
    ) as contacts:
        mp.setattr(SplitMap, "__init__", init)
        mp.setattr(SplitMap, "_built", staticmethod(build))
        mp.setattr(cg, "_distribute_marks", placing)
        mp.setattr(cg, "_assemble", assembling)
        mp.setattr(cg, "_relabelings", relabelings)
        for t, caps, stable in BURNSIDE_RUNS:
            if stable:
                enumerate_split_maps(t, caps, stable_only=True)
        assert [c.args[0] for c in contacts.call_args_list] == calls
        placed_ids = set(map(id, placed))
        skeletons = [sm for sm in built if id(sm) not in placed_ids]
        repeating = [sm for sm in skeletons if _repeats_a_piece(sm)]
        assert len(skeletons) > 4000
        assert 0 < len(repeating) < len(skeletons)
        assert [c.args[0] for c in walks.call_args_list] == repeating
        assert relabeled == piece_sets
        assert 0 < len(piece_sets) < len(repeating)
    assert all(m.is_stable() for m in placed)


def test_shared_relabelings_walk_like_a_fresh_map():
    # _assemble computes _relabelings once per piece set and hands it to
    # every skeleton's walk: each walk of the Burnside runs must give what
    # the skeleton's own relabelings give, what a fresh checked copy walks,
    # and the key and automorphisms of a reference walk over every
    # permutation.  The enumerator's groups come sorted, so each skeleton
    # is also read with every group reversed: the same key
    walks = []
    real = SplitMap._symmetry

    def recording(self, relabelings=None):
        got = real(self, relabelings)
        walks.append((self, relabelings, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SplitMap, "_symmetry", recording)
        for t, caps, stable in BURNSIDE_RUNS:
            enumerate_split_maps(t, caps, stable_only=stable)
    for sm, relabelings, got in walks:
        assert relabelings is not None, sm
        fresh = SplitMap(sm.groups, sm.nodes)._symmetry()
        assert sm._symmetry(cg._relabelings(sm.groups)) == got == fresh, sm
        key, automorphisms = got
        assert (key, sorted(automorphisms)) == ref_symmetry(sm), sm
        last = [len(g) - 1 for g in sm.groups]
        reversed_groups = [g[::-1] for g in sm.groups]
        reversed_nodes = [
            [(mu, last[i] - a, last[i + 1] - b) for mu, a, b in iface]
            for i, iface in enumerate(sm.nodes)
        ]
        flipped = SplitMap(reversed_groups, reversed_nodes)
        assert flipped._symmetry(cg._relabelings(flipped.groups))[0] == key, sm
    shared = len({id(relabelings) for _, relabelings, _ in walks})
    assert 0 < shared < len(walks) // 2, (shared, len(walks))


def test_assembled_skeletons_carry_their_automorphisms():
    # every skeleton _assemble yields carries the automorphisms that a
    # fresh, checked copy walks and that a brute-force search finds, both
    # when its piece set repeats a piece and when the identity is taken
    # without a walk; no two skeletons of one call are isomorphic
    runs = []
    real = cg._assemble

    def recording(*args):
        skeletons = list(real(*args))
        runs.append(skeletons)
        return iter(skeletons)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "_assemble", recording)
        for t, caps, stable in BURNSIDE_RUNS:
            enumerate_split_maps(t, caps, stable_only=stable)
    kinds = Counter()
    for skeletons in runs:
        for sm in skeletons:
            automorphisms = sm.automorphisms()
            assert automorphisms == SplitMap(sm.groups, sm.nodes)._symmetry()[1], sm
            assert sorted(automorphisms) == _brute_force_automorphisms(sm), sm
            kinds[_repeats_a_piece(sm)] += 1
        keys = [sm.canonical_key() for sm in skeletons]
        assert len(set(keys)) == len(keys), skeletons[0].groups
    assert kinds[True] > 1000 and kinds[False] > 1000, kinds


def test_placement_memo_matches_fresh_placement():
    # the enumerator shares one placement memo among the skeletons of a
    # piece set; every call through it must equal, in order, a fresh
    # placement, and the memo must be hit
    calls = []
    real = cg._distribute_marks

    def recording(skeleton, k, stable_only, memo=None):
        placed = list(real(skeleton, k, stable_only, memo))
        calls.append((skeleton, k, stable_only, memo, placed))
        return iter(placed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "_distribute_marks", recording)
        for t, caps, stable in BURNSIDE_RUNS:
            enumerate_split_maps(t, caps, stable_only=stable)
    memos = {}
    for skeleton, k, stable_only, memo, placed in calls:
        assert placed == list(real(skeleton, k, stable_only)), skeleton
        memos.setdefault(id(memo), (memo, set()))[1].add(
            (skeleton.groups, k, stable_only)
        )
    # one memo per piece set, and fewer placements decided than calls
    assert all(len(piece_sets) == 1 for _, piece_sets in memos.values())
    assert sum(len(memo) for memo, _ in memos.values()) < len(calls) // 2


# --- decompose / glue ---------------------------------------------------------


def _sample_maps():
    out = [
        SplitMap(
            [[Piece(1, 1, 1)], [Piece(0, 0, 0), Piece(0, 1, 0)], [Piece(1, 1, 1)]],
            [((2, 0, 0), (1, 0, 1)), ((2, 0, 0), (1, 1, 0))],
        )
    ]
    for t in (TopType(2, 0, 1), TopType(3, 0, 0), TopType(1, 1, 1)):
        out.extend(m for m in enumerate_stable_types(t) if m.n >= 1)
    return out


SAMPLES = _sample_maps()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_contact_counts_match_the_contact_lists(data):
    # weights and stability read contact_counts; the contact lists are the
    # independent route the stability oracle reads
    for m in (data.draw(st.sampled_from(SAMPLES)), *_draw_shuffled(data)):
        counts = m.contact_counts()
        for i, g in enumerate(m.groups, 1):
            for p in range(len(g)):
                contacts = len(m.left_contacts(i, p)) + len(m.right_contacts(i, p))
                assert counts[i - 1][p] == contacts
        assert m.weights() == tuple(
            sum(
                pc.degree + 2 * pc.genus - 2 + pc.marks + c
                for pc, c in zip(g, group_counts)
            )
            for g, group_counts in zip(m.groups, counts)
        )


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_decompose_glue_roundtrip(data):
    m = data.draw(st.sampled_from(SAMPLES))
    l = data.draw(st.integers(1, m.n + 1))
    side1, side2, sigma = decompose(m, l)
    assert side1.root_weights() == side2.root_weights()
    assert tuple(sorted(side1.root_weights())) == sigma
    assert glue_halves(side1, side2) == m


def test_decompose_structure():
    m = SplitMap(
        [[Piece(0, 2, 1)], [Piece(0, 1, 0)], [Piece(1, 1, 1)]],
        [((1, 0, 0), (2, 0, 0)), ((1, 0, 0),)],
    )
    side1, side2, sigma = decompose(m, 1)
    assert sigma == (1, 2)
    # the first side is reversed: its boundary group leads
    assert side1.groups == ((Piece(0, 2, 1),),)
    assert side2.groups == ((Piece(0, 1, 0),), (Piece(1, 1, 1),))
    with pytest.raises(SplitMapError):
        decompose(m, 3)


def test_specialization_identity_assignment():
    m = SplitMap(
        [[Piece(0, 2, 1)], [Piece(0, 1, 0)], [Piece(1, 1, 1)]],
        [((1, 0, 0),), ((1, 0, 0),)],
    )
    assert specialization_sum_check(m, m, (1, 2, 3))


def test_specialization_collapse():
    fine = SplitMap(
        [[Piece(0, 2, 1)], [Piece(0, 1, 0)], [Piece(1, 1, 1)]],
        [((1, 0, 0),), ((1, 0, 0),)],
    )
    # coarse weights must match the grouped fine weights (3, 3)
    coarse = SplitMap(
        [[Piece(0, 3, 1)], [Piece(1, 1, 1)]],
        [((1, 0, 0),)],
    )
    assert coarse.weights() == (fine.weight(1) + fine.weight(2), fine.weight(3))
    assert specialization_sum_check(coarse, fine, (1, 1, 2))
    assert not specialization_sum_check(coarse, fine, (1, 2, 2))
    with pytest.raises(SplitMapError):
        specialization_sum_check(coarse, fine, (2, 1, 2))


# --- admissible graphs --------------------------------------------------------


def _vertex_graph(extra=0, genus=0, weights=(1,), legs=0):
    total = sum(weights)
    return AdmissibleGraph(
        NUMERIC_GROUP,
        (genus,),
        ((extra, total),),
        tuple([0] * legs),
        tuple((0, w) for w in weights),
    )


def test_genus_formula_one_edge():
    eta = AdmissibleTriple(_vertex_graph(1), _vertex_graph(2), ())
    _, genus, degree, ttype = glue(eta)
    assert genus == 0 and degree == 3
    assert ttype == TopType(3, 0, 0)


def test_genus_formula_two_edges():
    eta = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 1)), _vertex_graph(2, weights=(1, 1)), ()
    )
    glued, genus, _, _ = glue(eta)
    assert genus == 1
    assert glued.betti() == 1


def test_genus_matches_betti_plus_genera():
    eta = AdmissibleTriple(
        _vertex_graph(0, genus=1, weights=(1, 1)),
        _vertex_graph(0, genus=2, weights=(1, 1)),
        (),
    )
    glued, genus, _, _ = glue(eta)
    assert genus == glued.betti() + 3


def test_glue_across_distinct_class_groups():
    from degkit import ClassGroup

    left_group = ClassGroup(2, (2, 1), (0, 1))
    right_group = ClassGroup(1, (3,), (1,))
    g1 = AdmissibleGraph(left_group, (0,), ((1, 1),), (), ((0, 1),))
    g2 = AdmissibleGraph(right_group, (1,), ((1,),), (), ((0, 1),))
    assert g1.deg_h(0) == 3 and g1.deg_d(0) == 1
    assert g2.deg_h(0) == 3 and g2.deg_d(0) == 1
    eta = AdmissibleTriple(g1, g2, ())
    _, genus, degree, ttype = glue(eta)
    assert (genus, degree) == (1, 6)
    assert ttype == TopType(6, 1, 0)


def test_contact_constraint():
    g = _vertex_graph(1, weights=(1, 2))
    assert g.satisfies_contact()
    bad = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 5),), (), ((0, 1),))
    assert bad.contact_defects() == (4,)
    assert not bad.satisfies_contact()


def test_relative_connectivity():
    with pytest.raises(GraphError):
        AdmissibleGraph(
            NUMERIC_GROUP, (0, 0), ((1, 1), (1, 0)), (), ((0, 1),)
        )


def test_reorder_convention():
    g = AdmissibleGraph(
        NUMERIC_GROUP, (0, 0), ((1, 1), (1, 2)), (), ((0, 1), (1, 2))
    )
    swapped = g.reorder((1, 0))
    # the j-th root of the reordering is the sigma^{-1}(j)-th original root
    assert swapped.roots == ((1, 2), (0, 1))


def test_eq_group_examples():
    one = AdmissibleTriple(_vertex_graph(1), _vertex_graph(2), ())
    assert eq_group(one) == [(0,)]
    sym = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 1)), _vertex_graph(2, weights=(1, 1)), ()
    )
    assert sorted(eq_group(sym)) == [(0, 1), (1, 0)]
    assert phi_degree(sym) == 2
    asym = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 2)), _vertex_graph(2, weights=(1, 2)), ()
    )
    assert eq_group(asym) == [(0, 1)]


def test_eq_group_bound():
    sym = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 1)), _vertex_graph(2, weights=(1, 1)), ()
    )
    with pytest.raises(GraphError):
        eq_group(sym, bound=1)


BOUND_READERS = {
    "eq_group": lambda eta, bound: eq_group(eta, bound),
    "phi_degree": lambda eta, bound: phi_degree(eta, bound),
    "triples_equivalent": lambda eta, bound: triples_equivalent(eta, eta, bound),
    "fiber_count": lambda eta, bound: fiber_count(
        eta, realize_split_map(eta), 1, bound
    ),
}


@pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", list(BOUND_READERS))
def test_brute_force_bound_refuses_inexact_values(name, bad):
    # a root count of one is within either value, so comparing with it let
    # them through
    eta = AdmissibleTriple(_vertex_graph(1), _vertex_graph(2), ())
    assert BOUND_READERS[name](eta, 8) is not None
    with pytest.raises(TypeError):
        BOUND_READERS[name](eta, bad)


@pytest.mark.parametrize("name", list(BOUND_READERS))
def test_brute_force_bound_refuses_more_roots(name):
    sym = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 1)), _vertex_graph(2, weights=(1, 1)), ()
    )
    assert BOUND_READERS[name](sym, 2) is not None
    with pytest.raises(GraphError, match="root count above the brute-force bound 1"):
        BOUND_READERS[name](sym, 1)


def test_bound_checks_keep_their_order():
    sym = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 1)), _vertex_graph(2, weights=(1, 1)), ()
    )
    one = AdmissibleTriple(_vertex_graph(1), _vertex_graph(2), ())
    # unequal root counts answer before the bound is compared, but after
    # its type is checked
    assert triples_equivalent(sym, one, bound=1) is False
    with pytest.raises(TypeError):
        triples_equivalent(sym, one, bound=1.5)
    # fiber_count: bound type, interface index, interface size, bound, r = 0
    m = realize_split_map(one)
    with pytest.raises(TypeError):
        fiber_count(sym, m, 5, bound=True)
    with pytest.raises(SplitMapError):
        fiber_count(sym, m, 5, bound=1)
    with pytest.raises(GraphError, match="interface size"):
        fiber_count(sym, m, 1, bound=0)
    empty = AdmissibleGraph(NUMERIC_GROUP, (), (), (), ())
    solo = AdmissibleGraph(NUMERIC_GROUP, (1,), ((3, 0),), (0,), ())
    bare = AdmissibleTriple(empty, solo, ())
    assert fiber_count(bare, realize_split_map(bare), 1, bound=0) == 1
    with pytest.raises(GraphError, match="bound -1"):
        fiber_count(bare, realize_split_map(bare), 1, bound=-1)


def test_legs_pin_the_isomorphism():
    # two interchangeable vertices give a swap symmetry; a single leg on one
    # of them pins the forced vertex map and kills it
    def first_graph(leg_vertices):
        return AdmissibleGraph(
            NUMERIC_GROUP,
            (0, 0),
            ((0, 1), (0, 1)),
            leg_vertices,
            ((0, 1), (1, 1)),
        )

    hub = AdmissibleGraph(NUMERIC_GROUP, (0,), ((0, 2),), (), ((0, 1), (0, 1)))
    free = AdmissibleTriple(first_graph(()), hub, ())
    assert sorted(eq_group(free)) == [(0, 1), (1, 0)]
    pinned = AdmissibleTriple(first_graph((0,)), hub, (1,))
    assert eq_group(pinned) == [(0, 1)]


def test_triple_equivalence_properties():
    triples = enumerate_triples(TripleAlphabet(max_roots=2))[:25]
    for t in triples:
        assert triples_equivalent(t, t)
    for t in triples:
        for u in triples[:10]:
            assert triples_equivalent(t, u) == triples_equivalent(u, t)
    # transitivity across explicit reorderings
    base = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 2)), _vertex_graph(2, weights=(1, 2)), ()
    )
    one = base.reorder((1, 0))
    two = one.reorder((1, 0))
    assert triples_equivalent(base, one)
    assert triples_equivalent(one, two)
    assert triples_equivalent(base, two)
    # the enumeration keeps one representative per class
    keys = set()
    for t in enumerate_triples(TripleAlphabet(max_roots=2)):
        for u in (t,):
            assert not any(
                triples_equivalent(u, v) for v in keys if v.num_roots == u.num_roots
            )
        keys.add(t)


# --- isomorphism against a brute-force vertex-bijection oracle ---------------


def _bijection_isomorphic(a, b):
    """Oracle: some vertex bijection keeps genus and class and carries leg j
    to leg j and root j to root j with its weight."""
    nv = a.num_vertices
    if a.group != b.group or nv != b.num_vertices:
        return False
    return any(
        all(
            (a.genera[v], a.classes[v]) == (b.genera[pi[v]], b.classes[pi[v]])
            for v in range(nv)
        )
        and tuple(pi[v] for v in a.legs) == b.legs
        and tuple((pi[v], w) for v, w in a.roots) == b.roots
        for pi in itertools.permutations(range(nv))
    )


def _brute_force_eq(triple):
    return [
        sigma
        for sigma in itertools.permutations(range(triple.num_roots))
        if all(
            _bijection_isomorphic(g, g.reorder(sigma))
            for g in (triple.first, triple.second)
        )
    ]


def _brute_force_equivalent(t, u):
    return (
        t.num_roots == u.num_roots
        and t.first_legs == u.first_legs
        and any(
            _bijection_isomorphic(t.first, u.first.reorder(sigma))
            and _bijection_isomorphic(t.second, u.second.reorder(sigma))
            for sigma in itertools.permutations(range(t.num_roots))
        )
    )


def _relabelled(g, pi):
    """The same graph with vertex v renamed pi[v]."""
    inv = [pi.index(v) for v in range(len(pi))]
    return AdmissibleGraph(
        g.group,
        tuple(g.genera[u] for u in inv),
        tuple(g.classes[u] for u in inv),
        tuple(pi[v] for v in g.legs),
        tuple((pi[v], w) for v, w in g.roots),
    )


LEG_ALPHABET = TripleAlphabet(max_roots=3, max_legs_per_side=1, extra_degrees=(0, 1))
GRAPHS_BY_WEIGHTS = [
    _alphabet_graphs(LEG_ALPHABET, wv)
    for r in range(LEG_ALPHABET.max_roots + 1)
    for wv in itertools.combinations_with_replacement(LEG_ALPHABET.weights, r)
]
SMALL_LEG_TRIPLES = enumerate_triples(
    TripleAlphabet(max_roots=3, max_legs_per_side=1, genera=(0,))
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_isomorphism_matches_brute_force(data):
    graphs = data.draw(st.sampled_from(GRAPHS_BY_WEIGHTS))
    a = data.draw(st.sampled_from(graphs))
    pi = data.draw(st.permutations(range(a.num_vertices)))
    sigma = data.draw(st.permutations(range(a.num_roots)))
    relabelled = _relabelled(a, pi)
    assert a.isomorphic(relabelled)
    assert a.canonical_key() == relabelled.canonical_key()
    for b in (relabelled.reorder(sigma), data.draw(st.sampled_from(graphs))):
        expected = _bijection_isomorphic(a, b)
        assert a.isomorphic(b) == expected
        assert (a.canonical_key() == b.canonical_key()) == expected


def test_untouched_vertices_keep_their_data():
    bare = [
        AdmissibleGraph(NUMERIC_GROUP, (g,), ((e, 0),), (), ())
        for g in (0, 1)
        for e in (0, 1)
    ]
    for a, b in itertools.product(bare, repeat=2):
        assert a.isomorphic(b) == (a == b) == _bijection_isomorphic(a, b)


def test_eq_group_matches_brute_force():
    rng = random.Random(3)
    for t in SMALL_LEG_TRIPLES:
        sigma = list(range(t.num_roots))
        rng.shuffle(sigma)
        for u in (t, t.reorder(tuple(sigma))):
            assert eq_group(u) == _brute_force_eq(u)


@pytest.fixture(scope="module")
def default_triples():
    return enumerate_triples(TripleAlphabet())


@pytest.fixture(scope="module")
def two_leg_triples():
    return enumerate_triples(TripleAlphabet(max_roots=2, max_legs_per_side=2))


def _shuffled(t, rng):
    sigma = list(range(t.num_roots))
    rng.shuffle(sigma)
    return t.reorder(tuple(sigma))


def _moved(t, rng):
    """The triple with both sides' vertices renamed and its roots reordered."""
    first, second = (
        _relabelled(g, rng.sample(range(g.num_vertices), g.num_vertices))
        for g in (t.first, t.second)
    )
    return _shuffled(AdmissibleTriple(first, second, t.first_legs), rng)


def test_fiber_orders_match_the_walk_over_all_orders(default_triples):
    # the orderings fiber_count searches: the halves of a realized map onto
    # the triple as given, reordered, and with its vertices renamed
    rng = random.Random(13)
    pairs = []
    for t in SMALL_LEG_TRIPLES + default_triples:
        built = ref_halves(realize_split_map(t), 1)
        pairs += [(built, u) for u in (t, _shuffled(t, rng), _moved(t, rng))]
    # halves of longer maps, cut at every interface where each vertex of
    # both halves has a root
    for sm in enumerate_split_maps(TopType(2, 0, 3)):
        for l in range(1, sm.n + 2):
            try:
                built = ref_halves(sm, l)
            except GraphError:
                continue
            pairs.append((built, _moved(built, rng)))
    assert len(pairs) > 5000
    for built, target in pairs:
        target = target.numeric_shadow()
        walked = ref_orders_onto(built, target)
        assert sorted(cg._orders_onto(built, target)) == walked != []
    # onto a neighbouring triple with the same root weights
    for (built, _), (other, _) in zip(pairs, pairs[1:]):
        if built.first.root_weights() == other.first.root_weights():
            got = cg._orders_onto(built, other)
            assert sorted(got) == ref_orders_onto(built, other)
    # fiber_count against the orbit count over every root order, on the map
    # realized from the triple as given: on the triple itself the first
    # matching ordering is the identity, so the reordered triples are the
    # cases where it acts
    for t in SMALL_LEG_TRIPLES + default_triples:
        m = realize_split_map(t)
        image = ref_interface_image(m, 1)
        for u in (t, _shuffled(t, rng), _shuffled(t, rng)):
            assert fiber_count(u, m, 1) == ref_fiber_count(u, m, 1, image), (u, m)


def _rank_three_triple():
    """A triple over a rank-three class group, not NUMERIC_GROUP, whose
    first side's two vertices differ in class but not in the functionals:
    |Eq| = 4, and 8 for the numeric shadow, which may swap them."""
    group = ClassGroup(3, (1, 0, 1), (0, 1, 0))
    first = AdmissibleGraph(
        group, (0, 0), ((1, 2, 0), (0, 2, 1)), (), ((0, 1), (0, 1), (1, 1), (1, 1))
    )
    second = AdmissibleGraph(group, (1,), ((0, 4, 2),), (), tuple([(0, 1)] * 4))
    return AdmissibleTriple(first, second, ())


def test_fiber_orders_over_a_class_group_that_is_not_numeric():
    t = _rank_three_triple()
    assert eq_group(t) == _brute_force_eq(t) and len(eq_group(t)) == 4
    rng = random.Random(5)
    for target in (t, _shuffled(t, rng), _moved(t, rng)):
        for built in (t, _moved(t, rng)):
            walked = ref_orders_onto(built, target)
            assert sorted(cg._orders_onto(built, target)) == walked
            assert len(walked) == 4
    # the realized map's halves match the numeric shadow under the 8 orders
    # of its Eq, one orbit of the map's image
    m = realize_split_map(t)
    for u in (t, _shuffled(t, rng), _moved(t, rng)):
        assert fiber_count(u, m, 1) == ref_fiber_count(u, m, 1) == 1
    # fiber_count reads the numeric shadow, built once and kept
    shadow = t.numeric_shadow()
    assert shadow is t.numeric_shadow() and shadow.numeric_shadow() is shadow
    assert shadow == AdmissibleTriple(
        t.first.numeric_shadow(), t.second.numeric_shadow(), ()
    )
    assert len(eq_group(shadow)) == 8
    m = realize_split_map(t)
    assert len(m.automorphism_interface_image(1)) == 8
    assert fiber_count(t, m, 1) == 1


def _fresh_triple(t):
    """An equal triple built anew, holding no kept results."""
    return AdmissibleTriple(
        *(
            AdmissibleGraph(g.group, g.genera, g.classes, g.legs, g.roots)
            for g in (t.first, t.second)
        ),
        t.first_legs,
    )


def test_kept_symmetry_answers_like_a_fresh_copy(default_triples):
    rng = random.Random(23)
    triples = SMALL_LEG_TRIPLES[::7] + default_triples[::11] + [_rank_three_triple()]
    for t in triples:
        m = realize_split_map(t)
        # fill every kept result, then ask again and ask a fresh equal copy
        for _ in range(2):
            eq = eq_group(t)
            fibers = fiber_count(t, m, 1)
            image = m.automorphism_interface_image(1)
            autos = m.automorphisms()
            key = cg._triple_canonical_key(t)
        fresh, fresh_map = _fresh_triple(t), SplitMap(m.groups, m.nodes)
        assert eq == eq_group(fresh) == _brute_force_eq(fresh)
        assert fibers == fiber_count(fresh, fresh_map, 1)
        assert image == fresh_map.automorphism_interface_image(1)
        assert autos == fresh_map.automorphisms()
        assert m.canonical_key() == fresh_map.canonical_key()
        assert key == cg._triple_canonical_key(fresh)
        for order in itertools.permutations(range(t.num_roots)):
            assert t.canonical_keys(order) == fresh.canonical_keys(order)
        assert t.numeric_shadow() == fresh.numeric_shadow()
        # a reordered triple has graphs of its own and its own results
        u = _shuffled(t, rng)
        assert eq_group(u) == _brute_force_eq(u)
        assert fiber_count(u, m, 1) == fibers
        assert cg._triple_canonical_key(u) == key


def test_kept_symmetry_hands_out_copies():
    t = _rank_three_triple()
    m = realize_split_map(t)
    eq, image, autos = eq_group(t), m.automorphism_interface_image(1), m.automorphisms()
    assert (len(eq), len(image), len(autos)) == (4, 8, 2)
    for got in (eq, image, autos):
        got.append(got[0])
        got.reverse()
    assert eq_group(t) == sorted(eq[:-1])
    assert m.automorphism_interface_image(1) == sorted(image[:-1])
    assert sorted(m.automorphisms()) == sorted(autos[:-1])
    assert fiber_count(t, m, 1) == 1


def test_triple_key_matches_the_walk_over_all_orders():
    # the same partition: two triples share a key exactly when they share
    # the least key over all r! root orders
    rng = random.Random(17)
    pairs = {
        (ref_triple_key(u), cg._triple_canonical_key(u))
        for t in SMALL_LEG_TRIPLES
        for u in (t, _shuffled(t, rng), _moved(t, rng))
    }
    walked = {a for a, _ in pairs}
    keyed = {b for _, b in pairs}
    assert len(pairs) == len(walked) == len(keyed) == len(SMALL_LEG_TRIPLES)


LABELS = st.lists(st.integers(0, 2), max_size=5)


@given(have=LABELS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_matchings_match_the_walk_over_all_bijections(have, data):
    # want: a rearrangement of have, or any short list (mostly not one)
    want = data.draw(st.one_of(st.permutations(have), LABELS))
    got = cg._matchings(have, want)
    assert len(set(got)) == len(got)
    assert sorted(got) == ref_matchings(have, want)
    for same in (have, list(have)):
        got = cg._matchings(have, same)
        assert got[0] == tuple(range(len(have)))
        assert sorted(got) == ref_matchings(have, have)


def test_matchings_refuse_non_rearrangements():
    for have, want in [
        ([0, 0, 1], [0, 1, 1]),
        ([0], [0, 0]),
        ([0, 1], [0]),
        ([0, 1], [0, 2]),
        ([], [0]),
    ]:
        assert cg._matchings(have, want) == [] == ref_matchings(have, want)
    assert cg._matchings([], []) == [()]
    assert cg._matchings([2, 0, 1], [0, 1, 2]) == [(1, 2, 0)]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_triple_equivalence_matches_brute_force(data):
    t = data.draw(st.sampled_from(SMALL_LEG_TRIPLES))
    sigma = data.draw(st.permutations(range(t.num_roots)))
    first, second = (
        _relabelled(g, data.draw(st.permutations(range(g.num_vertices))))
        for g in (t.first, t.second)
    )
    moved = AdmissibleTriple(first, second, t.first_legs).reorder(sigma)
    assert triples_equivalent(t, moved) and triples_equivalent(moved, t)
    u = data.draw(st.sampled_from(SMALL_LEG_TRIPLES))
    assert triples_equivalent(t, u) == _brute_force_equivalent(t, u) == (t is u)


def test_graph_json_roundtrip():
    g = AdmissibleGraph(
        NUMERIC_GROUP, (0, 1), ((0, 2), (1, 1)), (1, 0), ((0, 1), (1, 1), (0, 1))
    )
    assert graph_from_json(g.to_json()) == g


def test_dot_export_carries_weights():
    eta = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 2)), _vertex_graph(2, weights=(1, 2)), ()
    )
    glued, _, _, _ = glue(eta)
    dot = glued.to_dot()
    assert 'label="2"' in dot and "graph glued" in dot


# --- the gluing degree --------------------------------------------------------


def test_fiber_count_symmetric():
    eta = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 1)), _vertex_graph(2, weights=(1, 1)), ()
    )
    m = realize_split_map(eta)
    count = fiber_count(eta, m, 1)
    image = m.automorphism_interface_image(1)
    assert count == 1 and len(image) == 2
    assert count * len(image) == phi_degree(eta) == 2


def test_fiber_count_asymmetric():
    eta = AdmissibleTriple(
        _vertex_graph(1, weights=(1, 2)), _vertex_graph(2, weights=(1, 2)), ()
    )
    m = realize_split_map(eta)
    assert fiber_count(eta, m, 1) == 1
    assert len(m.automorphism_interface_image(1)) == 1


def test_fiber_count_empty_side():
    empty = AdmissibleGraph(NUMERIC_GROUP, (), (), (), ())
    solo = AdmissibleGraph(NUMERIC_GROUP, (1,), ((3, 0),), (0,), ())
    eta = AdmissibleTriple(empty, solo, ())
    m = realize_split_map(eta)
    assert fiber_count(eta, m, 1) == 1


def test_half_to_graph_genus():
    # one thread through decompose: component genus follows the nodal formula
    m = SplitMap(
        [
            [Piece(1, 1, 1)],
            [Piece(0, 0, 0), Piece(0, 1, 0)],
            [Piece(1, 1, 1)],
        ],
        [((2, 0, 0), (1, 0, 1)), ((2, 0, 0), (1, 1, 0))],
    )
    side1, side2, _ = decompose(m, 2)
    g1 = half_to_graph(side1)
    assert g1.num_vertices == 1
    # pieces 1+2+1 minus nodes 2 inside the half: genus 1+0+0 + 2 - 3 + 1
    assert g1.genera == (1,)
    assert g1.deg_h(0) == 2
    assert sorted(g1.root_weights()) == [1, 2]


def test_eq_subgroup_closure_on_alphabet(default_triples):
    # eq_group checks no closure itself: every result holds the identity
    # and is closed under inverse and composition, also after a reordering
    rng = random.Random(11)
    for t in SMALL_LEG_TRIPLES + default_triples:
        for u in (t, _shuffled(t, rng)):
            elems = eq_group(u)
            assert ref_is_group(elems, u.num_roots)
            assert math.factorial(u.num_roots) % len(elems) == 0


def test_triple_enumeration_pinned():
    # frozen regression constants; criterion 9 only asks for 500 triples
    triples = enumerate_triples(TripleAlphabet())
    assert len(triples) == 1196
    assert Counter(t.num_roots for t in triples) == {0: 4, 1: 8, 2: 52, 3: 240, 4: 892}
    assert sum(len(eq_group(t)) for t in triples) == 2612
    assert sum(fiber_count(t, realize_split_map(t), 1) for t in triples) == 1196
    assert triples_digest(triples) == (
        "9edd4dd06637d1f7f21f27dc6429ba709a4dab472095214c1b1791317b136c3a"
    )


def test_five_root_triple_enumeration_pinned():
    # the ordered list, recorded before the symmetry results were kept on
    # the objects
    triples = enumerate_triples(TripleAlphabet(max_roots=5))
    assert len(triples) == 3588
    assert triples_digest(triples) == (
        "6238b0907d957f0454b9dd90b52fd5f0b3a2fde94fcc750256e3c064534f68b4"
    )


def test_fiber_count_with_legs():
    # the default alphabet has no legs, so only this reaches the leg subset
    triples = enumerate_triples(TripleAlphabet(max_roots=2, max_legs_per_side=1))
    assert Counter(t.num_roots for t in triples) == {0: 8, 1: 40, 2: 332}
    total_eq = 0
    for t in triples:
        m = realize_split_map(t)
        elems = eq_group(t)
        image = m.automorphism_interface_image(1)
        assert fiber_count(t, m, 1) * max(len(image), 1) == len(elems)
        total_eq += len(elems)
    assert total_eq == 452


def test_gluing_identity_failures_by_cause(two_leg_triples):
    # ROADMAP item 10: with two legs on a side, criterion 9's identity fails
    # on 400 triples.  The counts were recorded before fiber_count and
    # realize_split_map built their objects unchecked, and pin the answers
    # of both on legs: 240 triples have a leg order the realized map cannot
    # carry, and 160 hold once the automorphisms must fix marked pieces
    assert len(two_leg_triples) == 2176
    causes = gluing_identity_causes(
        (t, realize_split_map(t), 1) for t in two_leg_triples
    )
    assert causes == {"holds": 1776, "fiber 0": 240, "marked pieces swapped": 160}


# --- the unchecked builders of the gluing chain -------------------------------


def _fields(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def test_fiber_count_builds_what_the_checks_accept():
    # every (map, interface) pair of the norm <= 3 maps, each map through
    # a fresh checked copy: the graphs fiber_count builds unchecked equal
    # half_to_graph's field by field and pass the graph constructor, the
    # triple passes the triple constructor, and the map's automorphisms,
    # found with no walk when no group repeats a piece, equal the walk's
    built = []
    real = AdmissibleTriple._built.__func__

    def recording(cls, *fields):
        triple = real(cls, *fields)
        built.append(triple)
        return triple

    walks = []
    real_walk = SplitMap._symmetry

    def walking(self, relabelings=None):
        walks.append(self)
        return real_walk(self, relabelings)

    maps = [m for t in NORM3_TYPES for m in enumerate_split_maps(t, stable_only=False)]
    memo = cg._data_classes.cache_info().currsize
    pairs = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AdmissibleTriple, "_built", classmethod(recording))
        mp.setattr(SplitMap, "_symmetry", walking)
        for m in maps:
            fresh = SplitMap(m.groups, m.nodes)
            automorphisms = fresh.automorphisms()
            for l in range(1, m.n + 2):
                triple = ref_halves(m, l)
                assert fiber_count(triple, fresh, l) >= 1
                if not triple.num_roots:
                    continue
                got = built.pop()
                assert _fields(got.first) == _fields(triple.first)
                assert _fields(got.second) == _fields(triple.second)
                assert got.first_legs == triple.first_legs
                for g in (got.first, got.second):
                    assert AdmissibleGraph(*_fields(g)) == g
                assert AdmissibleTriple(*_fields(got)) == got
                pairs[_repeats_a_piece(m)] += 1
            assert not built
            assert automorphisms == real_walk(fresh)[1], m
            assert walks == ([fresh] if _repeats_a_piece(m) else []), m
            walks.clear()
    assert cg._data_classes.cache_info().currsize == memo
    assert sum(pairs.values()) == 18648
    assert pairs[True] > 1000 and pairs[False] > 1000, pairs


def test_realized_maps_equal_checked_maps(default_triples, two_leg_triples):
    # one piece per vertex and one node per root pair, as realize_split_map
    # says; the unchecked map equals the checked one and walks like it
    kinds = Counter()
    for t in default_triples + two_leg_triples:
        groups = [
            [
                Piece(g.genera[v], g.deg_h(v), g.legs.count(v))
                for v in range(g.num_vertices)
            ]
            for g in (t.first, t.second)
        ]
        nodes = [[(w, a, b) for (a, w), (b, _) in zip(t.first.roots, t.second.roots)]]
        m, checked = realize_split_map(t), SplitMap(groups, nodes)
        assert m == checked and m.n == 0
        assert m.automorphisms() == checked.automorphisms()
        assert m.canonical_key() == checked.canonical_key()
        kinds[_repeats_a_piece(m)] += 1
    assert kinds[True] > 500 and kinds[False] > 500, kinds
