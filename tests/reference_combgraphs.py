"""Reference copies of split-map skeleton assembly and mark placement.

These follow ``degkit.combgraphs`` before connectivity and forced marks were
tracked while interfaces are drawn: ``ref_assemble`` builds a ``SplitMap``
for every attachment choice, drops the ones that raise
``DisconnectedMapError`` and dedupes the rest by canonical key;
``ref_distribute_marks`` computes every piece's forced marks from the built
skeleton and drops it when they exceed the mark budget.  Neither reads the
floor on a group's forced marks that the library's count vectors and group
data are cut by.  They use the library's interface, count-vector and
data-class generators, uncached through ``__wrapped__`` so that no memo is
shared with the library, and serve the tests as an oracle for the pruned
assembly.

Also here: the caps variants and types the window tests and the ordered
enumeration pins share, and walks over every root order of an admissible
triple (and every bijection between two label lists), as the library
searched before it kept to signature-preserving orders: the oracle for
``_matchings``, for the orders ``fiber_count`` matches, for the triple key
and for the group closure of ``eq_group``, and the digest that pins ordered
triple lists.
"""

import hashlib
import itertools
import json

from degkit import combgraphs
from degkit.combgraphs import (
    DisconnectedMapError,
    EnumerationCaps,
    Piece,
    SplitMap,
    TopType,
    _components,
)

# the builders behind the library's memos, run afresh on every call
_count_vector_options = combgraphs._count_vector_options.__wrapped__
_data_classes = combgraphs._data_classes.__wrapped__
_interface_options = combgraphs._interface_options.__wrapped__

WINDOW_CAPS = {
    "default": EnumerationCaps(),
    "total2": EnumerationCaps(max_total_nodes=2),
    "total0": EnumerationCaps(max_total_nodes=0),
    "npi1": EnumerationCaps(nodes_per_interface=1),
    "w1npi3": EnumerationCaps(max_weight=1, nodes_per_interface=3),
}
NORM3_TYPES = [
    TopType(b, g, k)
    for b in range(6)
    for g in range(3)
    for k in range(6)
    if TopType(b, g, k).norm() <= 3
]
# the enumerate benchmark's norm-four types; with its norm-five type, every
# type it runs at the acceptance caps
NORM4_TYPES = [TopType(2, 1, 2), TopType(2, 2, 0), TopType(3, 0, 3)]
HEAVY_TYPES = NORM4_TYPES + [TopType(5, 0, 2)]


def acceptance_caps(t):
    """The caps of acceptance criterion 7."""
    if t.norm() <= 4:
        return EnumerationCaps()
    return EnumerationCaps(max_total_nodes=4)


def ref_mark_need(sm, i, p):
    """Least number of marked points the generation rules force on piece p
    of group i (1-based), read off a built map."""
    contacts = len(sm.left_contacts(i, p)) + len(sm.right_contacts(i, p))
    return ref_piece_need(sm.groups[i - 1][p], i in (1, sm.n + 2), contacts)


def ref_piece_need(piece, end, contacts):
    """Least number of marked points the generation rules force on a piece
    with the given number of contacts, in an end group or a middle one."""
    if end:
        if piece.degree == 0:
            if piece.genus == 0:
                return max(0, 3 - contacts)
            if piece.genus == 1:
                return max(0, 1 - contacts)
        return 0
    if piece.degree > 0:
        w0 = piece.degree + 2 * piece.genus - 2 + contacts
        return max(0, 1 - w0)
    return 0


def ref_distribute_marks(skeleton, k):
    """Placements of k marked points on a mark-free skeleton: forced marks,
    then a non-increasing tuple of extra marks per orbit of pieces under
    the skeleton's automorphisms (short where those automorphisms are not
    the full product of symmetric groups on the orbits)."""
    ids = [(i, p) for i, g in enumerate(skeleton.groups) for p in range(len(g))]
    needs = [ref_mark_need(skeleton, i + 1, p) for i, p in ids]
    shortfall = k - sum(needs)
    if shortfall < 0:
        return
    index = {pid: j for j, pid in enumerate(ids)}
    labels = _components(
        len(ids),
        (
            (index[(i, p)], index[(i, auto[i][p])])
            for auto in skeleton.automorphisms()
            for i, p in ids
        ),
    )
    orbit_members = {}
    for j, label in enumerate(labels):
        orbit_members.setdefault(label, []).append(j)
    orbits = list(orbit_members.values())

    def orbit_extras(size, budget):
        def rec(left, cap, total):
            if left == 0:
                yield ()
                return
            for v in range(min(cap, total), -1, -1):
                for rest in rec(left - 1, v, total - v):
                    yield (v,) + rest

        yield from rec(size, budget, budget)

    def assign(oidx, budget, extras):
        if oidx == len(orbits):
            if budget == 0:
                marks = list(needs)
                for members, vals in zip(orbits, extras):
                    for j, v in zip(members, vals):
                        marks[j] += v
                groups = []
                for i, g in enumerate(skeleton.groups):
                    groups.append(
                        tuple(
                            Piece(pc.genus, pc.degree, marks[index[(i, p)]])
                            for p, pc in enumerate(g)
                        )
                    )
                yield SplitMap(groups, skeleton.nodes)
            return
        for vals in orbit_extras(len(orbits[oidx]), budget):
            yield from assign(oidx + 1, budget - sum(vals), extras + [vals])

    yield from assign(0, shortfall, [])


def ref_assemble(n, pieces, node_total, caps, wcap, stable_only, mark_budget):
    """Every connected mark-free skeleton on the given pieces, once per
    canonical key: attachments are drawn left to right in per-class
    canonical order and each full choice is built, disconnected ones
    dropped."""
    ifaces = n + 1
    min_per_iface = 0 if n == 0 else 1
    min_fiber = [
        sum(1 for p in g if p.degree == 0) if 1 <= i <= n else 0
        for i, g in enumerate(pieces)
    ]
    count_low = []
    for i in range(ifaces):
        low = min_per_iface
        low = max(low, min_fiber[i + 1] if i + 1 <= n else 0)
        if 1 <= i <= n:
            low = max(low, min_fiber[i])
        count_low.append(low)
    count_low = tuple(count_low)
    if sum(count_low) > node_total:
        return
    middle_bases = None
    if stable_only:
        middle_bases = tuple(
            sum(p.degree + 2 * p.genus - 2 for p in pieces[i]) + mark_budget
            for i in range(1, n + 1)
        )
    q_options = _count_vector_options(
        ifaces, node_total, caps.nodes_per_interface, count_low, middle_bases
    )
    if not q_options:
        return
    group_classes = [_data_classes(g) for g in pieces]

    def rec(i, chosen, q, classes):
        if i > ifaces:
            try:
                yield SplitMap(pieces, chosen)
            except DisconnectedMapError:
                pass
            return
        left_group = pieces[i - 1]
        right_group = pieces[i]
        prev = chosen[-1] if chosen else None
        left_spec = []
        for p, piece in enumerate(left_group):
            cid = classes[p]
            if i == 1:
                left_spec.append(("free", cid))
            elif piece.degree == 0:
                s = sum(mu for mu, _, b in prev if b == p)
                if s == 0:
                    return
                left_spec.append(("fiber", cid, s))
            else:
                lcount = sum(1 for _, _, b in prev if b == p)
                allowance = (
                    piece.degree + 2 * piece.genus - 2 + lcount + mark_budget
                )
                left_spec.append(("mid", cid, allowance))
        right_spec = tuple(
            (group_classes[i][p2], piece2.degree == 0)
            for p2, piece2 in enumerate(right_group)
        )
        for iface, refined in _interface_options(
            tuple(left_spec), q[i - 1], wcap, right_spec, i <= n
        ):
            yield from rec(i + 1, chosen + [iface], q, list(refined))

    seen = set()
    for q in q_options:
        for sm in rec(1, [], q, list(group_classes[0])):
            key = sm.canonical_key()
            if key not in seen:
                seen.add(key)
                yield sm


def ref_matchings(have, want):
    """Every bijection ``order`` with have[order[j]] == want[j], from a walk
    over all permutations, in lexicographic order."""
    if len(have) != len(want):
        return []
    return [
        order
        for order in itertools.permutations(range(len(have)))
        if all(have[i] == label for i, label in zip(order, want))
    ]


def _keys_under(triple, order):
    """Both sides' canonical keys with root j taken from root order[j],
    computed from the explicit root lists, which no graph keeps, so no key
    kept on the triple's graphs is read."""
    return tuple(
        g.canonical_key(tuple(g.roots[i] for i in order))
        for g in (triple.first, triple.second)
    )


def ref_orders_onto(triple, target):
    """The root orders under which ``triple`` has ``target``'s canonical
    keys, from a walk over all r! orders (``fiber_count``'s matching set)."""
    keys = _keys_under(target, range(target.num_roots))
    return [
        order
        for order in itertools.permutations(range(triple.num_roots))
        if _keys_under(triple, order) == keys
    ]


def ref_triple_key(triple):
    """The least pair of canonical keys over all r! root orders, with the
    leg subset."""
    return (
        min(
            _keys_under(triple, order)
            for order in itertools.permutations(range(triple.num_roots))
        ),
        triple.first_legs,
    )


def triples_digest(triples):
    """SHA-256 of an ordered triple list: both sides' JSON and the leg
    subset of each triple, in list order."""
    payload = json.dumps(
        [[t.first.to_json(), t.second.to_json(), list(t.first_legs)] for t in triples],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def ref_is_group(elements, r):
    """Whether the root orders hold the identity and are closed under
    inverse and composition."""
    elems = set(elements)
    return tuple(range(r)) in elems and all(
        tuple(a.index(i) for i in range(r)) in elems
        and all(tuple(a[b[i]] for i in range(r)) in elems for b in elements)
        for a in elements
    )


def ref_symmetry(sm):
    """The canonical key and the sorted automorphisms of a split map, from
    walks over every permutation of each group: the key is the least node
    encoding over the relabelings that sort every group's pieces, the
    automorphisms are the label-preserving permutations that fix every
    interface as a multiset.  Nothing is shared between maps."""
    data = tuple(
        tuple((p.genus, p.degree, p.marks) for p in sorted(g)) for g in sm.groups
    )

    def encode(perms):
        return tuple(
            tuple(sorted((mu, perms[i][a], perms[i + 1][b]) for mu, a, b in iface))
            for i, iface in enumerate(sm.nodes)
        )

    sorting = [ref_matchings(tuple(sorted(g)), g) for g in sm.groups]
    key = min(encode(perms) for perms in itertools.product(*sorting))
    fixed = encode([tuple(range(len(g))) for g in sm.groups])
    automorphisms = [
        perms
        for perms in itertools.product(*[ref_matchings(g, g) for g in sm.groups])
        if encode(perms) == fixed
    ]
    return (data, key), sorted(automorphisms)
