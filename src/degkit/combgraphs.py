"""Split maps into expanded targets, admissible graphs, gluing and degrees.

A :class:`SplitMap` is the combinatorial shadow of a map into a chain of
n+2 components: per component group a list of connected pieces carrying
(genus, degree, marked points), and per interface an ordered list of node
instances (weight, left piece, right piece).  The matching of contact
multisets across each interface is structural in this encoding, which is
exactly the pre-deformability constraint.

An :class:`AdmissibleGraph` carries the topological type of one relative
half: vertices weighted by genus and by a class vector in a declared free
abelian group with two integral functionals (degree against the
polarization and intersection with the distinguished divisor), ordered legs
and ordered weighted roots.  Triples glue, reorder, and carry a finite
symmetry group, searched among the root orders that preserve each root's
signature.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass

from .polys import _int, _json_field, _json_typed


class SplitMapError(ValueError):
    pass


class DisconnectedMapError(SplitMapError):
    """The piece/node incidence graph of a split map falls apart."""


class GraphError(ValueError):
    pass


def _components(size, pairs):
    """Component label of each of ``size`` elements joined by ``pairs``;
    labels count up from 0 in order of first appearance."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        # the smaller root wins, so every parent precedes its child
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    labels = []
    count = 0
    for x in range(size):
        root = parent[x] = parent[parent[x]]
        if root == x:
            labels.append(count)
            count += 1
        else:
            labels.append(labels[root])
    return labels


def _piece_components(groups, nodes):
    """Component label of piece p of group i at ``[i][p]``, where each node
    (weight, a, b) of interface i joins piece a of group i to piece b of
    group i+1."""
    starts = [0]
    for g in groups:
        starts.append(starts[-1] + len(g))
    labels = _components(
        starts[-1],
        [
            (starts[i] + a, starts[i + 1] + b)
            for i, iface in enumerate(nodes)
            for _, a, b in iface
        ],
    )
    return [labels[starts[i] : starts[i + 1]] for i in range(len(groups))]


def _matchings(have, want):
    """Every order with ``have[order[j]] == want[j]`` for all j: one
    permutation per class of equal labels, classes in order of first
    appearance in ``want``, so the identity comes first when the lists are
    equal; none when they are not rearrangements of each other."""
    slots = {}
    for i, label in enumerate(have):
        slots.setdefault(label, []).append(i)
    places = slots
    if have is not want:
        places = {}
        for j, label in enumerate(want):
            places.setdefault(label, []).append(j)
        if len(have) != len(want) or any(
            len(slots.get(label, ())) != len(js) for label, js in places.items()
        ):
            return []
    if len(places) == len(want):
        return [tuple(slots[label][0] for label in want)]
    # order[j] = i for the pairs (j, i) of one choice, listed by j
    positions = list(itertools.chain(*places.values()))
    choices = itertools.product(*map(itertools.permutations, map(slots.get, places)))
    return [
        tuple(i for _, i in sorted(zip(positions, itertools.chain(*images))))
        for images in choices
    ]


@dataclass(frozen=True, order=True)
class TopType:
    """Total degree, arithmetic genus, and number of marked points."""

    degree: int
    genus: int
    marks: int

    def norm(self):
        return self.degree + 2 * self.genus - 2 + self.marks


def max_length_bound(t):
    """Upper bound for the expansion length of any stable split map of this
    type: the norm itself."""
    for field in dataclasses.fields(t):
        _int(getattr(t, field.name), field.name)
    n = t.norm()
    if n < 1:
        raise SplitMapError("norm must be positive, got %d" % n)
    return n


@dataclass(frozen=True, order=True)
class Piece:
    """Connected domain piece: genus, polarization degree, marked points."""

    genus: int
    degree: int
    marks: int

    def __post_init__(self):
        if self.genus < 0 or self.degree < 0 or self.marks < 0:
            raise SplitMapError("piece data must be nonnegative")


# the most relabelings of identical pieces a split map's symmetry search walks
_MAX_RELABELINGS = 20000


def _relabelings(groups):
    """What a symmetry pass (:meth:`SplitMap._symmetry`) reads of the
    groups: the sorted group data (genus, degree, marks) that leads the
    canonical key, and per group the permutations moving pieces only inside
    equal-data classes (identity first) with, for each, the same
    permutation followed by the group's sorting relabeling.  A relabeling
    of identical pieces is one choice per group; every relabeling that
    sorts the pieces is one fixed sorting relabeling after such a choice.
    More than ``_MAX_RELABELINGS`` choices raise."""
    data = []
    per_group = []
    sorted_options = []
    count = 1
    for g in groups:
        options = _matchings(g, g)
        count *= len(options)
        if count > _MAX_RELABELINGS:
            raise SplitMapError("too many relabelings to search")
        order = sorted(range(len(g)), key=g.__getitem__)
        rank = [0] * len(g)
        for k, p in enumerate(order):
            rank[p] = k
        per_group.append(options)
        sorted_options.append([[rank[q] for q in sigma] for sigma in options])
        data.append(tuple((g[p].genus, g[p].degree, g[p].marks) for p in order))
    return tuple(data), per_group, sorted_options


class SplitMap:
    """groups: n+2 tuples of pieces; nodes[i]: interface i+1 instances
    (weight, left piece index in group i, right piece index in group i+1).

    The constructor normalizes and validates its input: pieces with int
    fields, int node weights and indices, positive weights in range, and a
    connected map.  Every public route goes through it; only the enumerator
    and :func:`realize_split_map` skip it, through :meth:`_built`, for maps
    that are valid by construction."""

    # set on the mark-free skeletons that _assemble emits, from their dedupe
    # walk or, when no group repeats a piece, to one identity list shared by
    # the call's skeletons; on any other map, by its first automorphisms()
    # call, and _images by its automorphism_interface_image calls (one
    # sorted image per interface).  Callers only ever get copies.
    _automorphisms = None
    _images = None

    def __init__(self, groups, nodes):
        groups = tuple(tuple(g) for g in groups)
        nodes = tuple(tuple(tuple(x) for x in iface) for iface in nodes)
        if len(groups) < 2 or len(nodes) != len(groups) - 1:
            raise SplitMapError("need n+2 groups and n+1 interfaces")
        total = 0
        for g in groups:
            for p in g:
                if not isinstance(p, Piece):
                    raise SplitMapError("groups must contain pieces")
                _int(p.genus, "piece genus")
                _int(p.degree, "piece degree")
                _int(p.marks, "piece marks")
            total += len(g)
        if total == 0:
            raise SplitMapError("the map must have at least one piece")
        for i, iface in enumerate(nodes):
            for mu, a, b in iface:
                if _int(mu, "node weight") < 1:
                    raise SplitMapError("node weights are positive")
                _int(a, "left piece index")
                _int(b, "right piece index")
                if not (0 <= a < len(groups[i]) and 0 <= b < len(groups[i + 1])):
                    raise SplitMapError("node attachment out of range")
        # labels count from 0, so any nonzero label is a second component
        if any(map(any, _piece_components(groups, nodes))):
            raise DisconnectedMapError(
                "the piece/node incidence graph is disconnected"
            )
        self._fill(groups, nodes)

    @classmethod
    def _built(cls, groups, nodes):
        """A map from tuple-of-tuple fields valid by construction; nothing
        is checked (see :func:`_assemble`, :func:`_distribute_marks` and
        :func:`realize_split_map`)."""
        sm = cls.__new__(cls)
        sm._fill(groups, nodes)
        return sm

    def _fill(self, groups, nodes):
        self.groups = groups
        self.nodes = nodes
        self.n = len(groups) - 2
        self._canonical = None

    # ------------------------------------------------------------ structure
    def _piece_index(self, i, p):
        """Check a 1-based group index i and a piece index p of that group;
        bools and other non-ints raise ``TypeError``."""
        if not 1 <= _int(i, "i") <= self.n + 2:
            raise SplitMapError("group index out of range")
        if not 0 <= _int(p, "p") < len(self.groups[i - 1]):
            raise SplitMapError("piece index out of range")

    def left_contacts(self, i, p):
        """Weights of interface i-1 nodes on piece p of group i (1-based i)."""
        self._piece_index(i, p)
        if i == 1:
            return ()
        return tuple(
            sorted(mu for mu, _, b in self.nodes[i - 2] if b == p)
        )

    def right_contacts(self, i, p):
        """Weights of interface i nodes on piece p of group i (1-based i)."""
        self._piece_index(i, p)
        if i == self.n + 2:
            return ()
        return tuple(sorted(mu for mu, a, _ in self.nodes[i - 1] if a == p))

    def interface_weights(self, i):
        """Sorted weight multiset of interface i (1-based, 1..n+1)."""
        if not 1 <= _int(i, "i") <= self.n + 1:
            raise SplitMapError("interface index out of range")
        return tuple(sorted(mu for mu, _, _ in self.nodes[i - 1]))

    def contact_counts(self):
        """counts[i - 1][p]: the number of nodes on piece p of group i, from
        one pass over the nodes."""
        counts = [[0] * len(g) for g in self.groups]
        for i, iface in enumerate(self.nodes):
            for _, a, b in iface:
                counts[i][a] += 1
                counts[i + 1][b] += 1
        return counts

    def total_type(self):
        degree = sum(p.degree for g in self.groups for p in g)
        marks = sum(p.marks for g in self.groups for p in g)
        pieces = sum(len(g) for g in self.groups)
        node_count = sum(len(iface) for iface in self.nodes)
        genus = sum(p.genus for g in self.groups for p in g) + node_count - pieces + 1
        return TopType(degree, genus, marks)

    # -------------------------------------------------------------- weights
    def weight(self, i):
        if not 1 <= _int(i, "i") <= self.n + 2:
            raise SplitMapError("group index out of range")
        return self.weights()[i - 1]

    def weights(self):
        """Group weights: sum over pieces of degree + 2 genus - 2 + marks +
        attached nodes; the empty group weighs zero."""
        return tuple(
            sum(pc.degree + 2 * pc.genus - 2 + pc.marks + c for pc, c in zip(g, counts))
            for g, counts in zip(self.groups, self.contact_counts())
        )

    def is_trivial_piece(self, i, p):
        """Piece p of group i (1-based i) is contracted, unmarked and of
        genus zero, with one node on each side of equal weight."""
        # the contact readers check i and p
        left = self.left_contacts(i, p)
        right = self.right_contacts(i, p)
        piece = self.groups[i - 1][p]
        return (
            piece.degree == 0
            and piece.genus == 0
            and piece.marks == 0
            and len(left) == 1
            and len(right) == 1
            and left == right
        )

    def is_stable(self):
        """Positive weight on every middle group, and no end piece breaking
        the three-special-point rule for contracted pieces."""
        if any(w <= 0 for w in self.weights()[1:-1]):
            return False
        counts = self.contact_counts()
        return all(
            piece.marks >= _mark_need(piece, True, c)
            for i in (0, self.n + 1)
            for piece, c in zip(self.groups[i], counts[i])
        )

    def stability_oracle(self):
        """Independent route: a map is unstable exactly when some middle
        group carries nothing but trivial pieces (the empty group counts)."""
        for i in range(2, self.n + 2):
            group = self.groups[i - 1]
            if all(self.is_trivial_piece(i, p) for p in range(len(group))):
                return False
        return True

    def verify_norm_identity(self):
        return self.total_type().norm() == sum(self.weights())

    def ample_weights(self):
        if not self.is_stable():
            raise SplitMapError("ample weights require a stable map")
        w = self.weights()
        sums = []
        acc = 0
        for i in range(self.n + 1):
            acc += w[i]
            sums.append(acc)
        for a, b in zip(sums, sums[1:]):
            if not a < b:
                raise SplitMapError("ample weight sequence failed to increase")
        return tuple(sums)

    # -------------------------------------------------- canonical form, aut
    def canonical_key(self):
        """Deterministic encoding, minimized over relabelings of identical
        pieces inside each group."""
        if self._canonical is None:
            self._canonical = self._symmetry()[0]
        return self._canonical

    def _symmetry(self, relabelings=None):
        """The canonical key and the automorphisms, from one pass over the
        relabelings of identical pieces; nothing is stored on the map.

        ``relabelings`` is :func:`_relabelings` of the map's groups, which
        depends on the groups alone: the enumerator computes it once per
        piece set and hands it to each skeleton; without it the map builds
        its own.  The pass walks only the node encodings, one per
        relabeling, and the relabelings are drawn lazily from the per-group
        options."""
        if relabelings is None:
            relabelings = _relabelings(self.groups)
        data, per_group, sorted_options = relabelings
        # the sorting relabeling is a bijection, so a relabeling fixes the
        # node encoding after it exactly when it fixes the plain encoding:
        # the automorphisms are the relabelings whose sorted encoding is the
        # identity's, which comes first
        best = fixed = None
        automorphisms = []
        for perms, relabel in zip(
            itertools.product(*per_group), itertools.product(*sorted_options)
        ):
            code = self._encode_nodes(relabel)
            if fixed is None:
                best = fixed = code
            elif code < best:
                best = code
            if code == fixed:
                automorphisms.append(perms)
        return (data, best), automorphisms

    def _encode_nodes(self, relabel):
        return tuple(
            tuple(
                sorted((mu, relabel[i][a], relabel[i + 1][b]) for mu, a, b in iface)
            )
            for i, iface in enumerate(self.nodes)
        )

    def automorphisms(self):
        """Per-group permutations of identical pieces preserving every
        interface as a multiset of weighted attachments: the relabelings
        whose node encoding (the one ``canonical_key`` minimizes) is the
        identity's.  A skeleton that :func:`_assemble` emits carries them
        from its dedupe.  On any other map the first call finds them and
        keeps the list, and each call returns a fresh copy.  When no group
        repeats a piece, the identity is the only relabeling, as in
        :func:`_assemble`, and no walk is made; otherwise the map walks its
        relabelings and also keeps the canonical key, which the same walk
        gives."""
        if self._automorphisms is None:
            if all(len(set(g)) == len(g) for g in self.groups):
                self._automorphisms = [tuple(tuple(range(len(g))) for g in self.groups)]
            else:
                self._canonical, self._automorphisms = self._symmetry()
        return list(self._automorphisms)

    def automorphism_interface_image(self, l):
        """Subgroup of permutations of the interface-l node instances induced
        by automorphisms (instances with equal data are interchangeable),
        sorted; the map keeps it per interface and returns a fresh copy."""
        if not 1 <= _int(l, "l") <= self.n + 1:
            raise SplitMapError("interface index out of range")
        if self._images is None:
            self._images = {}
        image = self._images.get(l)
        if image is None:
            iface = self.nodes[l - 1]
            image = self._images[l] = sorted(
                {
                    order
                    for auto in self.automorphisms()
                    for order in _matchings(
                        iface, [(mu, auto[l - 1][a], auto[l][b]) for mu, a, b in iface]
                    )
                }
            )
        return list(image)

    def __eq__(self, other):
        return (
            isinstance(other, SplitMap)
            and self.groups == other.groups
            and self.nodes == other.nodes
        )

    def __hash__(self):
        return hash((self.groups, self.nodes))

    def __repr__(self):
        return "SplitMap(n=%d, groups=%s, nodes=%s)" % (
            self.n,
            [[(p.genus, p.degree, p.marks) for p in g] for g in self.groups],
            [list(iface) for iface in self.nodes],
        )

    def to_json(self):
        return {
            "groups": [
                [{"g": p.genus, "d": p.degree, "marks": p.marks} for p in g]
                for g in self.groups
            ],
            "nodes": [
                [{"weight": mu, "left": a, "right": b} for mu, a, b in iface]
                for iface in self.nodes
            ],
        }


def split_map_from_json(data):
    """The split map of :meth:`SplitMap.to_json`; a field of the wrong shape
    raises :class:`SplitMapError` naming it."""
    field = functools.partial(_json_field, SplitMapError)

    def rows(key, names):
        return [
            [
                [field(x, name, int, "map.%s[%d][%d]" % (key, i, j)) for name in names]
                for j, x in enumerate(row)
            ]
            for i, row in enumerate(field(data, key, list, "map", list))
        ]

    groups = [[Piece(*p) for p in g] for g in rows("groups", ("g", "d", "marks"))]
    return SplitMap(groups, rows("nodes", ("weight", "left", "right")))


def weight(split_map, i):
    return split_map.weight(i)


def is_stable(split_map):
    return split_map.is_stable()


def verify_norm_identity(split_map):
    return split_map.verify_norm_identity()


def ample_weights(split_map):
    return split_map.ample_weights()


# ---------------------------------------------------------------------------
# decomposition into relative halves and re-gluing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelSplit:
    """Relative half of a split map.

    Groups are ordered with the boundary group first (the distinguished end
    carrying the roots), so the first side comes out of a decomposition with
    its groups reversed.  Roots are ordered node instances (weight, piece
    index in the boundary group).
    """

    groups: tuple
    nodes: tuple   # internal interfaces, aligned with the stored group order
    roots: tuple   # (weight, piece index in groups[0])

    def root_weights(self):
        return tuple(mu for mu, _ in self.roots)


def _reversed_chain(groups, nodes):
    """A chain of groups and the interfaces between them read from the
    other end: the groups reversed, and the interfaces reversed with each
    node's two piece indices swapped."""
    return tuple(reversed(groups)), tuple(
        tuple((mu, b, a) for mu, a, b in iface) for iface in reversed(nodes)
    )


def decompose(split_map, l):
    """Split at interface l into the two relative halves and the interface
    weight multiset; the first half is reversed so its boundary group leads.
    """
    if not 1 <= _int(l, "l") <= split_map.n + 1:
        raise SplitMapError("interface index out of range")
    iface = split_map.nodes[l - 1]
    side1 = RelSplit(
        *_reversed_chain(split_map.groups[:l], split_map.nodes[: l - 1]),
        tuple((mu, a) for mu, a, _ in iface),
    )
    side2 = RelSplit(
        split_map.groups[l:],
        split_map.nodes[l:],
        tuple((mu, b) for mu, _, b in iface),
    )
    sigma = tuple(sorted(mu for mu, _, _ in iface))
    return side1, side2, sigma


def glue_halves(side1, side2):
    """Inverse of :func:`decompose`: re-glue two relative halves along their
    roots, matched by position."""
    if len(side1.roots) != len(side2.roots):
        raise SplitMapError("halves carry different numbers of roots")
    for (mu1, _), (mu2, _) in zip(side1.roots, side2.roots):
        if mu1 != mu2:
            raise SplitMapError("root weights do not match")
    left_groups, left_nodes = _reversed_chain(side1.groups, side1.nodes)
    iface = tuple(
        (mu1, a, b) for (mu1, a), (_, b) in zip(side1.roots, side2.roots)
    )
    groups = left_groups + side2.groups
    nodes = left_nodes + (iface,) + side2.nodes
    return SplitMap(groups, nodes)


def specialization_sum_check(coarse, fine, assignment):
    """Weight sums along a degeneration pattern.

    ``assignment`` maps each fine group index (1-based) to a coarse group
    index, monotone and onto; the coarse weight of each group must equal the
    sum of the fine weights over its preimage.
    """
    assignment = tuple(assignment)
    if len(assignment) != fine.n + 2:
        raise SplitMapError("assignment must cover every fine group")
    if list(assignment) != sorted(assignment):
        raise SplitMapError("assignment must be monotone")
    if set(assignment) != set(range(1, coarse.n + 3)):
        raise SplitMapError("assignment must be onto the coarse groups")
    fine_weights = fine.weights()
    for j, coarse_weight in enumerate(coarse.weights(), 1):
        total = sum(w for w, tgt in zip(fine_weights, assignment) if tgt == j)
        if total != coarse_weight:
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration of split maps of a fixed topological type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationCaps:
    """Declared search caps; the enumeration draws nothing beyond them.

    The default budget for the total number of nodes is norm + 1, which is
    exactly enough for the longest chains the stability bound allows; a
    weight cap of ``None`` means the total degree (at least one).
    """

    pieces_per_group: int = 2
    nodes_per_interface: int = 2
    max_weight: int | None = 2
    max_total_nodes: int | None = None

    def weight_cap(self, t):
        if self.max_weight is not None:
            return self.max_weight
        return max(t.degree, 1)

    def node_budget(self, t):
        if self.max_total_nodes is not None:
            return self.max_total_nodes
        return max(t.norm() + 1, 0)


def enumerate_split_maps(t, caps=EnumerationCaps(), stable_only=False, max_norm=6):
    """Split maps of total type ``t``, pairwise non-isomorphic under piece
    relabeling, for every expansion length up to the norm bound.

    Skeletons are pairwise non-isomorphic.  Marks are placed as
    :func:`_distribute_marks` says: that reaches every class when a
    skeleton's automorphism group is the full product of symmetric groups
    on its piece orbits and can miss classes otherwise, so some lists are
    short.  With ``stable_only`` the placement builds only stable maps, so
    every map built is emitted and none is filtered afterwards.
    Generation conventions (documented choices):
    fiber pieces -- middle pieces of degree zero touch both neighboring
    interfaces with equal total weight; positive-degree middle pieces have
    positive weight (sufficiently ample polarization); end groups are
    nonempty for positive expansion length and end pieces obey the
    three-special-point rule.  Piece counts, interface sizes, node weights
    and the total node budget are bounded by the declared caps.
    """
    for data in (t, caps):
        for field in dataclasses.fields(data):
            value = getattr(data, field.name)
            # a cap of None means no cap; every other field is a count
            if value is None and data is caps:
                continue
            if _int(value, field.name) < 0:
                raise SplitMapError(
                    "%s must be nonnegative, got %d" % (field.name, value)
                )
    if t.norm() > _int(max_norm, "max_norm"):
        raise SplitMapError("norm above the configured bound %d" % max_norm)
    return [
        sm
        for n in range(max(0, t.norm()) + 1)
        for sm in _enumerate_for_n(t, n, caps, stable_only)
    ]


def enumerate_stable_types(t, caps=EnumerationCaps(), max_norm=6):
    return enumerate_split_maps(t, caps, stable_only=True, max_norm=max_norm)


def _enumerate_for_n(t, n, caps, stable_only=False):
    """Mark-free skeletons first, then marks distributed over piece orbits;
    the interface structure never depends on the marked points.

    A skeleton has node_total = sum(counts) - 1 + (genus left unplaced)
    nodes, and it assembles only if node_total fits the node budget and
    ``nodes_per_interface`` per interface.  That ceiling cuts count vectors,
    then genus placements, before any piece is built.  The floor of one node
    per interface needs no cut: once n >= 1 every group has a piece, so
    sum(counts) - 1 >= n + 1 already.  Marks have a floor that does cut:
    every group carries at least :func:`_mark_floor`'s forced marks for the
    contacts it gets, so a piece set whose floors exceed the type's marks
    even with every interface full never reaches :func:`_assemble`, and
    that drops the count vectors whose floors exceed them.  Both cuts leave
    only candidates that would assemble no skeleton.
    """
    wcap = caps.weight_cap(t)
    max_nodes = min(caps.node_budget(t), (n + 1) * caps.nodes_per_interface)
    min_pieces = 1 if n >= 1 else 0
    for counts in itertools.product(
        range(min_pieces, caps.pieces_per_group + 1), repeat=n + 2
    ):
        links = sum(counts) - 1
        if links < 0 or links > max_nodes:
            continue
        for pieces, loops in _group_data_options(
            t, counts, n, caps, stable_only, max_nodes - links
        ):
            node_total = links + loops
            if n == 0 and node_total > 0 and not all(pieces):
                continue
            # the placements of one piece set, shared by its skeletons
            memo = {}
            for skeleton in _assemble(
                n, pieces, node_total, caps, wcap, stable_only, t.marks
            ):
                yield from _distribute_marks(skeleton, t.marks, stable_only, memo)


def _mark_need(piece, end, contacts):
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


@functools.cache
def _mark_floor(group, end, touch):
    """The contacts the pieces of ``group`` need for it to carry no forced
    mark, when each piece has at least ``touch`` of them.

    Every branch of :func:`_mark_need` is max(0, a - c), with a the need at
    no contact, so a piece needs max(a, touch) contacts to carry nothing
    and each contact it lacks costs it exactly one mark.  A group with C
    contacts, at least ``touch`` on each piece, thus carries at least
    max(0, floor - C) = max(0, sum of max(0, a - touch) - (C - touch *
    pieces)) forced marks, and exactly that many under the best split of C
    over its pieces: the bound is exact.  Every piece of a connected
    skeleton with two or more pieces has a contact, so the enumerator
    passes touch 1 there.  Cached: the enumerator asks for the same shared
    piece tuples of :func:`_piece_tuples` over and over."""
    return sum(max(_mark_need(p, end, 0), touch) for p in group)


def _distribute_marks(skeleton, k, stable_only=False, memo=None):
    """Placements of k marked points on a mark-free skeleton: every piece
    gets its forced marks, and each orbit of pieces under the skeleton's
    automorphisms a non-increasing tuple of the extra ones.

    No two placements are isomorphic: an automorphism keeps the multiset
    of extras on every orbit, and the tuples are those multisets.  They are
    one per isomorphism class when the automorphism group is the full
    product of symmetric groups on the orbits; when one automorphism moves
    several orbits together, some classes are never placed and the list is
    short.

    With ``stable_only`` only stable maps are built, in the same order.
    Forced marks already satisfy the end-piece rule.  Orbits never cross
    groups and come group by group, so a middle group's weight is final
    once the last orbit of the group has its extras; a branch that leaves
    it at zero or below is cut there.  (Every middle group of a skeleton
    has a piece, so each has a last orbit.)  Contacts are the skeleton's
    ``contact_counts``, read once.

    ``memo`` maps (contacts, automorphisms) to the placed groups of every
    placement.  The enumerator opens one per piece set, shared by the
    skeletons assembled from it; there the groups, ``n``, ``k`` and
    ``stable_only`` are fixed, and the placement reads a skeleton only
    through its contacts (forced marks and middle weights) and its
    automorphisms (orbits), never through its nodes, so the key is exact.
    The maps of every skeleton with one key share its placed groups.
    Without a memo every call places afresh.

    With the identity as the only automorphism each piece is an orbit and
    no orbit search runs; nor does one when the forced marks already use up
    all k marks, since the forced marks are then the one placement (see
    :func:`_placed_groups`).  Placements are built unchecked
    (:meth:`SplitMap._built`): only nonnegative marks change on the checked
    skeleton, whose nodes they share, with one Piece per (piece, marks)."""
    contacts = skeleton.contact_counts()
    automorphisms = skeleton.automorphisms()
    key = (tuple(map(tuple, contacts)), tuple(automorphisms))
    if memo is None:
        memo = {}
    placed = memo.get(key)
    if placed is None:
        placed = memo[key] = _placed_groups(
            skeleton.groups, contacts, automorphisms, k, stable_only
        )
    for groups in placed:
        yield SplitMap._built(groups, skeleton.nodes)


def _placed_groups(groups, contacts, automorphisms, k, stable_only):
    """The groups of every placement :func:`_distribute_marks` yields, in
    order, as tuples of tuples of Pieces.

    When the forced marks use up all k marks there are no extras to hand
    out, so the orbits play no part: the one placement is the forced marks
    themselves, kept in stable mode only if every middle group weighs more
    than zero, and no orbit search runs.  Forced marks above k leave no
    placement."""
    ids = [(i, p) for i, g in enumerate(groups) for p in range(len(g))]
    ends = (0, len(groups) - 1)
    needs = [_mark_need(groups[i][p], i in ends, contacts[i][p]) for i, p in ids]
    shortfall = k - sum(needs)
    if shortfall < 0:
        return ()
    starts = list(itertools.accumulate(map(len, groups), initial=0))
    flat = [pc for g in groups for pc in g]
    # one Piece per (piece, marks), the skeleton's own where the marks agree
    pieces = {(j, pc.marks): pc for j, pc in enumerate(flat)}

    def piece(j, m):
        got = pieces.get((j, m))
        if got is None:
            got = pieces[j, m] = Piece(flat[j].genus, flat[j].degree, m)
        return got

    def place(marks):
        placed = [piece(j, m) for j, m in enumerate(marks)]
        return tuple(tuple(placed[a:b]) for a, b in zip(starts, starts[1:]))

    # with stable_only, each group's weight with forced marks only
    if stable_only:
        weights = [0] * len(groups)
        for j, (i, p) in enumerate(ids):
            pc = groups[i][p]
            weights[i] += pc.degree + 2 * pc.genus - 2 + needs[j] + contacts[i][p]
    if shortfall == 0:
        if stable_only and any(w <= 0 for w in weights[1:-1]):
            return ()
        return (place(needs),)

    labels = range(len(ids)) if len(automorphisms) == 1 else _components(
        len(ids),
        (
            (starts[i] + p, starts[i] + auto[i][p])
            for auto in automorphisms
            for i, p in ids
        ),
    )
    orbit_members = {}
    for j, label in enumerate(labels):
        orbit_members.setdefault(label, []).append(j)
    # labels number the orbits by their least member, so these come sorted,
    # and group by group
    orbits = list(orbit_members.values())
    orbit_group = [ids[members[0]][0] for members in orbits]
    # last[o]: orbit o is the last of its group; closing[o]: with
    # stable_only, the weight with forced marks only of the middle group that
    # orbit o closes, else None
    last = [i != nxt for i, nxt in zip(orbit_group, orbit_group[1:])] + [True]
    closing = [None] * len(orbits)
    if stable_only:
        for o, i in enumerate(orbit_group):
            if last[o] and 1 <= i <= len(groups) - 2:
                closing[o] = weights[i]

    def assign(oidx, budget, extras, group_extra):
        # group_extra: extras handed so far to the group of orbit oidx
        if oidx == len(orbits):
            if budget == 0:
                marks = list(needs)
                for members, vals in zip(orbits, extras):
                    for j, v in zip(members, vals):
                        marks[j] += v
                yield place(marks)
            return
        for vals in _orbit_extras(len(orbits[oidx]), budget):
            spent = sum(vals)
            added = group_extra + spent
            if closing[oidx] is not None and closing[oidx] + added <= 0:
                continue
            yield from assign(
                oidx + 1, budget - spent, extras + [vals], 0 if last[oidx] else added
            )

    return tuple(assign(0, shortfall, [], 0))


@functools.cache
def _orbit_extras(size, budget):
    """Non-increasing tuples of ``size`` extra marks summing to at most
    ``budget``, in descending lexicographic order; built once per
    (size, budget)."""

    def rec(left, cap, total):
        if left == 0:
            yield ()
            return
        for v in range(min(cap, total), -1, -1):
            for rest in rec(left - 1, v, total - v):
                yield (v,) + rest

    return tuple(rec(size, budget, budget))


@functools.cache
def _piece_tuples(count, deg_budget, gen_budget):
    """The ways to give ``count`` mark-free pieces degrees and genera within
    the budgets, as sorted (g, d) tuples in the order of
    ``combinations_with_replacement``.  Each comes as (its Pieces, degree
    sum, genus sum, base), the base being the sum of d + 2g - 2; built once
    per (count, budgets), so candidates share their Pieces."""
    options = [(g, d) for g in range(gen_budget + 1) for d in range(deg_budget + 1)]
    got = []
    for combo in itertools.combinations_with_replacement(options, count):
        degree = sum(d for _, d in combo)
        genus = sum(g for g, _ in combo)
        if degree <= deg_budget and genus <= gen_budget:
            got.append((
                tuple(Piece(g, d, 0) for g, d in combo),
                degree,
                genus,
                degree + 2 * genus - 2 * count,
            ))
    return tuple(got)


def _group_data_options(t, counts, n, caps, stable_only, loops_max):
    """Distribute degree and genus over the groups' pieces (marks come
    later); yields (the groups' mark-free Pieces, genus left unplaced).

    The genus left unplaced becomes loops, one node each, so a placement
    that leaves more than ``loops_max`` of it is dropped.

    In stable mode two necessary weight bounds prune early: a middle group's
    contact-and-mark-free weight cannot fall below 1 - 2 * node cap - marks,
    and the two end weights must leave room for every middle group to weigh
    at least one (marks only push the end weights up).

    In both modes the groups chosen so far must leave their forced marks
    within the type's marks: each group carries at least the
    :func:`_mark_floor` forced marks of its most contacts, a full interface
    on each side, and those only fall as contacts grow.  A piece set
    dropped here would have every skeleton's forced marks above the marks,
    so :func:`_assemble` would yield nothing for it.
    """
    groups_count = len(counts)
    norm = t.norm()
    middle_floor = 1 - 2 * caps.nodes_per_interface - t.marks
    touch = 1 if sum(counts) >= 2 else 0

    def rec(i, deg_left, gen_left, end_base, chosen, forced):
        if i == groups_count:
            if deg_left == 0 and gen_left <= loops_max:
                yield chosen, gen_left
            return
        end = i in (0, groups_count - 1)
        # the most contacts group i can get: a full interface on each side
        most = caps.nodes_per_interface * ((i > 0) + (i < groups_count - 1))
        for pieces, d, g, base in _piece_tuples(counts[i], deg_left, gen_left):
            if stable_only and n >= 1:
                if 1 <= i <= groups_count - 2 and base < middle_floor:
                    continue
                if i == groups_count - 1 and end_base + base > norm - n - 2:
                    continue
            got = forced + max(0, _mark_floor(pieces, end, touch) - most)
            if got > t.marks:
                continue
            nxt = end_base + base if i == 0 else end_base
            yield from rec(
                i + 1, deg_left - d, gen_left - g, nxt, chosen + (pieces,), got
            )

    yield from rec(0, t.degree, t.genus, 0, (), 0)


def _profile_options(size, wcap, right_count, sum_exact):
    """Sorted tuples of (weight, right piece) of the given size; unless
    ``sum_exact`` is None the weights must add up to it."""
    slots = [(mu, b) for mu in range(1, wcap + 1) for b in range(right_count)]

    def rec(start, left, total):
        if left == 0:
            if sum_exact is None or total == sum_exact:
                yield ()
            return
        for idx in range(start, len(slots)):
            mu, b = slots[idx]
            if sum_exact is not None and total + mu > sum_exact:
                continue
            for rest in rec(idx, left - 1, total + mu):
                yield ((mu, b),) + rest

    return rec(0, size, 0)


@functools.cache
def _interface_options(left_spec, q, wcap, right_spec, needs_left):
    """All admissible interfaces with exactly q nodes, fully filtered.

    left_spec, per left piece, one of
      ("fiber", class_id, required_weight_sum)  -- middle degree-zero piece,
      ("mid", class_id, weight_allowance)       -- middle positive piece,
      ("free", class_id)                        -- end piece;
    right_spec, per right piece: (class_id, fiber_flag).

    Profiles are generated sorted inside each class of interchangeable left
    pieces and filtered so interchangeable right pieces receive sorted
    profiles; a middle positive piece must end with positive weight
    (``weight_allowance`` counts everything but its contacts here), and
    with ``needs_left`` every fiber piece on the right needs a contact.
    The allowance is read only as ``max(0, 1 - allowance)`` contacts, so
    every allowance of 1 or more gives the same options; callers clamp it
    at 1 and share the memo entry.
    Returns a tuple of (interface tuple, refined right class labels).
    """
    right_count = len(right_spec)
    by_class = {}
    for p, spec in enumerate(left_spec):
        by_class.setdefault(spec[1], []).append(p)
    piece_order = [p for c in sorted(by_class) for p in by_class[c]]
    results = []

    def gen(pos, budget, prev_profile, out):
        if pos == len(piece_order):
            if budget == 0:
                results.append(tuple(sorted(out)))
            return
        p = piece_order[pos]
        spec = left_spec[p]
        first_in_class = (
            pos == 0 or left_spec[piece_order[pos - 1]][1] != spec[1]
        )
        req = spec[2] if spec[0] == "fiber" else None
        min_size = 1 if spec[0] == "fiber" else 0
        if spec[0] == "mid":
            min_size = max(min_size, 1 - spec[2])
        for size in range(min_size, budget + 1):
            for prof in _profile_options(size, wcap, right_count, req):
                if not first_in_class and (len(prof), prof) > prev_profile:
                    continue
                gen(
                    pos + 1,
                    budget - size,
                    (len(prof), prof),
                    out + [(mu, p, b) for mu, b in prof],
                )

    gen(0, q, (10**9, ()), [])
    right_by_class = {}
    for p2, (c, _) in enumerate(right_spec):
        right_by_class.setdefault(c, []).append(p2)
    filtered = []
    for iface in results:
        profiles = [[] for _ in right_spec]
        for mu, _, b in iface:
            profiles[b].append(mu)
        profiles = [tuple(sorted(prof)) for prof in profiles]
        if needs_left and any(
            fiber and not prof for prof, (_, fiber) in zip(profiles, right_spec)
        ):
            continue
        # interchangeable right pieces must receive their profiles in
        # non-increasing (size, profile) order
        keyed = [(len(prof), prof) for prof in profiles]
        if any(
            keyed[p2] < keyed[nxt]
            for members in right_by_class.values()
            for p2, nxt in zip(members, members[1:])
        ):
            continue
        refined = _first_appearance(
            (c, prof) for (c, _), prof in zip(right_spec, profiles)
        )
        filtered.append((iface, refined))
    return tuple(filtered)


def _first_appearance(keys):
    """Labels 0, 1, ... numbering the keys by first appearance."""
    labels = {}
    return tuple(labels.setdefault(key, len(labels)) for key in keys)


@functools.cache
def _data_classes(group):
    return _first_appearance(group)


@functools.cache
def _count_vector_options(ifaces, node_total, cap, count_low, middle_bases):
    """Surviving interface node-count vectors; with ``middle_bases`` given,
    every middle group must end with positive weight."""

    def rec(i, left):
        if i == ifaces:
            if left == 0:
                yield ()
            return
        rest_min = sum(count_low[i + 1 :])
        for v in range(count_low[i], min(cap, left - rest_min) + 1):
            for tail in rec(i + 1, left - v):
                yield (v,) + tail

    return tuple(
        q
        for q in rec(0, node_total)
        if middle_bases is None
        or all(base + q[j] + q[j + 1] >= 1 for j, base in enumerate(middle_bases))
    )


def _assemble(n, pieces, node_total, caps, wcap, stable_only, mark_budget):
    """Interface enumeration on a mark-free skeleton: choose the node count
    of every interface first (group weights depend only on those counts, so
    the stability cut happens before any attachment is drawn), then fill in
    attachments left to right in per-class canonical order; the weight rule
    for positive middle pieces is relaxed by the pending mark budget.

    Only connected skeletons whose forced marks fit ``mark_budget`` are
    built.  A count vector q gives group i exactly q[i - 1] + q[i]
    contacts, and a connected skeleton of two or more pieces at least one
    per piece, so group i carries at least the :func:`_mark_floor` forced
    marks of those contacts; a q whose floors sum above the budget is
    dropped before any interface is drawn.  The floor is the least over
    every split of the contacts, so no q that could assemble a skeleton
    within the budget is lost.

    While interfaces are drawn, each piece of the current right group
    carries the label of its component among the pieces joined so far; a
    component that reaches no piece of the next group is closed for good,
    so the partial assembly is dropped.  A group's forced marks are final
    once both of its interfaces are drawn, and their running sum drops a
    partial assembly as soon as it exceeds the budget.

    Each level is decided once per process by :func:`_level_options`, a
    memo over the level's state; a level only adds the forced-mark increase
    to its running sum and checks the budget.  The running sum and the mark
    budget stay out of the state; the budget reaches the options only
    through a positive piece's allowance, clamped at 1, which is why the
    memo is exact across budgets.

    The dedupe walks each built skeleton's relabelings at most once, for
    its key and its automorphisms together, and not at all when no group
    repeats a piece: then the identity is the only relabeling, every
    skeleton is its own class, and all share one identity list.  What the
    walk reads of the groups alone (:func:`_relabelings`) is computed once
    per call, when its first skeleton arrives, and shared by the rest.  An
    emitted skeleton keeps the automorphisms, which mark placement reads
    and never changes.  Skeletons are built unchecked
    (:meth:`SplitMap._built`): nodes join existing pieces with positive
    weights, and the closed-component cut keeps only connected ones."""
    ifaces = n + 1
    min_per_iface = 0 if n == 0 else 1
    min_fiber = [
        sum(1 for p in g if p.degree == 0) if 1 <= i <= n else 0
        for i, g in enumerate(pieces)
    ]
    # interface i (0-based) must cover the fiber pieces of group i+1 on the
    # left and of group i (1-based middle) on the right
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
    touch = 1 if sum(map(len, pieces)) >= 2 else 0
    floors = [_mark_floor(g, i in (0, n + 1), touch) for i, g in enumerate(pieces)]
    # group i gets q[i - 1] + q[i] contacts; with no contact at all the
    # floors already fit, and then every q does
    if sum(floors) > mark_budget:
        q_options = [
            q
            for q in q_options
            if sum(max(0, f - a - b) for f, a, b in zip(floors, (0,) + q, q + (0,)))
            <= mark_budget
        ]
    if not q_options:
        return
    group_classes = [_data_classes(g) for g in pieces]

    def rec(i, chosen, q, classes, comps, need):
        left_group = pieces[i - 1]
        last = i == ifaces
        arrivals = [0] * len(left_group)
        sums = [0] * len(left_group)
        for mu, _, b in chosen[-1] if chosen else ():
            arrivals[b] += 1
            sums[b] += mu
        left_spec = []
        for p, piece in enumerate(left_group):
            cid = classes[p]
            if i == 1:
                spec = ("free", cid)
            elif piece.degree == 0:
                spec = ("fiber", cid, sums[p])
            else:
                allowance = (
                    piece.degree + 2 * piece.genus - 2 + arrivals[p] + mark_budget
                )
                # only min(allowance, 1) matters (see _interface_options)
                spec = ("mid", cid, min(1, allowance))
            left_spec.append(spec)
        options = _level_options(
            q[i - 1],
            wcap,
            last,
            left_group,
            tuple(left_spec),
            tuple(arrivals),
            pieces[i],
            group_classes[i],
            comps,
        )
        for iface, refined, delta, right in options:
            got = need + delta
            if got > mark_budget:
                continue
            chosen.append(iface)
            if last:
                yield SplitMap._built(pieces, tuple(chosen))
            else:
                yield from rec(i + 1, chosen, q, refined, right, got)
            chosen.pop()

    alone = tuple(range(len(pieces[0])))
    skeletons = (
        sm for q in q_options for sm in rec(1, [], q, group_classes[0], alone, 0)
    )
    if all(c == tuple(range(len(c))) for c in group_classes):
        # no group repeats a piece: the identity is the only relabeling,
        # and rec never draws one node tuple twice, so no two skeletons are
        # isomorphic and each has the identity alone
        identity = [tuple(group_classes)]
        for sm in skeletons:
            sm._automorphisms = identity
            yield sm
        return
    seen = set()
    relabelings = None
    for sm in skeletons:
        # every skeleton has the groups ``pieces``; most calls build none,
        # so the relabelings wait for the first
        if relabelings is None:
            relabelings = _relabelings(pieces)
        key, automorphisms = sm._symmetry(relabelings)
        if key not in seen:
            seen.add(key)
            sm._automorphisms = automorphisms
            yield sm


@functools.cache
def _level_options(
    count,
    wcap,
    last,
    left_group,
    left_spec,
    arrivals,
    right_group,
    right_classes,
    comps,
):
    """The interfaces with ``count`` nodes of one :func:`_assemble` level
    that keep every component open, each with its forced-mark increase and
    the right group's component labels.  ``comps`` labels the left group's
    pieces by component; the first level's left pieces are the "free" ones
    of ``left_spec``, and ``last`` marks the last level."""
    width = len(right_group)
    right_spec = tuple(
        (cid, piece.degree == 0) for cid, piece in zip(right_classes, right_group)
    )
    size = width + max(comps, default=-1) + 1
    out = []
    for iface, refined in _interface_options(
        left_spec, count, wcap, right_spec, not last
    ):
        # both interfaces of the left group are drawn now, so its forced
        # marks are final; the last group has only this one
        contacts = list(arrivals)
        for _, a, _ in iface:
            contacts[a] += 1
        delta = sum(
            _mark_need(piece, spec[0] == "free", c)
            for piece, spec, c in zip(left_group, left_spec, contacts)
        )
        if last:
            entries = [0] * width
            for _, _, b in iface:
                entries[b] += 1
            delta += sum(
                _mark_need(piece, True, c) for piece, c in zip(right_group, entries)
            )
        # the right pieces come first, so their labels count up in order
        # of first appearance among them, and a component that reaches
        # none of them gets a larger label: it is closed for good.  After
        # the last interface only one component may remain.
        labels = _components(size, [(b, width + comps[a]) for _, a, b in iface])
        right = tuple(labels[:width])
        if any(labels) if last else max(labels) > max(right):
            continue
        # right already numbers its pieces by first appearance, so the
        # class memo hands back an equal tuple, one shared per value
        out.append((iface, refined, delta, _data_classes(right)))
    return tuple(out)


# ---------------------------------------------------------------------------
# admissible graphs, triples, gluing, and the symmetry degree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassGroup:
    """Free abelian group with the two integral functionals."""

    rank: int
    deg_h: tuple
    deg_d: tuple

    def __post_init__(self):
        _int(self.rank, "rank")
        if len(self.deg_h) != self.rank or len(self.deg_d) != self.rank:
            raise GraphError("functional length must match the rank")
        object.__setattr__(
            self, "deg_h", tuple(_int(x, "functional value") for x in self.deg_h)
        )
        object.__setattr__(
            self, "deg_d", tuple(_int(x, "functional value") for x in self.deg_d)
        )

    def pair_h(self, vec):
        return sum(a * b for a, b in zip(self.deg_h, vec))

    def pair_d(self, vec):
        return sum(a * b for a, b in zip(self.deg_d, vec))


NUMERIC_GROUP = ClassGroup(2, (1, 0), (0, 1))


@dataclass(frozen=True)
class AdmissibleGraph:
    """Edge-free weighted graph: ordered legs, ordered weighted roots."""

    group: ClassGroup
    genera: tuple
    classes: tuple
    legs: tuple    # leg j attached to vertex legs[j]
    roots: tuple   # root j is (vertex, weight)

    def __post_init__(self):
        nv = len(self.genera)
        if len(self.classes) != nv:
            raise GraphError("need one class vector per vertex")
        object.__setattr__(self, "genera", tuple(_int(g, "genus") for g in self.genera))
        if any(g < 0 for g in self.genera):
            raise GraphError("genera must be nonnegative")
        object.__setattr__(
            self,
            "classes",
            tuple(tuple(_int(x, "class entry") for x in c) for c in self.classes),
        )
        for c in self.classes:
            if len(c) != self.group.rank:
                raise GraphError("class vector has wrong rank")
        object.__setattr__(self, "legs", tuple(_int(v, "leg") for v in self.legs))
        object.__setattr__(
            self,
            "roots",
            tuple((_int(v, "root"), _int(w, "root weight")) for v, w in self.roots),
        )
        for v in self.legs:
            if not 0 <= v < nv:
                raise GraphError("leg attached out of range")
        for v, w in self.roots:
            if not 0 <= v < nv:
                raise GraphError("root attached out of range")
            if w < 1:
                raise GraphError("root weights are positive")
        if nv == 0 and (self.legs or self.roots):
            raise GraphError("the empty graph carries no legs or roots")
        if nv > 1:
            rooted = {v for v, _ in self.roots}
            if rooted != set(range(nv)):
                raise GraphError(
                    "relative connectivity: every vertex needs a root"
                )

    @classmethod
    def _built(cls, group, genera, classes, legs, roots):
        """A graph from tuple fields valid by construction; nothing is
        checked (see :func:`fiber_count`)."""
        graph = cls.__new__(cls)
        vars(graph).update(
            group=group, genera=genera, classes=classes, legs=legs, roots=roots
        )
        return graph

    @property
    def num_vertices(self):
        return len(self.genera)

    @property
    def num_roots(self):
        return len(self.roots)

    @property
    def num_legs(self):
        return len(self.legs)

    def root_weights(self):
        return tuple(w for _, w in self.roots)

    def deg_h(self, v):
        return self.group.pair_h(self.classes[v])

    def deg_d(self, v):
        return self.group.pair_d(self.classes[v])

    def contact_defects(self):
        """Per vertex: divisor degree of the class minus total root weight."""
        out = []
        for v in range(self.num_vertices):
            mu = sum(w for vv, w in self.roots if vv == v)
            out.append(self.deg_d(v) - mu)
        return tuple(out)

    def satisfies_contact(self):
        return all(x == 0 for x in self.contact_defects())

    def reorder(self, sigma):
        """Roots permuted so the j-th root of the result is the
        sigma^{-1}(j)-th root of this graph."""
        r = self.num_roots
        inv = [None] * r
        for i, image in enumerate(sigma):
            inv[image] = i
        return AdmissibleGraph(
            self.group,
            self.genera,
            self.classes,
            self.legs,
            tuple(self.roots[inv[j]] for j in range(r)),
        )

    def numeric_shadow(self):
        """Projection to the standard rank-two group by the two functionals."""
        return AdmissibleGraph(
            NUMERIC_GROUP,
            self.genera,
            tuple((self.deg_h(v), self.deg_d(v)) for v in range(self.num_vertices)),
            self.legs,
            self.roots,
        )

    def canonical_key(self, roots=None):
        """Complete isomorphism invariant within the class group: vertices
        are numbered by first appearance among the legs, then the roots
        (``roots`` overrides the stored root order), and vertices touched by
        neither come last, sorted by (genus, class)."""
        if roots is None:
            return self._key_under(tuple(range(self.num_roots)))
        number = {}
        for v in itertools.chain(self.legs, (v for v, _ in roots)):
            number.setdefault(v, len(number))
        data = [(self.genera[v], self.classes[v]) for v in number]
        untouched = (v for v in range(self.num_vertices) if v not in number)
        data += sorted((self.genera[v], self.classes[v]) for v in untouched)
        return (
            tuple(data),
            tuple(number[v] for v in self.legs),
            tuple((number[v], w) for v, w in roots),
        )

    @functools.cached_property
    def _keys(self):
        """The canonical key per root order, kept as the orders are asked
        for; the graph is immutable, so a kept key never goes stale."""
        return {}

    def _key_under(self, order):
        """The canonical key with root j taken from stored root order[j]."""
        key = self._keys.get(order)
        if key is None:
            key = self._keys[order] = self.canonical_key(
                tuple(self.roots[i] for i in order)
            )
        return key

    @functools.cached_property
    def _root_column(self):
        """Per root, its vertex's genus, class, leg positions and sorted
        root weights: this side's entries of :func:`_root_signatures`."""
        data = [
            (
                self.genera[v],
                self.classes[v],
                tuple(j for j, x in enumerate(self.legs) if x == v),
                tuple(sorted(w for x, w in self.roots if x == v)),
            )
            for v in range(self.num_vertices)
        ]
        return tuple(data[v] for v, _ in self.roots)

    def isomorphic(self, other):
        """Order-preserving isomorphism on legs and roots, preserving both
        vertex weight functions: equal class groups and canonical keys."""
        return (
            self.group == other.group
            and self.canonical_key() == other.canonical_key()
        )

    def to_json(self):
        vertices = []
        for v in range(self.num_vertices):
            vertices.append(
                {
                    "g": self.genera[v],
                    "b": list(self.classes[v]),
                    "roots": [
                        {"weight": w} for vv, w in self.roots if vv == v
                    ],
                    "legs": sum(1 for x in self.legs if x == v),
                }
            )
        root_order = []
        local_seen = {}
        for v, w in self.roots:
            k = local_seen.get(v, 0)
            local_seen[v] = k + 1
            root_order.append([v, k])
        return {
            "vertices": vertices,
            "root_order": root_order,
            "leg_order": list(self.legs),
            "deg_H": list(self.group.deg_h),
            "deg_D": list(self.group.deg_d),
        }


def graph_from_json(data):
    """The graph of :meth:`AdmissibleGraph.to_json`; a field of the wrong
    shape raises :class:`GraphError` naming it."""
    return _graph_from_json(data, "graph")


def _graph_from_json(data, path):
    """:func:`graph_from_json` of the graph at ``path`` in the input."""
    field = functools.partial(_json_field, GraphError)
    deg_h = field(data, "deg_H", list, path, int)
    group = ClassGroup(len(deg_h), deg_h, field(data, "deg_D", list, path, int))
    genera, classes, leg_counts, weights = [], [], [], []
    for v, vertex in enumerate(field(data, "vertices", list, path)):
        where = "%s.vertices[%d]" % (path, v)
        genera.append(field(vertex, "g", int, where))
        classes.append(field(vertex, "b", list, where, int))
        leg_counts.append(field(vertex, "legs", int, where))
        weights.append(
            [
                field(root, "weight", int, "%s.roots[%d]" % (where, k))
                for k, root in enumerate(field(vertex, "roots", list, where))
            ]
        )
    legs = tuple(field(data, "leg_order", list, path, int))
    # root_order names each declared root, (vertex, index among its roots),
    # exactly once
    order = [
        tuple(_json_typed(GraphError, pair, list, "%s.root_order[%d]" % (path, i), int))
        for i, pair in enumerate(field(data, "root_order", list, path))
    ]
    declared = [(v, k) for v, ws in enumerate(weights) for k in range(len(ws))]
    if sorted(order) != declared:
        raise GraphError("root_order must list each declared root exactly once")
    roots = tuple((v, weights[v][k]) for v, k in order)
    graph = AdmissibleGraph(group, genera, classes, legs, roots)
    if tuple(leg_counts) != tuple(map(legs.count, range(len(weights)))):
        raise GraphError("each vertex's legs must count its entries in leg_order")
    return graph


def _triple_from_json(data, path="triple"):
    """The triple at ``path`` in the input: the graphs ``first`` and
    ``second`` and the optional list ``first_legs`` (empty when absent); a
    field of the wrong shape raises :class:`GraphError` naming it."""
    field = functools.partial(_json_field, GraphError)
    first, second = (
        _graph_from_json(field(data, side, dict, path), "%s.%s" % (path, side))
        for side in ("first", "second")
    )
    first_legs = field(data, "first_legs", list, path, int, default=[])
    return AdmissibleTriple(first, second, first_legs)


@dataclass(frozen=True)
class AdmissibleTriple:
    """Two admissible graphs with matched roots and a leg distribution."""

    first: AdmissibleGraph
    second: AdmissibleGraph
    first_legs: tuple  # subset of 1..k picking the first graph's legs

    def __post_init__(self):
        if self.first.num_roots != self.second.num_roots:
            raise GraphError("root counts differ")
        if self.first.root_weights() != self.second.root_weights():
            raise GraphError("root weights must match pairwise")
        k1, k2 = self.first.num_legs, self.second.num_legs
        I = tuple(_int(x, "leg index") for x in self.first_legs)
        object.__setattr__(self, "first_legs", I)
        if len(I) != k1 or list(I) != sorted(set(I)):
            raise GraphError("leg subset must be strictly increasing of size k1")
        if I and (I[0] < 1 or I[-1] > k1 + k2):
            raise GraphError("leg subset out of range")
        if not self._glued_connected():
            raise GraphError("gluing the roots must give a connected graph")

    @classmethod
    def _built(cls, first, second, first_legs):
        """A triple valid by construction; nothing is checked (see
        :func:`fiber_count`)."""
        triple = cls.__new__(cls)
        vars(triple).update(first=first, second=second, first_legs=first_legs)
        return triple

    @property
    def num_roots(self):
        return self.first.num_roots

    def _glued_connected(self):
        n1 = self.first.num_vertices
        labels = _components(
            n1 + self.second.num_vertices,
            (
                (a, n1 + b)
                for (a, _), (b, _) in zip(self.first.roots, self.second.roots)
            ),
        )
        return len(set(labels)) == 1

    def canonical_keys(self, order=None):
        """Both sides' canonical keys with root j taken from root order[j]
        (the stored order when ``order`` is None)."""
        if order is None:
            order = tuple(range(self.num_roots))
        return self.first._key_under(order), self.second._key_under(order)

    @functools.cached_property
    def _eq(self):
        """The sorted symmetry group that :func:`eq_group` copies out."""
        return sorted(_orders_onto(self, self))

    def reorder(self, sigma):
        return AdmissibleTriple(
            self.first.reorder(sigma), self.second.reorder(sigma), self.first_legs
        )

    def isomorphic(self, other):
        return (
            self.first_legs == other.first_legs
            and self.first.isomorphic(other.first)
            and self.second.isomorphic(other.second)
        )

    def numeric_shadow(self):
        """Both sides projected to :data:`NUMERIC_GROUP`: the triple itself
        when both already lie over it (the projection would rebuild equal
        graphs), otherwise a triple built once and kept."""
        if self.first.group == NUMERIC_GROUP == self.second.group:
            return self
        return self._shadow

    @functools.cached_property
    def _shadow(self):
        return AdmissibleTriple(
            self.first.numeric_shadow(),
            self.second.numeric_shadow(),
            self.first_legs,
        )


@dataclass(frozen=True)
class GluedGraph:
    vertices: tuple        # (side, index, genus, class)
    edges: tuple           # (first vertex, second vertex, weight)
    legs: tuple            # ordered; glued-vertex index per leg

    def betti(self):
        labels = _components(len(self.vertices), ((a, b) for a, b, _ in self.edges))
        return len(self.edges) - len(self.vertices) + len(set(labels))

    def to_dot(self):
        lines = ["graph glued {"]
        for i, (side, idx, g, _) in enumerate(self.vertices):
            lines.append(
                '  v%d [label="side%d.%d g=%d"];' % (i, side, idx, g)
            )
        for a, b, w in self.edges:
            lines.append('  v%d -- v%d [label="%d"];' % (a, b, w))
        for j, v in enumerate(self.legs, start=1):
            lines.append("  leg%d [shape=point];" % j)
            lines.append('  v%d -- leg%d [style=dashed, label="p%d"];' % (v, j, j))
        lines.append("}")
        return "\n".join(lines)


def glue(triple):
    """Glued graph with its genus, degree and topological type."""
    g1, g2 = triple.first, triple.second
    n1 = g1.num_vertices
    vertices = tuple(
        (1, v, g1.genera[v], g1.classes[v]) for v in range(n1)
    ) + tuple((2, v, g2.genera[v], g2.classes[v]) for v in range(g2.num_vertices))
    edges = tuple(
        (g1.roots[i][0], n1 + g2.roots[i][0], g1.roots[i][1])
        for i in range(triple.num_roots)
    )
    k1, k2 = g1.num_legs, g2.num_legs
    k = k1 + k2
    in_first = set(triple.first_legs)
    legs = []
    i1 = i2 = 0
    for pos in range(1, k + 1):
        if pos in in_first:
            legs.append(g1.legs[i1])
            i1 += 1
        else:
            legs.append(n1 + g2.legs[i2])
            i2 += 1
    glued = GluedGraph(vertices, edges, tuple(legs))
    r = triple.num_roots
    total_vertices = len(vertices)
    genus = r + 1 - total_vertices + sum(v[2] for v in vertices)
    degree = sum(g1.deg_h(v) for v in range(n1)) + sum(
        g2.deg_h(v) for v in range(g2.num_vertices)
    )
    return glued, genus, degree, TopType(degree, genus, k)


def _root_signatures(triple):
    """Per root: its weight and, on each side, its vertex's genus, class,
    leg positions and sorted root weights.

    The canonical keys under any root order number the vertices by first
    appearance among legs and roots and list each number's genus, class,
    leg positions and root weights, so they show root j's signature where
    the order puts root j.  An order that carries one triple's keys onto
    another's thus matches roots of equal signature."""
    return list(
        zip(
            triple.first.root_weights(),
            triple.first._root_column,
            triple.second._root_column,
        )
    )


def _orders_onto(triple, target):
    """The root orders under which ``triple`` has ``target``'s canonical
    keys, searched lazily among the signature-preserving ones, in the
    order of :func:`_matchings`."""
    keys = target.canonical_keys()
    have = _root_signatures(triple)
    orders = _matchings(have, have if target is triple else _root_signatures(target))
    return (sigma for sigma in orders if triple.canonical_keys(sigma) == keys)


def eq_group(triple, bound=8):
    """Symmetry group inside S_r: the root orders that keep both sides'
    canonical keys, sorted.  The triple keeps the group from its first
    call; each call returns a fresh list."""
    if triple.num_roots > _int(bound, "bound"):
        raise GraphError("root count above the brute-force bound %d" % bound)
    return list(triple._eq)


def phi_degree(triple, bound=8):
    return len(eq_group(triple, bound))


def triples_equivalent(t1, t2, bound=8):
    """Whether some root reordering carries one triple onto the other."""
    _int(bound, "bound")
    r = t1.num_roots
    if r != t2.num_roots:
        return False
    if r > bound:
        raise GraphError("root count above the brute-force bound %d" % bound)
    return (
        t1.first.group == t2.first.group
        and t1.second.group == t2.second.group
        and t1.first_legs == t2.first_legs
        and next(_orders_onto(t1, t2), None) is not None
    )


@dataclass(frozen=True)
class TripleAlphabet:
    """Finite alphabet for exhausting small admissible triples."""

    max_roots: int = 4
    weights: tuple = (1, 2)
    genera: tuple = (0, 1)
    extra_degrees: tuple = (0,)     # polarization degree added on each vertex
    max_vertices: int = 2
    max_legs_per_side: int = 0


def _alphabet_graphs(alpha, weight_vector):
    """All admissible graphs over the numeric group whose ordered root
    weights equal ``weight_vector``; vertex divisor degrees match the total
    root weight (so the contact constraint holds by construction)."""
    r = len(weight_vector)
    out = []
    seen = set()
    nv_options = range(1, alpha.max_vertices + 1) if r else [0, 1]
    for nv in nv_options:
        if nv == 0:
            if r == 0:
                out.append(AdmissibleGraph(NUMERIC_GROUP, (), (), (), ()))
            continue
        if r == 0 and nv > 1:
            continue
        assignments = (
            itertools.product(range(nv), repeat=r) if r else [()]
        )
        for assign in assignments:
            if nv > 1 and set(assign) != set(range(nv)):
                continue
            for genera in itertools.product(alpha.genera, repeat=nv):
                for extras in itertools.product(alpha.extra_degrees, repeat=nv):
                    for nlegs in range(alpha.max_legs_per_side + 1):
                        for legs in itertools.product(range(nv), repeat=nlegs):
                            mu_at = [0] * nv
                            for v, w in zip(assign, weight_vector):
                                mu_at[v] += w
                            classes = tuple(
                                (extras[v], mu_at[v]) for v in range(nv)
                            )
                            roots = tuple(
                                (assign[i], weight_vector[i]) for i in range(r)
                            )
                            graph = AdmissibleGraph(
                                NUMERIC_GROUP, genera, classes, legs, roots
                            )
                            key = graph.canonical_key()
                            if key not in seen:
                                seen.add(key)
                                out.append(graph)
    return out


def _triple_canonical_key(triple):
    """The least pair of canonical keys over the root orders that sort the
    root signatures, with the leg subset; equal for two triples exactly
    when a root reordering carries one onto the other (within the same
    class groups).  The keys determine the sorted signatures."""
    have = _root_signatures(triple)
    return (
        min(triple.canonical_keys(order) for order in _matchings(have, sorted(have))),
        triple.first_legs,
    )


def enumerate_triples(alpha=TripleAlphabet()):
    """All admissible triples over the alphabet, one per equivalence class
    of simultaneous root reorderings."""
    for name in ("max_roots", "max_vertices", "max_legs_per_side"):
        value = getattr(alpha, name)
        if _int(value, name) < 0:
            raise GraphError("%s must be nonnegative, got %d" % (name, value))
    out = []
    seen = set()
    for r in range(0, alpha.max_roots + 1):
        weight_vectors = sorted(
            set(
                tuple(sorted(ws))
                for ws in itertools.product(alpha.weights, repeat=r)
            )
        )
        for wv in weight_vectors:
            sides = _alphabet_graphs(alpha, wv)
            for g1 in sides:
                for g2 in sides:
                    k1, k2 = g1.num_legs, g2.num_legs
                    for first_legs in itertools.combinations(
                        range(1, k1 + k2 + 1), k1
                    ):
                        try:
                            triple = AdmissibleTriple(g1, g2, first_legs)
                        except GraphError:
                            continue
                        key = _triple_canonical_key(triple)
                        if key not in seen:
                            seen.add(key)
                            out.append(triple)
    return out


# ---------------------------------------------------------------------------
# from split maps to graphs: labelled types and the gluing-degree count
# ---------------------------------------------------------------------------


def half_to_graph(half):
    """Admissible-graph shadow of a relative half over the numeric group.

    Vertices are the connected components; each carries (total degree,
    total root weight) as its class vector, the component's arithmetic genus,
    the component's marked points as consecutively ordered legs, and the
    half's roots in their stored order.  The graph goes through the checking
    constructor; :func:`fiber_count` builds the same fields
    (:func:`_half_fields`) unchecked.
    """
    return AdmissibleGraph(NUMERIC_GROUP, *_half_fields(half))


def _half_fields(half):
    """Genera, classes, legs and roots of :func:`half_to_graph`'s graph."""
    comp = _piece_components(half.groups, half.nodes)
    nv = len({v for row in comp for v in row})
    genera = [0] * nv
    degrees = [0] * nv
    piece_count = [0] * nv
    node_count = [0] * nv
    marks = [0] * nv
    for i, g in enumerate(half.groups):
        for p, piece in enumerate(g):
            v = comp[i][p]
            genera[v] += piece.genus
            degrees[v] += piece.degree
            marks[v] += piece.marks
            piece_count[v] += 1
    for i, iface in enumerate(half.nodes):
        for _, a, b in iface:
            node_count[comp[i][a]] += 1
    vertex_genus = tuple(
        genera[v] + node_count[v] - piece_count[v] + 1 for v in range(nv)
    )
    roots = tuple((comp[0][p], mu) for mu, p in half.roots)
    root_weight = [0] * nv
    for v, w in roots:
        root_weight[v] += w
    classes = tuple((degrees[v], root_weight[v]) for v in range(nv))
    legs = []
    for v in range(nv):
        legs.extend([v] * marks[v])
    return vertex_genus, classes, tuple(legs), roots


def realize_split_map(triple):
    """A minimal split map (no expansion) whose decomposition at the single
    interface has the labelled type of the triple: one piece per vertex,
    one node per root pair.

    The map is built unchecked (:meth:`SplitMap._built`): a valid triple
    has int fields, roots on its own vertices with positive weights, and a
    connected gluing, so the nodes are in range, positive and connect the
    pieces.  Each :class:`Piece` still refuses a negative degree, which a
    class group with a negative functional can give."""
    g1, g2 = triple.first, triple.second
    groups = tuple(
        tuple(
            Piece(g.genera[v], g.deg_h(v), g.legs.count(v))
            for v in range(g.num_vertices)
        )
        for g in (g1, g2)
    )
    iface = tuple((w, a, b) for (a, w), (b, _) in zip(g1.roots, g2.roots))
    return SplitMap._built(groups, (iface,))


def fiber_count(triple, split_map, l, bound=8):
    """Number of ways the split map realizes the triple at interface l, up to
    the automorphisms of the map.

    An ordering of the interface instances (ordering[j] = which instance
    becomes root j) matches when both halves' canonical keys under it equal
    the triple's; matching orderings are counted modulo the group H of
    :meth:`SplitMap.automorphism_interface_image`.  The halves are built
    once and unchecked (``_built``), with :func:`half_to_graph`'s fields: a
    split map is valid and connected, so every component of a half has a
    nonnegative genus and reaches interface l, where it carries a root;
    both sides' root weights are the interface's node weights in one order;
    and the glued graph is the map's own incidence graph, which is
    connected.

    The count is the index |Eq| / |K|, where Eq is the symmetry group of
    the triple's numeric shadow, sigma0 the first matching ordering,
    (a b)[j] = a[b[j]], and K = {g in Eq : sigma0 g sigma0^-1 in H}.

    - The matching set is {sigma0 g : g in Eq}.  Write B_sigma for the
      halves with root j taken from instance sigma[j].  B_sigma0 and the
      triple have equal keys, so an isomorphism carries one onto the other
      root by root, and reordering both by the same g keeps them
      isomorphic; B_sigma0 reordered by g is B_(sigma0 g).  So sigma0 g
      matches exactly when g is in Eq, and every sigma is sigma0 g for
      g = sigma0^-1 sigma.
    - H is a group (the automorphisms' image, instances of equal data
      interchangeable), so K, where Eq meets sigma0^-1 H sigma0, is a
      subgroup of Eq.
    - Matching orderings sigma0 g and sigma0 g' share an H-orbit
      {h sigma : h in H} exactly when g' g^-1 is in K: the orbits are the
      right cosets of K in Eq, and Lagrange makes the division exact.

    So, when some ordering matches, fiber_count * |H| = |Eq|, the degree of
    the gluing morphism (criterion 9, with :func:`eq_group`), exactly when
    sigma0^-1 H sigma0 lies in Eq.
    """
    _int(bound, "bound")
    side1, side2, sigma = decompose(split_map, l)
    r = len(sigma)
    if r != triple.num_roots:
        raise GraphError("interface size does not match the triple")
    if r > bound:
        raise GraphError("root count above the brute-force bound %d" % bound)
    if r == 0:
        return 1
    first = AdmissibleGraph._built(NUMERIC_GROUP, *_half_fields(side1))
    second = AdmissibleGraph._built(NUMERIC_GROUP, *_half_fields(side2))
    built = AdmissibleTriple._built(first, second, tuple(range(1, first.num_legs + 1)))
    target = triple.numeric_shadow()
    sigma0 = next(_orders_onto(built, target), None)
    if sigma0 is None:
        return 0
    image = set(split_map.automorphism_interface_image(l))
    inverse = sorted(range(r), key=sigma0.__getitem__)
    k_order = sum(tuple(sigma0[g[i]] for i in inverse) in image for g in target._eq)
    return len(target._eq) // k_order
