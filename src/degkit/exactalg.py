"""Truncated commutative algebras over Q and the two-branch node ring.

A :class:`TruncatedAlgebra` is a finitely presented Q-algebra in which every
monomial of total degree >= ``order`` is declared zero, so the algebra is a
finite-dimensional Q-vector space and all ideal and kernel computations are
exact linear algebra.  The first generator is reserved for the smoothing
parameter ``s``; the trivial smoothing is obtained by adding ``s`` itself as
a relation.

An :class:`AlgebraElement` has one exact state, its scaled form: the
nonzero coordinates as integer numerators over their least common
denominator, in lowest terms.  Every builder makes that form (rationals
enter through :func:`linalg.numerators`), arithmetic and equality read it,
and the Fraction vector ``coeffs`` is computed from it.  Exact scalars
become elements through one lift, :meth:`TruncatedAlgebra._lift`.

A :class:`NodeRing` attaches two branch variables z1, z2 to such an algebra,
subject to the rewrite z1*z2 = s.  Its elements are kept in the unique
normal form

    a0 + sum_i a_i z1^i + sum_i b_i z2^i,   a_i, b_i in the algebra,

and the exposed tail window has length ``order`` (pure powers of index >=
``order`` are unobservable).  Internally the tails run ``order`` +
algebra.order slots deep and the top slots are reduced modulo the matching
power of (s); this is exactly the quotient by the ideal generated by the
pure powers z1^K, z2^K at the internal window K, which keeps multiplication
associative while every exposed slot still carries an exact algebra element.

The ring has one multiplication rule: slot p times z^k (signed z-degrees,
+i for z1^i, -i for z2^i) lands in slot p + k, times s^min(|p|, |k|) when
p and k lie on opposite branches.  :meth:`NodeRing._land` is the only
code that applies it, and :meth:`NodeRing._from_slots` the one builder of
a normal form from (slot, element) pairs: products, shifts, branch powers,
monomial normal forms, the images of a hom and the levels of the contact
equations all go through the two.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .linalg import Subspace, _dense, lowest_terms, numerators
from .polys import Poly, _coeff, _int, _json_field, _json_typed, _power


def _frac_str(c):
    c = Fraction(c)
    return "%d/%d" % (c.numerator, c.denominator)


def _frac_parse(value, path):
    """The exact rational of the JSON field at ``path``: an integer, or a
    "p" or "p/q" string of integers with q nonzero.  Anything else (a
    float, a boolean, an empty or zero denominator) raises ValueError
    naming the field."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is str:
        num, slash, den = value.partition("/")
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError:  # int() refuses the text
            q = 0
        if q:
            return Fraction(p, q)
    raise ValueError(
        '%s must be an integer or a "p/q" string with q nonzero, not %r'
        % (path, value)
    )


def _check_branch(branch):
    """Refuse a branch other than 1 (z1) or 2 (z2): ValueError for another
    int, TypeError for a non-int or a bool."""
    if _int(branch, "branch") not in (1, 2):
        raise ValueError("branch must be 1 or 2, not %d" % branch)


def _degree_monomials(nvars, total):
    """The exponent vectors of total degree ``total`` in ``nvars``
    variables, in lexicographic order."""
    for exp in itertools.product(range(total + 1), repeat=nvars):
        if sum(exp) == total:
            yield exp


def _unit_inverse(x, c_inv, one, cap):
    """x^-1 = c^-1 * sum y^k with y = 1 - x * c^-1, for x whose constant
    part c has the inverse ``c_inv``: y is nilpotent, so the sum stops at
    the first y^k that vanishes, and ArithmeticError is raised when none
    of the first ``cap`` powers does."""
    y = one - x * c_inv
    out = power = one
    for _ in range(cap):
        power = power * y
        if power.is_zero():
            return out * c_inv
        out = out + power
    raise ArithmeticError("inversion did not terminate")


class TruncatedAlgebra:
    """Finite-dimensional truncation of a presented Q-algebra.

    gens:      generator names; gens[0] is the smoothing parameter s
    relations: Poly values in len(gens) variables (or {exp: coeff} dicts)
    order:     truncation order N; monomials of total degree >= N vanish
    local:     marks the algebra as local with maximal ideal (gens)
    """

    def __init__(self, gens, relations=(), order=8, local=True):
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator (the parameter s)")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        if _int(order, "order") < 1:
            raise ValueError("order must be positive")
        self.gens = gens
        self.order = order
        self.local = bool(local)
        rels = []
        for r in relations:
            if isinstance(r, Poly):
                if r.nvars != len(gens):
                    raise ValueError("relation arity mismatch")
                rels.append(r)
            else:
                rels.append(Poly(len(gens), r))
        self.relations = tuple(rels)

        self._monomials = self._all_monomials()
        self._mono_index = {m: i for i, m in enumerate(self._monomials)}
        self._rel_space = self._relation_span()
        pivot_set = set(self._rel_space.pivots)
        self.basis = tuple(
            m for i, m in enumerate(self._monomials) if i not in pivot_set
        )
        self._basis_index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        if self.dim == 0:
            raise ValueError("the relations collapse the algebra to zero")
        self._structure_table = {}
        self._mpowers = None
        # elements are immutable, so every caller may share these two
        self._zero = AlgebraElement(self, (1, ()))
        self._one = self.from_poly(Poly.one(len(gens)))

    # ------------------------------------------------------------ internals
    def _all_monomials(self):
        n = len(self.gens)
        return [e for total in range(self.order) for e in _degree_monomials(n, total)]

    def _relation_span(self):
        vectors = []
        for rel in self.relations:
            for mono in self._monomials:
                prod = rel * Poly.monomial(mono)
                vec = self._poly_to_fullvec(prod)
                if any(vec):
                    vectors.append(vec)
        return Subspace(vectors, len(self._monomials))

    def _poly_to_fullvec(self, poly):
        vec = [Fraction(0)] * len(self._monomials)
        for exp, c in poly.terms.items():
            idx = self._mono_index.get(exp)
            if idx is not None:
                vec[idx] += c
        return vec

    def _lift(self, x):
        """``x`` as an element of this algebra: its own elements pass as
        they are, exact scalars become constants; elements of another
        algebra, floats and bools are refused."""
        if isinstance(x, AlgebraElement):
            if x.algebra is not self and x.algebra != self:
                raise ValueError("elements of different algebras")
            return x
        return self.const(x)

    # ----------------------------------------------------------- public api
    def element(self, coeffs):
        coeffs = tuple(coeffs)
        scaled = numerators(enumerate(coeffs))
        if len(coeffs) != self.dim:
            raise ValueError("coefficient vector length mismatch")
        return AlgebraElement(self, scaled)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def const(self, c):
        return self.from_poly(Poly.const(len(self.gens), c))

    def gen(self, i):
        return self.from_poly(Poly.var(len(self.gens), i))

    @functools.cached_property
    def s(self):
        """Class of the smoothing parameter (computed once; elements are
        immutable, so every caller may share it)."""
        return self.gen(0)

    def from_poly(self, poly):
        """The class of ``poly``: its terms below the truncation order, as
        integer numerators over the monomials, reduced by the relations.
        The reduced vector vanishes at every pivot monomial, so each of its
        monomials is a basis monomial."""
        if poly.nvars != len(self.gens):
            raise ValueError("arity mismatch")
        index = self._mono_index
        terms = sorted([(index[e], c) for e, c in poly.terms.items() if e in index])
        d, pairs = self._rel_space.reduce_scaled(*numerators(terms))
        basis_index = self._basis_index
        monomials = self._monomials
        return AlgebraElement(
            self, (d, tuple([(basis_index[monomials[m]], n) for m, n in pairs]))
        )

    def monomial_element(self, exp):
        return self.from_poly(Poly.monomial(exp))

    def basis_element(self, i):
        return AlgebraElement(self, (1, ((i, 1),)))

    def _structure(self, i, j):
        """e_i * e_j as (D, ((m, n), ...)): its nonzero structure constants
        n / D as integer numerators over their least common denominator,
        memoized.  This is the algebra's one multiplication table."""
        key = (i, j) if i <= j else (j, i)
        got = self._structure_table.get(key)
        if got is None:
            exp = tuple(a + b for a, b in zip(self.basis[key[0]], self.basis[key[1]]))
            if sum(exp) >= self.order:
                got = (1, ())
            else:
                got = self.monomial_element(exp)._scaled
            self._structure_table[key] = got
        return got

    def _accumulate(self, acc, xs, ys, scale):
        """Add the product of the scaled coordinates ``xs`` and ``ys``
        ((basis index, integer numerator) pairs over the common denominator
        ``scale``) into ``acc``: integer vectors keyed by their denominator,
        scale times each structure denominator D."""
        structure = self._structure
        for i, a in xs:
            for j, b in ys:
                D, terms = structure(i, j)
                if not terms:
                    continue
                vec = acc.get(scale * D)
                if vec is None:
                    vec = acc[scale * D] = [0] * self.dim
                f = a * b
                for m, c in terms:
                    vec[m] += f * c

    def _numerators(self, acc):
        """(d, integer vector) of sum_q acc[q] / q, for integer vectors
        keyed by their denominator: the vectors added over their least
        common denominator d, not brought to lowest terms."""
        if len(acc) == 1:
            [(d, nums)] = acc.items()
            return d, nums
        d = math.lcm(*acc)
        nums = [0] * self.dim
        for q, vec in acc.items():
            f = d // q
            for m, n in enumerate(vec):
                if n:
                    nums[m] += f * n
        return d, nums

    def _times_basis(self, scaled):
        """The columns x * e_j of multiplication by x, j = 0 .. dim - 1,
        from x's scaled form (d, pairs): each as (q, integer vector) with
        x * e_j = vector / q exactly, not brought to lowest terms.  This is
        the one builder of those columns."""
        d, pairs = scaled
        out = []
        for j in range(self.dim):
            acc = {}
            self._accumulate(acc, pairs, ((j, 1),), d)
            out.append(self._numerators(acc))
        return out

    def _from_numerators(self, acc):
        """The element sum_d acc[d] / d of integer vectors keyed by their
        denominator, in lowest terms."""
        scaled = lowest_terms(*self._numerators(acc))
        if not scaled[1]:
            return self._zero
        return AlgebraElement(self, scaled)

    def maximal_ideal_power(self, k):
        """Span of m^k as a subspace (m generated by all generators)."""
        if self._mpowers is None:
            self._mpowers = {}
        got = self._mpowers.get(k)
        if got is None:
            if k <= 0:
                vecs = [self.basis_element(i).coeffs for i in range(self.dim)]
            else:
                vecs = [
                    self.monomial_element(m).coeffs
                    for m in self._monomials
                    if sum(m) >= k
                ]
            got = Subspace(vecs, self.dim)
            self._mpowers[k] = got
        return got

    def valuation(self, elem):
        """m-adic valuation; the zero element reports the truncation order."""
        if elem.is_zero():
            return self.order
        scaled = elem._scaled
        v = 0
        while v + 1 <= self.order:
            if self.maximal_ideal_power(v + 1).reduce_scaled(*scaled)[1]:
                break
            v += 1
        return v

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedAlgebra)
            and self.gens == other.gens
            and self.order == other.order
            and self.relations == other.relations
            and self.local == other.local
        )

    def __hash__(self):
        return hash((self.gens, self.order, len(self.relations), self.local))

    def __repr__(self):
        return "TruncatedAlgebra(gens=%r, order=%d, dim=%d)" % (
            self.gens,
            self.order,
            self.dim,
        )

    # ----------------------------------------------------------------- json
    def to_json(self):
        return {
            "generators": list(self.gens),
            "relations": [
                sorted(
                    [[list(e), _frac_str(c)] for e, c in r.terms.items()],
                    key=lambda t: t[0],
                )
                for r in self.relations
            ],
            "order": self.order,
            "local": self.local,
        }

    @classmethod
    def from_json(cls, data, path="algebra"):
        """The algebra of :meth:`to_json`, the JSON object at ``path``:
        ``generators`` a list of strings, ``relations`` a list of
        relations, each a list of ``[exponents, coefficient]`` terms, an
        integer ``order`` and an optional boolean ``local`` (true when
        absent).  A field of the wrong shape raises ValueError naming its
        path before its value is read."""
        field = functools.partial(_json_field, ValueError)
        gens = field(data, "generators", list, path, str)
        order = field(data, "order", int, path)
        local = field(data, "local", bool, path, default=True)
        rels = []
        for i, rel in enumerate(field(data, "relations", list, path, list)):
            terms = {}
            for j, term in enumerate(rel):
                where = "%s.relations[%d][%d]" % (path, i, j)
                if len(_json_typed(ValueError, term, list, where)) != 2:
                    raise ValueError(
                        "%s must be an [exponents, coefficient] pair" % where
                    )
                exp = _json_typed(ValueError, term[0], list, where + "[0]", int)
                if len(exp) != len(gens):
                    raise ValueError(
                        "%s[0] has %d exponents, the algebra has %d generators"
                        % (where, len(exp), len(gens))
                    )
                terms[tuple(exp)] = _frac_parse(term[1], where + "[1]")
            rels.append(Poly(len(gens), terms))
        return cls(gens, rels, order, local)


class AlgebraElement:
    """Element of a truncated algebra as a vector over the cached basis.

    Elements are immutable and have one exact state, their scaled form
    (d, ((i, n), ...)): the nonzero coordinates n / d as integer numerators
    over their least common denominator d > 0, in increasing basis index,
    so equal elements have equal scaled forms.  Arithmetic and equality
    read it; ``coeffs``, the dense vector of Fractions, is computed from it
    on each read.  The builders of :class:`TruncatedAlgebra` make it, from
    Fractions through :func:`linalg.numerators`.
    """

    __slots__ = ("algebra", "_scaled")

    def __init__(self, algebra, scaled):
        self.algebra = algebra
        self._scaled = scaled

    @property
    def coeffs(self):
        return tuple(_dense(*self._scaled, self.algebra.dim))

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        other = self.algebra._lift(other)
        acc = {}
        for d, pairs in (self._scaled, other._scaled):
            vec = acc.get(d)
            if vec is None:
                vec = acc[d] = [0] * self.algebra.dim
            for i, n in pairs:
                vec[i] += n
        return self.algebra._from_numerators(acc)

    __radd__ = __add__

    def __neg__(self):
        d, pairs = self._scaled
        negated = tuple([(i, -n) for i, n in pairs])
        return AlgebraElement(self.algebra, (d, negated))

    def __sub__(self, other):
        return self + (-self.algebra._lift(other))

    def __rsub__(self, other):
        return (-self) + self.algebra._lift(other)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            p, q = _coeff(other).as_integer_ratio()
            d, xs = self._scaled
            vec = [0] * self.algebra.dim
            for i, n in xs:
                vec[i] = p * n
            return self.algebra._from_numerators({d * q: vec})
        self._check(other)
        dx, xs = self._scaled
        dy, ys = other._scaled
        acc = {}
        self.algebra._accumulate(acc, xs, ys, dx * dy)
        return self.algebra._from_numerators(acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if _int(k, "power") < 0:
            return self.inverse() ** (-k)
        return _power(self, k, self.algebra.one())

    def is_zero(self):
        return not self._scaled[1]

    def _constant_numerator(self):
        """The numerator of the constant term over the scaled form's d."""
        idx = self.algebra._basis_index.get(tuple([0] * len(self.algebra.gens)))
        for i, n in self._scaled[1]:
            if i == idx:
                return n
        return 0

    def constant_term(self):
        return Fraction(self._constant_numerator(), self._scaled[0])

    def is_unit(self):
        # all generators are nilpotent at truncation, so a unit is exactly an
        # element with nonzero rational constant term
        return self._constant_numerator() != 0

    def inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError("element is not a unit")
        d, pairs = self._scaled
        if len(pairs) == 1:
            # a unit with one nonzero coordinate is the constant n / d; its
            # inverse d / n, which the series would also return, is in
            # lowest terms as n / d is
            [(i, n)] = pairs
            return AlgebraElement(self.algebra, (abs(n), ((i, d if n > 0 else -d),)))
        c_inv = Fraction(d, self._constant_numerator())
        return _unit_inverse(self, c_inv, self.algebra.one(), self.algebra.order + 1)

    def __eq__(self, other):
        # scaled forms are in lowest terms, so they are equal exactly when
        # the coefficient vectors are
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self._scaled == other._scaled
        )

    def __hash__(self):
        return hash(self.coeffs)

    def as_poly(self):
        return Poly(
            len(self.algebra.gens),
            {m: c for m, c in zip(self.algebra.basis, self.coeffs) if c},
        )

    def render(self):
        return self.as_poly().render(self.algebra.gens)

    def __repr__(self):
        return self.render()

    def to_json(self):
        return [_frac_str(c) for c in self.coeffs]


def element_from_json(algebra, data, path="element"):
    """The element of :meth:`AlgebraElement.to_json`, the JSON list at
    ``path``: the algebra's ``dim`` coefficients, each an integer or a
    "p/q" string.  A field of the wrong shape raises ValueError naming
    its path."""
    _json_typed(ValueError, data, list, path)
    if len(data) != algebra.dim:
        raise ValueError(
            "%s has %d coefficients, the algebra has %d"
            % (path, len(data), algebra.dim)
        )
    return algebra.element(
        [_frac_parse(c, "%s[%d]" % (path, i)) for i, c in enumerate(data)]
    )


class AlgebraIdeal:
    """Ideal with its vector-space span cached at construction."""

    def __init__(self, algebra, generators):
        self.algebra = algebra
        gens = []
        for g in generators:
            if not isinstance(g, AlgebraElement):
                raise TypeError("ideal generators must be algebra elements")
            if g.algebra != algebra:
                raise ValueError("generator from a different algebra")
            gens.append(g)
        self.generators = tuple(gens)
        # g * e_i for each basis element e_i, as integer vectors: any
        # multiple of the product spans the same line
        vectors = [v for g in gens for _, v in algebra._times_basis(g._scaled)]
        self.span = Subspace(vectors, algebra.dim)

    def contains(self, elem):
        if elem.algebra != self.algebra:
            raise ValueError("element from a different algebra")
        return not self.span.reduce_scaled(*elem._scaled)[1]

    def is_zero(self):
        return self.span.dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraIdeal)
            and self.algebra == other.algebra
            and self.span == other.span
        )

    def __hash__(self):
        return hash(self.span)

    def __add__(self, other):
        if other.algebra != self.algebra:
            raise ValueError("ideals of different algebras")
        return AlgebraIdeal(self.algebra, self.generators + other.generators)

    def push(self, hom):
        """Extension ideal h(I) . A' in the hom's target."""
        return AlgebraIdeal(hom.target, [hom.apply(g) for g in self.generators])

    def quotient_algebra(self):
        """The algebra A/I with the quotient map, as a fresh presentation."""
        A = self.algebra
        rels = list(A.relations) + [g.as_poly() for g in self.generators]
        Q = TruncatedAlgebra(A.gens, rels, A.order, A.local)
        hom = AlgebraHom(A, Q, [Q.gen(i) for i in range(len(A.gens))])
        return Q, hom


def ideal_membership(ideal, elem):
    """Exact membership test against the cached span."""
    return ideal.contains(elem)


class AlgebraHom:
    """Algebra map determined by generator images; checked at construction.

    The images must kill every relation and every monomial at the truncation
    degree of the source, so the map is a well-defined map of truncated
    algebras.  Whether the smoothing parameter of the source lands on the
    smoothing parameter of the target is recorded in ``maps_smoothing``.
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        images = tuple(images)
        if len(images) != len(source.gens):
            raise ValueError("need one image per source generator")
        for im in images:
            if not isinstance(im, AlgebraElement) or im.algebra != target:
                raise ValueError("images must be elements of the target")
        self.images = images
        for rel in source.relations:
            if not self._eval_poly(rel).is_zero():
                raise ValueError("images violate a source relation: %s" % (rel,))
        for exp in _degree_monomials(len(source.gens), source.order):
            if not self._eval_monomial(exp).is_zero():
                raise ValueError("images do not respect the source truncation order")
        self._basis_images = None
        self.maps_smoothing = self.apply(source.s) == target.s

    def _eval_monomial(self, exp):
        out = self.target.one()
        for i, p in enumerate(exp):
            if p:
                out = out * self.images[i] ** p
        return out

    def _eval_poly(self, poly):
        out = self.target.zero()
        for exp, c in poly.terms.items():
            out = out + self._eval_monomial(exp) * c
        return out

    def apply(self, elem):
        if isinstance(elem, NodeSeries):
            raise TypeError("use hom_apply for node series")
        if elem.algebra != self.source:
            raise ValueError("element from a different algebra")
        if self._basis_images is None:
            self._basis_images = [
                self._eval_monomial(m) for m in self.source.basis
            ]
        d, pairs = elem._scaled
        out = self.target.zero()
        for i, n in pairs:
            out = out + self._basis_images[i] * Fraction(n, d)
        return out

    @classmethod
    def identity(cls, algebra):
        return cls(
            algebra, algebra, [algebra.gen(i) for i in range(len(algebra.gens))]
        )

    def __repr__(self):
        pairs = ", ".join(
            "%s->%s" % (g, im.render()) for g, im in zip(self.source.gens, self.images)
        )
        return "AlgebraHom(%s)" % pairs


def adjoin_nilpotent(algebra, name="d", power=2):
    """Tensor with Q[d]/(d^power); returns (extension, inclusion hom)."""
    gens = algebra.gens + (name,)
    n = len(gens)
    rels = [r.extend(n) for r in algebra.relations]
    rels.append(Poly.var(n, n - 1, power))
    ext = TruncatedAlgebra(gens, rels, algebra.order, algebra.local)
    inc = AlgebraHom(algebra, ext, [ext.gen(i) for i in range(n - 1)])
    return ext, inc


# ---------------------------------------------------------------------------
# the node ring
# ---------------------------------------------------------------------------


class NodeRing:
    """Two-branch ring over a truncated algebra with z1*z2 = s."""

    def __init__(self, algebra, order=8):
        if _int(order, "series order") < 2:
            raise ValueError("series order must be at least 2")
        self.algebra = algebra
        self.order = order
        self.internal = order + algebra.order
        # slot k of the internal window is reduced modulo s^(internal-k)*A;
        # exposed slots (k < order) satisfy internal-k >= algebra.order and
        # need no reduction
        self._slot_spaces = {
            k: AlgebraIdeal(algebra, [algebra.s ** (self.internal - k)]).span
            for k in range(1, self.internal)
            if self.internal - k < algebra.order
        }
        # the powers 1, s, s^2, ... that a product can reach, up to the
        # first that vanishes
        self._s_pows = [algebra.one()]
        for _ in range(min(algebra.order, self.internal - 1)):
            nxt = self._s_pows[-1] * algebra.s
            if nxt.is_zero():
                break
            self._s_pows.append(nxt)

    def _slot_reduce(self, k, elem):
        """Slot k's element reduced modulo s^(internal-k) A, on its integer
        numerators; slots that need no reduction return ``elem``."""
        space = self._slot_spaces.get(k)
        if space is None:
            return elem
        scaled = elem._scaled
        got = space.reduce_scaled(*scaled)
        return elem if got == scaled else AlgebraElement(self.algebra, got)

    def series(self, const, z1_tail=(), z2_tail=()):
        """Build a normal form from algebra elements or exact scalars; user
        tails may not reach the exposed order."""
        tails = []
        for tail in (z1_tail, z2_tail):
            tail = [self.algebra._lift(x) for x in tail]
            if len(tail) > self.order - 1:
                raise ValueError(
                    "tail of length %d overflows the series order %d"
                    % (len(tail) + 1, self.order)
                )
            tails.append(tail)
        return self._series_internal(self.algebra._lift(const), tails[0], tails[1])

    def _series_internal(self, const, z1_tail, z2_tail):
        K = self.internal - 1
        a = list(z1_tail)[:K] + [self.algebra.zero()] * (K - len(z1_tail))
        b = list(z2_tail)[:K] + [self.algebra.zero()] * (K - len(z2_tail))
        a = [self._slot_reduce(i + 1, x) for i, x in enumerate(a)]
        b = [self._slot_reduce(i + 1, x) for i, x in enumerate(b)]
        return NodeSeries(self, const, tuple(a), tuple(b))

    def _from_slots(self, pairs):
        """The normal form of the sum of (signed z-degree, element) pairs
        (see :meth:`NodeSeries._slots`): the pairs are summed per slot, and
        slots past the internal window, like any key that names no slot,
        are dropped."""
        slots = {}
        for k, c in pairs:
            slots[k] = slots[k] + c if k in slots else c
        zero = self.algebra.zero()
        K = self.internal - 1
        return self._series_internal(
            slots.get(0, zero),
            [slots.get(k, zero) for k in range(1, K + 1)],
            [slots.get(-k, zero) for k in range(1, K + 1)],
        )

    def zero(self):
        return self.series(self.algebra.zero())

    def one(self):
        return self.series(self.algebra.one())

    def const(self, elem):
        return self.series(elem)

    def z1(self, power=1, coeff=None):
        return self.branch_power(1, power, coeff)

    def z2(self, power=1, coeff=None):
        return self.branch_power(2, power, coeff)

    def branch_power(self, branch, power, coeff=None):
        _check_branch(branch)
        if _int(power, "branch power") < 0:
            raise ValueError("negative branch power")
        coeff = self.algebra._lift(coeff) if coeff is not None else self.algebra.one()
        return self._from_slots([(power if branch == 1 else -power, coeff)])

    def normal_form(self, expr):
        """Normal form of a polynomial in z1, z2 with algebra coefficients.

        ``expr`` maps exponent pairs (i, j) to algebra elements (or rational
        constants).  Exponents must be non-negative ints; monomials of total
        z-degree above the exposed order are rejected; every mixed monomial
        is rewritten through z1*z2 = s.
        """
        for (i, j) in expr:
            self._check_monomial(i, j)
        return self._normal_form_unchecked(expr)

    def _check_monomial(self, i, j):
        """Refuse the monomial z1^i z2^j unless i and j are non-negative
        ints (TypeError, ValueError) of sum at most the exposed order
        (ValueError)."""
        if _int(i, "exponent") < 0 or _int(j, "exponent") < 0:
            raise ValueError("negative exponent in z1^%d z2^%d" % (i, j))
        if i + j > self.order:
            raise ValueError(
                "monomial z1^%d z2^%d overflows the series order %d"
                % (i, j, self.order)
            )

    def _normal_form_unchecked(self, expr):
        """z1^i z2^j as z2^j times the slot coeff z1^i, summed over
        ``expr``; exponents within the exposed order keep i inside the
        window."""
        pairs = []
        for (i, j), coeff in expr.items():
            coeff = self.algebra._lift(coeff)
            if not coeff.is_zero():
                pairs += self._land([(i, coeff)], [-j])[0]
        return self._from_slots(pairs)

    def _land(self, slots, ks):
        """For each signed shift k of ``ks``, the nonzero slots of z^k x,
        where x is the sum of the nonzero (signed z-degree, element) pairs
        ``slots`` inside the window, by the landing rule of the module
        docstring: the one place that applies it.  Slots past the internal
        window or past the last nonzero power of s are dropped, each
        (slot, power of s) product is computed once per call, and deep
        slots are left unreduced (see :meth:`NodeSeries._levels`)."""
        K = self.internal - 1
        s_pows = self._s_pows
        products = {}
        levels = []
        for k in ks:
            level = []
            for p, c in slots:
                e = min(abs(p), abs(k)) if p * k < 0 else 0
                if not -K <= p + k <= K or e >= len(s_pows):
                    continue
                if e:
                    if (p, e) not in products:
                        products[p, e] = c * s_pows[e]
                    c = products[p, e]
                if not c.is_zero():
                    level.append((p + k, c))
            levels.append(level)
        return levels

    def __eq__(self, other):
        return (
            isinstance(other, NodeRing)
            and self.algebra == other.algebra
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.order, self.algebra))

    def __repr__(self):
        return "NodeRing(%r, order=%d)" % (self.algebra, self.order)


def _slot_add(x, y):
    """x + y for two slots; where one of them is zero the other is reused."""
    if y.is_zero():
        return x
    if x.is_zero():
        return y
    return x + y


class NodeSeries:
    """Normal form a0 + sum a_i z1^i + sum b_i z2^i over a node ring."""

    __slots__ = ("ring", "a0", "a", "b")

    def __init__(self, ring, a0, a, b):
        self.ring = ring
        self.a0 = a0
        self.a = a
        self.b = b

    # exposed tails (indices 1 .. order-1)
    def z1_tail(self):
        return self.a[: self.ring.order - 1]

    def z2_tail(self):
        return self.b[: self.ring.order - 1]

    def z1_coeff(self, i):
        return self._tail_coeff(self.a, i)

    def z2_coeff(self, i):
        return self._tail_coeff(self.b, i)

    def _tail_coeff(self, tail, i):
        """Slot i of ``tail`` (the constant for i = 0, zero past the
        window); i must be a non-negative int."""
        if _int(i, "i") < 0:
            raise ValueError("negative slot index %d" % i)
        if i == 0:
            return self.a0
        return tail[i - 1] if i - 1 < len(tail) else self.ring.algebra.zero()

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("series over different node rings")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return NodeSeries(
            self.ring,
            _slot_add(self.a0, other.a0),
            tuple(map(_slot_add, self.a, other.a)),
            tuple(map(_slot_add, self.b, other.b)),
        )

    __radd__ = __add__

    def __neg__(self):
        return NodeSeries(
            self.ring, -self.a0, tuple(-x for x in self.a), tuple(-x for x in self.b)
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def _coerce(self, other):
        if isinstance(other, NodeSeries):
            return other
        return self.ring.const(other)

    def _slots(self):
        """(signed z-degree, element) over every slot: +i for z1^i, -i for
        z2^i and 0 for the constant."""
        return itertools.chain(
            ((0, self.a0),),
            enumerate(self.a, start=1),
            ((-i, c) for i, c in enumerate(self.b, start=1)),
        )

    def _levels(self, ks):
        """For each signed shift k of ``ks``, the nonzero slots of z^k x as
        (signed z-degree, element) pairs, from :meth:`NodeRing._land` over
        x's nonzero slots.  The deep slots are left unreduced: the window is
        a quotient ring, so the exposed slots are the normal form's, and
        :meth:`NodeRing._from_slots` reduces the rest."""
        return self.ring._land(
            [(p, c) for p, c in self._slots() if not c.is_zero()], ks
        )

    def __mul__(self, other):
        """Product on the nonzero slots only: each nonzero slot y_q of
        ``other`` multiplies the level z^q x of :meth:`_levels`, and the
        products are summed per slot on integer numerators through the
        structure constants, each slot brought to lowest terms once."""
        if isinstance(other, AlgebraElement):
            other = self.ring.const(other)
        elif not isinstance(other, NodeSeries):
            c = _coeff(other)
            return NodeSeries(
                self.ring,
                self.a0 * c,
                tuple(x * c for x in self.a),
                tuple(x * c for x in self.b),
            )
        self._check(other)
        alg = self.ring.algebra
        slots = [(q, y._scaled) for q, y in other._slots() if not y.is_zero()]
        levels = self._levels([q for q, _ in slots])
        acc = {}
        for level, (_, (dy, ys)) in zip(levels, slots):
            for k, c in level:
                dc, cs = c._scaled
                alg._accumulate(acc.setdefault(k, {}), cs, ys, dc * dy)
        return self.ring._from_slots(
            [(k, alg._from_numerators(vecs)) for k, vecs in acc.items()]
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if _int(k, "power") < 0:
            return self.inverse() ** (-k)
        return _power(self, k, self.ring.one())

    def shift(self, branch):
        """Multiply by z1 (branch 1) or z2 (branch 2)."""
        _check_branch(branch)
        return self.ring._from_slots(self._levels([1 if branch == 1 else -1])[0])

    def is_zero(self):
        return (
            self.a0.is_zero()
            and all(x.is_zero() for x in self.a)
            and all(x.is_zero() for x in self.b)
        )

    def is_unit(self):
        return self.a0.is_unit()

    def inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError("series is not a unit (constant term)")
        ring = self.ring
        return _unit_inverse(
            self,
            self.a0.inverse(),
            ring.one(),
            ring.internal + 2 * ring.algebra.order + 2,
        )

    def __eq__(self, other):
        return (
            isinstance(other, NodeSeries)
            and self.ring == other.ring
            and self.a0 == other.a0
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a0, self.a, self.b))

    def render(self):
        parts = []
        if not self.a0.is_zero():
            parts.append("(%s)" % self.a0.render())
        for i, x in enumerate(self.z1_tail(), start=1):
            if not x.is_zero():
                parts.append("(%s)*z1^%d" % (x.render(), i))
        for i, x in enumerate(self.z2_tail(), start=1):
            if not x.is_zero():
                parts.append("(%s)*z2^%d" % (x.render(), i))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return self.render()

    def to_json(self):
        return {
            "a0": self.a0.to_json(),
            "z1_tail": [x.to_json() for x in self.z1_tail()],
            "z2_tail": [x.to_json() for x in self.z2_tail()],
            "order": self.ring.order,
        }


def series_from_json(ring, data, path="series"):
    """The series of :meth:`NodeSeries.to_json`, the JSON object at
    ``path``: the element ``a0`` and the lists ``z1_tail`` and ``z2_tail``
    of elements, each shorter than the ring's order.  Its ``order`` is not
    read here.  A field of the wrong shape raises ValueError naming its
    path."""
    field = functools.partial(_json_field, ValueError)
    alg = ring.algebra
    a0 = element_from_json(alg, field(data, "a0", list, path), path + ".a0")
    tails = []
    for key in ("z1_tail", "z2_tail"):
        where = "%s.%s" % (path, key)
        tail = field(data, key, list, path)
        if len(tail) >= ring.order:
            raise ValueError(
                "%s has %d entries, the series order %d allows %d"
                % (where, len(tail), ring.order, ring.order - 1)
            )
        tails.append(
            [
                element_from_json(alg, x, "%s[%d]" % (where, i))
                for i, x in enumerate(tail)
            ]
        )
    return ring.series(a0, *tails)


# module-level operation names mirroring the package surface


def normal_form(ring, expr):
    return ring.normal_form(expr)


def normal_form_stepwise(ring, expr, leftmost=True):
    """Normal form by one-step rewrites z1*z2 -> s, in either sweep order.

    Independent of :func:`normal_form`; used to cross-check uniqueness.
    """
    work = {}
    for (i, j), coeff in expr.items():
        ring._check_monomial(i, j)
        coeff = ring.algebra._lift(coeff)
        key = (i, j)
        work[key] = work.get(key, ring.algebra.zero()) + coeff
    while True:
        mixed = sorted(
            [k for k in work if k[0] > 0 and k[1] > 0], reverse=not leftmost
        )
        if not mixed:
            break
        i, j = mixed[0]
        coeff = work.pop((i, j))
        key = (i - 1, j - 1)
        add = coeff * ring.algebra.s
        work[key] = work.get(key, ring.algebra.zero()) + add
    return ring._normal_form_unchecked(work)


def series_mul(x, y):
    return x * y


def series_invert(x):
    return x.inverse()


def hom_apply(hom, value, target_ring=None):
    """Push an element or node series through an algebra map.

    For a node series the map is applied coefficientwise and the result is
    re-normalized in the target node ring (same exposed order by default).
    """
    if isinstance(value, AlgebraElement):
        return hom.apply(value)
    ring = value.ring
    if target_ring is None:
        target_ring = NodeRing(hom.target, ring.order)
    elif target_ring.algebra != hom.target:
        raise ValueError("target ring does not sit over the hom target")
    return target_ring._from_slots([(k, hom.apply(c)) for k, c in value._slots()])
