"""Exact rational maps between affine charts.

A :class:`RationalMap` is a tuple of reduced fractions of polynomials over Q
in named source variables.  Extra symbols (torus parameters and their
inverses) may appear in the formulas; composition substitutes only the
declared source variables and leaves the parameters alone, and equality is
decided on a dense open set by cross multiplication, which clears all
denominators including the torus ones.
"""

from __future__ import annotations

from fractions import Fraction

from .polys import Poly, RatFunc


class RationalMap:
    """source_vars -> components; params are carried along unsubstituted."""

    __slots__ = ("source_vars", "params", "components")

    def __init__(self, source_vars, components, params=()):
        self.source_vars = tuple(source_vars)
        self.params = tuple(params)
        names = self.source_vars + self.params
        if len(set(names)) != len(names):
            raise ValueError("variable/parameter names must be distinct")
        comps = []
        for c in components:
            if isinstance(c, Poly):
                c = RatFunc(c)
            elif not isinstance(c, RatFunc):
                c = RatFunc(Poly.const(len(names), Fraction(c)))
            if c.nvars != len(names):
                raise ValueError("component arity mismatch")
            comps.append(c)
        self.components = tuple(comps)

    @property
    def arity_in(self):
        return len(self.source_vars)

    @property
    def arity_out(self):
        return len(self.components)

    # ------------------------------------------------------------- builders
    @classmethod
    def identity(cls, names, params=()):
        names = tuple(names)
        n = len(names) + len(params)
        return cls(names, [Poly.var(n, i) for i in range(len(names))], params)

    def var(self, name):
        """The coordinate function of a source variable or parameter."""
        names = self.source_vars + self.params
        return RatFunc(Poly.var(len(names), names.index(name)))

    # ------------------------------------------------------------ operations
    def compose(self, inner):
        """self after inner: substitute inner's components into self.

        Parameters of both maps are merged; inner's source variables become
        the source of the composite.
        """
        if self.arity_in != inner.arity_out:
            raise ValueError(
                "arity mismatch: inner produces %d values, outer consumes %d"
                % (inner.arity_out, self.arity_in)
            )
        params = tuple(dict.fromkeys(inner.params + self.params))
        names = inner.source_vars + params
        n = len(names)
        lift = {name: i for i, name in enumerate(names)}
        src = inner.source_vars + inner.params
        values = [RatFunc(Poly.var(n, lift[v])) for v in src]
        inner_comps = [c.substitute(values) for c in inner.components]
        values = inner_comps + [
            RatFunc(Poly.var(n, lift[p])) for p in self.params
        ]
        out = [c.substitute(values) for c in self.components]
        return RationalMap(inner.source_vars, out, params)

    def equal_on_dense(self, other):
        """Componentwise equality as rational functions; exact."""
        if self.source_vars != other.source_vars or self.params != other.params:
            a, b = self._align(other)
            return a.equal_on_dense(b)
        if self.arity_out != other.arity_out:
            return False
        return all(a.same(b) for a, b in zip(self.components, other.components))

    def _align(self, other):
        """Re-express both maps over the union of their symbol lists."""
        if self.source_vars != other.source_vars:
            raise ValueError("maps have different source variables")
        params = tuple(dict.fromkeys(self.params + other.params))

        def relift(m):
            names = m.source_vars + params
            n = len(names)
            lift = {v: i for i, v in enumerate(names)}
            src = m.source_vars + m.params
            values = [RatFunc(Poly.var(n, lift[v])) for v in src]
            return RationalMap(
                m.source_vars, [c.substitute(values) for c in m.components], params
            )

        return relift(self), relift(other)

    def substitute_values(self, values):
        """Evaluate at rational source values; parameters stay symbolic."""
        names = self.source_vars + self.params
        n = len(self.params)
        vals = [RatFunc(Poly.const(n, v)) for v in values] + [
            RatFunc(Poly.var(n, i)) for i in range(n)
        ]
        if len(vals) != len(names):
            raise ValueError("value count mismatch")
        return [c.substitute(vals) for c in self.components]

    def render(self):
        names = self.source_vars + self.params
        return "(%s) -> (%s)" % (
            ", ".join(self.source_vars),
            ", ".join(c.render(names) for c in self.components),
        )

    def __repr__(self):
        return "RationalMap[%s]" % self.render()


def compose(f, g):
    """f after g."""
    return f.compose(g)


def equal_on_dense(f, g):
    return f.equal_on_dense(g)
