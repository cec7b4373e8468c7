"""Exact rational maps between affine charts.

A :class:`RationalMap` is a tuple of reduced fractions of polynomials over Q
in named source variables.  Extra symbols (torus parameters and their
inverses) may appear in the formulas.  The components live in the map's
frame: its source variables followed by its parameters.

Moving a map into another frame (more parameters, or the same ones in
another order) renames variables with :meth:`RatFunc.rename`, and happens
only when the frame changes.  Substitution is kept for real substitutions:
composition substitutes the inner components for the outer source variables
and leaves the parameters alone, and an inner map that moves no variable is
not substituted at all.

:meth:`RationalMap.difference` is the one comparison of two maps.  It brings
both into their common frame and cross-multiplies, which clears all
denominators including the torus ones, so it decides equality on a dense
open set.  Components with identical stored forms are equal as they are.
"""

from __future__ import annotations

from .polys import Poly, RatFunc, _monomial, _unit


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
                c = RatFunc.const(len(names), c)
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
        return cls(names, [_monomial(_unit(n, i)) for i in range(len(names))], params)

    def var(self, name):
        """The coordinate function of a source variable or parameter."""
        names = self.source_vars + self.params
        return _monomial(_unit(len(names), names.index(name)))

    # ------------------------------------------------------------ operations
    def _reframe(self, params):
        """This map over ``source_vars + params``, a frame holding its own
        parameters in any order, and perhaps more."""
        if params == self.params:
            return self
        names = self.source_vars + params
        lift = {v: i for i, v in enumerate(names)}
        positions = [lift[v] for v in self.source_vars + self.params]
        comps = [c.rename(len(names), positions) for c in self.components]
        return RationalMap(self.source_vars, comps, params)

    def compose(self, inner):
        """self after inner: substitute inner's components into self.

        Parameters of both maps are merged; inner's source variables become
        the source of the composite.  When inner leaves every variable in
        place there is nothing to substitute.
        """
        if self.arity_in != inner.arity_out:
            raise ValueError(
                "arity mismatch: inner produces %d values, outer consumes %d"
                % (inner.arity_out, self.arity_in)
            )
        params = tuple(dict.fromkeys(inner.params + self.params))
        inner = inner._reframe(params)
        n = inner.arity_in + len(params)
        lift = {p: i for i, p in enumerate(params, inner.arity_in)}
        values = inner.components + tuple(
            _monomial(_unit(n, lift[p])) for p in self.params
        )
        if tuple(v.bare_variable() for v in values) == tuple(range(n)):
            out = self.components
        else:
            out = [c.substitute(values) for c in self.components]
        return RationalMap(inner.source_vars, out, params)

    def difference(self, other):
        """The first component where the two maps differ, as the text
        ``component i: num_a*den_b - num_b*den_a`` rendered in their common
        frame, or None when they agree on a dense open set.  Maps with
        different component counts differ."""
        if self.source_vars != other.source_vars:
            raise ValueError("maps have different source variables")
        if self.arity_out != other.arity_out:
            return "component count %d != %d" % (self.arity_out, other.arity_out)
        params = tuple(dict.fromkeys(self.params + other.params))
        a, b = self._reframe(params), other._reframe(params)
        for i, (x, y) in enumerate(zip(a.components, b.components)):
            # equal stored forms are equal functions, whatever the denominator
            if x.num.terms == y.num.terms and x.den.terms == y.den.terms:
                continue
            delta = x.num * y.den - y.num * x.den
            if delta:
                return "component %d: %s" % (i + 1, delta.render(a.source_vars + params))
        return None

    def equal_on_dense(self, other):
        """Componentwise equality as rational functions; exact."""
        return self.difference(other) is None

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
