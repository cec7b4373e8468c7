"""Reference copies of map composition and comparison.

These follow ``degkit.ratmaps`` before frames were changed by renaming:
every composition first substitutes bare variables into the inner map to
move it into the composite's frame, and every comparison moves both maps
into the union of their parameter lists the same way, whether or not their
frames differ.  They use the library's ``RatFunc.substitute`` and serve the
tests as an oracle for the renaming shortcuts.
"""

from degkit.polys import Poly, RatFunc
from degkit.ratmaps import RationalMap


def _bare(n, i):
    return RatFunc(Poly.var(n, i))


def ref_compose(outer, inner):
    """outer after inner."""
    params = tuple(dict.fromkeys(inner.params + outer.params))
    names = inner.source_vars + params
    n = len(names)
    lift = {name: i for i, name in enumerate(names)}
    values = [_bare(n, lift[v]) for v in inner.source_vars + inner.params]
    inner_comps = [c.substitute(values) for c in inner.components]
    values = inner_comps + [_bare(n, lift[p]) for p in outer.params]
    out = [c.substitute(values) for c in outer.components]
    return RationalMap(inner.source_vars, out, params)


def ref_align(f, g):
    """Both maps over the union of their symbol lists."""
    if f.source_vars != g.source_vars:
        raise ValueError("maps have different source variables")
    params = tuple(dict.fromkeys(f.params + g.params))

    def relift(m):
        names = m.source_vars + params
        lift = {v: i for i, v in enumerate(names)}
        values = [_bare(len(names), lift[v]) for v in m.source_vars + m.params]
        return RationalMap(
            m.source_vars, [c.substitute(values) for c in m.components], params
        )

    return relift(f), relift(g)


def ref_equal_on_dense(f, g):
    if f.source_vars != g.source_vars or f.params != g.params:
        return ref_equal_on_dense(*ref_align(f, g))
    if f.arity_out != g.arity_out:
        return False
    return all(a.same(b) for a, b in zip(f.components, g.components))


def ref_diff_witness(f, g):
    """First differing component and its cross-multiplied difference; maps
    of different component counts are compared up to the shorter one."""
    a, b = ref_align(f, g)
    for i, (x, y) in enumerate(zip(a.components, b.components)):
        delta = x.num * y.den - y.num * x.den
        if not delta.is_zero():
            return "component %d: %s" % (i + 1, delta.render(a.source_vars + a.params))
    return None
