"""Layer tracing from outside the package.

Wrappers are installed on the public entry points of each ``degkit`` module.
A wrapper counts every call, and opens a span only when the call enters its
layer from another one (the caller's innermost open span belongs to a
different layer), so a layer's self time is its span time less the time of
the child spans it caused.  Spans are kept in memory as
``(span id, op index, layer, start, end, parent span id)`` and written out
when the pass ends.  Each op of the workload is one root span of the
``bench`` layer, so the spans of one op share its op index.

The wrappers only record while an op is being timed; the benchmark's own
correctness checks run with recording off.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "bench",
    "cli",
    "localmodel",
    "ratmaps",
    "polys",
    "contact",
    "exactalg",
    "linalg",
    "combgraphs",
)

# Private module-level caches of the split-map search, read with len() only.
COMBGRAPHS_CACHES = (
    "_PIECE_CACHE",
    "_PROFILE_CACHE",
    "_INTERFACE_CACHE",
    "_COUNTVEC_CACHE",
    "_CLASS_CACHE",
)


def _rref_cells(args, kwargs, tracer):
    rows = args[0] if args else kwargs["rows"]
    if rows:
        tracer.counts["linalg.rref.cells"] += len(rows) * len(rows[0])


def _perms(args, kwargs, tracer):
    triple = args[0] if args else kwargs["triple"]
    tracer.counts["combgraphs.eq_group.perms"] += math.factorial(triple.num_roots)


def _local_checks(result, tracer):
    from degkit.localmodel import Report

    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        if isinstance(part, Report):
            tracer.counts["localmodel.checks"] += len(part.checks)
            tracer.counts["localmodel.checks_failed"] += len(part.failures())


def _maps_emitted(result, tracer):
    tracer.counts["combgraphs.maps_emitted"] += len(result)


# localmodel entry points that return reports, whose checks are counted
_LOCAL_ENTRIES = (
    "verify_atlas",
    "verify_resolution",
    "verify_principal_chart",
    "relative_action",
    "splice_check",
)

# (layer, attribute path, call counter or None, pre hook, outermost post hook,
# every-call post hook).  A pre hook sees the arguments of every call; the
# outermost post hook sees the result of the calls that open a span.
ENTRY_POINTS = (
    # polys
    ("polys", "Poly.__mul__", "polys.poly_mul.calls"),
    ("polys", "Poly.substitute", "polys.substitute.calls"),
    ("polys", "RatFunc.__init__", "polys.ratfunc_new.calls"),
    ("polys", "Poly.__add__", None),
    ("polys", "Poly.__sub__", None),
    ("polys", "Poly.__neg__", None),
    ("polys", "Poly.__pow__", None),
    ("polys", "Poly.extend", None),
    ("polys", "Poly.render", None),
    ("polys", "RatFunc.__mul__", None),
    ("polys", "RatFunc.__add__", None),
    ("polys", "RatFunc.__sub__", None),
    ("polys", "RatFunc.__truediv__", None),
    ("polys", "RatFunc.__pow__", None),
    ("polys", "RatFunc.substitute", "polys.substitute.calls"),
    ("polys", "RatFunc.same", None),
    ("polys", "RatFunc.render", None),
    # ratmaps
    ("ratmaps", "RationalMap.compose", "ratmaps.compose.calls"),
    ("ratmaps", "RationalMap.equal_on_dense", "ratmaps.equal_on_dense.calls"),
    ("ratmaps", "RationalMap.__init__", None),
    ("ratmaps", "RationalMap.substitute_values", None),
    # localmodel
    ("localmodel", "gamma_atlas", None),
    ("localmodel", "fourfold_resolution", None),
    ("localmodel", "principal_chart_map", None),
    ("localmodel", "standard_embedding", None),
    ("localmodel", "GammaAtlas.with_transition", None),
) + tuple(("localmodel", name, None, None, _local_checks) for name in _LOCAL_ENTRIES) + (
    # linalg
    ("linalg", "rref", "linalg.rref.calls", _rref_cells),
    ("linalg", "solve_linear", "linalg.solve.calls"),
    ("linalg", "Subspace.__init__", None),
    ("linalg", "Subspace.reduce", None),
    ("linalg", "Subspace.contains", None),
    ("linalg", "Subspace.sum", None),
    # exactalg
    ("exactalg", "AlgebraElement.__mul__", "exactalg.alg_mul.calls"),
    ("exactalg", "NodeSeries.__mul__", "exactalg.series_mul.calls"),
    ("exactalg", "NodeSeries.inverse", "exactalg.series_inverse.calls"),
    ("exactalg", "hom_apply", "exactalg.hom_apply.calls"),
    ("exactalg", "AlgebraElement.__add__", None),
    ("exactalg", "AlgebraElement.__sub__", None),
    ("exactalg", "AlgebraElement.__pow__", None),
    ("exactalg", "AlgebraElement.inverse", None),
    ("exactalg", "NodeSeries.__add__", None),
    ("exactalg", "NodeSeries.__sub__", None),
    ("exactalg", "NodeSeries.__pow__", None),
    ("exactalg", "NodeSeries.shift", None),
    ("exactalg", "TruncatedAlgebra.__init__", None),
    ("exactalg", "NodeRing.__init__", None),
    ("exactalg", "NodeRing.normal_form", None),
    ("exactalg", "NodeRing.branch_power", None),
    ("exactalg", "NodeRing.series", None),
    ("exactalg", "AlgebraIdeal.__init__", None),
    ("exactalg", "AlgebraIdeal.push", None),
    ("exactalg", "AlgebraIdeal.quotient_algebra", None),
    ("exactalg", "AlgebraHom.__init__", None),
    ("exactalg", "AlgebraHom.apply", None),
    ("exactalg", "element_from_json", None),
    ("exactalg", "series_from_json", None),
    # contact
    ("contact", "check_pure_contact", "contact.pure_check.calls"),
    ("contact", "predeformability_ideal", "contact.ideal.calls"),
    ("contact", "verify_base_change", "contact.base_change.calls"),
    ("contact", "flat_local_forcing", None),
    ("contact", "contact_orders", None),
    ("contact", "verify_universality", None),
    ("contact", "is_nondegenerate", None),
    ("contact", "ContactData.__init__", None),
    ("contact", "ContactData.push", None),
    # combgraphs: search funnel
    ("combgraphs", "Piece.__init__", "combgraphs.pieces_built"),
    ("combgraphs", "SplitMap.__init__", "combgraphs.maps_built"),
    ("combgraphs", "SplitMap.canonical_key", "combgraphs.canonical_key.calls"),
    ("combgraphs", "enumerate_split_maps", None, None, None, _maps_emitted),
    ("combgraphs", "enumerate_stable_types", None),
    ("combgraphs", "split_map_from_json", None),
    ("combgraphs", "SplitMap.is_stable", None),
    ("combgraphs", "SplitMap.stability_oracle", None),
    ("combgraphs", "SplitMap.verify_norm_identity", None),
    ("combgraphs", "SplitMap.total_type", None),
    ("combgraphs", "SplitMap.weights", None),
    ("combgraphs", "decompose", None),
    ("combgraphs", "glue_halves", None),
    # combgraphs: symmetry and gluing
    ("combgraphs", "AdmissibleTriple.isomorphic", "combgraphs.isomorphic.calls"),
    ("combgraphs", "eq_group", None, _perms),
    ("combgraphs", "fiber_count", None, _perms),
    ("combgraphs", "enumerate_triples", None),
    ("combgraphs", "glue", None),
    ("combgraphs", "realize_split_map", None),
    ("combgraphs", "SplitMap.automorphism_interface_image", None),
    ("combgraphs", "AdmissibleTriple.reorder", None),
    ("combgraphs", "graph_from_json", None),
    # cli
    ("cli", "main", "cli.calls"),
)


class Tracer:
    """Counters and layer spans of one traced pass."""

    def __init__(self):
        self.active = False
        self.counts = Counter()
        self.self_time = Counter()
        # open spans: [span id, layer, start, time covered by child spans]
        self.stack = []
        self.op_index = -1
        self._ids = array("q")
        self._ops = array("q")
        self._layers = array("b")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._next_id = 0
        self._installed = []
        # per op: (index, name, counts made during the op)
        self.op_counts = []
        self._counts_before = None

    # ----------------------------------------------------------- spans
    def _open(self, layer):
        sid = self._next_id
        self._next_id += 1
        self.stack.append([sid, layer, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        sid, layer, start, covered = self.stack.pop()
        duration = end - start
        self.self_time[layer] += duration - covered
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self._ids.append(sid)
        self._ops.append(self.op_index)
        self._layers.append(LAYERS.index(layer))
        self._starts.append(start)
        self._ends.append(end)
        self._parents.append(parent)

    def begin_op(self, index, name):
        """Open the root span of one op and start recording."""
        self.op_index = index
        self._counts_before = (name, Counter(self.counts))
        self._open("bench")
        self.active = True

    def end_op(self):
        self.active = False
        self._close()
        name, before = self._counts_before
        self.op_counts.append((self.op_index, name, self.counts - before))

    @property
    def span_count(self):
        return len(self._ids)

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\top\tlayer\tstart\tend\tparent\n")
            for k in range(len(self._ids)):
                fh.write(
                    "%d\t%d\t%s\t%.9f\t%.9f\t%d\n"
                    % (
                        self._ids[k],
                        self._ops[k],
                        LAYERS[self._layers[k]],
                        self._starts[k],
                        self._ends[k],
                        self._parents[k],
                    )
                )

    def write_op_counts(self, path):
        """One line per op: index, name and the counts it made, as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, name, counts in self.op_counts:
                fh.write(json.dumps([index, name, dict(sorted(counts.items()))]) + "\n")

    # -------------------------------------------------------- wrappers
    def _wrap(self, layer, fn, counter, pre, post_outer, post_every):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.counts[counter] += 1
            if pre is not None:
                pre(args, kwargs, tracer)
            if tracer.stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if post_every is not None:
                    post_every(result, tracer)
                return result
            tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if post_every is not None:
                post_every(result, tracer)
            if post_outer is not None:
                post_outer(result, tracer)
            return result

        return wrapper

    def install(self, extra_modules=()):
        """Patch every entry point wherever it is bound: on its class for
        methods, and in every degkit module (and ``extra_modules``) that holds
        a module-level function under its name."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "degkit" or name.startswith("degkit."))
        ]
        modules.extend(extra_modules)
        for entry in ENTRY_POINTS:
            layer, path, counter = entry[:3]
            pre, post_outer, post_every = (tuple(entry[3:]) + (None,) * 3)[:3]
            home = sys.modules["degkit." + layer]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, counter, pre, post_outer, post_every)
            if owner_name:
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # --------------------------------------------------------- metrics
    def layer_metrics(self):
        """Every per-layer metric except the overhead, which needs an
        untraced pass to compare with."""
        from metrics import PER_LAYER

        out = {}
        for name, _, _ in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_time[name[: -len(".self_s")]]
            else:
                out[name] = self.counts[name]
        built = self.counts["combgraphs.maps_built"]
        out["combgraphs.build_yield"] = (
            self.counts["combgraphs.maps_emitted"] / built if built else 0.0
        )
        cg = sys.modules["degkit.combgraphs"]
        caches = [getattr(cg, n) for n in COMBGRAPHS_CACHES if hasattr(cg, n)]
        out["combgraphs.cache_dicts"] = len(caches)
        out["combgraphs.cache_entries"] = sum(len(c) for c in caches)
        out["trace.spans"] = self.span_count
        del out["trace.overhead_pct"]
        return out
