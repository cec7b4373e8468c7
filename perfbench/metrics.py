"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the checkout root lists the same metrics; the
benchmark's own tests keep the two in step.
"""

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# The timing bounds are wide because the spread of the timings over ten
# seeds (first to third quartile, as a share of the median) was 0.04 to 0.17
# on a shared 2-vCPU machine, even with the speed scaling of wl_common.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

# Per-layer metrics of a traced run.  Self time is a layer's span time less
# the time covered by its child spans in other layers.  Everything runs on
# one thread, so no layer ever waits and no wait time is reported.
_LAYER_METRICS = (
    ("polys.self_s", "s"),
    ("polys.poly_mul.calls", "count"),
    ("polys.substitute.calls", "count"),
    ("polys.ratfunc_new.calls", "count"),
    ("ratmaps.self_s", "s"),
    ("ratmaps.compose.calls", "count"),
    ("ratmaps.equal_on_dense.calls", "count"),
    ("localmodel.self_s", "s"),
    ("localmodel.checks", "count"),
    ("localmodel.checks_failed", "count"),
    ("linalg.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.cells", "count"),
    ("linalg.solve.calls", "count"),
    ("exactalg.self_s", "s"),
    ("exactalg.alg_mul.calls", "count"),
    ("exactalg.series_mul.calls", "count"),
    ("exactalg.series_inverse.calls", "count"),
    ("exactalg.hom_apply.calls", "count"),
    ("contact.self_s", "s"),
    ("contact.pure_check.calls", "count"),
    ("contact.ideal.calls", "count"),
    ("contact.base_change.calls", "count"),
    ("combgraphs.self_s", "s"),
    ("combgraphs.pieces_built", "count"),
    ("combgraphs.maps_built", "count"),
    ("combgraphs.maps_emitted", "count"),
    ("combgraphs.build_yield", "ratio"),
    ("combgraphs.canonical_key.calls", "count"),
    ("combgraphs.cache_entries", "count"),
    ("combgraphs.cache_dicts", "count"),
    ("combgraphs.isomorphic.calls", "count"),
    ("combgraphs.eq_group.perms", "count"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.out_bytes", "B"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

# Self time and call counts are costs; the yield of the split-map builder is
# the one ratio where more is better.
PER_LAYER = tuple(
    (name, unit, "higher" if name == "combgraphs.build_yield" else "lower")
    for name, unit in _LAYER_METRICS
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}
