"""The per-layer metrics of a traced pass, with their units.

A layer is a module of the package.  Each metric below names the
end-to-end metric it should move and the workload where that shows:

  terms.instantiate            work_per_s            reduce-church, factorize-traces
  terms.replace_at             work_per_s, tail      reduce-church (about 0 on the sweep)
  terms.is_neutral             work_per_s            reduce-church (lo)
  terms.show, .chars           wall_s, peak_rss_mb   reduce-church
  terms.parse, terms.alpha_eq  setup_s, work_per_s   reduce-church, factorize-traces
  reductions.essential_steps   work_per_s            reduce-church
  reductions.contractions,
    .useful_ratio              work_per_s            reduce-church (ll), factorize-traces
  reductions.inessential_steps work_per_s            sweep-exhaustive
  reductions.redexes, step_at  work_per_s            sweep-exhaustive, factorize-traces
  reductions.least_level       work_per_s            reduce-church (ll), sweep-exhaustive
  parallel.derive              work_per_s            factorize-traces, sweep-exhaustive
  parallel.all_parallel_steps  work_per_s            sweep-exhaustive
  parallel.is_parallel_inessential                   sweep-exhaustive, factorize-traces
  parallel.selection_of, realize, sequential_index   factorize-traces
  engine.normalize             work_per_s            reduce-church
  engine.split (.steps), merge, factorize            factorize-traces, sweep-exhaustive
  engine.check_property, check_normalization         sweep-exhaustive
  enumeration.enumerate_terms  work_per_s, peak_rss  sweep-exhaustive
  graphs.explore (.nodes, .truncated)                sweep-exhaustive (normalization)
  cli.main, cli.output_bytes   wall_s, peak_rss_mb   reduce-church
  trace.overhead_s             none: the cost of tracing itself, every workload

work_per_s is steps_per_s on reduce-church, terms_per_s on sweep-exhaustive
and trace_steps_per_s on factorize-traces.  `.calls` counts the spans opened
at the boundary; for a generator, one span covers each `next`.  `.self_s` is
the time inside those spans not covered by child spans.
"""

from tracing import BOUNDARIES

# Counts that depend only on the inputs, so a traced pass of the same code and
# seed must reproduce them exactly.
COUNT_METRICS = [name + ".calls" for name, _, _ in BOUNDARIES] + [
    "terms.show.chars",
    "reductions.contractions",
    "steps_fired",
    "parallel.all_parallel_steps.yielded",
    "enumeration.enumerate_terms.yielded",
    "engine.split.steps",
    "graphs.explore.nodes",
    "graphs.explore.truncated",
    "cli.output_bytes",
]

PER_LAYER_UNITS = {}
for _name, _, _ in BOUNDARIES:
    PER_LAYER_UNITS[_name + ".calls"] = "count"
    PER_LAYER_UNITS[_name + ".self_s"] = "s"
PER_LAYER_UNITS.update({
    "terms.show.chars": "count",
    "reductions.contractions": "count",
    "reductions.useful_ratio": "ratio",
    "parallel.all_parallel_steps.yielded": "count",
    "enumeration.enumerate_terms.yielded": "count",
    "engine.split.steps": "count",
    "graphs.explore.nodes": "count",
    "graphs.explore.truncated": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
})
