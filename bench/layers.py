"""Per-module metrics derived from the spans of one traced pass.

Times are self times (a span's duration minus what its child spans cover),
so a layer's figure excludes the layers it waits on.  A layer the workload
never calls reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracing import ATTRS, END, NAME, PARENT, START, Tracer

LATTICE_SLOTS = ("torus-6x6", "honeycomb-6x6", "q5-ic", "q5-red", "q5-k11")

UNITS = {
    "generators.enum_cubic_s": "s",
    "generators.enum_cubic_graphs": "count",
    "generators.enum_trees_s": "s",
    "generators.enum_trees_graphs": "count",
    "generators.graphs_per_s": "1/s",
    "graphs.graph6_s": "s",
    "graphs.graph6_bytes": "bytes",
    "graphs.build_s": "s",
    "existence.exists_s": "s",
    "existence.calls": "count",
    "existence.rejected_frac": "ratio",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.solve_s": "s",
    "solver.lower_bound_s": "s",
    "solver.root_gap": "vertices",
    "solver.forced_s": "s",
    "solver.forced_frac": "ratio",
    **{f"solver.{slot}.{m}": u for slot in LATTICE_SLOTS for m, u in (("nodes", "count"), ("s", "s"))},
    "solver.item_p50_ms": "ms",
    "solver.item_tail_ms": "ms",
    "detection.verify_s": "s",
    "detection.verify_calls": "count",
    "detection.robustness_s": "s",
    "reduction.build_s": "s",
    "reduction.oracle_s": "s",
    "reduction.vertices": "count",
    "constructions.certify_s": "s",
    "constructions.vertices": "count",
    "tables.row_s": "s",
    "tables.pool_efficiency": "ratio",
    "tables.pool_cpu_s": "s",
    "trace.overhead_s": "s",
}

SOLVES = ("solver.solve_min", "solver.feasible_at")
CONSTRUCTIONS = ("constructions.q5_code_search", "constructions.double_hypercube_code",
                 "constructions.extremal_tree", "constructions.g6_ring")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are ten samples or fewer."""
    s = sorted(values)
    return s[-11] if len(s) > 10 else s[-1]


def layer_metrics(tr: Tracer, pool_cpu_s: float, overhead_s: float) -> dict[str, float]:
    selfs = tr.self_times()
    by_name: dict[str, list[tuple[list, float]]] = defaultdict(list)
    for span, st in zip(tr.spans, selfs):
        by_name[span[NAME]].append((span, st))

    def secs(*names):
        return sum(st for n in names for _, st in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def attrs(key, *names):
        return [s[ATTRS][key] for n in names for s, _ in by_name[n] if key in s[ATTRS]]

    enum_s = secs("generators.enum_cubic", "generators.enum_trees")
    enum_graphs = sum(attrs("graphs", "generators.enum_cubic", "generators.enum_trees"))
    solve_s = secs(*SOLVES)
    nodes = sum(attrs("nodes", *SOLVES))
    items_ms = [(s[END] - s[START]) * 1e3 for n in SOLVES for s, _ in by_name[n]]
    streams = {s[0]: s for s, _ in by_name["tables.solve_stream"]}
    worker_busy = sum(s[END] - s[START] for s in tr.spans if s[PARENT] in streams)
    pool_capacity = sum(s[ATTRS]["workers"] * (s[END] - s[START]) for s in streams.values())
    gaps = attrs("gap", *SOLVES)
    out = {
        "generators.enum_cubic_s": secs("generators.enum_cubic"),
        "generators.enum_cubic_graphs": sum(attrs("graphs", "generators.enum_cubic")),
        "generators.enum_trees_s": secs("generators.enum_trees"),
        "generators.enum_trees_graphs": sum(attrs("graphs", "generators.enum_trees")),
        "generators.graphs_per_s": _ratio(enum_graphs, enum_s),
        "graphs.graph6_s": secs("graphs.write_graph6"),
        "graphs.graph6_bytes": sum(attrs("bytes", "graphs.write_graph6")),
        "graphs.build_s": secs("graphs.parse_graph6", "graphs.named_builder"),
        "existence.exists_s": secs("existence.exists_red_ic"),
        "existence.calls": calls("existence.exists_red_ic"),
        "existence.rejected_frac": _ratio(sum(attrs("rejected", "existence.exists_red_ic")),
                                          calls("existence.exists_red_ic")),
        "solver.nodes": nodes,
        "solver.nodes_per_s": _ratio(nodes, solve_s),
        "solver.solve_s": solve_s,
        "solver.lower_bound_s": secs("solver.lower_bound"),
        "solver.root_gap": _ratio(sum(gaps), len(gaps)),
        "solver.forced_s": secs("solver.forced_detectors"),
        "solver.forced_frac": _ratio(sum(attrs("forced", *SOLVES)),
                                     sum(s[ATTRS]["k"] for n in SOLVES for s, _ in by_name[n]
                                         if "forced" in s[ATTRS])),
        "solver.item_p50_ms": median(items_ms) if items_ms else 0.0,
        "solver.item_tail_ms": tail(items_ms) if items_ms else 0.0,
        "detection.verify_s": secs("detection.verify"),
        "detection.verify_calls": calls("detection.verify"),
        "detection.robustness_s": secs("detection.robustness_check"),
        "reduction.build_s": secs("reduction.build_reduction"),
        "reduction.oracle_s": secs("reduction.brute_force_sat"),
        "reduction.vertices": sum(attrs("vertices", "reduction.build_reduction")),
        "constructions.certify_s": secs(*CONSTRUCTIONS),
        "constructions.vertices": sum(attrs("vertices", *CONSTRUCTIONS)),
        "tables.row_s": secs("tables.tree_row", "tables.cubic_row", "tables.solve_stream"),
        "tables.pool_efficiency": _ratio(worker_busy, pool_capacity),
        "tables.pool_cpu_s": pool_cpu_s,
        "trace.overhead_s": overhead_s,
    }
    for slot in LATTICE_SLOTS:
        spans = [(s, st) for n in SOLVES for s, st in by_name[n] if s[ATTRS].get("instance") == slot]
        out[f"solver.{slot}.nodes"] = sum(s[ATTRS]["nodes"] for s, _ in spans)
        out[f"solver.{slot}.s"] = sum(st for _, st in spans)
    return out


def layer_shares(tr: Tracer) -> dict[str, float]:
    """Self time per module (the span-name prefix), over all processes."""
    out: dict[str, float] = defaultdict(float)
    for span, st in zip(tr.spans, tr.self_times()):
        out[span[NAME].split(".")[0]] += st
    return dict(out)
