"""A differential corpus: every result and search counter of ``solve_min``
and ``feasible_at`` on a fixed set of graphs, against rows committed in
``corpus.jsonl``.

The graphs are 150 seeded random graphs (``random.Random(2026)``, n = 6..22,
edge probability from {0.12, 0.2, 0.3, 0.45, 0.6}) and seven graphs whose
provenance names a symmetry group, so that orbital fixing is covered.  For
IC and RED:IC each graph gets ``solve_min`` and, when its optimum k is at
least 1, ``feasible_at(k - 1)``, each unbudgeted and again under
``Budget(max_nodes=5)``.  Each line is one call: a key naming the graph,
kind, budget and call, the graph in graph6, then ``FIELDS`` in order, with
null where the call has no such result.  A row holds no time, so it is the
same on every machine.

A change that alters a row on purpose regenerates the file with
``PYTHONPATH=src python tests/test_corpus.py > tests/corpus.jsonl`` and
declares every changed field.  The corpus is never re-seeded or resized to
make a change pass.
"""

import json
import random
from itertools import combinations
from pathlib import Path

from redic.detection import CodeKind
from redic.graphs import build_graph, cylinder, honeycomb_torus, hypercube, ladder, torus, write_graph6
from redic.solver import Budget, feasible_at, solve_min

CORPUS = Path(__file__).with_name("corpus.jsonl")
FIELDS = ("status", "k", "witness", "lower", "upper", "reason", "exhaustive",
          "nodes", "forced", "pruned", "orbit_fixed", "group_order")


def corpus_graphs():
    """(name, graph) pairs: the random graphs, then the provenance graphs."""
    rng = random.Random(2026)
    out = []
    for i in range(150):
        n = rng.randint(6, 22)
        p = rng.choice([0.12, 0.2, 0.3, 0.45, 0.6])
        g = build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        out.append((f"random-{i}", g))
    out += [("torus-4x4", torus(4, 4)), ("torus-3x5", torus(3, 5)),
            ("honeycomb-4x4", honeycomb_torus(4, 4)), ("q3", hypercube(3)), ("q4", hypercube(4)),
            ("ladder-6", ladder(6)), ("cylinder-6", cylinder(6))]
    return out


def _row(key, g, stats, **result):
    """One line of the corpus: key, graph6, then FIELDS in order."""
    result.update(nodes=stats.nodes, forced=stats.forced, pruned=stats.pruned,
                  orbit_fixed=stats.orbit_fixed, group_order=stats.group_order)
    if result["witness"] is not None:
        result["witness"] = list(result["witness"])
    return [key, write_graph6(g).decode(), *map(result.get, FIELDS)]


def corpus_rows():
    rows = []
    for name, g in corpus_graphs():
        for kind in (CodeKind.IC, CodeKind.RED_IC):
            for budget in (None, Budget(max_nodes=5)):
                tag = f"{name} {kind.value} {'nodes<=5' if budget else 'unbudgeted'}"
                o = solve_min(g, kind, budget)
                if budget is None:
                    k = o.k  # the optimum, which the budgeted run refutes below too
                rows.append(_row(f"{tag} solve_min", g, o.stats, status=o.status, k=o.k, witness=o.witness,
                                 lower=o.lower, upper=o.upper, reason=None if o.reason is None else str(o.reason)))
                if k is not None and k >= 1:
                    r = feasible_at(g, kind, k - 1, budget)
                    rows.append(_row(f"{tag} feasible_at({k - 1})", g, r.stats,
                                     witness=r.witness, exhaustive=r.exhaustive))
    return rows


def test_differential_corpus():
    expected = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    actual = corpus_rows()
    for want, got in zip(expected, actual):
        if want != got:
            diff = "; ".join(f"{f}: expected {w!r}, got {a!r}"
                             for f, w, a in zip(("key", "graph", *FIELDS), want, got) if w != a)
            raise AssertionError(f"first differing row {want[0]!r}: {diff}")
    assert len(actual) == len(expected), f"{len(actual)} rows, {len(expected)} committed"


if __name__ == "__main__":
    for row in corpus_rows():
        print(json.dumps(row, separators=(",", ":")))
