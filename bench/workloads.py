"""The four benchmark workloads.

Each workload turns a seed into inputs, runs one pass over them and checks
every output independently.  An untraced pass calls the program's own entry
points (``tables.*_row``, ``reduction.verify_reduction`` and so on).  A traced
pass makes the same computation from the public functions of each module,
with a span around every call, so that per-module time and counts are seen
from outside the program; it must reproduce the untraced pass's values.

Every solve has a node cap well above its baseline count; hitting it counts
as a failure.  Wall-clock caps are not used: ``Budget.max_seconds`` is
ignored by the deterministic solver, so it would not stop a runaway search.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter
from typing import Callable

from redic import constructions, detection, existence, generators, graphs, reduction, solver, tables
from redic.detection import CodeKind
from redic.solver import Budget

RED, IC = CodeKind.RED_IC, CodeKind.IC

# robustness_check runs |S| + 1 verifications; above this many vertices that
# costs seconds per witness (about 2 s at n = 512), so larger witnesses get
# verify only
ROBUSTNESS_MAX_N = 256


@dataclass
class PassResult:
    values: list  # what a traced pass must reproduce
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def item(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (seed, smoke) -> inputs of successive passes, used in turn
    run: Callable  # (inputs of one pass, tracer) -> PassResult


def _certify(g, witness, kind, tr) -> bool:
    """Witness passes verify, and a RED:IC witness also robustness_check."""
    if tr.call("detection.verify", detection.verify, g, witness, kind) is not None:
        return False
    if kind is RED and g.n <= ROBUSTNESS_MAX_N:
        return tr.call("detection.robustness_check", detection.robustness_check, g, witness) is None
    return True


def _traced_solve(g, kind, budget, tr, **attrs):
    """solve_min with spans, plus the forced set and root bound it starts from."""
    forced = None
    if kind is RED:
        with tr.span("existence.exists_red_ic") as a:
            a["rejected"] = existence.exists_red_ic(g) is not None
        if not a["rejected"]:
            with tr.span("solver.forced_detectors"):
                forced = len(solver.forced_detectors(g, kind))
    with tr.span("solver.lower_bound"):
        bound = solver.lower_bound(g, kind).value
    with tr.span("solver.solve_min", **attrs) as a:
        out = solver.solve_min(g, kind, budget=budget)
        a["nodes"] = out.stats.nodes
        if out.is_optimal:
            a["k"] = out.k
            a["gap"] = out.k - bound
            if forced is not None:
                a["forced"] = forced
    return out


# -- census workloads (tables.tree_row / tables.cubic_row) ---------------------

CENSUS_CAP = 10_000  # nodes per graph; the largest baseline is 191 (cubic, n = 14)


@dataclass(frozen=True)
class Census:
    kind: str  # "tree" or "cubic"
    sizes: tuple[int, ...]
    threads: int


def _census_item(g6: bytes, cap: int):
    """One graph of a traced census row, as ``tables._solve_one`` handles it.

    Runs in a pool worker; returns the row value and the spans recorded."""
    spans = []
    t0 = perf_counter()
    g = graphs.parse_graph6(g6)
    t1 = perf_counter()
    reason = existence.exists_red_ic(g)
    t2 = perf_counter()
    spans += [("graphs.parse_graph6", t0, t1, {}),
              ("existence.exists_red_ic", t1, t2, {"rejected": reason is not None})]
    if reason is not None:
        return None, spans
    forced = len(solver.forced_detectors(g, RED))
    t3 = perf_counter()
    bound = solver.lower_bound(g, RED).value
    t4 = perf_counter()
    out = solver.solve_min(g, RED, budget=Budget(max_nodes=cap))
    t5 = perf_counter()
    attrs = {"nodes": out.stats.nodes}
    if out.is_optimal:
        attrs.update(k=out.k, gap=out.k - bound, forced=forced)
    spans += [("solver.forced_detectors", t2, t3, {}), ("solver.lower_bound", t3, t4, {}),
              ("solver.solve_min", t4, t5, attrs)]
    return (out.k if out.is_optimal else -1), spans


def _traced_row(c: Census, n: int, tr):
    with tr.span(f"tables.{c.kind}_row", n=n):
        enum = generators.enum_trees if c.kind == "tree" else generators.enum_cubic
        with tr.span(f"generators.{enum.__name__}") as a:
            gs = list(enum(n))
            a["graphs"] = len(gs)
        with tr.span("graphs.write_graph6") as a:
            g6s = [graphs.write_graph6(g) for g in gs]
            a["bytes"] = sum(map(len, g6s))
        with tr.span("tables.solve_stream", workers=c.threads):
            if c.threads <= 1:
                items = [_census_item(b, CENSUS_CAP) for b in g6s]
            else:
                # default start method, as tables._solve_stream uses, so the
                # traced pool costs what the program's pool costs
                with ProcessPoolExecutor(max_workers=c.threads) as pool:
                    items = list(pool.map(_census_item, g6s, [CENSUS_CAP] * len(g6s), chunksize=16))
            for _, spans in items:
                tr.adopt(spans)
    results = [k for k, _ in items]
    solved = [k for k in results if k is not None and k != -1]
    partial = -1 in results
    with_code = sum(1 for k in results if k is not None)
    if c.kind == "tree":
        return tables.TreeRow(n, len(gs), with_code, solved.count(n - 2), solved.count(n - 1),
                              solved.count(n), partial=partial)
    return tables.CubicRow(n, len(gs), with_code, min(solved, default=None),
                           max(solved, default=None), partial=partial)


def _run_census(c: Census, tr) -> PassResult:
    if tr.enabled:
        rows = [_traced_row(c, n, tr) for n in c.sizes]
        enumerated = sum(1 for s in tr.spans if s[1].startswith("generators.enum_"))
    else:
        # cubic_row reads an lru_cache: empty it so every pass enumerates,
        # and count its misses as proof that enumeration ran
        cache = generators.cubic_graphs_cached
        cache.cache_clear()
        row = tables.tree_row if c.kind == "tree" else tables.cubic_row
        rows = [row(n, threads=c.threads, budget_nodes=CENSUS_CAP) for n in c.sizes]
        info = cache.cache_info()
        enumerated = len(c.sizes) if c.kind == "tree" else info.misses - info.hits
    res = PassResult([(r.n, r.values(), r.partial) for r in rows])
    if enumerated != len(c.sizes):
        res.problems.append(f"{c.kind} enumeration ran {enumerated} times for {len(c.sizes)} rows")
        res.failed += 1
    ref = tables.TREE_REFERENCE if c.kind == "tree" else tables.CUBIC_REFERENCE
    for r in rows:
        res.item(r.values() == ref[r.n] and not r.partial, f"{c.kind} row n={r.n}: {r.values()}",
                 count=ref[r.n][0])
    return res


def _census_inputs(kind: str, full: range, smoke: range, threads: int):
    def make(seed: int, smoke_mode: bool) -> list[Census]:
        # the rows are fixed by the frozen reference tables; the seed has no effect
        return [Census(kind, tuple(smoke if smoke_mode else full), threads)]
    return make


# -- lattice-search -------------------------------------------------------------


@dataclass(frozen=True)
class LatticeCase:
    slot: str  # metric label: solver.<slot>.nodes, solver.<slot>.s
    family: str
    params: tuple[int, ...]
    kind: CodeKind
    k: int  # the optimum, or for a refutation the size refuted
    cap: int
    refute: bool = False


# baseline nodes: 59,209 / 44,181 / 30,595 / 2,465 / 2,451; caps are about 5x
LATTICE = (
    LatticeCase("torus-6x6", "torus", (6, 6), RED, 18, 300_000),
    LatticeCase("honeycomb-6x6", "honeycomb_torus", (6, 6), RED, 24, 250_000),
    LatticeCase("q5-ic", "hypercube", (5,), IC, 10, 150_000),
    LatticeCase("q5-red", "hypercube", (5,), RED, 12, 15_000),
    LatticeCase("q5-k11", "hypercube", (5,), RED, 11, 15_000, refute=True),
)
# same slots on small instances (baseline nodes 1,907 / 257 / 1,237 / 1,881 / 1,881)
LATTICE_SMOKE = (
    LatticeCase("torus-6x6", "torus", (4, 4), RED, 10, 50_000),
    LatticeCase("honeycomb-6x6", "honeycomb_torus", (4, 4), RED, 11, 50_000),
    LatticeCase("q5-ic", "hypercube", (4,), IC, 7, 50_000),
    LatticeCase("q5-red", "hypercube", (4,), RED, 10, 50_000),
    LatticeCase("q5-k11", "hypercube", (4,), RED, 9, 50_000, refute=True),
)


def _lattice_inputs(seed: int, smoke: bool):
    # the instances and their optima are fixed; the seed has no effect
    return [LATTICE_SMOKE if smoke else LATTICE]


def _run_lattice(cases, tr) -> PassResult:
    res = PassResult([])
    for c in cases:
        g = tr.call("graphs.named_builder", graphs.named_builder, c.family, *c.params)
        budget = Budget(max_nodes=c.cap)
        if c.refute:
            with tr.span("solver.feasible_at", instance=c.slot) as a:
                out = solver.feasible_at(g, c.kind, c.k, budget=budget)
                a["nodes"] = out.stats.nodes
            res.values.append((c.slot, out.witness, out.exhaustive, out.stats.nodes))
            res.item(out.witness is None and out.exhaustive,
                     f"{c.slot}: size {c.k} not refuted (witness {out.witness}, exhaustive {out.exhaustive})")
            continue
        if tr.enabled:
            out = _traced_solve(g, c.kind, budget, tr, instance=c.slot)
        else:
            out = solver.solve_min(g, c.kind, budget=budget)
        res.values.append((c.slot, out.status, out.k, out.stats.nodes))
        res.item(out.is_optimal and out.k == c.k and _certify(g, out.witness, c.kind, tr),
                 f"{c.slot}: {out.status} k={out.k}, expected optimum {c.k}")
    return res


# -- certify-large ----------------------------------------------------------------

SWEEP_CAP = 1_000  # every sweep formula solves in one node
FORMULA_CAP = 20_000  # random formulas take tens to hundreds of nodes
Q5_CAP = 15_000
CLAUSES_PER_VAR = 7.5  # far above the 3-SAT threshold, so most formulas are unsatisfiable
FORMULA_SETS = 8  # more than the passes of one run


@dataclass(frozen=True)
class CertifyInputs:
    sweep_clauses: int
    formulas: tuple  # of reduction.CnfFormula
    top_dimension: int  # doubling chain Q5 -> Q_top
    tree_sizes: tuple[int, ...]  # extremal_tree(n)
    ring_sizes: tuple[int, ...]  # g6_ring(t)


def random_formula(rng: random.Random, n_vars: int, n_clauses: int) -> reduction.CnfFormula:
    """Clauses over three distinct variables with random signs; redrawn until
    every variable occurs, as the reduction requires."""
    while True:
        clauses = tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3))
                        for _ in range(n_clauses))
        phi = reduction.CnfFormula(n_vars, clauses)
        if len(phi.variables_used()) == n_vars:
            return phi


def _certify_inputs(seed: int, smoke: bool) -> list[CertifyInputs]:
    """Fresh formulas for each of the first FORMULA_SETS passes.

    Search effort varies from formula to formula, and more so the larger N
    is: certifying one formula took 0.51 +- 0.03 s at N = 8 (most of it
    robustness_check, as the graph has 244 vertices), 0.10 +- 0.03 s at
    N = 9, 0.15 +- 0.06 s at N = 10, 0.19 +- 0.13 s at N = 11 and
    0.37 +- 0.15 s at N = 12.  A set holds three formulas at each N = 8..10,
    so that the hardness of a seed's formulas moves a pass by about 2 %;
    a run still measures several sets rather than one set several times."""
    rng = random.Random(seed)
    sizes = (5, 6) if smoke else tuple(n for n in range(8, 11) for _ in range(3))
    out = []
    for _ in range(FORMULA_SETS):
        formulas = tuple(random_formula(rng, n, round(CLAUSES_PER_VAR * n)) for n in sizes)
        if smoke:
            out.append(CertifyInputs(2, formulas, 7, (30,), (4,)))
        else:
            out.append(CertifyInputs(4, formulas, 12, tuple(range(200, 257, 8)), tuple(range(30, 43, 2))))
    return out


def sweep_formulas(max_clauses: int) -> list[reduction.CnfFormula]:
    """Every formula verify_reduction_equivalence visits, in its order."""
    signs = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    clauses = [(a, 2 * b, 3 * c) for a, b, c in signs]
    return [reduction.CnfFormula(3, subset)
            for m in range(1, max_clauses + 1) for subset in combinations(clauses, m)]


def _traced_verify_reduction(phi, budget, tr):
    """reduction.verify_reduction, one span per call it makes."""
    with tr.span("reduction.verify_reduction"):
        with tr.span("reduction.build_reduction") as a:
            g, threshold = reduction.build_reduction(phi)
            a["vertices"] = g.n
        sat = tr.call("reduction.brute_force_sat", reduction.brute_force_sat, phi)
        out = _traced_solve(g, RED, budget, tr)
    conclusive = out.is_optimal
    consistent = conclusive and ((out.k == threshold) if sat else (out.k > threshold))
    return reduction.ReductionReport(phi.n_vars, len(phi.clauses), threshold, sat, out, conclusive, consistent)


def _run_certify(inp: CertifyInputs, tr) -> PassResult:
    sweep = sweep_formulas(inp.sweep_clauses)
    formulas = sweep + list(inp.formulas)
    caps = [SWEEP_CAP] * len(sweep) + [FORMULA_CAP] * len(inp.formulas)
    if tr.enabled:
        reports = [_traced_verify_reduction(phi, Budget(max_nodes=cap), tr) for phi, cap in zip(formulas, caps)]
    else:
        reports = list(reduction.verify_reduction_equivalence(inp.sweep_clauses, Budget(max_nodes=SWEEP_CAP)))
        reports += [reduction.verify_reduction(phi, Budget(max_nodes=FORMULA_CAP)) for phi in inp.formulas]
    res = PassResult([(r.satisfiable, r.outcome.k, r.outcome.stats.nodes, r.conclusive, r.consistent)
                      for r in reports])
    if len(reports) != len(formulas):
        res.item(False, f"{len(reports)} reduction reports for {len(formulas)} formulas",
                 abs(len(formulas) - len(reports)))
    for phi, rep in zip(formulas, reports):
        ok = rep.conclusive and rep.consistent and (rep.n_vars, rep.n_clauses) == (phi.n_vars, len(phi.clauses))
        if ok:
            g, threshold = tr.call("reduction.build_reduction", reduction.build_reduction, phi)
            ok = (rep.outcome.k == threshold) == rep.satisfiable and _certify(g, rep.outcome.witness, RED, tr)
        res.item(ok, f"reduction of {phi}: sat={rep.satisfiable} k={rep.outcome.k} "
                     f"conclusive={rep.conclusive} consistent={rep.consistent}")

    def construct(fn, *args):
        with tr.span(f"constructions.{fn.__name__}") as a:
            out = fn(*args)
            g = out[0] if isinstance(out, tuple) else out.graph
            a["vertices"] = g.n
        return out

    q5 = construct(constructions.q5_code_search, Budget(max_nodes=Q5_CAP))
    res.values.append(("q5", q5.claimed_k, q5.witness))
    res.item(q5.claimed_k == 12 and _certify(q5.graph, q5.witness, RED, tr), f"q5 code of size {q5.claimed_k}")
    witness = q5.witness
    for d in range(5, inp.top_dimension):
        g, witness = construct(constructions.double_hypercube_code, d, witness)
        res.values.append((f"q{d + 1}", len(witness)))
        # density 3/8 is kept by doubling
        res.item(8 * len(witness) == 3 * g.n and _certify(g, witness, RED, tr), f"doubled code on Q{d + 1}")
    for n in inp.tree_sizes:
        tree = construct(constructions.extremal_tree, n)
        res.values.append(("tree", n, tree.claimed_k, tree.certificate))
        res.item(tree.certificate == "bound:tree" and tree.claimed_k == -(-4 * (n + 1) // 5)
                 and _certify(tree.graph, tree.witness, RED, tr), f"extremal tree n={n}")
    for t in inp.ring_sizes:
        ring = construct(constructions.g6_ring, t)
        res.values.append(("ring", t, ring.claimed_k))
        res.item(ring.claimed_k == 6 * t and _certify(ring.graph, ring.witness, RED, tr), f"g6 ring t={t}")
    return res


# -- registry ----------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("cubic-census", _census_inputs("cubic", range(6, 15, 2), range(6, 11, 2), 1),
             _run_census),
    Workload("lattice-search", _lattice_inputs, _run_lattice),
    Workload("tree-census", _census_inputs("tree", range(4, 17), range(4, 11), 2),
             _run_census),
    Workload("certify-large", _certify_inputs, _run_certify),
)}
