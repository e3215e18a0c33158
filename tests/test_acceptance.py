"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  All comparisons are exact; runtime ceilings are the
stated desk-scale targets.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from redic import constructions, reduction, tables
from redic.detection import CodeKind, robustness_check, share, verify
from redic.existence import closed_twins, exists_red_ic
from redic.generators import cubic_graphs_cached
from redic.graphs import (
    bits,
    cycle_graph,
    cylinder,
    honeycomb_torus,
    hypercube,
    ladder,
    mask_of,
    parse_graph6,
    star_graph,
    write_graph6,
)
from redic.solver import feasible_at, lower_bound, solve_min

from literal import literal_robustness_check, literal_verify, random_graph


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{num:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def tree_rows():
    return {n: tables.tree_row(n) for n in range(4, 14)}


@pytest.fixture(scope="module")
def cubic_rows():
    return {n: tables.cubic_row(n) for n in range(6, 15, 2)}


def test_criterion_01_smallest_graphs():
    t0 = time.perf_counter()
    a = solve_min(star_graph(3), CodeKind.RED_IC)
    b = solve_min(cycle_graph(4), CodeKind.RED_IC)
    elapsed = time.perf_counter() - t0
    ok = a.is_optimal and b.is_optimal and a.k == b.k == 4 and elapsed < 1.0
    report(1, ok, f"claw and 4-cycle both have minimum 4 ({elapsed * 1e3:.0f} ms)")


def test_criterion_02_tree_table(tree_rows):
    bad = []
    for n, row in tree_rows.items():
        if row.values() != tables.TREE_REFERENCE[n] or row.partial:
            bad.append(n)
    report(2, not bad, "tree summary n=4..13 matches reference exactly")


def test_criterion_02_stretch_trees():
    t0 = time.perf_counter()
    ok = True
    for n in (14, 15):
        row = tables.tree_row(n)
        ok &= row.values() == tables.TREE_REFERENCE[n] and not row.partial
    report(2, ok, f"stretch tree rows n=14..15 match as well ({time.perf_counter() - t0:.1f} s)")


@pytest.mark.stretch(reason="about 2 s")
def test_criterion_02_trees_to_17():
    for n in (16, 17):
        row = tables.tree_row(n)
        assert row.values() == tables.TREE_REFERENCE[n] and not row.partial


def test_criterion_03_cubic_table(cubic_rows):
    bad = [n for n, row in cubic_rows.items()
           if row.values() != tables.CUBIC_REFERENCE[n] or row.partial]
    report(3, not bad, "cubic summary n=6..14 matches reference exactly")


@pytest.mark.stretch(reason="about 5-6 s")
def test_criterion_03_stretch_cubic_16():
    row = tables.cubic_row(16)
    assert row.values() == tables.CUBIC_REFERENCE[16] and not row.partial


def test_criterion_04_ladders_and_cylinders():
    t0 = time.perf_counter()
    bad = []
    for j in range(4, 10):
        for g in (ladder(j), cylinder(j)):
            out = solve_min(g, CodeKind.RED_IC)
            want = -(-2 * g.n // 3)
            if not (out.is_optimal and out.k == want):
                bad.append((g.meta["family"], j, out.k, want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    report(4, ok, f"ladders and cylinders j=4..9 all meet ceil(2n/3) ({elapsed:.1f} s)")


def test_criterion_05_largest_n_families():
    t0 = time.perf_counter()
    e4 = constructions.star_extremal_even(4)
    e6 = constructions.star_extremal_even(6)
    o5 = constructions.star_extremal_odd(5)
    c5 = constructions.cycle_extremal_odd(5)
    ok = (
        e4.graph.n == 7 and e4.claimed_k == 4 and e4.certificate == "bound:counting"
        and e6.graph.n == 31 and e6.claimed_k == 6 and e6.certificate == "bound:counting"
        and o5.graph.n == 11 and o5.claimed_k == 5 and o5.certificate == "bound:counting"
        and c5.graph.n == 11 and c5.claimed_k == 5 and c5.certificate == "bound:counting"
        and time.perf_counter() - t0 < 60
    )
    report(5, ok, "largest-n families at k=4,6 (n=7,31) and k=5 (n=11) certified without search")


def test_criterion_06_extremal_trees():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 9, 14):
        inst = constructions.extremal_tree(n)
        ok &= inst.certificate == "bound:tree" and inst.claimed_k == -(-4 * (n + 1) // 5)
    for n in range(4, 17):
        inst = constructions.extremal_tree(n)
        ok &= solve_min(inst.graph, CodeKind.RED_IC).k == inst.claimed_k
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300
    report(6, ok, f"extremal trees meet ceil(4(n+1)/5), solver-confirmed for n=4..16 ({elapsed:.1f} s)")


def test_criterion_07_five_cube():
    t0 = time.perf_counter()
    inst = constructions.q5_code_search()
    big, doubled = constructions.double_hypercube_code(5, inst.witness)
    elapsed = time.perf_counter() - t0
    ok = (
        inst.claimed_k == 12
        and inst.density == Fraction(3, 8)
        and literal_verify(inst.graph, inst.witness, CodeKind.RED_IC) is None
        and Fraction(len(doubled), big.n) == Fraction(3, 8)
        and elapsed < 600
    )
    report(7, ok, f"5-cube code of size 12 found and doubled onto the 6-cube ({elapsed:.1f} s)")


def test_criterion_07_stretch_refute_11_on_q5():
    t0 = time.perf_counter()
    res = feasible_at(hypercube(5), CodeKind.RED_IC, 11)
    elapsed = time.perf_counter() - t0
    ok = res.witness is None and res.exhaustive and elapsed < 3600
    report(7, ok, f"size 11 on the 5-cube refuted exhaustively "
                  f"({res.stats.nodes} nodes, {elapsed:.1f} s)")


def test_criterion_08_reduction_end_to_end():
    t0 = time.perf_counter()
    worked = reduction.CnfFormula(5, ((1, 2, 3), (1, 2, -3), (2, -4, 5), (2, -4, -5)))
    rep = reduction.verify_reduction(worked)
    ok = rep.conclusive and rep.consistent and rep.outcome.k == 47

    sweep = list(reduction.verify_reduction_equivalence(max_clauses=4))
    ok &= len(sweep) == 162 and all(r.conclusive and r.consistent for r in sweep)

    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    core = reduction.CnfFormula(3, tuple(tuple(s * v for s, v in zip(sg, (1, 2, 3))) for sg in signs))
    rep = reduction.verify_reduction(core)
    ok &= rep.conclusive and rep.consistent and not rep.satisfiable and rep.outcome.k >= 46
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1800
    report(8, ok, f"reduction equivalence on the worked formula, all 162 small formulas, "
                  f"and the unsatisfiable core ({elapsed:.1f} s)")


def test_criterion_09_all_detector_rings(cubic_rows):
    ok = True
    for t in (2, 3):
        inst = constructions.g6_ring(t)
        out = solve_min(inst.graph, CodeKind.RED_IC)
        ok &= out.is_optimal and out.k == 6 * t == inst.claimed_k
    ok &= tables.CUBIC_REFERENCE[12][3] == 12 and tables.CUBIC_REFERENCE[18][3] == 18
    ok &= cubic_rows[12].highest == 12
    report(9, ok, "six-vertex block rings need every vertex (12 at n=12, 18 at n=18)")


def test_criterion_10_min_density_rings(cubic_rows):
    ring = constructions.g14_ring(constructions.g14_gadget(), 2)
    ok = (
        ring.graph.n == 28
        and ring.graph.is_cubic()
        and ring.claimed_k == 16 == lower_bound(ring.graph, CodeKind.RED_IC).value
        and ring.certificate == "bound:cubic"
        and cubic_rows[14].lowest == 8 == -(-4 * 14 // 7)
    )
    report(10, ok, "28-vertex ring of the 14-vertex gadget certified at 16; density 4/7 also met at n=14")


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True

    # doubled thresholds behave exactly like single-fault robustness
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.2, 0.8))
        s = [v for v in range(g.n) if rng.random() < 0.6]
        ok &= (verify(g, s, CodeKind.RED_IC) is None) == (literal_robustness_check(g, s) is None)

    # existence test against the all-detectors oracle
    seen = 0
    while seen < 500:
        g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.7))
        if not g.is_connected():
            continue
        ok &= (exists_red_ic(g) is None) == (
            literal_verify(g, range(g.n), CodeKind.RED_IC) is None)
        seen += 1

    # exact solver against subset enumeration, plus the counting laws
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.85))
        expect = None
        for k in range(g.n + 1):
            if expect is not None:
                break
            for combo in combinations(range(g.n), k):
                if literal_verify(g, combo, CodeKind.RED_IC) is None:
                    expect = k
                    break
        out = solve_min(g, CodeKind.RED_IC)
        got = out.k if out.is_optimal else None
        ok &= got == expect
        if out.is_optimal:
            n = g.n
            ok &= n.bit_length() + 1 <= out.k <= n
            ok &= n <= 2 ** (out.k - 1) - 1
            ok &= out.k >= 4

    # share accounting on solved cubic instances
    for n in (6, 8, 10):
        for g in cubic_graphs_cached(n):
            if exists_red_ic(g) is not None:
                continue
            out = solve_min(g, CodeKind.RED_IC)
            shares = [share(g, out.witness, x) for x in out.witness]
            ok &= sum(shares, Fraction(0)) == g.n
            ok &= all(s <= Fraction(7, 4) for s in shares)
            ok &= len(closed_twins(g)) == 0

    # serialization round trip
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 30), rng.uniform(0.1, 0.9))
        ok &= parse_graph6(write_graph6(g)) == g

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600
    report(11, ok, f"robustness, existence, solver, share, and round-trip suites ({elapsed:.1f} s)")


def _is_bipartite(g) -> bool:
    """Two-colour each component by BFS parity; no edge may join one colour."""
    for comp in g.components():
        start = comp & -comp
        sides, side, seen, frontier = [0, 0], 0, start, start
        while frontier:
            sides[side] |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            side ^= 1
        if any(g.adj[v] & sides[c] for c in (0, 1) for v in bits(sides[c])):
            return False
    return True


def _has_4cycle(g) -> bool:
    """True when two vertices share two neighbours, i.e. a 4-cycle exists."""
    return any((g.adj[u] & g.adj[v]).bit_count() >= 2
               for u, v in combinations(range(g.n), 2))


def test_criterion_12_honeycomb_quotients():
    """RED:IC densities of finite hexagonal quotients against [4/7, 2/3].

    The floor 4/7 is ``lower_bound``'s cubic bound ceil(4n/7); it holds for
    every cubic graph, so every quotient must meet it.  The ceiling 2/3 is
    the density of the infinite hexagonal grid's code.  It can carry over to
    a finite quotient only when the quotient looks like the grid locally,
    that is, has no cycle shorter than 6.  Girth is read from the graph
    itself: a bipartite graph has no odd cycle, so its girth is at least 6
    exactly when no two vertices share two neighbours.  Every girth-6
    quotient listed, today (4,6) and (6,6), must land in [4/7, 2/3].

    ``honeycomb_torus(4, 4)`` is not locally hexagonal: each of its rows is
    a 4-cycle, and nothing promises the ceiling there.  Its optimum is 11,
    so its density 11/16 lies above 2/3.  That value is pinned and certified
    without the solver: the solver's witness of size 11 passes the literal
    all-pairs check and ``robustness_check``, and none of the C(16,10) =
    8008 ten-vertex subsets verifies as a RED:IC under that check.  Adding
    a detector never lowers a domination or a distinguishing count, so a
    code of size below 10 would extend to one of size 10; none exists
    either, and 11 is the optimum.
    """
    floor, ceiling = Fraction(4, 7), Fraction(2, 3)
    rows, ok = [], True
    for m, n in ((4, 4), (4, 6), (6, 6)):
        g = honeycomb_torus(m, n)
        out = solve_min(g, CodeKind.RED_IC)
        assert out.is_optimal
        girth4 = _has_4cycle(g)
        girth6 = _is_bipartite(g) and not girth4
        girth = ">=6" if girth6 else "4" if girth4 else "<6"
        rows.append(f"({m},{n}) {out.k}/{out.n} = {out.density}, girth {girth}")
        if girth6:
            ok &= floor <= out.density <= ceiling
        else:
            ok &= (m, n) == (4, 4)  # the one listed quotient without girth 6
        if (m, n) == (4, 4):
            ok &= girth4 and out.k == 11
            ok &= literal_verify(g, out.witness, CodeKind.RED_IC) is None
            ok &= robustness_check(g, out.witness) is None
            ok &= not any(literal_verify(g, mask_of(sub), CodeKind.RED_IC) is None
                          for sub in combinations(range(g.n), 10))
            ok &= floor <= out.density and out.density > ceiling
    report(12, ok, "honeycomb quotients, girth-6 ones inside [4/7, 2/3], "
                   "(4,4) pinned at 11 with no 10-subset code: " + "; ".join(rows))
