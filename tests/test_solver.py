import random
from dataclasses import replace
from itertools import chain, combinations, permutations
from types import SimpleNamespace

import pytest

from redic import existence, solver
from redic.detection import CodeKind, verify
from redic.existence import closed_twins, exists_ic, exists_red_ic
from redic.generators import enum_cubic, enum_trees
from redic.graphs import (
    Graph,
    bits,
    build_graph,
    cartesian_product,
    complete_multipartite,
    cycle_graph,
    honeycomb_torus,
    hypercube,
    mask_of,
    path_graph,
    star_graph,
    torus,
)
from redic.reduction import CnfFormula, verify_reduction, verify_reduction_equivalence
from redic.solver import (
    Budget,
    _constraint_masks,
    _root,
    _Search,
    feasible_at,
    forced_detectors,
    lower_bound,
    solve_min,
)
from redic.symmetry import automorphisms

from literal import literal_constraint_masks, literal_verify, random_graph, rule_forced


def brute_minimum(g, kind):
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if literal_verify(g, combo, kind) is None:
                return k
    return None


def search_for(g, kind, budget=None, cls=_Search):
    return cls(g, kind, budget, _constraint_masks(g))


def test_existence_is_asked_only_to_explain(monkeypatch):
    # the solver decides existence from its constraints, and asks the
    # existence rule only for the reason a graph has no code
    calls = []
    for name in ("exists_red_ic", "exists_ic"):
        real = getattr(existence, name)
        monkeypatch.setattr(existence, name, lambda g, real=real: calls.append(g) or real(g))
    g = hypercube(3)
    for run, asked in [(lambda: solve_min(g), 0), (lambda: feasible_at(g, CodeKind.RED_IC, g.n - 1), 0),
                       (lambda: solve_min(g, CodeKind.IC), 0), (lambda: solve_min(path_graph(5)), 1)]:
        calls.clear()
        run()
        assert len(calls) == asked


def test_existence_disagreeing_with_the_constraints_is_refused(monkeypatch):
    # path_graph(5) has a pair mask {0}, so no RED:IC; an existence rule
    # that finds none must not send the search off with a negative slack
    monkeypatch.setattr(existence, "exists_red_ic", lambda g: None)
    with pytest.raises(RuntimeError, match="fewer than 2 members"):
        solve_min(path_graph(5))
    with pytest.raises(RuntimeError):
        feasible_at(path_graph(5), CodeKind.RED_IC, 5)


def test_forced_detectors_examples():
    assert forced_detectors(star_graph(3)) == {0, 1, 2, 3}
    for n in (4, 5, 8):
        assert forced_detectors(cycle_graph(n)) == set(range(n))
    assert forced_detectors(hypercube(3)) == frozenset()
    # every pair mask of K_{3,3} has two members; the degree rules find none
    k33 = complete_multipartite([3, 3])
    assert forced_detectors(k33) == set(range(6)) and rule_forced(k33) == frozenset()
    assert solve_min(k33).k == 6
    with pytest.raises(ValueError):
        forced_detectors(path_graph(5))
    assert forced_detectors(star_graph(3), CodeKind.IC) == frozenset()
    assert forced_detectors(path_graph(3), CodeKind.IC) == {0, 2}  # N[1] ^ N[0] = {2}
    with pytest.raises(ValueError):
        forced_detectors(build_graph(3, [(0, 1), (1, 2), (0, 2)]), CodeKind.IC)  # closed twins


def test_lower_bound_values():
    g31 = build_graph(31, [(0, i) for i in range(1, 31)])
    assert lower_bound(g31, CodeKind.RED_IC).log_bound == 6
    tree14 = build_graph(14, [(i, i + 1) for i in range(13)])
    assert lower_bound(tree14, CodeKind.RED_IC).tree_bound == 12
    cubic14 = next(iter(enum_cubic(14)))
    assert lower_bound(cubic14, CodeKind.RED_IC).cubic_bound == 8
    assert lower_bound(g31, CodeKind.IC).log_bound == 5
    assert lower_bound(g31, CodeKind.IC).value == 5


def test_torus_bound_requires_provenance():
    t = torus(6, 6)
    rep = lower_bound(t, CodeKind.RED_IC)
    assert rep.torus_bound == -(-2 * 36 // 5) == 15
    # same structure built by hand gets no torus bound
    anon = build_graph(t.n, t.edges())
    assert lower_bound(anon, CodeKind.RED_IC).torus_bound is None
    # odd-by-odd and small tori are excluded
    assert lower_bound(torus(5, 5), CodeKind.RED_IC).torus_bound is None
    assert lower_bound(torus(4, 6), CodeKind.RED_IC).torus_bound is None
    # provenance that names another graph is not the torus: Q5 has 32 = 5 * 6
    # vertices but its optimum 12 is below the torus bound 13
    q5 = hypercube(5)
    forged = Graph(q5.n, q5.adj, meta={"family": "torus", "params": (5, 6)})
    assert lower_bound(forged, CodeKind.RED_IC).torus_bound is None
    assert lower_bound(forged, CodeKind.RED_IC).value <= solve_min(q5).k == 12
    # nor is a torus of another size
    t = torus(5, 6)
    misnamed = Graph(t.n, t.adj, meta={"family": "torus", "params": (6, 6)})
    assert lower_bound(misnamed, CodeKind.RED_IC).torus_bound is None


def test_solve_examples():
    assert solve_min(star_graph(3)).k == 4
    lad = cartesian_product(path_graph(2), path_graph(4))
    assert solve_min(lad).k == 6
    assert brute_minimum(lad, CodeKind.RED_IC) == 6  # independent of the search
    assert solve_min(complete_multipartite([2, 2, 2])).k == 6


def test_solve_infeasible():
    out = solve_min(path_graph(6))
    assert out.status == "infeasible" and out.reason.why == "support-degree"
    out = solve_min(build_graph(3, [(0, 1), (1, 2), (0, 2)]), CodeKind.IC)
    assert out.status == "infeasible" and out.reason.why == "closed-twins"


def test_feasible_at_examples():
    c4 = cycle_graph(4)
    res = feasible_at(c4, CodeKind.RED_IC, 4)
    assert res.witness == (0, 1, 2, 3)
    res = feasible_at(c4, CodeKind.RED_IC, 3)
    assert res.witness is None and res.exhaustive


def test_brute_force_oracle_random():
    rng = random.Random(101)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.85))
        for kind in (CodeKind.IC, CodeKind.RED_IC):
            expect = brute_minimum(g, kind)
            out = solve_min(g, kind)
            got = out.k if out.is_optimal else None
            assert got == expect, (g.edges(), kind)


def test_optimal_outcomes_satisfy_counting_laws():
    rng = random.Random(103)
    seen = 0
    while seen < 150:
        g = random_graph(rng, rng.randint(4, 11), rng.uniform(0.2, 0.8))
        out = solve_min(g, CodeKind.RED_IC)
        if not out.is_optimal:
            continue
        k, n = out.k, g.n
        assert n.bit_length() + 1 <= k <= n  # ceil(log2(n+1)) + 1
        assert n <= 2 ** (k - 1) - 1
        assert k >= 4  # no graph does it with three or fewer
        assert literal_verify(g, out.witness, CodeKind.RED_IC) is None
        out_ic = solve_min(g, CodeKind.IC)
        if out_ic.is_optimal:
            assert n <= 2 ** out_ic.k - 1
        seen += 1


def test_forced_set_inside_every_minimum_witness():
    rng = random.Random(107)
    seen = 0
    while seen < 200:
        g = random_graph(rng, rng.randint(4, 10), rng.uniform(0.2, 0.7))
        if exists_red_ic(g) is not None:
            continue
        assert rule_forced(g) <= forced_detectors(g)
        for kind in CodeKind:
            forced = forced_detectors(g, kind)
            kmin = brute_minimum(g, kind)
            for combo in combinations(range(g.n), kmin):
                if literal_verify(g, combo, kind) is None:
                    assert forced <= set(combo)
        seen += 1


def test_cubic_code_kinds_exist_together():
    # twin-free cubic graphs always admit a code, and the fault-tolerant
    # and plain variants exist together on cubic graphs
    for n in (4, 6, 8, 10):
        for g in enum_cubic(n):
            twin_free = len(closed_twins(g)) == 0
            red = solve_min(g, CodeKind.RED_IC)
            plain = solve_min(g, CodeKind.IC)
            assert (red.status == "infeasible") == (plain.status == "infeasible")
            assert twin_free == (red.status != "infeasible")


def test_deterministic_repeatability():
    g = cartesian_product(path_graph(2), cycle_graph(7))
    a = solve_min(g)
    b = solve_min(g)
    assert a.witness == b.witness and a.stats.nodes == b.stats.nodes


def test_feasibility_boundary_matches_minimum():
    rng = random.Random(109)
    seen = 0
    while seen < 60:
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.8))
        out = solve_min(g, CodeKind.RED_IC)
        if not out.is_optimal:
            continue
        at = feasible_at(g, CodeKind.RED_IC, out.k)
        assert at.witness is not None and len(at.witness) <= out.k
        below = feasible_at(g, CodeKind.RED_IC, out.k - 1)
        assert below.witness is None and below.exhaustive
        seen += 1


def test_feasibility_budget_flags_unknown():
    res = feasible_at(hypercube(4), CodeKind.RED_IC, 8, budget=Budget(max_nodes=2))
    assert res.stats.nodes <= 2
    if res.witness is None:
        assert not res.exhaustive


def test_budget_returns_bounds():
    g = hypercube(4)
    out = solve_min(g, budget=Budget(max_nodes=3))
    assert out.status == "bounded"
    for cap in range(6):  # a capped run never reports more nodes than its cap
        assert solve_min(g, budget=Budget(max_nodes=cap)).stats.nodes == cap
    assert out.lower <= out.upper == len(out.witness)
    assert verify(g, out.witness, CodeKind.RED_IC) is None
    full = solve_min(g)
    assert full.is_optimal and out.lower <= full.k <= out.upper


def test_bad_budgets_are_rejected():
    for cap in (dict(max_nodes=-5), dict(max_nodes=-1), dict(max_seconds=-0.5), dict(max_seconds=float("nan"))):
        with pytest.raises(ValueError, match="must be at least 0"):
            Budget(**cap)
    Budget(max_nodes=0, max_seconds=0.0)  # 0 is a cap, not an error


@pytest.mark.parametrize("cap", [2.5, 3.0, "3"])
def test_non_integer_node_caps_are_rejected(cap):
    # a fractional cap was accepted, and solve_min(torus(4, 4)) under 2.5 returned bounded
    with pytest.raises(ValueError, match="max_nodes must be an integer"):
        Budget(max_nodes=cap)
    Budget(max_seconds=2.5)  # a time cap may be fractional


def test_negative_k_builds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("k < 0 built a constraint list or a search")

    monkeypatch.setattr(solver, "_constraint_masks", refuse)
    monkeypatch.setattr(solver, "_Search", refuse)
    for g in (torus(4, 4), path_graph(5), build_graph(0, [])):
        for kind in CodeKind:
            res = feasible_at(g, kind, -1)
            assert (res.witness, res.exhaustive, res.stats.nodes) == (None, True, 0)


def test_wall_clock_budget_is_honoured():
    # the clock is read every 256 nodes; torus 6x6 needs 3,445 to finish
    g = torus(6, 6)
    out = solve_min(g, budget=Budget(max_seconds=0))
    assert (out.status, out.stats.nodes) == ("bounded", 256)
    assert verify(g, out.witness, CodeKind.RED_IC) is None
    res = feasible_at(g, CodeKind.RED_IC, 17, budget=Budget(max_seconds=0))
    assert (res.witness, res.exhaustive, res.stats.nodes) == (None, False, 256)


def test_seconds_cap_counts_from_the_start_of_the_search(monkeypatch):
    # a fake clock, so that no reading depends on how long the machine has been up
    clock = SimpleNamespace(now=1000.0)
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: clock.now))
    g = torus(4, 4)
    search = _Search(g, CodeKind.RED_IC, Budget(max_seconds=1.0), _constraint_masks(g))  # starts at 1000
    clock.now = 1001.0  # the cap reached, not passed: the checks at nodes 256 and 512 let the search go on
    for _ in range(512):
        search._tick()
    search.nodes = 0
    clock.now = 1001.5  # past the cap: the first check, at node 256, stops the search, and none before it
    for _ in range(255):
        search._tick()
    with pytest.raises(solver._BudgetExhausted):
        search._tick()
    assert search.nodes == 256


def _pinned(out):
    """A solve's status, k, witness, lower, upper, nodes and forced."""
    return out.status, out.k, out.witness, out.lower, out.upper, out.stats.nodes, out.stats.forced


def test_empty_and_tiny_graphs():
    # the empty graph's IC is the empty set, found at the root as on any
    # other graph; by convention the empty graph has no RED:IC
    empty = build_graph(0, [])
    ic, red, capped = CodeKind.IC, CodeKind.RED_IC, Budget(max_nodes=0)
    assert _pinned(solve_min(empty, ic)) == ("optimal", 0, (), 0, 0, 1, 0)
    assert _pinned(solve_min(empty, ic, capped)) == ("bounded", 0, (), 0, 0, 0, 0)
    assert _pinned(solve_min(path_graph(4), ic, capped))[:5] == ("bounded", 3, (0, 1, 2), 3, 3)
    out = solve_min(empty, red)
    assert _pinned(out) == ("infeasible", None, None, None, None, 0, 0)
    assert out.reason.why == "too-small"
    for k in (0, 1):
        for kind, budget, expected in [(ic, None, ((), True, 1, 0)), (ic, capped, (None, False, 0, 0)),
                                       (red, None, (None, True, 0, 0)), (red, capped, (None, True, 0, 0))]:
            res = feasible_at(empty, kind, k, budget)
            assert (res.witness, res.exhaustive, res.stats.nodes, res.stats.forced) == expected, (kind, budget, k)
    single = build_graph(1, [])
    assert solve_min(single, CodeKind.IC).k == 1
    assert solve_min(single, CodeKind.RED_IC).status == "infeasible"


def test_density_on_zero_and_one_vertex():
    # k/n, and None where n = 0 leaves it undefined or where there is no k
    assert solve_min(build_graph(1, []), CodeKind.IC).density == 1
    assert solve_min(build_graph(0, []), CodeKind.IC).density is None
    assert solve_min(build_graph(0, []), CodeKind.RED_IC).density is None


def plain(g):
    """The same graph without builder provenance, so searched without symmetry."""
    return Graph(g.n, g.adj)


def counters(stats):
    """Every counter of a search that does not depend on the clock: nodes,
    forced, pruned, orbit_fixed and bound_fixed."""
    return stats.nodes, stats.forced, stats.pruned, stats.orbit_fixed, stats.bound_fixed


def test_pinned_node_counts():
    # the search is deterministic, so these counts are exact on every machine;
    # a change to them is a change to the search and must be re-baselined.
    # The graphs carry no provenance, so this is the plain search.
    red, ic = CodeKind.RED_IC, CodeKind.IC
    for g, kind, k, pinned in [
        (torus(4, 4), red, 10, (723, 1_145, 216, 0, 460)),
        (honeycomb_torus(4, 4), red, 11, (121, 265, 39, 0, 71)),
        (hypercube(4), ic, 7, (411, 337, 167, 0, 548)),
        (hypercube(4), red, 10, (733, 1_134, 225, 0, 469)),
        (hypercube(5), red, 12, (1_535, 1_504, 751, 0, 2_493)),
    ]:
        out = solve_min(plain(g), kind)
        assert (out.k, counters(out.stats)) == (k, pinned), (g.meta, kind)
        assert out.stats.group_order == 1
    for d, k, pinned in [(4, 9, (887, 1_419, 224, 0, 464)), (5, 11, (1_077, 892, 539, 0, 1_452))]:
        res = feasible_at(plain(hypercube(d)), red, k)
        assert res.witness is None and res.exhaustive
        assert counters(res.stats) == pinned, d


# the same instances as above and the lattice-search ones, built by their
# named builders, so the search uses the group their provenance names:
# (graph, kind, optimum, counters, group order), then the refutations
# (dimension, k, counters) of feasible_at on the hypercube, where counters
# are (nodes, forced, pruned, orbit_fixed, bound_fixed)
ORBITAL_PINS = [
    (torus(4, 4), CodeKind.RED_IC, 10, (177, 243, 52, 10, 122), 128),
    (honeycomb_torus(4, 4), CodeKind.RED_IC, 11, (59, 133, 19, 1, 35), 32),
    (hypercube(4), CodeKind.IC, 7, (37, 18, 11, 11, 46), 384),
    (hypercube(4), CodeKind.RED_IC, 10, (105, 133, 31, 11, 71), 384),
    (hypercube(5), CodeKind.RED_IC, 12, (195, 222, 91, 25, 431), 3_840),
    (torus(6, 6), CodeKind.RED_IC, 18, (3_445, 5_348, 1_697, 8, 6_244), 288),
    (honeycomb_torus(6, 6), CodeKind.RED_IC, 24, (7_305, 14_778, 3_379, 5, 8_372), 72),
    (hypercube(5), CodeKind.IC, 10, (213, 140, 83, 45, 797), 3_840),
]
ORBITAL_REFUTATIONS = [(4, 9, (121, 193, 29, 10, 71)), (5, 11, (41, 60, 19, 17, 42))]


def test_pinned_node_counts_with_orbital_fixing():
    for g, kind, k, pinned, order in ORBITAL_PINS:
        out = solve_min(g, kind)
        assert (out.k, counters(out.stats), out.stats.group_order) == (k, pinned, order), (g.meta, kind)
        assert verify(g, out.witness, kind) is None
    for d, k, pinned in ORBITAL_REFUTATIONS:
        res = feasible_at(hypercube(d), CodeKind.RED_IC, k)
        assert res.witness is None and res.exhaustive
        assert counters(res.stats) == pinned, d
    assert automorphisms(torus(7, 7)).order == 392


def _vertex_transitive(max_n):
    """Every named instance with a provenance group on at most max_n vertices."""
    out = [torus(i, j) for i in range(3, max_n // 3 + 1) for j in range(3, max_n // i + 1)]
    out += [honeycomb_torus(m, n) for m in range(4, max_n // 4 + 1, 2) for n in range(4, max_n // m + 1, 2)]
    out += [hypercube(d) for d in range(1, max_n.bit_length())]
    return out


def _name(g):
    return g.meta["family"] + "-" + "x".join(map(str, g.meta["params"]))


def _check_against_plain(g):
    for kind in (CodeKind.IC, CodeKind.RED_IC):
        ref = solve_min(plain(g), kind)
        out = solve_min(g, kind)
        assert (out.status, out.k) == (ref.status, ref.k), (g.meta, kind)
        if not out.is_optimal:
            continue
        assert out.stats.group_order == automorphisms(g).order > 1
        assert verify(g, out.witness, kind) is None
        below = feasible_at(g, kind, out.k - 1)
        assert below.witness is None and below.exhaustive, (g.meta, kind)
        at = feasible_at(g, kind, out.k)
        assert at.witness is not None and len(at.witness) <= out.k
        assert verify(g, at.witness, kind) is None


@pytest.mark.stretch(reason="about 3-5 s")
def test_stretch_torus_7x7_optimal_at_25():
    g = torus(7, 7)
    out = solve_min(g, CodeKind.RED_IC)
    assert (out.status, out.k, out.stats.group_order) == ("optimal", 25, 392)
    assert counters(out.stats) == (228_113, 362_837, 112_983, 16, 533_369)
    assert verify(g, out.witness, CodeKind.RED_IC) is None


def test_false_provenance_is_refused():
    h = honeycomb_torus(4, 4)
    with pytest.raises(ValueError, match="not an automorphism"):
        solve_min(Graph(h.n, h.adj, meta={"family": "torus", "params": (4, 4)}))


# Q5 (32 vertices) is cheap and joins the instances up to 24 vertices in
# tier-1; the plain search on all instances up to 36 vertices takes minutes
@pytest.mark.parametrize("g", [*_vertex_transitive(24), hypercube(5)], ids=_name)
def test_orbital_fixing_matches_plain_search(g):
    _check_against_plain(g)


@pytest.mark.stretch(reason="minutes of plain search")
@pytest.mark.parametrize("g", [g for g in _vertex_transitive(36) if g.n > 24 and g.meta["family"] != "hypercube"],
                         ids=_name)
def test_stretch_orbital_fixing_matches_plain_search(g):
    _check_against_plain(g)


def test_search_counters_in_stats():
    out = solve_min(hypercube(4))
    assert out.stats.forced > 0 and out.stats.pruned > 0
    assert out.stats.pruned < out.stats.nodes
    assert feasible_at(hypercube(4), CodeKind.RED_IC, 9).stats.pruned > 0


def test_constraint_list_matches_literal_reference():
    # the order of the constraint list decides every node count
    rng = random.Random(17)
    disconnected = 0
    for _ in range(120):
        n = rng.randint(1, 40)
        p = rng.choice([0.03, 0.08, 0.15, 0.3])
        g = build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        disconnected += not g.is_connected()
        assert _constraint_masks(g) == literal_constraint_masks(g), (g.n, g.adj)
    assert disconnected >= 30


def _root_graphs():
    """Every tree and every cubic graph on n <= 12 vertices, and 300 seeded
    random graphs on 0 to 14 vertices."""
    rng = random.Random(39)
    return ([g for n in range(1, 13) for g in enum_trees(n)] + [g for n in range(4, 13, 2) for g in enum_cubic(n)]
            + [random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.2, 0.35, 0.5, 0.8])) for _ in range(300)])


def test_root_matches_literal_constraint_list():
    # _root reads F, the verdict and the masks with more than t members off
    # N[v], the edges and the open twins; the literal list holds every pair
    # at distance <= 2
    seen = {kind: [0, 0] for kind in CodeKind}  # graphs with a short constraint, graphs with F != 0
    for g in _root_graphs():
        masks = literal_constraint_masks(g)
        closed = [g.closed_nbhd(v) for v in range(g.n)]
        dom_and_edges = closed + [closed[u] ^ closed[v] for u, v in g.edges()]
        for kind in CodeKind:
            t = kind.req
            short = any(m.bit_count() < t for m in masks)
            forced = 0 if short else mask_of(v for m in masks if m.bit_count() == t for v in bits(m))
            reason, got, loose = _root(g, kind)
            assert (reason is not None) == (short or not g.n and kind is CodeKind.RED_IC), (g.adj, kind)
            assert got == forced, (g.adj, kind)
            kept = [] if short else [m for m in dom_and_edges if m.bit_count() > t]
            assert sorted(loose) == sorted(kept), (g.adj, kind)
            seen[kind][0] += short
            seen[kind][1] += forced != 0
    assert all(short and nonzero for short, nonzero in seen.values()), seen


def test_a_distance_two_mask_has_two_members_iff_open_twins():
    twins = 0
    for g in _root_graphs():
        nbrs = [set(bits(a)) for a in g.adj]
        for u, v in combinations(range(g.n), 2):
            if v not in nbrs[u] and nbrs[u] & nbrs[v]:  # distance 2
                size = (g.closed_nbhd(u) ^ g.closed_nbhd(v)).bit_count()
                assert size >= 2 and (size == 2) == (nbrs[u] == nbrs[v]), (g.adj, u, v)
                twins += size == 2
    assert twins > 0


# -- incremental propagation against a full-rescan reference ---------------------


class RescanSearch:
    """The search with propagation by a full rescan of every constraint at
    every node, kept as the reference that the incremental counters must
    reproduce node for node.  It shares only the constraint list.  With
    ``fixing`` off it skips fixing by the packing bound."""

    def __init__(self, search: _Search):
        self.masks, self.req = search.masks, search.kind.req
        self.n_dom, self.max_cover = search.g.n, search.max_cover
        self.full = search.g.full_mask()
        self.nodes = 0
        self.best = None
        self.cap = search.g.n + 1
        self.stop_at_first = search.stop_at_first
        self.done = False
        self.fixing = True

    def propagate(self, in_mask, out_mask):
        while True:
            avail = self.full & ~in_mask & ~out_mask
            unresolved = []
            forced = 0
            for i, m in enumerate(self.masks):
                r = self.req - (m & in_mask).bit_count()
                if r <= 0:
                    continue
                cand = m & avail
                c = cand.bit_count()
                if c < r:
                    return None
                if c == r:
                    forced |= cand
                else:
                    unresolved.append((cand, r, i))
            if not forced:
                return in_mask, unresolved
            in_mask |= forced

    def need(self, unresolved):
        """The lower bound; keeps the greedy packing's value in ``packed``
        and the free members it takes in ``used``."""
        used = packed = dom_deficit = 0
        for cand, r, i in sorted(unresolved, key=lambda e: (e[0].bit_count(), e[2])):
            if i < self.n_dom:
                dom_deficit += r
            if cand & used == 0:
                packed += r
                used |= cand
        self.packed, self.used = packed, used
        return max(packed, -(-dom_deficit // self.max_cover))

    def branch_vertex(self, unresolved):
        # least slack, then the most res when minimising (fail first) or the
        # least when deciding, then the least index
        way = 1 if self.stop_at_first else -1
        cand = min(unresolved, key=lambda e: (e[0].bit_count() - e[1], way * e[1], e[2]))[0]
        scores = {x: sum(c2 >> x & 1 for c2, _, _ in unresolved) for x in bits(cand)}
        return max(scores, key=lambda x: (scores[x], -x))

    def fixed(self, in_mask, out_mask, size):
        """The free vertices outside the packing when it ends one short of
        the gap: including any of them keeps the packing and adds a
        detector, so that child is cut.  Empty when ``fixing`` is off."""
        if not self.fixing or size + self.packed != self.cap - 1:
            return 0
        return self.full & ~in_mask & ~out_mask & ~self.used

    def dfs(self, in_mask, out_mask):
        self.nodes += 1
        while True:  # until no vertex is fixed; a conflict (None) cuts the node
            prop = self.propagate(in_mask, out_mask)
            if prop is None:
                return
            in_mask, unresolved = prop
            size = in_mask.bit_count()
            if not unresolved:
                if size < self.cap:
                    self.best, self.cap = in_mask, size
                    self.done = self.stop_at_first
                return
            if size + self.need(unresolved) >= self.cap:
                return
            fixed = self.fixed(in_mask, out_mask, size)
            if not fixed:
                break
            out_mask |= fixed
        bit = 1 << self.branch_vertex(unresolved)
        self.dfs(in_mask | bit, out_mask)
        if not self.done:
            self.dfs(in_mask, out_mask | bit)

    def root_lower(self):
        prop = self.propagate(0, 0)
        if prop is None:
            return self.full.bit_length() + 1
        in_mask, unresolved = prop
        return in_mask.bit_count() + (self.need(unresolved) if unresolved else 0)

    def greedy(self, in_mask):
        while True:
            prop = self.propagate(in_mask, 0)
            if prop is None:
                return None
            in_mask, unresolved = prop
            if not unresolved:
                return in_mask
            scores = {}
            for cand, r, _ in unresolved:
                for x in bits(cand):
                    scores[x] = scores.get(x, 0) + r
            in_mask |= 1 << max(scores, key=lambda x: (scores[x], -x))


class FixingLog(RescanSearch):
    """The rescan search, logging the in and out masks, the cap and the
    vertices fixed at every node where the packing bound fixes some."""

    def __init__(self, search):
        super().__init__(search)
        self.log = []

    def fixed(self, in_mask, out_mask, size):
        out = super().fixed(in_mask, out_mask, size)
        if out:
            self.log.append((in_mask, out_mask, self.cap, out))
        return out


def test_fixed_vertices_have_no_completion_below_the_cap():
    # wherever the packing bound fixes vertices, in a minimising search from
    # the greedy cap and in the refutation one below the optimum, a search
    # that does not fix finds no completion below the cap that includes any
    # one of them
    rng = random.Random(43)
    checked = {kind: 0 for kind in CodeKind}
    seen = 0
    while seen < 40:
        g = random_graph(rng, rng.randint(6, 16), rng.uniform(0.2, 0.7))
        kind = CodeKind.IC if seen % 2 else CodeKind.RED_IC
        if (exists_red_ic(g) if kind is CodeKind.RED_IC else exists_ic(g)) is not None:
            continue
        seen += 1
        search = search_for(g, kind)
        minimising, refuting = FixingLog(search), FixingLog(search)
        minimising.cap = search.greedy().bit_count()
        refuting.cap, refuting.stop_at_first = solve_min(g, kind).k, True
        for ref in (minimising, refuting):
            ref.dfs(0, 0)
            for in_mask, out_mask, cap, fixed in ref.log:
                for x in bits(fixed):
                    plain = RescanSearch(search)
                    plain.fixing, plain.cap, plain.stop_at_first = False, cap, True
                    plain.dfs(in_mask | 1 << x, out_mask)
                    assert plain.best is None, (g.adj, kind, cap, x)
                    checked[kind] += 1
    assert all(checked.values()), checked


def rescanned_counters(search):
    chosen, free = search.chosen, search.free
    res = [search.kind.req - (m & chosen).bit_count() for m in search.masks]
    return {
        "res": res,
        "cnt": [(m & free).bit_count() for m in search.masks],
        "active": {i for i, r in enumerate(res) if r > 0},
        "dom_deficit": sum(r for r in res[: search.g.n] if r > 0),
    }


def fields(search, packed):
    """The fields of a packed counter, one int per constraint in constraint
    order (field f holds constraint L - 1 - f), offset removed."""
    fb = search.w // 8
    raw = packed.to_bytes(len(search.masks) * fb, "little")  # raises on a borrow out of the top field
    return [int.from_bytes(raw[at:at + fb], "little") - search.big for at in range(0, len(raw), fb)][::-1]


def members(search, flags):
    """The constraints a query flags, each by the low bit of its field."""
    last = len(search.masks) - 1
    out = {last - b // search.w for b in bits(flags)}
    assert flags == sum(1 << search.w * (last - i) for i in out)
    return out


def maintained_counters(search):
    active, heavy = search._unmet()
    return {"res": fields(search, search.R), "cnt": fields(search, search.C),
            "active": members(search, active), "dom_deficit": search._deficit(active, heavy)}


class BoundedDict(dict):
    """A dict whose every stored value must lie in [0, top]."""

    def __init__(self, top):
        super().__init__()
        self.top = top

    def __setitem__(self, key, value):
        assert 0 <= value <= self.top
        super().__setitem__(key, value)


class CheckedSearch(_Search):
    """Recomputes every counter from the in and out masks at each node, and
    checks the two invariants that let the search skip conflicts and
    already-assigned orbit members: every active constraint has slack >= 1,
    and the node's stabiliser maps the included and excluded sets onto
    themselves (checked on its generators, which is enough).  Also checks
    that the packing bound equals the rescan's, at a gap it cannot reach,
    that the vertices it fixes at the node's gap, before any widening to
    orbits, are the rescan's, that the branch vertex is the rescan's, and
    that every value the packing caches lies in [0, ones]."""

    checked = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.kept = BoundedDict(self.ones)

    def _node(self):
        assert self.chosen & self.free == 0
        excluded = self.g.full_mask() & ~(self.chosen | self.free)
        counters = maintained_counters(self)
        assert counters == rescanned_counters(self)
        res, cnt, active = counters["res"], counters["cnt"], counters["active"]
        assert all(cnt[i] > res[i] for i in active)
        unresolved = [(self.masks[i] & self.free, res[i], i) for i in active]
        ref = RescanSearch(self)
        assert self._need(*self._unmet(), self.g.n + 1) == ref.need(unresolved)
        if active:
            assert self._branch_vertex(*self._unmet()) == ref.branch_vertex(unresolved)
            size = self.chosen.bit_count()
            if self._need(*self._unmet(), self.cap - size) < self.cap - size:
                ref.cap = self.cap
                assert self.spare == ref.fixed(self.chosen, excluded, size)
        if self.sym is not None:
            for p in self.sym.generators:  # every element of H is a product of them
                for m in (self.chosen, excluded):
                    assert mask_of(p[v] for v in bits(m)) == m
        self.checked += 1
        super()._node()


def at_root(search):
    """The assignment and every counter are back at the root: what the
    rescan's propagation includes from nothing assigned."""
    root = RescanSearch(search).propagate(0, 0)[0]
    return (search.chosen == root and search.free == search.g.full_mask() & ~root
            and maintained_counters(search) == rescanned_counters(search))


def test_incremental_counters_match_rescan():
    rng = random.Random(113)
    seen = 0
    while seen < 50:
        g = random_graph(rng, rng.randint(6, 14), rng.uniform(0.2, 0.7))
        kind = CodeKind.IC if seen % 2 else CodeKind.RED_IC
        if (exists_red_ic(g) if kind is CodeKind.RED_IC else exists_ic(g)) is not None:
            continue
        seen += 1
        search = search_for(g, kind, cls=CheckedSearch)
        ref = RescanSearch(search)
        incumbent = search.greedy()
        assert incumbent == ref.greedy(0)
        assert search.run(cap=incumbent.bit_count(), stop_at_first=False)
        assert search.checked > 0
        assert at_root(search)
        assert search.chosen == mask_of(forced_detectors(g, kind))  # the root's forced set
        ref.cap = incumbent.bit_count()
        ref.dfs(0, 0)
        best = ref.best if ref.best is not None else incumbent
        out = solve_min(g, kind)
        assert (out.witness, out.stats.nodes) == (tuple(bits(best)), ref.nodes)
        assert search.nodes == ref.nodes
        assert search.root_lower() == ref.root_lower()
        below = feasible_at(g, kind, out.k - 1)
        ref_below = RescanSearch(search)
        ref_below.cap, ref_below.stop_at_first = out.k, True
        ref_below.dfs(0, 0)
        assert below.witness is None and below.stats.nodes == ref_below.nodes


def test_interrupted_run_restores_the_root():
    g = hypercube(4)
    # the whole search takes 109 nodes
    search = search_for(g, CodeKind.RED_IC, Budget(max_nodes=50), CheckedSearch)
    assert not search.run(cap=g.n, stop_at_first=False)
    assert search.nodes == search.checked == 50
    assert at_root(search)


class CountingSearch(_Search):
    """Counts propagation passes, exclusions and those of them that leave an
    active slack below 0, and the packing bounds that cut their node or
    leave vertices to fix."""

    forces = excludes = conflicts = cuts = fixings = 0

    def _force(self):
        self.forces += 1
        return super()._force()

    def _exclude_orbits(self, fix):
        excluded = super()._exclude_orbits(fix)
        self.excludes += 1
        self.conflicts += excluded < 0
        return excluded

    def _need(self, active, heavy, gap):
        bound = super()._need(active, heavy, gap)
        self.cuts += bound >= gap
        self.fixings += bound < gap and self.spare != 0
        return bound


def _root_cases():
    """Seeded random graphs with a code of the kind, then Q4 for both kinds."""
    rng = random.Random(26)
    cases = []
    while len(cases) < 30:
        g = random_graph(rng, rng.randint(8, 16), rng.uniform(0.2, 0.7))
        kind = CodeKind.IC if len(cases) % 2 else CodeKind.RED_IC
        if (exists_red_ic(g) if kind is CodeKind.RED_IC else exists_ic(g)) is None:
            cases.append((g, kind))
    return cases + [(hypercube(4), CodeKind.IC), (hypercube(4), CodeKind.RED_IC)]


def test_root_is_propagated_once():
    excluded = fixed = slack_cuts = 0
    for g, kind in _root_cases():
        search = search_for(g, kind, cls=CountingSearch)
        assert search.forces == 1
        incumbent = search.greedy()
        search.root_lower()
        assert search.forces == 1
        search.cuts = search.fixings = 0
        assert search.run(cap=incumbent.bit_count(), stop_at_first=False)
        # each exclusion propagates once, unless it leaves an active slack
        # below 0; such a fixing counts as pruned without a bound cut
        assert search.forces == 1 + search.excludes - search.conflicts
        assert search.conflicts >= search.pruned - search.cuts
        excluded += search.excludes
        fixed += search.fixings
        slack_cuts += search.pruned - search.cuts
    assert excluded > 0 and fixed > 0 and slack_cuts > 0


def _trees_with_code():
    """Every tree on n <= 13 vertices with a RED:IC, and every one on
    n <= 10 with an IC, each with its kind."""
    return [(g, kind) for n in range(1, 14) for g in enum_trees(n) for kind in CodeKind
            if (kind is CodeKind.RED_IC or n <= 10)
            and (exists_red_ic(g) if kind is CodeKind.RED_IC else exists_ic(g)) is None]


def _closes(g, kind):
    """Whether F, the union of the constraints with exactly t members, has
    at least t members in every constraint, on the literal constraint list."""
    masks = literal_constraint_masks(g)
    forced = 0
    for m in masks:
        if m.bit_count() == kind.req:
            forced |= m
    return all((m & forced).bit_count() >= kind.req for m in masks)


def _closed_calls(g, kind, budget):
    """``solve_min``, then ``feasible_at`` one below its k and at it, each
    with ``elapsed`` zeroed, so that equality compares every other field."""
    out = solve_min(g, kind, budget)
    return [replace(r, stats=replace(r.stats, elapsed=0.0))
            for r in (out, feasible_at(g, kind, out.k - 1, budget), feasible_at(g, kind, out.k, budget))]


CLOSED_BUDGETS = [None, Budget(max_nodes=0), Budget(max_nodes=1)]


def test_closed_root_reports_what_the_search_reports(monkeypatch):
    cases = [(g, kind, budget) for g, kind in _trees_with_code() for budget in CLOSED_BUDGETS]
    closed = [_closed_calls(*case) for case in cases]
    root = solver._root

    def open_root(g, kind):  # F = 0 is no code, so every call searches
        reason, _, loose = root(g, kind)
        return reason, 0, loose

    monkeypatch.setattr(solver, "_root", open_root)
    for case, fast in zip(cases, closed):
        assert _closed_calls(*case) == fast, (case[0].adj, case[1], case[2])


def test_closed_root_builds_no_search(monkeypatch):
    cases = _trees_with_code()
    closing = [(g, kind) for g, kind in cases if _closes(g, kind)]
    # 317 of the 332 RED:IC trees close, and 2 of the 200 IC trees (P1, P3)
    assert (len(cases), len(closing)) == (532, 319)

    def refuse(*args):
        raise AssertionError("a closed root built a constraint list or a search")

    verified = []
    monkeypatch.setattr(solver, "verify", lambda *args: verified.append(args[1]) or verify(*args))
    monkeypatch.setattr(solver, "_constraint_masks", refuse)
    monkeypatch.setattr(solver, "_Search", refuse)
    for g, kind in closing:
        forced = forced_detectors(g, kind)
        for budget in (None, Budget(max_nodes=1)):
            verified.clear()
            out = solve_min(g, kind, budget)
            assert (out.status, out.witness, out.stats.nodes) == ("optimal", tuple(sorted(forced)), 1)
            assert verified == [mask_of(out.witness)]  # the witness is verified once
            assert feasible_at(g, kind, out.k - 1, budget).witness is None
            assert feasible_at(g, kind, out.k, budget).witness == out.witness
    built = []
    monkeypatch.setattr(solver, "_constraint_masks", _constraint_masks)
    monkeypatch.setattr(solver, "_Search", lambda *args: built.append(args[0]) or _Search(*args))
    for g in (hypercube(3), torus(4, 4)):
        solve_min(g)
        feasible_at(g, CodeKind.RED_IC, g.n - 1)
    assert len(built) == 4


def _formula(rng, n_vars, n_clauses):
    """Random clauses over three distinct variables, redrawn until every
    variable occurs, as the reduction requires."""
    while True:
        clauses = tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3))
                        for _ in range(n_clauses))
        phi = CnfFormula(n_vars, clauses)
        if len(phi.variables_used()) == n_vars:
            return phi


def test_open_root_is_rejected_before_verify(monkeypatch):
    # on a reduction graph F misses a kept edge mask, so the root does not
    # close and the search's witness is the only set ``verify`` sees
    verified = []
    monkeypatch.setattr(solver, "verify", lambda *args: verified.append(args[1]) or verify(*args))
    rng = random.Random(40)
    formulas = [_formula(rng, 8, 34) for _ in range(3)]
    solved = 0
    for report in chain(verify_reduction_equivalence(2), map(verify_reduction, formulas)):
        assert report.consistent and verified == [mask_of(report.outcome.witness)], report
        verified.clear()
        solved += 1
    assert solved == 8 + 28 + 3


@pytest.mark.parametrize("budget", [None, Budget(max_nodes=3)], ids=["unbudgeted", "nodes<=3"])
def test_entry_points_in_any_order(budget):
    # every order that does not end with greedy, which leaves the assignment
    # where its cover stopped
    orders = [o for o in permutations(("greedy", "run", "root_lower")) if o[-1] != "greedy"]
    for g, kind in _root_cases():
        cap = search_for(g, kind).greedy().bit_count()
        seen = set()
        for order in orders:
            search = search_for(g, kind, budget)
            calls = {"greedy": search.greedy, "root_lower": search.root_lower,
                     "run": lambda: (search.run(cap=cap, stop_at_first=False), search.best)}
            results = {name: calls[name]() for name in order}
            assert at_root(search)
            seen.add((tuple(sorted(results.items())), search.nodes, search.forced, search.pruned,
                      search.orbit_fixed))
        assert len(seen) == 1, (g.adj, kind)


def wheel(rim):
    return build_graph(rim + 1, [(0, v) for v in range(1, rim + 1)] + [(v, v % rim + 1) for v in range(1, rim + 1)])


def test_two_byte_fields_on_a_wheel():
    # the hub's closed neighbourhood has 65 members, so a counter field needs
    # two bytes to hold 2 * 65 + 2 without reaching its high bit
    g = wheel(64)
    for kind, k, nodes in [(CodeKind.IC, 32, 65), (CodeKind.RED_IC, 64, 1)]:
        out = solve_min(g, kind)
        assert (out.k, out.stats.nodes) == (k, nodes), kind
        search = search_for(g, kind, cls=CheckedSearch)
        assert search.w == 16
        incumbent = search.greedy()
        assert search.run(cap=incumbent.bit_count(), stop_at_first=False)
        assert search.nodes == search.checked == nodes and at_root(search)
        ref = RescanSearch(search)
        ref.cap = incumbent.bit_count()
        ref.dfs(0, 0)
        assert ref.nodes == nodes and (ref.best or incumbent).bit_count() == k


# on Q5 as an IC the packing bound fixes sets that are not unions of
# orbits, and their widened exclusions must keep the orbit invariant
@pytest.mark.parametrize("g", [torus(4, 4), torus(3, 5), honeycomb_torus(4, 4), hypercube(4), hypercube(5)], ids=_name)
def test_counters_hold_under_orbital_fixing(g):
    # an exclusion takes whole H-orbits of free vertices, or nothing when it
    # would leave an active slack below 0, so the orbit invariant and the
    # slack invariant both hold at every node
    for kind in (CodeKind.IC, CodeKind.RED_IC):
        search = search_for(g, kind, cls=CheckedSearch)
        incumbent = search.greedy()
        assert search.run(cap=incumbent.bit_count(), stop_at_first=False)
        assert search.checked > 0 and search.orbit_fixed > 0
        assert at_root(search)
        assert verify(g, search.best or incumbent, kind) is None


def _outcomes():
    """Every result and counter of the orbital pins and their refutations."""
    out = []
    for g, kind, *_ in ORBITAL_PINS:
        o = solve_min(g, kind)
        out.append((o.k, o.witness, counters(o.stats)))
    for d, k, _ in ORBITAL_REFUTATIONS:
        r = feasible_at(hypercube(d), CodeKind.RED_IC, k)
        out.append((r.witness, r.exhaustive, counters(r.stats)))
    return out


def test_conflict_cache_cannot_change_a_result(monkeypatch):
    # with no room the cache is emptied before every insert, so each packed
    # constraint's conflict set is built afresh
    cached = _outcomes()
    monkeypatch.setattr(solver, "_KEPT_BYTES", 0)
    g = hypercube(4)
    search = search_for(g, CodeKind.RED_IC)
    assert search.kept_room == 0
    assert search.run(cap=g.n, stop_at_first=False)
    assert len(search.kept) == 1
    assert _outcomes() == cached


class PeakDict(dict):
    """A dict that records the most entries it has held, and how often it
    was emptied."""

    peak = clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


@pytest.mark.parametrize("g, kind, nodes, budget, cleared", [
    (torus(6, 6), CodeKind.RED_IC, 3_445, solver._KEPT_BYTES, False),
    (torus(6, 6), CodeKind.RED_IC, 3_445, 100_000, True),  # 396 entries, of 3,184 inserts
    (wheel(64), CodeKind.IC, 65, 20 * 2_145 * 2, True),  # 20 entries of two-byte fields
], ids=["torus-6x6", "torus-6x6-small", "wheel-64-small"])
def test_conflict_cache_stays_within_its_budget(monkeypatch, g, kind, nodes, budget, cleared):
    monkeypatch.setattr(solver, "_KEPT_BYTES", budget)
    search = search_for(g, kind)
    search.kept = PeakDict()
    assert search.run(cap=search.greedy().bit_count(), stop_at_first=False)
    assert search.nodes == nodes
    assert 0 < search.kept.peak * len(search.masks) * search.w // 8 <= budget
    assert (search.kept.clears > 0) == cleared
