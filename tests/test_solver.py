import random
from itertools import combinations, permutations

import pytest

from redic import existence, solver
from redic.detection import CodeKind, verify
from redic.existence import closed_twins, exists_ic, exists_red_ic
from redic.generators import enum_cubic
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
from redic.solver import Budget, _constraint_masks, _Search, feasible_at, forced_detectors, lower_bound, solve_min
from redic.symmetry import Automorphisms, automorphisms

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


def test_wall_clock_budget_is_honoured():
    # the clock is read every 256 nodes; torus 6x6 needs 11,845 to finish
    g = torus(6, 6)
    out = solve_min(g, budget=Budget(max_seconds=0))
    assert (out.status, out.stats.nodes) == ("bounded", 256)
    assert verify(g, out.witness, CodeKind.RED_IC) is None
    res = feasible_at(g, CodeKind.RED_IC, 17, budget=Budget(max_seconds=0))
    assert (res.witness, res.exhaustive, res.stats.nodes) == (None, False, 256)


def test_empty_and_tiny_graphs():
    empty = build_graph(0, [])
    assert solve_min(empty, CodeKind.IC).k == 0
    assert solve_min(empty, CodeKind.RED_IC).status == "infeasible"
    single = build_graph(1, [])
    assert solve_min(single, CodeKind.IC).k == 1
    assert solve_min(single, CodeKind.RED_IC).status == "infeasible"


def plain(g):
    """The same graph without builder provenance, so searched without symmetry."""
    return Graph(g.n, g.adj)


def test_pinned_node_counts():
    # the search is deterministic, so these counts are exact on every machine;
    # a change to them is a change to the search and must be re-baselined.
    # The graphs carry no provenance, so this is the plain search.
    red, ic = CodeKind.RED_IC, CodeKind.IC
    for g, kind, k, nodes in [
        (torus(4, 4), red, 10, 1_907),
        (honeycomb_torus(4, 4), red, 11, 257),
        (hypercube(4), ic, 7, 1_237),
        (hypercube(4), red, 10, 1_881),
        (hypercube(5), red, 12, 2_465),
    ]:
        out = solve_min(plain(g), kind)
        assert (out.k, out.stats.nodes) == (k, nodes), (g.meta, kind)
        assert (out.stats.group_order, out.stats.orbit_fixed) == (1, 0)
    for d, k, nodes in [(4, 9, 1_881), (5, 11, 2_451)]:
        res = feasible_at(plain(hypercube(d)), red, k)
        assert res.witness is None and res.exhaustive
        assert res.stats.nodes == nodes, d


# the same instances as above and the lattice-search ones, built by their
# named builders, so the search uses the group their provenance names:
# (graph, kind, optimum, nodes, group order), then the refutations
# (dimension, k, nodes) of feasible_at on the hypercube
ORBITAL_PINS = [
    (torus(4, 4), CodeKind.RED_IC, 10, 517, 128),
    (honeycomb_torus(4, 4), CodeKind.RED_IC, 11, 117, 32),
    (hypercube(4), CodeKind.IC, 7, 85, 384),
    (hypercube(4), CodeKind.RED_IC, 10, 267, 384),
    (hypercube(5), CodeKind.RED_IC, 12, 91, 3_840),
    (torus(6, 6), CodeKind.RED_IC, 18, 11_845, 288),
    (honeycomb_torus(6, 6), CodeKind.RED_IC, 24, 25_235, 72),
    (hypercube(5), CodeKind.IC, 10, 893, 3_840),
]
ORBITAL_REFUTATIONS = [(4, 9, 267), (5, 11, 77)]


def test_pinned_node_counts_with_orbital_fixing():
    for g, kind, k, nodes, order in ORBITAL_PINS:
        out = solve_min(g, kind)
        assert (out.k, out.stats.nodes, out.stats.group_order) == (k, nodes, order), (g.meta, kind)
        assert verify(g, out.witness, kind) is None
    for d, k, nodes in ORBITAL_REFUTATIONS:
        res = feasible_at(hypercube(d), CodeKind.RED_IC, k)
        assert res.witness is None and res.exhaustive
        assert res.stats.nodes == nodes, d
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


@pytest.mark.stretch(reason="about 12-14 s")
def test_stretch_torus_7x7_optimal_at_25():
    g = torus(7, 7)
    out = solve_min(g, CodeKind.RED_IC)
    assert (out.status, out.k, out.stats.nodes, out.stats.group_order) == ("optimal", 25, 905_259, 392)
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


# -- incremental propagation against a full-rescan reference ---------------------


class RescanSearch:
    """The search with propagation by a full rescan of every constraint at
    every node, kept as the reference that the incremental counters must
    reproduce node for node.  It shares only the constraint list."""

    def __init__(self, search: _Search):
        self.masks, self.req = search.masks, search.kind.req
        self.n_dom, self.max_cover = search.n_dom, search.max_cover
        self.full = search.g.full_mask()
        self.nodes = 0
        self.best = None
        self.cap = search.g.n + 1
        self.stop_at_first = False
        self.done = False

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
        used = packed = dom_deficit = 0
        for cand, r, i in sorted(unresolved, key=lambda e: (e[0].bit_count(), e[2])):
            if i < self.n_dom:
                dom_deficit += r
            if cand & used == 0:
                packed += r
                used |= cand
        return max(packed, -(-dom_deficit // self.max_cover))

    def branch_vertex(self, unresolved):
        cand = min(unresolved, key=lambda e: (e[0].bit_count() - e[1], e[0].bit_count(), e[2]))[0]
        scores = {x: sum(c2 >> x & 1 for c2, _, _ in unresolved) for x in bits(cand)}
        return max(scores, key=lambda x: (scores[x], -x))

    def dfs(self, in_mask, out_mask):
        self.nodes += 1
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


def rescanned_counters(search):
    chosen, free = search.chosen, search.free
    res = [search.kind.req - (m & chosen).bit_count() for m in search.masks]
    return {
        "res": res,
        "cnt": [(m & free).bit_count() for m in search.masks],
        "active": {i for i, r in enumerate(res) if r > 0},
        "dom_deficit": sum(r for r in res[: search.n_dom] if r > 0),
    }


def fields(search, packed):
    """The fields of a packed counter, one int per constraint, offset removed."""
    fb = search.w // 8
    raw = packed.to_bytes(len(search.masks) * fb, "little")  # raises on a borrow out of the top field
    return [int.from_bytes(raw[at:at + fb], "little") - search.big for at in range(0, len(raw), fb)]


def members(search, flags):
    """The constraints a query flags, each by the low bit of its field."""
    out = {b // search.w for b in bits(flags)}
    assert flags == sum(1 << search.w * i for i in out)
    return out


def maintained_counters(search):
    active, heavy = search._unmet()
    return {"res": fields(search, search.R), "cnt": fields(search, search.C),
            "active": members(search, active), "dom_deficit": search._deficit(active, heavy)}


class CheckedSearch(_Search):
    """Recomputes every counter from the in and out masks at each node, and
    checks the two invariants that let the search skip conflicts and
    already-assigned orbit members: every active constraint has slack >= 1,
    and the node's stabiliser maps the included and excluded sets onto
    themselves (checked on the generators of the whole group).  Also checks
    that the packing bound equals the rescan's, at a gap it cannot reach."""

    checked = 0

    def _node(self):
        assert self.chosen & self.free == 0
        excluded = self.g.full_mask() & ~(self.chosen | self.free)
        counters = maintained_counters(self)
        assert counters == rescanned_counters(self)
        res, cnt, active = counters["res"], counters["cnt"], counters["active"]
        assert all(cnt[i] > res[i] for i in active)
        unresolved = [(self.masks[i] & self.free, res[i], i) for i in active]
        assert self._need(*self._unmet(), self.g.n + 1) == RescanSearch(self).need(unresolved)
        if self.sym is not None:
            perms = self.sym.generators if isinstance(self.sym, Automorphisms) else self.sym.elements
            for p in perms:
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
    search = search_for(g, CodeKind.RED_IC, Budget(max_nodes=200), CheckedSearch)
    assert not search.run(cap=g.n, stop_at_first=False)
    assert search.nodes == search.checked == 200
    assert at_root(search)


class CountingSearch(_Search):
    """Counts propagation passes and exclusions."""

    forces = excludes = 0

    def _force(self):
        self.forces += 1
        return super()._force()

    def _exclude(self, x):
        self.excludes += 1
        return super()._exclude(x)


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
    excluded = 0
    for g, kind in _root_cases():
        search = search_for(g, kind, cls=CountingSearch)
        assert search.forces == 1
        incumbent = search.greedy()
        search.root_lower()
        assert search.forces == 1
        assert search.run(cap=incumbent.bit_count(), stop_at_first=False)
        assert search.forces == 1 + search.excludes
        excluded += search.excludes
    assert excluded > 0


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


@pytest.mark.parametrize("g", [torus(4, 4), torus(3, 5), honeycomb_torus(4, 4), hypercube(4)], ids=_name)
def test_counters_hold_under_orbital_fixing(g):
    # each member of an orbit is looked at again before it is excluded, so no
    # vertex is excluded after propagation has included it
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
        out.append((o.k, o.witness, o.stats.nodes, o.stats.pruned, o.stats.forced))
    for d, k, _ in ORBITAL_REFUTATIONS:
        r = feasible_at(hypercube(d), CodeKind.RED_IC, k)
        out.append((r.witness, r.exhaustive, r.stats.nodes, r.stats.pruned, r.stats.forced))
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
    """A dict that records the most entries it has held."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


@pytest.mark.parametrize("g, kind, nodes, budget", [
    (torus(6, 6), CodeKind.RED_IC, 11_845, solver._KEPT_BYTES),
    (torus(6, 6), CodeKind.RED_IC, 11_845, 100_000),  # 396 entries, fewer than the search makes
    (wheel(64), CodeKind.IC, 65, 20 * 2_145 * 2),  # 20 entries of two-byte fields
], ids=["torus-6x6", "torus-6x6-small", "wheel-64-small"])
def test_conflict_cache_stays_within_its_budget(monkeypatch, g, kind, nodes, budget):
    monkeypatch.setattr(solver, "_KEPT_BYTES", budget)
    search = search_for(g, kind)
    search.kept = PeakDict()
    assert search.run(cap=search.greedy().bit_count(), stop_at_first=False)
    assert search.nodes == nodes
    assert 0 < search.kept.peak * len(search.masks) * search.w // 8 <= budget
