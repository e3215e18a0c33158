"""The searches that found the frozen gadgets, kept as evidence for tests.

``redic`` builds the 3-SAT reduction from the frozen ``reduction.f_gadget``
and ``reduction.h_gadget``, and the 4/7 cubic rings from the frozen
``constructions.g14_gadget``; no path of the program searches.  The tests
re-run these searches to show that the frozen data is what they find.  Each
search is finite and returns None only when its whole space has been tried.

``find_f_gadget`` enumerates 8-vertex, 8-edge variable fragments and keeps
the first that passes ``_deltas_ok``, ``_forced_ok`` and
``_assign_f_roles``.  ``g14_gadget_search`` cuts two disjoint edges from the
cubic graphs on 14 vertices, parents ordered by (minimum, stream index), and
keeps the first fragment with a port-independent code of size 8.  The clause
star needs no search: every 2-edge graph on 3 vertices is the path P3.
"""

from itertools import combinations

from redic import generators
from redic.constructions import G14Gadget
from redic.detection import CodeKind
from redic.graphs import Graph, bits, build_graph
from redic.reduction import GadgetSpec
from redic.solver import feasible_at, solve_min


def _deltas_ok(g: Graph, s0_mask: int, x: int, nx: int) -> bool:
    """Checklist for a candidate variable fragment.

    With only the six permanent detectors: every vertex 2-dominated; every
    pair either 2-distinguished outright or short by exactly one, and each
    deficient pair must be repaired by x alone and by nx alone; the pair
    (x, nx) is exempt (clause edges handle it) but must not lose its only
    distinguisher when one literal is chosen.
    """
    n = g.n
    closed = g._closed
    for v in range(n):
        if (closed[v] & s0_mask).bit_count() < 2:
            return False
    deficient = []
    for u in range(n):
        for v in range(u + 1, n):
            d = closed[u] ^ closed[v]
            got = (d & s0_mask).bit_count()
            if got >= 2:
                continue
            if {u, v} == {x, nx}:
                # selecting one literal contributes one; a clause edge must
                # supply the second, so the chosen literal must still count
                if not (d >> x & 1) or not (d >> nx & 1):
                    return False
                continue
            if got != 1 or u in (x, nx) or v in (x, nx):
                return False
            deficient.append(d)
    if not deficient:
        return False  # nothing would force the literals
    for d in deficient:
        if not (d >> x & 1) or not (d >> nx & 1):
            return False
    return True


def _forced_ok(g: Graph, s0_mask: int) -> bool:
    """The six permanent detectors must be forced: each is a leaf or a
    support of a leaf, and neither literal may end up forced itself."""
    forced = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            forced |= g.closed_nbhd(v)
    if forced & ~s0_mask:
        return False
    return forced == s0_mask


def _assign_f_roles(g: Graph) -> dict[str, int] | None:
    leaves = [v for v in range(2, 8) if g.degree(v) == 1]
    supports = [v for v in range(2, 8) if any(g.degree(u) == 1 for u in bits(g.adj[v]))]
    if len(leaves) != 4 or len(supports) != 2:
        return None
    p, r = supports
    arm_p = sorted(v for v in leaves if g.has_edge(v, p))
    arm_r = sorted(v for v in leaves if g.has_edge(v, r))
    if len(arm_p) != 2 or len(arm_r) != 2:
        return None
    return {"x": 0, "nx": 1, "y": arm_p[0], "p": p, "u": arm_p[1],
            "z": arm_r[0], "r": r, "v": arm_r[1]}


def find_f_gadget() -> GadgetSpec | None:
    """Exhaustive search for an 8-vertex, 8-edge variable fragment.

    Vertices 0 and 1 are the literals, 2..7 the permanent detectors.  Edge
    budgets follow from 2-domination: each literal needs two detector
    neighbors, and six detectors need at least three internal edges, which
    caps the loose choices enough to enumerate outright.  Fragments are
    also screened for the leaf/support structure that makes the six
    detectors forced in every code.
    """
    s0 = tuple(range(2, 8))
    s0_mask = sum(1 << v for v in s0)
    internal = list(combinations(s0, 2))
    lit_choices = list(combinations(s0, 2)) + list(combinations(s0, 3))
    for x_nb in lit_choices:
        for nx_nb in lit_choices:
            rest = 8 - len(x_nb) - len(nx_nb)
            if rest < 3:
                continue
            for internal_edges in combinations(internal, rest):
                edges = [(0, v) for v in x_nb] + [(1, v) for v in nx_nb] + list(internal_edges)
                g = build_graph(8, edges)
                if not _deltas_ok(g, s0_mask, 0, 1):
                    continue
                if not _forced_ok(g, s0_mask):
                    continue
                roles = _assign_f_roles(g)
                if roles is None:
                    continue
                return GadgetSpec("variable", 8, tuple(sorted(edges)), roles, s0)
    return None


def g14_gadget_search() -> G14Gadget | None:
    """Search for a gadget among cubic graphs on 14 vertices minus two
    disjoint edges.

    Candidate parents are scanned lowest known minimum first, ties in
    stream order, so the gadget found depends on the order of
    ``cubic_graphs_cached(14)``; for each, every unordered pair of
    vertex-disjoint edges is cut and the remaining fragment is asked for a
    code of size 8 whose validity does not depend on the ports' missing
    edges.
    """
    parents = []
    for idx, g in enumerate(generators.cubic_graphs_cached(14)):
        out = solve_min(g, CodeKind.RED_IC)
        if out.is_optimal:
            parents.append((out.k, idx, g))
    parents.sort(key=lambda t: (t[0], t[1]))
    for _, _, g in parents:
        edges = g.edges()
        for i in range(len(edges)):
            u1, v1 = edges[i]
            for jdx in range(i + 1, len(edges)):
                u2, v2 = edges[jdx]
                if len({u1, v1, u2, v2}) != 4:
                    continue
                cut = [e for kk, e in enumerate(edges) if kk not in (i, jdx)]
                frag = build_graph(14, cut)
                if not frag.is_connected():
                    continue
                res = feasible_at(frag, CodeKind.RED_IC, 8)
                if res.witness is not None:
                    return G14Gadget(frag, (u1, v1, u2, v2), res.witness)
    return None
