import pytest

from redic.graphs import Graph, complete_graph, cycle_graph, cylinder, honeycomb_torus, hypercube, ladder, torus
from redic.symmetry import automorphisms


def _compose(p, q):
    return tuple(p[v] for v in q)


def _closure(n, generators):
    """Every product of the generators, by breadth-first search."""
    ident = tuple(range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        frontier = [q for q in dict.fromkeys(_compose(s, p) for p in frontier for s in generators)
                    if q not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("g", [
    torus(3, 3), torus(3, 4), torus(4, 4), torus(5, 5), torus(4, 6),
    honeycomb_torus(4, 4), honeycomb_torus(4, 6), honeycomb_torus(6, 4),
    hypercube(0), hypercube(1), hypercube(2), hypercube(3), hypercube(4),
], ids=repr)
def test_provenance_group_is_what_its_generators_make(g):
    grp = automorphisms(g)
    group = _closure(g.n, grp.generators)
    assert len(group) == grp.order
    assert {_compose(grp.transversal(x), s) for x in range(g.n) for s in grp.stabiliser0} == group
    assert [grp.transversal(x)[0] for x in range(g.n)] == list(range(g.n))
    edges = set(g.edges())
    for p in group:
        assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
    for x in range(g.n):
        stab = grp.stabiliser(x)
        fixing = {p for p in group if p[x] == x}
        assert (set(stab.elements) if stab else {tuple(range(g.n))}) == fixing
        assert grp.orbit(x) == g.full_mask()


def test_provenance_group_orders():
    assert automorphisms(torus(6, 6)).order == 288  # translations, two reflections, transpose
    assert automorphisms(torus(7, 7)).order == 392
    assert automorphisms(torus(6, 7)).order == 168
    assert automorphisms(honeycomb_torus(6, 6)).order == 72
    assert automorphisms(hypercube(5)).order == 32 * 120
    assert automorphisms(hypercube(7)).order == 128 * 5040
    assert automorphisms(hypercube(8)) is None  # S_8 is not held: plain search


def test_no_group_without_provenance():
    t = torus(4, 4)
    for g in (Graph(t.n, t.adj), cycle_graph(6), complete_graph(5), cylinder(5), ladder(4)):
        assert automorphisms(g) is None


def test_false_provenance_raises():
    h = honeycomb_torus(6, 6)
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphisms(Graph(h.n, h.adj, meta={"family": "torus", "params": (6, 6)}))
    t = torus(4, 8)
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphisms(Graph(t.n, t.adj, meta={"family": "hypercube", "params": (5,)}))
    t = torus(4, 9)
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphisms(Graph(t.n, t.adj, meta={"family": "torus", "params": (6, 6)}))
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphisms(Graph(t.n, t.adj, meta={"family": "torus", "params": (9, 4)}))
