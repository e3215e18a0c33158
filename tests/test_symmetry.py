import pytest

from redic.graphs import Graph, complete_graph, cycle_graph, cylinder, honeycomb_torus, hypercube, ladder, torus
from redic.symmetry import Automorphisms, automorphisms


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
    torus(6, 6), honeycomb_torus(6, 6), hypercube(5),  # the lattice-search instances
], ids=repr)
def test_provenance_group_is_what_its_generators_make(g):
    grp = automorphisms(g)
    group = _closure(g.n, grp.generators)
    assert len(group) == grp.order
    assert {_compose(grp.transversal[x], s) for x in range(g.n) for s in grp.stabiliser0} == group
    assert [grp.transversal[x][0] for x in range(g.n)] == list(range(g.n))
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
    # no vertex 0 for a group to move
    assert automorphisms(Graph(0, (), meta={"family": "torus", "params": (0, 5)})) is None


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
    h = honeycomb_torus(4, 8)
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphisms(Graph(h.n, h.adj, meta={"family": "honeycomb_torus", "params": (8, 4)}))
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphisms(Graph(32, hypercube(5).adj, meta={"family": "honeycomb_torus", "params": (4, 8)}))


def test_generators_must_reach_every_vertex():
    # on the 3x3 torus, the column translation and the column reflection
    # keep vertex 0 in its row: an orbit of 3, not a transitive group
    right = tuple(v // 3 * 3 + (v + 1) % 3 for v in range(9))
    flip = tuple(v // 3 * 3 + -v % 3 for v in range(9))
    with pytest.raises(ValueError, match="take vertex 0 to 3 of 9 vertices"):
        Automorphisms(9, [right], [flip])
    with pytest.raises(ValueError, match="a fixer moves vertex 0"):
        Automorphisms(9, [flip], [right])
    assert Automorphisms(9, [right, tuple(range(3, 9)) + (0, 1, 2)], [flip]).order == 18
