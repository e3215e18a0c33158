import random

import pytest

from redic.graphs import (Graph, complete_graph, cycle_graph, cylinder, honeycomb_torus, hypercube, ladder,
                          mask_of, torus)
from redic.symmetry import PermutationGroup, automorphisms


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


def _fixing(group, x):
    return {p for p in group if p[x] == x}


def _closed(n, grp):
    """The elements of a group as returned, None standing for the trivial one."""
    return _closure(n, grp.generators) if grp is not None else {tuple(range(n))}


def _matches_closure(n, grp):
    """Checks orbits, stabilisers and orders against the closure, two
    levels deep as the search nests stabilisers; returns the closure.  The
    order comes last: a chain whose stabilisers do not shrink never ends."""
    group = _closure(n, grp.generators)
    for x in range(n):
        assert grp.orbit(x) == mask_of(p[x] for p in group)
        stab, fixing = grp.stabiliser(x), _fixing(group, x)
        assert _closed(n, stab) == fixing
        for y in range(n) if stab is not None else ():
            assert stab.orbit(y) == mask_of(p[y] for p in fixing)
            assert _closed(n, stab.stabiliser(y)) == _fixing(fixing, y)
        assert (stab.order if stab is not None else 1) == len(fixing)
    assert grp.order == len(group)
    return group


@pytest.mark.parametrize("g", [
    torus(3, 3), torus(3, 4), torus(4, 4), torus(5, 5), torus(4, 6),
    honeycomb_torus(4, 4), honeycomb_torus(4, 6), honeycomb_torus(6, 4),
    hypercube(0), hypercube(1), hypercube(2), hypercube(3), hypercube(4),
    torus(6, 6), honeycomb_torus(6, 6), hypercube(5),  # the lattice-search instances
], ids=repr)
def test_provenance_group_is_what_its_generators_make(g):
    group = _matches_closure(g.n, automorphisms(g))
    edges = set(g.edges())
    for p in group:
        assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges


def test_random_groups_are_what_their_generators_make():
    # random generators on a few points: cyclic, intransitive, symmetric
    # and alternating groups, and some whose stabilisers a filter keyed
    # on the moved point alone gets wrong
    rng = random.Random(2011)
    for _ in range(100):
        n = rng.randint(2, 6)
        _matches_closure(n, PermutationGroup(n, [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]))


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


def test_a_group_need_not_be_transitive():
    # on the 3x3 torus, the column translation and the column reflection
    # keep each vertex in its row: orbits of 3, a group of order 6
    right = tuple(v // 3 * 3 + (v + 1) % 3 for v in range(9))
    flip = tuple(v // 3 * 3 + -v % 3 for v in range(9))
    for gens in ([right, flip], [flip, right], [flip, right, right, tuple(range(9))]):
        grp = PermutationGroup(9, gens)
        assert grp.generators in ((right, flip), (flip, right))  # deduplicated, no identity
        assert [grp.orbit(x) for x in range(9)] == [0b111] * 3 + [0b111000] * 3 + [0b111000000] * 3
        assert len(_matches_closure(9, grp)) == grp.order == 6
    assert PermutationGroup(9, [right, tuple(range(3, 9)) + (0, 1, 2), flip]).order == 18
    trivial = PermutationGroup(9, [tuple(range(9))])
    assert (trivial.generators, trivial.order, trivial.orbit(4), trivial.stabiliser(4)) == ((), 1, 1 << 4, None)
