import random
from collections import Counter

import pytest

from redic.detection import CodeKind
from redic.existence import (
    NoCode,
    closed_twins,
    exists_ic,
    exists_red_ic,
    has_red_ic,
    levels_have_red_ic,
)
from redic.generators import tree_graph, tree_levels, tree_parents
from redic.graphs import bits, build_graph, complete_graph, cycle_graph, path_graph, star_graph
from redic.tables import TREE_REFERENCE

from literal import literal_constraint_masks, literal_verify, random_graph


def random_connected(rng, n):
    while True:
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        if g.is_connected():
            return g


@pytest.mark.parametrize("why, witness, text", [
    ("too-small", (), "component () has fewer than 4 vertices"),
    ("too-small", (0, 1, 2), "component (0,1,2) has fewer than 4 vertices"),
    ("closed-twins", (), "closed twins ()"),
    ("closed-twins", (3, 4), "closed twins (3,4)"),
    ("support-degree", (), "support vertex has degree 2 or less"),
    ("support-degree", (1, 0), "support vertex 1 has degree 2 or less"),
    ("triangle", (), "triangle edge () has closed-neighborhood difference below 2"),
    ("triangle", (0, 1, 2), "triangle edge (0,1,2) has closed-neighborhood difference below 2"),
])
def test_reason_text(why, witness, text):
    assert str(NoCode(why, witness)) == text


def test_closed_twins_examples():
    k5 = complete_graph(5)
    assert len(closed_twins(k5)) == 10
    assert closed_twins(cycle_graph(4)) == []
    tri_pendant = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert closed_twins(tri_pendant) == [(1, 2)]


def test_exists_examples():
    assert exists_red_ic(path_graph(4)).why == "support-degree"
    assert exists_red_ic(complete_graph(5)).why == "closed-twins"
    assert exists_red_ic(star_graph(3)) is None
    assert has_red_ic(cycle_graph(4))
    assert exists_red_ic(path_graph(3)).why == "too-small"


def test_triangle_rule():
    # a triangle edge whose endpoints differ in one vertex only
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])
    # N[0]={0,1,2}, N[1]={0,1,2,3}: difference {3} is too small
    res = exists_red_ic(g)
    assert res is not None and res.why == "triangle"


def test_exists_matches_full_vertex_set_oracle():
    rng = random.Random(23)
    for _ in range(500):
        g = random_connected(rng, rng.randint(4, 12))
        expected = literal_verify(g, range(g.n), CodeKind.RED_IC) is None
        assert has_red_ic(g) == expected


def test_disconnected_decided_per_component():
    # one good component and one tiny one
    edges = star_graph(3).edges() + [(4, 5)]
    g = build_graph(6, edges)
    res = exists_red_ic(g)
    assert res is not None and res.why == "too-small" and res.witness == (4, 5)
    # two good components
    edges = star_graph(3).edges() + [(u + 4, v + 4) for u, v in star_graph(3).edges()]
    assert exists_red_ic(build_graph(8, edges)) is None


def test_exists_ic_is_twin_freeness():
    assert exists_ic(complete_graph(3)).why == "closed-twins"
    assert exists_ic(path_graph(4)) is None
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10))
        twins = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if g.closed_nbhd(u) == g.closed_nbhd(v)]
        assert closed_twins(g) == twins
        # the witness is the lexicographically least pair
        assert exists_ic(g) == (NoCode("closed-twins", twins[0]) if twins else None)


def _with_pendant_paths(rng, g):
    """g with up to three paths of 1-3 new vertices, each hung from a vertex."""
    n, edges = g.n, g.edges()
    for _ in range(rng.randint(0, 3) if g.n else 0):
        at = rng.randrange(g.n)
        for _ in range(rng.randint(1, 3)):
            edges.append((at, n))
            at, n = n, n + 1
    return build_graph(n, edges)


def _theorem_graphs():
    """Every graph of networkx's atlas (0-7 vertices), then seeded random
    graphs on up to 30 vertices, many disconnected or with pendant paths."""
    from networkx.generators.atlas import graph_atlas_g

    for h in graph_atlas_g():
        yield build_graph(h.number_of_nodes(), list(h.edges()))
    rng = random.Random(43)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 21), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7]))
        yield _with_pendant_paths(rng, g)


def test_theorem_is_the_constraint_check():
    # a code exists iff V itself is one, iff every constraint mask has at
    # least t members; the empty graph has no RED:IC by convention
    seen = disconnected = pendant = large = 0
    for g in _theorem_graphs():
        least = min(map(int.bit_count, literal_constraint_masks(g)), default=0)
        assert (exists_ic(g) is None) == (least >= 1 or g.n == 0), g.edges()
        assert (exists_red_ic(g) is None) == (least >= 2), g.edges()
        seen += 1
        disconnected += g.n > 0 and not g.is_connected()
        pendant += any(g.degree(v) == 1 for v in range(g.n))
        large += g.n >= 20
    assert (seen, disconnected, pendant, large) == (1253 + 400, 456, 916, 89)


@pytest.mark.parametrize("n", [
    *range(1, 17),
    pytest.param(17, marks=pytest.mark.stretch(reason="about 3 s")),
])
def test_tree_rule_matches_exists_red_ic(n):
    # the verdict on the level sequence against the general test on the
    # tree built from it, tree by tree in stream order, and the accepted
    # count against the frozen table
    accepted = 0
    for lev in tree_levels(n):
        verdict = levels_have_red_ic(lev)
        assert verdict == (exists_red_ic(tree_graph(tree_parents(lev))) is None), lev
        accepted += verdict
    assert accepted == (TREE_REFERENCE[n][1] if n >= 4 else 0)


def _preorder_levels(rng, tree, root):
    """The level sequence of ``tree`` rooted at ``root``, in a preorder
    that visits each vertex's children in a random order."""
    lev, seen, stack = [], 1 << root, [(root, 0)]
    while stack:
        v, depth = stack.pop()
        lev.append(depth)
        children = list(bits(tree.adj[v] & ~seen))
        seen |= tree.adj[v]
        rng.shuffle(children)
        stack += [(u, depth + 1) for u in children]
    return lev


def test_tree_rule_on_any_parent_array():
    # the stream roots every tree at a centre and visits children in one
    # order; the rule takes any root, a leaf or a vertex of degree 2 among
    # them, and any order of the children
    assert not levels_have_red_ic([0])
    assert not levels_have_red_ic([0, 1, 2, 3, 3])  # a leaf root whose support has degree 2
    assert levels_have_red_ic([0, 1, 2, 2, 3, 3, 2, 3, 3])  # a leaf root, every support of degree 3
    assert not levels_have_red_ic([0, 1, 2, 2, 1])  # a root of degree 2 whose last child is a leaf
    assert not levels_have_red_ic([0, 1, 1, 2, 2])  # a root of degree 2 whose first child is a leaf
    assert levels_have_red_ic([0, 1, 2, 2, 1, 2, 2])  # a root of degree 2 and no leaf child
    rng = random.Random(41)
    root_degrees = Counter()
    for _ in range(3000):
        n = rng.randint(1, 14)
        parent = [0] + [rng.randrange(v) for v in range(1, n)]
        tree = tree_graph(parent)
        root = rng.randrange(n)
        lev = _preorder_levels(rng, tree, root)
        # the sequence describes the same tree: same size and degrees
        assert sorted(tree_graph(tree_parents(lev)).degrees()) == sorted(tree.degrees()), (parent, root, lev)
        assert levels_have_red_ic(lev) == (exists_red_ic(tree) is None), (parent, root, lev)
        root_degrees[min(tree.degree(root), 3)] += 1
    assert min(root_degrees[d] for d in (1, 2, 3)) >= 300, root_degrees
