import random

import pytest

from redic.detection import CodeKind
from redic.existence import (
    NoCode,
    closed_twins,
    exists_ic,
    exists_red_ic,
    has_red_ic,
    tree_has_red_ic,
)
from redic.generators import enum_trees, tree_graph, tree_levels, tree_parents
from redic.graphs import build_graph, complete_graph, cycle_graph, path_graph, star_graph
from redic.tables import TREE_REFERENCE

from literal import literal_constraint_masks, literal_verify, random_graph


def random_connected(rng, n):
    while True:
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        if g.is_connected():
            return g


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
    # the verdict on the parent array against the general test, tree by tree
    # in stream order, and the accepted count against the frozen table
    accepted = 0
    for lev, tree in zip(tree_levels(n), enum_trees(n), strict=True):
        verdict = tree_has_red_ic(tree_parents(lev))
        assert verdict == (exists_red_ic(tree) is None), lev
        accepted += verdict
    assert accepted == (TREE_REFERENCE[n][1] if n >= 4 else 0)


def test_tree_rule_on_any_parent_array():
    # the stream roots every tree at a centre and numbers it in preorder; the
    # rule takes any root and any numbering
    assert not tree_has_red_ic([0])
    assert not tree_has_red_ic([0, 0, 1, 2, 2])  # a leaf root whose support has degree 2
    assert tree_has_red_ic([0, 0, 1, 1, 3, 3, 1, 6, 6])  # a leaf root, every support of degree 3
    assert not tree_has_red_ic([0, 4, 1, 1, 0])  # the same with the root's child at 4
    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randint(1, 14)
        parent = [0] + [rng.randrange(v) for v in range(1, n)]
        label = [0] + rng.sample(range(1, n), n - 1)  # the root stays 0
        relabeled = [0] * n
        for v in range(1, n):
            relabeled[label[v]] = label[parent[v]]
        assert tree_has_red_ic(relabeled) == (exists_red_ic(tree_graph(relabeled)) is None), relabeled
