import random

from redic.detection import CodeKind
from redic.existence import (
    NoCode,
    closed_twins,
    exists_ic,
    exists_red_ic,
    has_red_ic,
)
from redic.graphs import build_graph, complete_graph, cycle_graph, path_graph, star_graph

from literal import literal_verify


def random_graph(rng, n, p=0.5):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


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
