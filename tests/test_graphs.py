import pickle
import random

import pytest

from redic.generators import enum_trees
from redic.graphs import (
    Graph,
    Graph6Error,
    bits,
    build_graph,
    cartesian_product,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    honeycomb_torus,
    hypercube,
    ladder,
    named_builder,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    torus,
    write_edge_list,
    write_graph6,
)

from literal import random_graph


def test_build_cycle_and_claw():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert claw.degrees() == [3, 1, 1, 1]


def test_build_rejects_loops_and_range():
    with pytest.raises(ValueError, match="loop"):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("n, adj, message", [
    (3, [0b011, 0, 0b100], "loop at vertex 0"),  # also asymmetric
    (3, [0b010, 0b001], "2 masks for 3 vertices"),
    (2, [0b010, 0b001, 0], "3 masks for 2 vertices"),
    (2, [-1, 0b001], "vertex 0 lie outside 0..1"),
    (2, [0b110, 0b001], "vertex 0 lie outside 0..1"),
    (3, [0b010, 0b011, 0], "loop at vertex 1"),
    (3, [0b110, 0b001, 0], r"edge \(0, 2\) has no reverse"),  # missing bit below the diagonal
    (3, [0, 0b001, 0], r"edge \(1, 0\) has no reverse"),  # extra bit below the diagonal
    (4, [0b0100, 0b1000, 0b0001, 0], r"edge \(1, 3\) has no reverse"),
])
def test_graph_rejects_malformed_adjacency(n, adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, adj)


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges() == 1


def test_closed_neighborhoods():
    c4 = cycle_graph(4)
    assert sorted(bits(c4.closed_nbhd(0))) == [0, 1, 3]
    claw = star_graph(3)
    assert sorted(bits(claw.closed_nbhd(0))) == [0, 1, 2, 3]
    lonely = build_graph(2, [])
    assert sorted(bits(lonely.closed_nbhd(1))) == [1]


def test_product_small():
    sq = cartesian_product(path_graph(2), path_graph(2))
    assert sq.n == 4 and sq.num_edges() == 4
    assert all(d == 2 for d in sq.degrees())  # a 4-cycle
    lad = cartesian_product(path_graph(2), path_graph(4))
    assert lad.n == 8 and lad.num_edges() == 10
    q3 = cartesian_product(path_graph(2), cartesian_product(path_graph(2), path_graph(2)))
    assert q3.n == 8 and q3.num_edges() == 12
    assert q3 == hypercube(3)  # same row-major coordinate indexing


def test_product_edge_count_formula():
    rng = random.Random(1)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        h = random_graph(rng, rng.randint(1, 6))
        prod = cartesian_product(g, h)
        assert prod.num_edges() == g.n * h.num_edges() + h.n * g.num_edges()


def test_named_families():
    octa = complete_multipartite([2, 2, 2])
    assert octa.n == 6 and octa.num_edges() == 12 and all(d == 4 for d in octa.degrees())
    q5 = named_builder("hypercube", 5)
    assert q5.n == 32 and q5.num_edges() == 80
    assert named_builder("cylinder", 4).num_edges() == 12
    with pytest.raises(ValueError):
        named_builder("cycle", 2)
    with pytest.raises(ValueError):
        named_builder("nosuch", 3)


def test_honeycomb_torus_is_cubic_bipartite():
    for m, n in ((4, 4), (4, 6), (6, 6), (6, 8)):
        g = honeycomb_torus(m, n)
        assert g.n == m * n
        assert g.is_cubic()
        side = [(i + j) % 2 for i in range(m) for j in range(n)]
        for u, v in g.edges():
            assert side[u] != side[v]
    with pytest.raises(ValueError):
        honeycomb_torus(3, 4)
    with pytest.raises(ValueError):
        honeycomb_torus(4, 5)


def test_graph6_c4_bytes():
    # upper triangle of C_4 column-major is 101101 -> 45, plus the offset 63
    assert write_graph6(cycle_graph(4)) == b"Cl"
    assert parse_graph6(b"Cl") == cycle_graph(4)


def test_graph6_header_and_errors():
    claw = star_graph(3)
    assert parse_graph6(b">>graph6<<" + write_graph6(claw)) == claw
    with pytest.raises(Graph6Error, match="range"):
        parse_graph6(bytes([67, 30]))
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6(b"E")  # promises 6 vertices, no body
    with pytest.raises(Graph6Error):
        parse_graph6(b"")


def test_graph6_roundtrip_random():
    rng = random.Random(42)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 30), rng.uniform(0.1, 0.9))
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_large_n_size_field():
    g = build_graph(80, [(i, i + 1) for i in range(79)])
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_matches_networkx():
    import networkx as nx

    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 20))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).strip()
        assert write_graph6(g) == theirs


def test_degree_sum_is_twice_edges():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 15))
        assert sum(g.degrees()) == 2 * g.num_edges()


def test_structure_predicates():
    claw = star_graph(3)
    assert claw.is_tree() and claw.is_connected() and not claw.is_cubic()
    assert claw.triangles() == []
    k4 = complete_graph(4)
    assert k4.is_cubic() and k4.is_connected() and not k4.is_tree()
    assert k4.triangles() == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    assert not two_edges.is_connected() and not two_edges.is_tree()


def union_find_components(g):
    """Vertex lists of the components, each ascending, by lowest vertex."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                parent[find(u)] = find(v)
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def test_components_match_union_find():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 40)
        # from one giant component down to mostly isolated vertices
        g = random_graph(rng, n, rng.choice([0.0, 0.01, 0.03, 0.06, 0.1, 0.3]))
        comps = g.components()
        assert [list(bits(c)) for c in comps] == union_find_components(g)
        lowest = [(c & -c).bit_length() - 1 for c in comps]
        assert lowest == sorted(lowest)
        assert g.is_connected() == (len(comps) <= 1)


def test_edge_list_roundtrip():
    g = ladder(5)
    assert parse_edge_list(write_edge_list(g)) == g
    with pytest.raises(ValueError):
        parse_edge_list("3")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1")


@pytest.mark.parametrize("g", [torus(4, 4), list(enum_trees(9))[-1]], ids=["torus-4x4", "tree-9"])
def test_pickle_round_trip_keeps_everything_a_worker_reads(g):
    # a Graph handed to a process pool travels pickled; the solver must find it whole
    h = pickle.loads(pickle.dumps(g))
    assert (h.n, h.adj, h._closed, h.labels) == (g.n, g.adj, g._closed, g.labels)
    assert h.provenance() == g.provenance()
