from fractions import Fraction
from itertools import combinations

import pytest

from redic.constructions import (
    _certified,
    cycle_extremal_odd,
    double_hypercube_code,
    extremal_tree,
    g6_gadget,
    g6_ring,
    g14_gadget,
    g14_ring,
    multipartite_exact,
    q5_code_search,
    star_extremal_even,
    star_extremal_odd,
)
from redic.detection import CodeKind, verify
from redic.generators import are_isomorphic
from redic.graphs import build_graph, cycle_graph, hypercube
from redic.solver import lower_bound, solve_min

from gadgets import g14_gadget_search


def test_star_even_sizes_and_certificates():
    for k, n in ((4, 7), (6, 31), (8, 127)):
        inst = star_extremal_even(k)
        assert inst.graph.n == n and inst.claimed_k == k
        assert inst.certificate == "bound:counting"
    with pytest.raises(ValueError):
        star_extremal_even(5)


def test_star_even_k4_is_optimal_by_search_too():
    inst = star_extremal_even(4)
    assert solve_min(inst.graph).k == 4


def test_odd_variants():
    for k in (5, 7):
        a = star_extremal_odd(k)
        b = cycle_extremal_odd(k)
        assert a.graph.n == b.graph.n == 2 ** (k - 1) - k
        assert a.claimed_k == b.claimed_k == k
        assert a.certificate == b.certificate == "bound:counting"
    assert solve_min(star_extremal_odd(5).graph).k == 5
    assert solve_min(cycle_extremal_odd(5).graph).k == 5
    with pytest.raises(ValueError):
        star_extremal_odd(4)
    with pytest.raises(ValueError):
        cycle_extremal_odd(6)


def test_multipartite():
    inst = multipartite_exact(4)
    assert are_isomorphic(inst.graph, cycle_graph(4))
    for n in (4, 6, 8):
        inst = multipartite_exact(n)
        assert inst.claimed_k == n
        assert solve_min(inst.graph).k == n
    with pytest.raises(ValueError):
        multipartite_exact(5)


@pytest.mark.parametrize("n", list(range(4, 17)))
def test_extremal_tree_matches_solver(n):
    inst = extremal_tree(n)
    assert inst.graph.is_tree()
    assert inst.claimed_k == -(-4 * (n + 1) // 5)
    assert inst.certificate == "bound:tree"
    assert solve_min(inst.graph).k == inst.claimed_k


def test_g6_gadget_reconstruction_is_unique():
    """Brute-force every 6-vertex graph with the documented degree profile
    and chord-pair constraints; all solutions must be isomorphic to ours."""
    ours = g6_gadget()
    profile = (2, 3, 3, 2, 3, 3)
    solutions = []
    pairs = list(combinations(range(6), 2))
    for picks in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
        if len(edges) != 8:
            continue
        g = build_graph(6, edges)
        if tuple(g.degrees()) != profile:
            continue
        if g.closed_nbhd(1) ^ g.closed_nbhd(5) != (1 << 2 | 1 << 4):
            continue
        if g.closed_nbhd(2) ^ g.closed_nbhd(4) != (1 << 1 | 1 << 5):
            continue
        solutions.append(g)
    assert solutions, "reconstruction constraints are satisfiable"
    assert all(are_isomorphic(g, ours) for g in solutions)


def test_g6_ring():
    for t, n in ((2, 12), (3, 18)):
        inst = g6_ring(t)
        assert inst.graph.n == n and inst.graph.is_cubic()
        assert inst.claimed_k == n
        assert solve_min(inst.graph).k == n
    with pytest.raises(ValueError):
        g6_ring(1)


def test_g14_search_and_ring():
    # the search is the evidence for the frozen gadget: same graph, ports and witness
    found, gadget = g14_gadget_search(), g14_gadget()
    assert found is not None
    assert (found.graph.edges(), found.ports, found.witness) == (gadget.graph.edges(), gadget.ports, gadget.witness)
    degs = sorted(gadget.graph.degrees())
    assert degs == [2, 2, 2, 2] + [3] * 10
    assert len(gadget.witness) == 8
    assert verify(gadget.graph, gadget.witness, CodeKind.RED_IC) is None
    ring = g14_ring(gadget, 2)
    assert ring.graph.n == 28 and ring.graph.is_cubic()
    assert ring.claimed_k == 16 == lower_bound(ring.graph, CodeKind.RED_IC).value
    assert ring.certificate == "bound:cubic"
    assert ring.density == Fraction(4, 7)


def test_q5_and_doubling():
    inst = q5_code_search()
    assert inst.claimed_k == 12
    assert inst.density == Fraction(3, 8)
    big, doubled = double_hypercube_code(5, inst.witness)
    assert big.n == 64 and len(doubled) == 24
    assert verify(big, doubled, CodeKind.RED_IC) is None
    assert Fraction(len(doubled), big.n) == Fraction(3, 8)


def test_doubling_from_the_square():
    # the 4-cycle is the 2-cube: minimum 4, and its vertex set doubles upward
    assert solve_min(hypercube(2)).k == 4
    q3, w = double_hypercube_code(2, (0, 1, 2, 3))
    assert q3.n == 8 and len(w) == 8
    assert verify(q3, w, CodeKind.RED_IC) is None


@pytest.mark.parametrize("graph, witness, claimed_k, bound, message", [
    (cycle_graph(6), (0, 1), 2, None, "fails verification"),
    (cycle_graph(4), range(4), 3, None, "witness size 4 != claimed 3"),
    (cycle_graph(4), range(4), 4, "tree", "tree bound None does not meet"),
    (g6_ring(2).graph, range(12), 12, "counting", "counting bound 5 does not meet"),
])
def test_certification_rejects(graph, witness, claimed_k, bound, message):
    with pytest.raises(AssertionError, match=message):
        _certified(graph, witness, claimed_k, bound)
