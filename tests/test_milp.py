"""solve_min against an independent 0/1 program solved by HiGHS.

The program is written from the definition alone: with t = 1 for IC and
2 for RED:IC, every closed neighbourhood holds t detectors and every pair
of vertices, near or far, t detectors in the symmetric difference of
their closed neighbourhoods.  It shares no code with the search.
"""

import random

import pytest

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")

from redic.detection import CodeKind
from redic.graphs import honeycomb_torus, hypercube, torus
from redic.solver import solve_min

from literal import literal_verify, random_graph


def milp_minimum(g, kind):
    """The minimum code size, or None when no code exists."""
    closed = [g.closed_nbhd(v) for v in range(g.n)]
    rows = closed + [closed[u] ^ closed[v] for u in range(g.n) for v in range(u + 1, g.n)]
    need = [kind.req] * len(rows)
    a = np.array([[m >> x & 1 for x in range(g.n)] for m in rows], dtype=float)
    res = optimize.milp(np.ones(g.n), integrality=np.ones(g.n), bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(a, need, np.inf))
    if res.status == 2:  # infeasible
        return None
    assert res.status == 0, res.message
    return round(res.fun)


def _check(g):
    for kind in (CodeKind.IC, CodeKind.RED_IC):
        out = solve_min(g, kind)
        assert (out.k if out.is_optimal else None) == milp_minimum(g, kind), (g.edges(), kind)
        if out.is_optimal:
            assert literal_verify(g, out.witness, kind) is None


def _random_graphs(count):
    rng = random.Random(127)
    out = []
    for _ in range(count):
        n = rng.randint(9, 24)
        p = rng.uniform(0.15, 0.5)
        out.append(random_graph(rng, n, p))
    return out


@pytest.mark.parametrize("g", _random_graphs(30), ids=lambda g: f"n{g.n}-m{g.num_edges()}")
def test_solver_matches_milp_on_random_graphs(g):
    _check(g)


@pytest.mark.parametrize("g", [torus(5, 5), honeycomb_torus(4, 6), hypercube(4)], ids=repr)
def test_solver_matches_milp_on_named_graphs(g):
    _check(g)
