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
from redic.solver import feasible_at, solve_min

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
    # the minimum, and the refutation one below it and the witness at it,
    # since the search prunes both kinds of run
    for kind in (CodeKind.IC, CodeKind.RED_IC):
        out = solve_min(g, kind)
        m = milp_minimum(g, kind)
        assert (out.k if out.is_optimal else None) == m, (g.edges(), kind)
        if m is None:
            continue
        assert literal_verify(g, out.witness, kind) is None
        below = feasible_at(g, kind, m - 1)
        assert below.witness is None and below.exhaustive, (g.edges(), kind)
        at = feasible_at(g, kind, m).witness
        assert at is not None and len(at) <= m and literal_verify(g, at, kind) is None, (g.edges(), kind)


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


# the lattice optima that the benchmark and README cite, each re-derived by
# HiGHS from the definition; a re-ordered search must still reach them
LATTICE_OPTIMA = [
    pytest.param(torus(6, 6), CodeKind.RED_IC, 18, id="torus-6x6"),
    pytest.param(honeycomb_torus(6, 6), CodeKind.RED_IC, 24, id="honeycomb-6x6"),
    pytest.param(hypercube(5), CodeKind.IC, 10, id="q5-ic"),
    pytest.param(hypercube(5), CodeKind.RED_IC, 12, id="q5-red-ic"),
    pytest.param(torus(7, 7), CodeKind.RED_IC, 25, id="torus-7x7"),
]


@pytest.mark.stretch(reason="about 15 s of HiGHS, 8 s of it on the torus 7x7")
@pytest.mark.parametrize("g, kind, k", LATTICE_OPTIMA)
def test_stretch_lattice_optima_match_milp(g, kind, k):
    out = solve_min(g, kind)
    assert (out.status, out.k) == ("optimal", k) and milp_minimum(g, kind) == k
    assert literal_verify(g, out.witness, kind) is None
