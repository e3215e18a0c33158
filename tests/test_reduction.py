import random
from collections import Counter
from itertools import combinations

import pytest

from redic.detection import CodeKind
from redic.generators import canonical_key
from redic.graphs import build_graph
from redic.reduction import (
    CnfFormula,
    brute_force_sat,
    build_reduction,
    f_gadget,
    h_gadget,
    parse_dimacs,
    verify_reduction,
)
from redic.solver import forced_detectors

from gadgets import find_f_gadget
from literal import literal_sat, literal_verify


def test_parse_dimacs():
    phi = parse_dimacs("c comment\np cnf 3 1\n1 2 3 0\n")
    assert phi.n_vars == 3 and phi.clauses == ((1, 2, 3),)
    with pytest.raises(ValueError, match="repeats"):
        parse_dimacs("p cnf 2 1\n1 -1 2 0\n")
    with pytest.raises(ValueError, match="exactly 3"):
        parse_dimacs("p cnf 2 1\n1 2 0\n")
    with pytest.raises(ValueError, match="header"):
        parse_dimacs("1 2 3 0\n")
    with pytest.raises(ValueError, match="promises"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")


def test_h_gadget_shape():
    h = h_gadget()
    # the search space of a clause star: all three 2-edge graphs on 3 vertices are P3
    candidates = list(combinations(combinations(range(3), 2), 2))
    assert len(candidates) == 3
    key = canonical_key(build_graph(3, h.edges))
    assert all(canonical_key(build_graph(3, list(edges))) == key for edges in candidates)
    c, a, b = h.roles["c"], h.roles["a"], h.roles["b"]
    assert len(h.edges) == 2 and set(map(frozenset, h.edges)) == {frozenset((c, a)), frozenset((c, b))}
    g = build_graph(3, h.edges)
    doms = [(g.closed_nbhd(v) & 7).bit_count() for v in (a, b, c)]
    assert doms == [2, 2, 3]
    # each leaf differs from the center in the other leaf alone
    assert [g.closed_nbhd(v) ^ g.closed_nbhd(c) for v in (a, b)] == [1 << b, 1 << a]
    # one extra detector adjacent to the center pushes it to 4-dominated
    g2 = build_graph(4, list(h.edges) + [(c, 3)])
    assert (g2.closed_nbhd(c) & 0b1111).bit_count() == 4


def test_f_gadget_search_reproduces_frozen_artifact():
    found = find_f_gadget()
    assert found is not None
    assert found.n == 8 and len(found.edges) == 8
    assert len(found.forced) == 6
    frozen = f_gadget()
    assert canonical_key(build_graph(8, found.edges)) == canonical_key(build_graph(8, frozen.edges))


def test_empty_formula_rejected():
    with pytest.raises(ValueError, match="clause"):
        CnfFormula(3, ()).validate()
    with pytest.raises(ValueError):
        build_reduction(CnfFormula(3, ()))


@pytest.mark.parametrize("phi, message", [
    (CnfFormula(0, ((1, 2, 3),)), "at least one variable"),
    (CnfFormula(3, ((1, 2),)), "exactly 3 literals"),
    (CnfFormula(3, ((1, 0, 2),)), "literal 0"),
    (CnfFormula(3, ((1, 2, 4),)), "beyond 3"),
])
def test_formula_built_directly_is_validated(phi, message):
    # parse_dimacs rejects some of these before validate runs
    with pytest.raises(ValueError, match=message):
        build_reduction(phi)


def test_reduction_counts():
    phi = CnfFormula(3, ((1, 2, 3),))
    g, k = build_reduction(phi)
    assert (g.n, g.num_edges(), k) == (27, 29, 24)
    worked = CnfFormula(5, ((1, 2, 3), (1, 2, -3), (2, -4, 5), (2, -4, -5)))
    g, k = build_reduction(worked)
    assert (g.n, g.num_edges(), k) == (52, 60, 47)
    with pytest.raises(ValueError, match="never used"):
        build_reduction(CnfFormula(4, ((1, 2, 3),)))


def test_reduction_forced_floor():
    phi = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    g, _ = build_reduction(phi)
    forced = forced_detectors(g, CodeKind.RED_IC)
    n_v, n_c = 3, 2
    assert len(forced) == 6 * n_v + 3 * n_c
    # literal vertices stay free
    for i in range(n_v):
        assert 8 * i not in forced and 8 * i + 1 not in forced


def test_brute_force_sat():
    assert brute_force_sat(CnfFormula(3, ((1, 2, 3),)))
    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    all_clauses = [tuple(s * v for s, v in zip(sg, (1, 2, 3))) for sg in signs]
    core = CnfFormula(3, tuple(all_clauses))
    assert not brute_force_sat(core)
    with pytest.raises(ValueError):
        brute_force_sat(CnfFormula(25, ((1, 2, 3),)))
    # the 162 sweep formulas, then seeded random ones, against the loop
    formulas = [CnfFormula(3, sub) for m in range(1, 5) for sub in combinations(all_clauses, m)]
    assert len(formulas) == 162
    rng = random.Random(29)
    for _ in range(500):
        n = rng.randint(3, 14)
        formulas.append(CnfFormula(n, tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(rng.randint(n, 8 * n)))))
    verdicts = Counter()
    for phi in formulas:
        got = brute_force_sat(phi)
        assert got == literal_sat(phi), phi
        verdicts[got] += 1
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts


def test_reduction_report_single_clause_and_core():
    rep = verify_reduction(CnfFormula(3, ((1, 2, 3),)))
    assert rep.satisfiable and rep.conclusive and rep.consistent
    assert rep.outcome.k == rep.threshold == 24
    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    core = CnfFormula(3, tuple(tuple(s * v for s, v in zip(sg, (1, 2, 3))) for sg in signs))
    rep = verify_reduction(core)
    assert not rep.satisfiable and rep.conclusive and rep.consistent
    assert rep.outcome.k >= rep.threshold + 1 == 46


def test_labels_name_gadget_roles():
    g, _ = build_reduction(CnfFormula(3, ((1, 2, 3),)))
    assert g.label(0) == "x1" and g.label(1) == "nx1"
    assert g.label(24) in ("a1", "b1", "c1")


def _assignment_witness(phi, g, assignment):
    """Detectors implied by a truth assignment: every permanently forced
    vertex plus the vertex of each variable's chosen polarity."""
    s = set()
    for i in range(phi.n_vars):
        s.update(range(8 * i + 2, 8 * i + 8))
        s.add(8 * i + (0 if assignment >> i & 1 else 1))
    s.update(range(8 * phi.n_vars, g.n))
    return s


def test_satisfying_assignments_give_tight_codes():
    """Constructive direction, independent of the solver: a satisfying
    assignment yields a verifying code of exactly the threshold size, and a
    falsifying one must not."""
    formulas = [
        CnfFormula(3, ((1, 2, 3),)),
        CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3))),
        CnfFormula(5, ((1, 2, 3), (1, 2, -3), (2, -4, 5), (2, -4, -5))),
    ]
    for phi in formulas:
        g, threshold = build_reduction(phi)
        for assignment in range(1 << phi.n_vars):
            satisfied = all(
                any((assignment >> (abs(l) - 1) & 1) == (l > 0) for l in cl)
                for cl in phi.clauses
            )
            witness = _assignment_witness(phi, g, assignment)
            assert len(witness) == threshold
            valid = literal_verify(g, witness, CodeKind.RED_IC) is None
            assert valid == satisfied, (phi, assignment)
