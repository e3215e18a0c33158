import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from redic.detection import (
    CodeKind,
    RobustnessFailure,
    Violation,
    delta,
    domination,
    is_valid_code,
    robustness_check,
    share,
    verify,
)
from redic.constructions import double_hypercube_code, extremal_tree, q5_code_search
from redic.graphs import bits, build_graph, cycle_graph, mask_of, star_graph, torus
from redic.solver import solve_min

from literal import literal_robustness_check, literal_verify, random_graph


def test_domination_examples():
    claw = star_graph(3)
    assert domination(claw, range(4), 1) == 2  # leaf sees itself and the center
    assert domination(claw, range(4), 0) == 4
    assert domination(claw, [], 2) == 0


def test_delta_examples():
    c4 = cycle_graph(4)
    assert delta(c4, range(4), 0, 1) == {2, 3}
    # closed twins see the same detectors
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert delta(tri, range(3), 0, 1) == frozenset()
    # far-apart vertices are separated by both closed neighborhoods
    p6 = build_graph(6, [(i, i + 1) for i in range(5)])
    assert delta(p6, range(6), 0, 5) == {0, 1, 4, 5}
    with pytest.raises(ValueError):
        delta(c4, range(4), 1, 1)


def test_verify_pass_and_first_violation():
    claw = star_graph(3)
    c4 = cycle_graph(4)
    assert verify(claw, range(4), CodeKind.RED_IC) is None
    assert verify(c4, range(4), CodeKind.RED_IC) is None
    for s in combinations(range(4), 3):
        v = verify(c4, s, CodeKind.RED_IC)
        assert v is not None and v.kind == "undistinguished" and len(v.delta) == 1
    v = verify(claw, [], CodeKind.IC)
    assert v == Violation("undominated", 0, count=0)


def test_verify_violation_order_is_deterministic():
    c4 = cycle_graph(4)
    assert verify(c4, [0, 1, 2], CodeKind.RED_IC) == verify(c4, [0, 1, 2], CodeKind.RED_IC)


def test_share_examples_and_errors():
    claw = star_graph(3)
    assert share(claw, range(4), 1) == Fraction(3, 4)  # 1/2 for itself, 1/4 for the hub
    assert sum(share(claw, range(4), x) for x in range(4)) == 4
    with pytest.raises(ValueError, match="not a detector"):
        share(claw, [0], 1)
    # a detector always dominates everything in its own closed neighborhood,
    # so the undefined case needs a detector index outside the set
    with pytest.raises(ValueError):
        share(claw, [], 0)


def test_share_sigma_arithmetic():
    # the recurring per-detector sums used in density arguments
    assert Fraction(1, 4) + 3 * Fraction(1, 2) == Fraction(7, 4)
    assert 3 * Fraction(1, 3) + Fraction(1, 2) == Fraction(3, 2)


def test_share_identity_random():
    rng = random.Random(11)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randint(1, 12))
        s = [v for v in range(g.n) if rng.random() < 0.7]
        if not s or verify(g, s, CodeKind.IC) is not None:
            continue
        assert sum((share(g, s, x) for x in s), Fraction(0)) == g.n
        done += 1


def test_robustness_examples():
    c4 = cycle_graph(4)
    assert robustness_check(c4, range(4)) is None
    fail = robustness_check(c4, [0, 1, 2])
    assert isinstance(fail, RobustnessFailure)
    assert robustness_check(c4, []) == RobustnessFailure(None, Violation("undominated", 0, count=0))


def test_robustness_equals_doubled_thresholds():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        s = [v for v in range(n) if rng.random() < 0.6]
        strong = verify(g, s, CodeKind.RED_IC) is None
        robust = literal_robustness_check(g, s) is None
        assert strong == robust


def test_robustness_failure_matches_literal_check():
    rng = random.Random(41)
    kinds = []
    for i in range(600):
        n = rng.randint(1, 16 if i < 400 else 40)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        s = [v for v in range(n) if rng.random() < rng.uniform(0.4, 1.0)]
        got = robustness_check(g, s)
        assert got == literal_robustness_check(g, s), (g.adj, s)
        if got is not None and got.removed is not None:
            kinds.append(got.violation.kind)
    # failures after a removal, of both kinds, exercise the explaining loop
    assert kinds.count("undominated") >= 30 and kinds.count("undistinguished") >= 30


def _q6_code():
    return double_hypercube_code(5, q5_code_search().witness)


def _torus_code():
    g = torus(4, 4)
    return g, solve_min(g, CodeKind.RED_IC).witness


def _tree_code():
    t = extremal_tree(24)
    return t.graph, t.witness


@pytest.mark.parametrize("make, first", [
    (_q6_code, RobustnessFailure(32, Violation("undistinguished", 1, 33, delta=frozenset()))),
    (_torus_code, RobustnessFailure(1, Violation("undistinguished", 12, 13, delta=frozenset()))),
    (_tree_code, RobustnessFailure(1, Violation("undominated", 1, count=0))),
])
def test_robustness_of_codes_with_one_detector_removed(make, first):
    g, code = make()
    assert robustness_check(g, code) is None
    assert code[0] == 0 and robustness_check(g, code[1:]) == first
    for y in code:
        smaller = [v for v in code if v != y]
        got = robustness_check(g, smaller)
        assert got == literal_robustness_check(g, smaller)
        # S - y is still an IC, so the failure comes at a second removal
        assert got is not None and got.removed is not None and got.removed != y


def _doubled_code(dim):
    """The Q5 code doubled up to a RED:IC code of the dim-cube."""
    q5 = q5_code_search()
    q, w = q5.graph, q5.witness
    for d in range(5, dim):
        q, w = double_hypercube_code(d, w)
    assert q.n == 1 << dim
    return q, w


def test_doubled_q8_code_is_robust():
    q, w = _doubled_code(8)
    assert robustness_check(q, w) is None
    assert literal_robustness_check(q, w) is None


def test_monotonicity():
    rng = random.Random(13)
    checked = 0
    while checked < 120:
        g = random_graph(rng, rng.randint(2, 10))
        s = {v for v in range(g.n) if rng.random() < 0.6}
        for kind in (CodeKind.IC, CodeKind.RED_IC):
            if verify(g, s, kind) is None:
                bigger = s | {rng.randrange(g.n)}
                assert verify(g, bigger, kind) is None
                checked += 1


def _hash_colliding_graph(rng):
    """A cycle on 123-140 vertices with random chords of length 60-62.

    hash(int) is the value mod 2^61 - 1, so hash({i, i+61}) == hash({i+1}):
    the sparse views of such a graph often share a hash without being equal.
    """
    n = rng.randint(123, 140)
    p = rng.uniform(0.1, 1.0)
    return build_graph(n, [(u, (u + d) % n) for u in range(n) for d in (1, 60, 61, 62)
                           if d == 1 or rng.random() < p])


def test_verify_equals_literal_check():
    """The whole certificate matches the all-pairs loop, not just the verdict.

    The last 100 inputs are graphs whose distinct views may share a hash(),
    counted apart so that the colliding case cannot stop being tested.
    """
    rng = random.Random(17)
    seen = Counter()
    collided = Counter()
    for i in range(3100):
        if i < 3000:
            n = rng.randint(1, 40)
            g = random_graph(rng, n, rng.uniform(0.05, 0.7))
            frac = rng.uniform(0.3, 1.0)
        else:
            g = _hash_colliding_graph(rng)
            frac = rng.choice((1.0, rng.uniform(0.3, 1.0)))
        s = mask_of(v for v in range(g.n) if rng.random() < frac)
        views = {g.closed_nbhd(v) & s for v in range(g.n)}
        collides = len({hash(view) for view in views}) < len(views)
        for kind in (CodeKind.IC, CodeKind.RED_IC):
            got = verify(g, s, kind)
            assert got == literal_verify(g, s, kind), (g.adj, s, kind)
            seen[kind, got and got.kind] += 1
            collided[kind, got and got.kind] += collides
    for kind in (CodeKind.IC, CodeKind.RED_IC):
        assert min(seen[kind, k] for k in (None, "undominated", "undistinguished")) >= 300, seen
        assert min(collided[kind, k] for k in (None, "undominated", "undistinguished")) >= 10, collided


def test_verify_equals_literal_check_on_q10():
    q, w = _doubled_code(10)
    assert verify(q, w, CodeKind.RED_IC) is None
    assert literal_verify(q, w, CodeKind.RED_IC) is None
    # the doubled code is not minimal: detector 0 can go, detector 1 cannot
    assert w[:2] == (0, 1)
    for x, fails in ((0, False), (1, True)):
        smaller = [y for y in w if y != x]
        got = verify(q, smaller, CodeKind.RED_IC)
        assert (got is not None) == fails
        assert got == literal_verify(q, smaller, CodeKind.RED_IC)


def test_verify_equals_literal_check_on_moved_q8_detectors():
    """The doubled Q8 code with one detector x moved to a non-detector neighbour.

    The move leaves some vertex of N[x] with one detector.  Repaired, each
    such vertex takes its lowest non-detector neighbour as a detector, so
    every view holds two, and some views then differ by one detector: the
    pairs only the minus-one lookups meet, at views of 2 and 3 detectors.
    Translation by 32, 64 and 128 maps the code onto itself, so the
    detectors below 32 stand for all of them.
    """
    q, w = _doubled_code(8)
    code = mask_of(w)
    one_detector = 0
    for x in bits(code & (1 << 32) - 1):
        for y in bits(q.adj[x] & ~code):
            moved = repaired = code & ~(1 << x) | 1 << y
            for v in bits(q.closed_nbhd(x)):
                if (q.closed_nbhd(v) & repaired).bit_count() < 2:
                    free = q.adj[v] & ~repaired
                    repaired |= free & -free
            for s, kind in ((moved, CodeKind.IC), (moved, CodeKind.RED_IC), (repaired, CodeKind.RED_IC)):
                got = verify(q, s, kind)
                assert got == literal_verify(q, s, kind), (x, y, s == repaired, kind)
                one_detector += got is not None and got.kind == "undistinguished" and len(got.delta) == 1
    assert one_detector > 0


def test_verify_equals_literal_check_on_swapped_torus_codes():
    g = torus(6, 6)
    code = set(solve_min(g, CodeKind.RED_IC).witness)
    failed = 0
    for x in sorted(code):
        for y in bits(g.adj[x] & ~mask_of(code)):
            swapped = (code - {x}) | {y}
            for kind in (CodeKind.IC, CodeKind.RED_IC):
                got = verify(g, swapped, kind)
                assert got == literal_verify(g, swapped, kind), (x, y, kind)
                failed += got is not None
    assert failed > 0


def test_is_valid_code():
    assert is_valid_code(star_graph(3), range(4), CodeKind.RED_IC)
    assert not is_valid_code(star_graph(3), [0], CodeKind.RED_IC)


@pytest.mark.parametrize("detectors", [-1, -16, 1 << 4, 0b10001, 1 << 64, [0, 4], [-1, 0]])
def test_detectors_outside_the_graph_are_rejected(detectors):
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="detector index out of range"):
        verify(c4, detectors, CodeKind.IC)
    with pytest.raises(ValueError, match="detector index out of range"):
        robustness_check(c4, detectors)
    with pytest.raises(ValueError, match="detector index out of range"):
        share(c4, detectors, 0)


def test_masks_inside_the_graph_are_accepted():
    c4 = cycle_graph(4)
    assert verify(c4, 0b1111, CodeKind.RED_IC) is None
    assert robustness_check(c4, 0b1111) is None
    assert verify(c4, 0, CodeKind.IC) == Violation("undominated", 0, count=0)
