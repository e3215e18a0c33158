"""Extremal families, each packaged with a witness code and a certificate.

A family whose optimality follows from a structural lower bound names that
bound ("counting", "tree" or "cubic"), and the bound's own value is checked
to equal the witness size; a family that names none is tagged as needing
the solver.  Every instance re-verifies its own witness at construction
time -- a failure here is a construction bug, not a soft error.

The large-n families are subset-code graphs: fix k detectors, give every
vertex a distinct "code" (the detectors of its closed neighborhood), and
realize each admissible subset as the code of one vertex.  Codes of equal
parity automatically differ in at least two positions, which is exactly the
fault-tolerant distinguishing requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .detection import CodeKind, verify
from .graphs import Graph, build_graph, complete_multipartite, hypercube
from .solver import Budget, feasible_at, lower_bound

__all__ = [
    "ConstructedInstance",
    "star_extremal_even",
    "star_extremal_odd",
    "cycle_extremal_odd",
    "multipartite_exact",
    "extremal_tree",
    "g6_gadget",
    "g6_ring",
    "G14Gadget",
    "g14_gadget",
    "g14_ring",
    "q5_code_search",
    "double_hypercube_code",
]


@dataclass(frozen=True)
class ConstructedInstance:
    graph: Graph
    witness: tuple[int, ...]
    claimed_k: int
    certificate: str  # "bound:<which>" or "solver"

    @property
    def density(self):
        return Fraction(self.claimed_k, self.graph.n)


# bound a family may name -> the BoundReport field that holds its value
_BOUND_FIELDS = {"counting": "log_bound", "tree": "tree_bound", "cubic": "cubic_bound"}


def _certified(graph: Graph, witness, claimed_k: int, bound: str | None = None) -> ConstructedInstance:
    witness = tuple(sorted(witness))
    if len(witness) != claimed_k:
        raise AssertionError(f"witness size {len(witness)} != claimed {claimed_k}")
    bad = verify(graph, witness, CodeKind.RED_IC)
    if bad is not None:
        raise AssertionError(f"constructed witness fails verification: {bad}")
    if bound is None:
        return ConstructedInstance(graph, witness, claimed_k, "solver")
    met = getattr(lower_bound(graph, CodeKind.RED_IC), _BOUND_FIELDS[bound])
    if met != claimed_k:
        raise AssertionError(f"{bound} bound {met} does not meet the construction {claimed_k}")
    return ConstructedInstance(graph, witness, claimed_k, f"bound:{bound}")


# -- subset-code families ---------------------------------------------------


def _subset_family(k: int, detector_codes: list[frozenset[int]], sizes,
                   expect_n: int) -> ConstructedInstance:
    """Realize every subset of detectors 0..k-1 whose size is in ``sizes``
    as the code of one vertex, certified by the counting bound.

    detector_codes[i] is the required closed-neighborhood code of detector
    i, must contain i, and is one of those subsets; consistency (j in
    code(i) iff i in code(j)) is asserted since detector adjacency is
    symmetric.  Each other subset becomes one non-detector adjacent to
    exactly that detector set.
    """
    for i, code in enumerate(detector_codes):
        if i not in code:
            raise AssertionError("detector code must contain the detector itself")
        for j in code:
            if j != i and i not in detector_codes[j]:
                raise AssertionError("detector codes are not symmetric")
    assert sum(comb(k, s) for s in sizes) == expect_n
    taken = set(detector_codes)
    extras = [c for s in sizes for c in map(frozenset, combinations(range(k), s)) if c not in taken]
    edges = [(i, j) for i in range(k) for j in detector_codes[i] if j > i]
    edges += [(k + off, j) for off, code in enumerate(extras) for j in code]
    g = build_graph(k + len(extras), edges)
    assert g.n == expect_n, (g.n, expect_n)
    return _certified(g, range(k), k, "counting")


def star_extremal_even(k: int) -> ConstructedInstance:
    """Largest graph with fault-tolerant code size k, for even k >= 4.

    Detectors induce a star: hub 0 adjacent to detectors 1..k-1, so the hub's
    code is the full detector set (even) and each leaf detector's code is the
    pair {0, i}.  Non-detectors realize every remaining even-size code of
    size 2..k-2.  All codes are distinct even-size subsets, hence pairwise at
    symmetric difference >= 2, and n = 2^(k-1) - 1 meets the counting bound.
    """
    if k < 4 or k % 2:
        raise ValueError("even star family needs even k >= 4")
    det_codes = [frozenset(range(k))] + [frozenset({0, i}) for i in range(1, k)]
    return _subset_family(k, det_codes, range(2, k + 1, 2), 2 ** (k - 1) - 1)


def star_extremal_odd(k: int) -> ConstructedInstance:
    """Star-based family for odd k >= 5, n = 2^(k-1) - k.

    The hub keeps the full (odd-size) detector set as its code; even codes
    stop at size k-3 because a (k-1)-size code would differ from the full
    set in a single position.
    """
    if k < 5 or k % 2 == 0:
        raise ValueError("odd star family needs odd k >= 5")
    det_codes = [frozenset(range(k))] + [frozenset({0, i}) for i in range(1, k)]
    return _subset_family(k, det_codes, (*range(2, k - 2, 2), k), 2 ** (k - 1) - k)


def cycle_extremal_odd(k: int) -> ConstructedInstance:
    """Cycle-based family for odd k >= 5, n = 2^(k-1) - k.

    Detectors form a k-cycle whose closed neighborhoods are the k cyclic
    triples; non-detectors realize every other odd-size code of size >= 3.
    Distinct odd-size sets always differ in at least two positions.
    """
    if k < 5 or k % 2 == 0:
        raise ValueError("odd cycle family needs odd k >= 5")
    det_codes = [frozenset({(i - 1) % k, i, (i + 1) % k}) for i in range(k)]
    return _subset_family(k, det_codes, range(3, k + 1, 2), 2 ** (k - 1) - k)


def multipartite_exact(n: int) -> ConstructedInstance:
    """Complete multipartite K_{2,...,2}: every vertex an open twin, code = V."""
    if n < 4 or n % 2:
        raise ValueError("needs even n >= 4")
    g = complete_multipartite([2] * (n // 2))
    return _certified(g, range(n), n)


# -- extremal trees ---------------------------------------------------------


def extremal_tree(n: int) -> ConstructedInstance:
    """Tree on n vertices whose minimum code size is ceil(4(n+1)/5).

    Chains of 4-vertex claws separated by non-detector connectors, with the
    (n+1) mod 5 leftover attached as extra detector leaves on the first hub
    (supports keep degree >= 3, so feasibility is preserved).  Detectors are
    everything except the connectors, and the acyclic lower bound meets the
    witness size exactly.
    """
    if n < 4:
        raise ValueError("needs n >= 4")
    j = (n - 4) // 5
    excess = (n - 4) % 5
    edges = []
    for i in range(j + 1):
        hub = 4 * i
        edges += [(hub, hub + 1), (hub, hub + 2), (hub, hub + 3)]
    connectors = []
    for i in range(1, j + 1):
        x = 4 * (j + 1) + (i - 1)
        connectors.append(x)
        edges += [(4 * (i - 1) + 3, x), (x, 4 * i + 1)]
    base = 4 * (j + 1) + j
    for t in range(excess):
        edges.append((0, base + t))
    g = build_graph(n, edges)
    witness = sorted(set(range(n)) - set(connectors))
    return _certified(g, witness, n - j, "tree")


# -- cubic rings ------------------------------------------------------------


def _ring(block: Graph, t: int, links) -> Graph:
    """Cubic ring of t >= 2 copies of ``block``: each (p, q) in ``links``
    joins vertex p of copy i to vertex q of copy i+1 (mod t).  Copy i's
    vertices get the block's labels suffixed with i, when it has labels.
    """
    if t < 2:
        raise ValueError("ring needs t >= 2")
    m = block.n
    edges = [(m * i + u, m * i + v) for i in range(t) for u, v in block.edges()]
    edges += [(m * i + p, m * ((i + 1) % t) + q) for i in range(t) for p, q in links]
    labels = None if block.labels is None else [f"{x}{i}" for i in range(t) for x in block.labels]
    g = build_graph(m * t, edges, labels=labels)
    assert g.is_cubic()
    return g


def g6_gadget() -> Graph:
    """Six-vertex block of the all-detectors cubic family.

    A 6-cycle a,b,c,d,e,f with chords b-f and c-e; a and d are the degree-2
    ports.  Adjacent chord pairs are each other's only distinguishers: the
    closed neighborhoods of b and f differ exactly in {c, e} and those of c
    and e exactly in {b, f}, which is what forces every vertex into any
    valid code once the ports are wired to more blocks.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 5), (2, 4)]
    return build_graph(6, edges, labels=list("abcdef"))


def g6_ring(t: int) -> ConstructedInstance:
    """Ring of t >= 2 six-vertex blocks, port d of block i to port a of i+1.

    Cubic on 6t vertices; the only code is all of V, which the solver
    certifies at small t.
    """
    g = _ring(g6_gadget(), t, [(3, 0)])
    return _certified(g, range(6 * t), 6 * t)


# -- cubic family with minimum density 4/7 ----------------------------------


@dataclass(frozen=True)
class G14Gadget:
    """14-vertex fragment with four degree-2 ports and an internal 8-code.

    The witness 2-dominates all 14 vertices and 2-distinguishes every
    internal pair using internal detectors only, so it survives any wiring
    of the ports to the outside.
    """

    graph: Graph
    ports: tuple[int, int, int, int]  # (p1, p2) from one cut edge, (p3, p4) from the other
    witness: tuple[int, ...]


def g14_gadget() -> G14Gadget:
    """The gadget that the search in ``tests/gadgets.py`` finds, frozen.

    Two 7-vertex halves joined by the bridge 6-7; ports 1, 2 and 11, 12
    are the ends of the cut edges 1-2 and 11-12.  A test re-runs that
    search and asserts it reproduces this data; ``g14_ring`` re-verifies
    the witness in every ring it builds.
    """
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6), (6, 7),
             (7, 8), (7, 9), (8, 10), (8, 11), (9, 10), (9, 12), (10, 13), (11, 13), (12, 13)]
    return G14Gadget(build_graph(14, edges), (1, 2, 11, 12), (0, 3, 4, 5, 8, 9, 10, 13))


def g14_ring(gadget: G14Gadget, t: int) -> ConstructedInstance:
    """Ring of t >= 2 fourteen-vertex gadgets; density exactly 4/7.

    Ports of one cut edge wire forward to the other cut edge's ports of the
    next copy, restoring 3-regularity.  The 8t-detector witness meets the
    cubic lower bound ceil(4 * 14t / 7) = 8t, so optimality needs no search.
    """
    p1, p2, p3, p4 = gadget.ports
    g = _ring(gadget.graph, t, [(p1, p3), (p2, p4)])
    witness = [gadget.graph.n * i + w for i in range(t) for w in gadget.witness]
    return _certified(g, witness, 8 * t, "cubic")


# -- hypercubes --------------------------------------------------------------


def q5_code_search(budget: Budget | None = None) -> ConstructedInstance:
    """Witness of size 12 on the 5-dimensional hypercube (density 3/8)."""
    q5 = hypercube(5)
    res = feasible_at(q5, CodeKind.RED_IC, 12, budget=budget)
    if res.witness is None:
        raise RuntimeError("no 12-vertex code found on the 5-cube within budget")
    return _certified(q5, res.witness, 12)


def double_hypercube_code(d: int, witness) -> tuple[Graph, tuple[int, ...]]:
    """Duplicate a code across both layers of the next-dimension hypercube.

    Each detector v of Q_d becomes detectors v and v + 2^d of Q_{d+1}; the
    doubled set verifies there, which is why optimal densities cannot
    increase with the dimension.
    """
    doubled = set(witness) | {v | 1 << d for v in witness}
    inst = _certified(hypercube(d + 1), doubled, len(doubled))
    return inst.graph, inst.witness
