"""Reference checks written from the definitions, for tests to compare against.

``literal_verify`` is the all-pairs bitset loop ``detection.verify`` ran
before it learned to skip pairs, and later to group vertices by their
views: every vertex is counted, then every pair, each on n-bit masks, in
the same order and with the same certificates.  It shares no pair logic
with the library.  ``literal_robustness_check`` is the definition of fault
tolerance run literally: |S| + 1 calls of ``literal_verify``.
``literal_constraint_masks`` is the solver's constraint list from its
definition, by breadth-first search on neighbour sets, sharing no code
with ``detection`` or ``solver``.  ``literal_sat`` is the loop
``reduction.brute_force_sat`` ran before it evaluated every assignment at
once: each assignment in turn, each clause checked literal by literal.
``rule_forced`` is the RED:IC forced-detector set by the three degree rules
the solver seeded its search with before it read forcing off its
constraints; the constraint set contains it.  ``random_graph`` is the one
seeded G(n, p) the property tests draw from: one ``rng.random()`` per pair
u < v, in lexicographic order, so every seeded stream is fixed.
``literal_hypercube`` is Q_d from its definition: v and v ^ 2^i are
adjacent for every bit i below d.
"""

from collections import deque
from itertools import combinations

from redic.detection import CodeKind, RobustnessFailure, Violation
from redic.graphs import bits, build_graph, mask_of


def random_graph(rng, n, p=0.5):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def literal_hypercube(d):
    n = 1 << d
    return build_graph(n, [(v, v ^ 1 << i) for v in range(n) for i in range(d)])


def literal_verify(g, detectors, kind):
    """None when S meets both thresholds, else the first violation."""
    s = detectors if isinstance(detectors, int) else mask_of(detectors)
    closed = [g.closed_nbhd(v) for v in range(g.n)]
    for v in range(g.n):
        c = (closed[v] & s).bit_count()
        if c < kind.req:
            return Violation("undominated", v, count=c)
    for u, v in combinations(range(g.n), 2):
        d = (closed[u] ^ closed[v]) & s
        if d.bit_count() < kind.req:
            return Violation("undistinguished", u, v, delta=frozenset(bits(d)))
    return None


def literal_robustness_check(g, detectors):
    """Reference: the literal |S| + 1 verifications, first failure reported."""
    s = mask_of(detectors)
    base = literal_verify(g, s, CodeKind.IC)
    if base is not None:
        return RobustnessFailure(None, base)
    for x in bits(s):
        v = literal_verify(g, s & ~(1 << x), CodeKind.IC)
        if v is not None:
            return RobustnessFailure(x, v)
    return None


def literal_constraint_masks(g):
    """The domination masks N[v] in vertex order, then the distinct masks
    N[u] ^ N[v] of the pairs u < v at BFS distance <= 2, sorted."""
    nbrs = [{v for v in range(g.n) if g.has_edge(u, v)} for u in range(g.n)]
    closed = [sum(1 << x for x in nbrs[v] | {v}) for v in range(g.n)]
    pairs = set()
    for u in range(g.n):
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if dist[x] < 2:
                for y in nbrs[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
        pairs.update(closed[u] ^ closed[v] for v in dist if v > u)
    return closed + sorted(pairs)


def literal_sat(phi):
    """True when some assignment of the N variables satisfies every clause."""
    for assign in range(1 << phi.n_vars):
        if all(
            any((assign >> (abs(l) - 1) & 1) == (1 if l > 0 else 0) for l in cl)
            for cl in phi.clauses
        ):
            return True
    return False


def rule_forced(g):
    """For a graph with a RED:IC: every leaf and its support, every neighbour
    of a degree-3 support, and every v beginning a path v-w-u whose interior
    w and endpoint u both have degree 2."""
    deg = [g.degree(v) for v in range(g.n)]
    forced = set()
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        if deg[v] == 1:
            forced |= {v, nbrs[0]}
            if deg[nbrs[0]] == 3:
                forced |= set(bits(g.closed_nbhd(nbrs[0])))
        elif deg[v] == 2:
            a, b = nbrs
            if deg[a] == 2:
                forced.add(b)
            if deg[b] == 2:
                forced.add(a)
    return frozenset(forced)
