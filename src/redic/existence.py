"""Existence tests: why does a graph admit no RED:IC (or IC)?

A code exists iff V itself is one, that is iff every constraint of the
solver has at least t members, and the solver decides it that way; this
module names the reason when it fails, with the offending vertices.

For a connected graph on n >= 4 vertices a RED:IC exists iff there are no
closed twins, every support vertex has degree >= 3, and every edge lying
on a triangle has |N[a] symdiff N[b]| >= 2 (taking S = V(G) then verifies).
Components with fewer than four vertices never admit one; a disconnected
graph is decided per component.

For a tree the rule shrinks to: a RED:IC exists iff n >= 4 and every
support vertex (a neighbour of a leaf) has degree >= 3.  A tree is
connected and has no triangles, and on n >= 3 vertices no closed twins
either: closed twins u, v are adjacent (u lies in N[u] = N[v]), one of
them has a third neighbour w since the tree is connected, and w, lying in
both closed neighbourhoods, would close the triangle u, v, w.

``levels_have_red_ic`` decides that rule on a preorder level sequence
(entry i is the depth of vertex i, the root 0 at depth 0), with no
adjacency and no ``Graph``.  In preorder the descendants of vertex i are the
vertices after it up to the next one at depth <= lev[i]; its children are
those among them at depth lev[i] + 1, the first at i + 1.  The leaves are
the vertices without a child, and the root too when it has one child.
A support vertex of degree <= 2 is then one of:

- a non-root vertex i at depth x, the parent of a leaf.  Its degree is one
  more than its children, so it is <= 2 iff i has exactly one child, and
  that child is a leaf: iff the sequence reads x, x + 1 at i, i + 1 and
  then a depth <= x, or ends.  (A depth x + 1 there would be a second
  child, a deeper one a child of i + 1.)
- the root, the parent of a leaf.  Its degree is its number of children,
  the 1s of the sequence.  With one child, that child is a leaf only when
  n = 2; with two, the first (vertex 1) is a leaf iff lev[2] = 1, and the
  second, whose subtree ends the sequence, iff the last entry is 1.
- vertex 1, when the root is a leaf.  Its children are all the vertices
  at depth 2, so it has degree <= 2 iff the sequence has at most one 2.

The first case is one scan of ``bytes(lev)`` by a regular expression
compiled once per n; the others are counts and two look-ups.  The tree
census roots every tree at a centre, which is never a leaf for n >= 3,
but the rule holds for any root and any order of the children.

Plain ICs exist iff there are no closed twins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .graphs import Graph, bits


_MESSAGES = {
    "too-small": "component ({}) has fewer than 4 vertices",
    "closed-twins": "closed twins ({})",
    "triangle": "triangle edge ({}) has closed-neighborhood difference below 2",
}


@dataclass(frozen=True)
class NoCode:
    """Structured reason a code cannot exist, with the offending vertices."""

    why: str  # "too-small" | "closed-twins" | "support-degree" | "triangle"
    witness: tuple[int, ...]

    def __str__(self) -> str:
        if self.why == "support-degree":  # the witness is (support, leaf); name the support
            return " ".join(["support vertex", *map(str, self.witness[:1]), "has degree 2 or less"])
        return _MESSAGES[self.why].format(",".join(map(str, self.witness)))


def closed_twins(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs with identical closed neighborhoods, ascending."""
    if len(set(g._closed)) == g.n:
        return []
    groups: dict[int, list[int]] = {}
    for v, key in enumerate(g._closed):
        groups.setdefault(key, []).append(v)
    return sorted(pair for vs in groups.values() for pair in combinations(vs, 2))


def exists_red_ic(g: Graph) -> NoCode | None:
    """None when a RED:IC exists, otherwise the first failed condition.

    Conditions are checked in a fixed order (component size, closed twins,
    support degrees, triangle edges) with the lexicographically least
    witness, so failures are reproducible.
    """
    if g.n < 4:
        return NoCode("too-small", tuple(range(g.n)))
    for comp in g.components():
        if comp.bit_count() < 4:
            return NoCode("too-small", tuple(bits(comp)))
    twins = closed_twins(g)
    if twins:
        return NoCode("closed-twins", twins[0])
    deg = g.degrees()
    # (support, leaf) for every leaf whose support has degree below 3
    weak = [(a.bit_length() - 1, v) for v, a in enumerate(g.adj) if deg[v] == 1 and deg[a.bit_length() - 1] < 3]
    if weak:
        return NoCode("support-degree", min(weak))
    for (a, b, c) in g.triangles():
        for (u, v) in ((a, b), (a, c), (b, c)):
            if (g.closed_nbhd(u) ^ g.closed_nbhd(v)).bit_count() < 2:
                return NoCode("triangle", (u, v, ({a, b, c} - {u, v}).pop()))
    return None


@cache
def _lone_leaf_child(n: int):
    """The search for depths x, x + 1 followed by a depth <= x or the end,
    for x = 1..n-2: a non-root vertex whose only child is a leaf.  The end
    is \\Z, not $, which would also match before a final depth 10 (b"\\n")."""
    branches = (re.escape(bytes((x, x + 1))) + b"(?:[\\x00-" + re.escape(bytes((x,))) + b"]|\\Z)"
                for x in range(1, n - 1))
    return re.compile(b"|".join(branches)).search


def levels_have_red_ic(lev: list[int]) -> bool:
    """Whether the tree with preorder level sequence ``lev`` (depths below
    256) admits a RED:IC: n >= 4 and no support vertex of degree <= 2,
    found as the module docstring shows."""
    n = len(lev)
    if n < 4:
        return False
    seq = bytes(lev)
    root_degree = seq.count(1)
    if root_degree == 1 and seq.count(2) < 2 or root_degree == 2 and 1 in (seq[2], seq[-1]):
        return False
    return _lone_leaf_child(n)(seq) is None


def exists_ic(g: Graph) -> NoCode | None:
    """ICs exist exactly when the graph has no closed twins."""
    twins = closed_twins(g)
    return NoCode("closed-twins", twins[0]) if twins else None

