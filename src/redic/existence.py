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
``tree_has_red_ic`` decides it on a parent array, with no ``Graph``.

Plain ICs exist iff there are no closed twins.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def tree_has_red_ic(parent: list[int]) -> bool:
    """Whether a tree admits a RED:IC, given as a parent array: vertex 0 is
    the root and every other vertex v has the edge v - parent[v].  The test
    is n >= 4 and every support vertex of degree >= 3 (module docstring),
    so it needs only the degrees, and no ``Graph``.
    """
    n = len(parent)
    if n < 4:
        return False
    deg = [1] * n  # every vertex but the root has its parent
    deg[0] = 0
    for v in range(1, n):
        deg[parent[v]] += 1
    if deg[0] == 1 and deg[parent.index(0, 1)] < 3:  # the root is a leaf
        return False
    return all(deg[parent[v]] >= 3 for v in range(1, n) if deg[v] == 1)


def has_red_ic(g: Graph) -> bool:
    return exists_red_ic(g) is None


def exists_ic(g: Graph) -> NoCode | None:
    """ICs exist exactly when the graph has no closed twins."""
    twins = closed_twins(g)
    return NoCode("closed-twins", twins[0]) if twins else None

