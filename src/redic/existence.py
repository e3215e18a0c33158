"""Existence tests: does a graph admit any RED:IC (or IC) at all?

For a connected graph on n >= 4 vertices a RED:IC exists iff there are no
closed twins, every support vertex has degree >= 3, and every edge lying
on a triangle has |N[a] symdiff N[b]| >= 2 (taking S = V(G) then verifies).
Components with fewer than four vertices never admit one; a disconnected
graph is decided per component.

Plain ICs exist iff there are no closed twins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits


@dataclass(frozen=True)
class NoCode:
    """Structured reason a code cannot exist, with the offending vertices."""

    why: str  # "too-small" | "closed-twins" | "support-degree" | "triangle"
    witness: tuple[int, ...]

    def __str__(self) -> str:
        w = ",".join(map(str, self.witness))
        return {
            "too-small": f"component ({w}) has fewer than 4 vertices",
            "closed-twins": f"closed twins ({w})",
            "support-degree": f"support vertex {self.witness[0]} has degree 2 or less",
            "triangle": f"triangle edge ({w}) has closed-neighborhood difference below 2",
        }[self.why]


def closed_twins(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs with identical closed neighborhoods."""
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.closed_nbhd(v), []).append(v)
    out = []
    for vs in groups.values():
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                out.append((vs[i], vs[j]))
    out.sort()
    return out


def _supports(g: Graph) -> list[tuple[int, int]]:
    """(support, leaf) pairs, lowest leaf per support, ascending by support."""
    out = {}
    for v in range(g.n):
        if g.degree(v) == 1:
            s = next(bits(g.adj[v]))
            if s not in out or v < out[s]:
                out[s] = v
    return sorted(out.items())


def _first_twin(g: Graph) -> tuple[int, int] | None:
    seen: dict[int, int] = {}
    best = None
    for v in range(g.n):
        key = g.closed_nbhd(v)
        if key in seen:
            pair = (seen[key], v)
            if best is None or pair < best:
                best = pair
        else:
            seen[key] = v
    return best


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
    twin = _first_twin(g)
    if twin is not None:
        return NoCode("closed-twins", twin)
    for s, leaf in _supports(g):
        if g.degree(s) < 3:
            return NoCode("support-degree", (s, leaf))
    for (a, b, c) in g.triangles():
        for (u, v) in ((a, b), (a, c), (b, c)):
            if (g.closed_nbhd(u) ^ g.closed_nbhd(v)).bit_count() < 2:
                return NoCode("triangle", (u, v, ({a, b, c} - {u, v}).pop()))
    return None


def has_red_ic(g: Graph) -> bool:
    return exists_red_ic(g) is None


def exists_ic(g: Graph) -> NoCode | None:
    """ICs exist exactly when the graph has no closed twins."""
    twin = _first_twin(g)
    if twin is not None:
        return NoCode("closed-twins", twin)
    return None

