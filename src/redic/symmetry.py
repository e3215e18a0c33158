"""Automorphism groups that a graph's builder provenance names.

``automorphisms(g)`` reads ``g.meta`` and never infers symmetry from the
shape: a torus, honeycomb quotient or hypercube made by its named builder
gets its group, every other graph None.  Each family names a list of
generators, and each is checked against the adjacency.

``PermutationGroup`` holds generators only, so no group is enumerated and
none need be transitive.  It derives a stabiliser chain a level at a time
(Sims; Seress, *Permutation Group Algorithms*, 2003): a breadth-first
search from x gives the orbit of x and, for each y in it, an element u_y
taking x to y; the Schreier generators u_{s(y)}^-1 s u_y, over the orbit
and the generators s, generate the stabiliser of x, and Sims' filter keeps
at most one per (first moved point, its image).  Most of them are the
identity, s u_y = u_{s(y)}, which one tuple comparison finds before any
inverse is formed.  The order is the product of the orbit lengths down
the chain.

A permutation is a tuple p with p[v] the image of vertex v; _compose(p, q)
applies q first.  Every element is a product of generators that
``automorphisms`` has checked against the adjacency, so it is an
automorphism too.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable

from .graphs import Graph, mask_of

Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    return itemgetter(*q)(p)  # a tuple for n >= 2, as every non-identity permutation has


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for v, w in enumerate(p):
        inv[w] = v
    return tuple(inv)


def _sift(table: dict[tuple[int, int], Perm], g: Perm) -> None:
    """Sims' filter: ``table`` keeps the inverse of at most one element per
    (first moved point i, image of i).  Where g's slot is taken by h, h^-1 g
    fixes i and every point before it and generates with h what g does, so
    it replaces g; an identity is dropped."""
    for i in range(len(g)):
        if g[i] != i:
            key = i, g[i]
            if key not in table:
                table[key] = _inverse(g)
                return
            g = _compose(table[key], g)


class PermutationGroup:
    """The group that ``generators``, permutations of range(n), generate.

    It holds its distinct non-identity generators, never its elements, and
    keeps each orbit and stabiliser it derives: a search asks again."""

    def __init__(self, n: int, generators: Iterable[Perm]):
        ident = tuple(range(n))
        self.n = n
        self.generators = tuple(dict.fromkeys(p for p in map(tuple, generators) if p != ident))
        self._levels: dict[int, tuple[int, PermutationGroup | None]] = {}

    def orbit(self, x: int) -> int:
        """Bitmask of the images of x."""
        return self._level(x)[0]

    def stabiliser(self, x: int) -> PermutationGroup | None:
        """The subgroup fixing x, or None when only the identity does."""
        return self._level(x)[1]

    def _level(self, x: int) -> tuple[int, PermutationGroup | None]:
        if x not in self._levels:
            u = {x: tuple(range(self.n))}  # u[y] takes x to y
            reached = [x]
            for y in reached:
                for s in self.generators:
                    if s[y] not in u:
                        u[s[y]] = _compose(s, u[y])
                        reached.append(s[y])
            stab = self if self.generators else None  # when x is fixed
            if len(u) > 1:
                inv, seen, table = {}, set(), {}
                for y, p in u.items():
                    for s in self.generators:
                        sp, z = _compose(s, p), s[y]
                        if sp == u[z]:  # the Schreier generator is the identity
                            continue
                        if z not in inv:
                            inv[z] = _inverse(u[z])
                        g = _compose(inv[z], sp)  # a Schreier generator
                        if g not in seen:
                            seen.add(g)
                            _sift(table, g)
                stab = PermutationGroup(self.n, table.values()) if table else None
            self._levels[x] = mask_of(u), stab
        return self._levels[x]

    @cached_property
    def order(self) -> int:
        """The product of the orbit lengths down a stabiliser chain, each
        level's base point the first point its first generator moves."""
        b = next((v for p in self.generators for v, w in enumerate(p) if v != w), 0)
        stab = self.stabiliser(b)
        return self.orbit(b).bit_count() * (stab.order if stab is not None else 1)


def _grid(r: int, c: int, f) -> Perm:
    """The map (a, b) -> f(a, b) on an r x c grid with wrap-around, where
    vertex a * c + b sits at (a, b)."""
    return tuple((a % r) * c + b % c for a, b in (f(a, b) for a in range(r) for b in range(c)))


def _torus_group(i: int, j: int) -> list[Perm]:
    gens = [_grid(i, j, lambda a, b: (a + 1, b)), _grid(i, j, lambda a, b: (a, b + 1)),
            _grid(i, j, lambda a, b: (-a, b)), _grid(i, j, lambda a, b: (a, -b))]
    if i == j:
        gens.append(_grid(i, j, lambda a, b: (b, a)))
    return gens


def _honeycomb_group(m: int, n: int) -> list[Perm]:
    if m % 2 or n % 2:
        raise ValueError(f"honeycomb_torus{(m, n)} needs even dimensions")
    # translations by (a, b) with a + b even keep the vertical edges; the
    # reflection in rows swaps the two parity classes
    return [_grid(m, n, lambda a, b: (a + 1, b + 1)), _grid(m, n, lambda a, b: (a, b + 2)),
            _grid(m, n, lambda a, b: (1 - a, b)), _grid(m, n, lambda a, b: (a, -b))]


def _hypercube_group(d: int) -> list[Perm]:
    n = 1 << d
    flips = [tuple(v ^ 1 << k for v in range(n)) for k in range(d)]
    if d < 2:
        return flips
    # exchanging coordinates 0 and 1 and rotating all d generate S_d
    swap = tuple(v ^ 0b11 if (v ^ v >> 1) & 1 else v for v in range(n))
    rotate = tuple((v << 1 | v >> d - 1) & n - 1 for v in range(n))
    return [*flips, swap, rotate]


# above d = 7 the hypercube gets no group and is searched plainly, which
# keeps the node counts of Q8 and up.  Only Q8's group would be cheap: its
# generators, order and one stabiliser take about 30 ms on a 2-vCPU x86-64
# host, but Q9 0.19 s, Q10 0.9 s and Q11 3.9 s.  The kept generating sets
# stay small (at most 36 per level for Q11); the cost is level 0's orbit,
# where Q11 meets 26,624 Schreier generators, 22,528 of them the identity:
# those are recognised without composing an inverse, but each still costs
# one composition s u_y
_MAX_HYPERCUBE_DIM = 7


def _is_automorphism(g: Graph, p: Perm) -> bool:
    if len(p) != g.n or sorted(p) != list(range(g.n)):
        return False
    adj = g.adj
    for v, a in enumerate(adj):
        m = 0
        while a:
            low = a & -a
            m |= 1 << p[low.bit_length() - 1]
            a ^= low
        if m != adj[p[v]]:
            return False
    return True


def automorphisms(g: Graph) -> PermutationGroup | None:
    """The automorphism group that ``g.meta`` names, or None.

    Only builder provenance counts; nothing is inferred from the shape.
    Each family names its generators.  ``torus``: the unit translations,
    the two reflections and, when i == j, the transpose.
    ``honeycomb_torus``: the (1,1) and (0,2) translations and the
    reflections (i,j) -> (1-i,j) and (i,j) -> (i,-j).  ``hypercube``: the
    XOR translations, the exchange of coordinates 0 and 1 and the rotation
    of all d, for d <= 7 only.  Raises ValueError when one of them is not
    an automorphism of ``g``.
    """
    fam, params = g.provenance()
    if g.n == 0:  # no vertex for a group to move
        return None
    if fam == "torus" and len(params) == 2:
        gens = _torus_group(*params)
    elif fam == "honeycomb_torus" and len(params) == 2:
        gens = _honeycomb_group(*params)
    elif fam == "hypercube" and len(params) == 1 and params[0] <= _MAX_HYPERCUBE_DIM:
        gens = _hypercube_group(*params)
    else:
        return None
    for p in gens:
        if not _is_automorphism(g, p):
            raise ValueError(f"{fam}{params} names a map that is not an automorphism of this graph")
    return PermutationGroup(g.n, gens)
