"""Automorphism groups that a graph's builder provenance names.

``automorphisms(g)`` reads ``g.meta`` and never infers symmetry from the
shape: a torus, honeycomb quotient or hypercube made by its named builder
gets its group, every other graph None.  Each family names only
permutations: ``moves`` and ``fixers``, which together generate its group,
the fixers alone generating the stabiliser of vertex 0.  ``Automorphisms``
derives the rest once, as the first level of a stabiliser chain (Sims;
Seress, *Permutation Group Algorithms*, 2003): a breadth-first search from
vertex 0 gives one element per vertex taking 0 there and checks that the
group is transitive, and the closure of the fixers gives the stabiliser.
The group itself is never enumerated.

A permutation is a tuple p with p[v] the image of vertex v; _compose(p, q)
applies q first.  Every element is a product of generators that
``automorphisms`` has checked against the adjacency, so it is an
automorphism too.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph

Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    return tuple(map(p.__getitem__, q))


class PermutationGroup:
    """A small group held as the tuple of all its elements."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[Perm]):
        self.elements = tuple(elements)

    def orbit(self, x: int) -> int:
        """Bitmask of the images of x."""
        m = 0
        for p in self.elements:
            m |= 1 << p[x]
        return m

    def stabiliser(self, x: int) -> PermutationGroup | None:
        """The elements fixing x, or None when only the identity does."""
        fix = [p for p in self.elements if p[x] == x]
        return PermutationGroup(fix) if len(fix) > 1 else None


class Automorphisms:
    """A group of automorphisms transitive on the vertices, never enumerated.

    It is built from two lists of permutations, ``moves`` and ``fixers``:
    together they generate the group, and the fixers must fix vertex 0 and
    generate its whole stabiliser (the tests close each family's group to
    check the latter).  A breadth-first search from 0 over the
    generators gives ``transversal[x]``, an element taking 0 to x, and the
    closure of the fixers gives ``stabiliser0``, every element fixing 0.
    Every element is ``transversal[x]`` times an element of the stabiliser,
    so the order is n times its size, and the stabiliser of x is its
    conjugate t_x Stab(0) t_x^-1.  Raises ValueError when a fixer moves 0
    or the generators do not take 0 to every vertex.
    """

    __slots__ = ("n", "generators", "transversal", "stabiliser0")

    def __init__(self, n: int, moves: Sequence[Perm], fixers: Sequence[Perm]):
        if any(p[0] for p in fixers):
            raise ValueError("a fixer moves vertex 0")
        self.n = n
        self.generators = gens = (*moves, *fixers)
        t = [None] * n
        t[0] = tuple(range(n))
        reached = [0]
        for x in reached:
            for s in gens:
                if t[s[x]] is None:
                    t[s[x]] = _compose(s, t[x])
                    reached.append(s[x])
        if len(reached) < n:
            raise ValueError(f"the generators take vertex 0 to {len(reached)} of {n} vertices")
        self.transversal = tuple(t)
        stab = [tuple(range(n))]
        seen = set(stab)
        for p in stab:
            for s in fixers:
                q = _compose(s, p)
                if q not in seen:
                    seen.add(q)
                    stab.append(q)
        self.stabiliser0 = tuple(stab)

    @property
    def order(self) -> int:
        return self.n * len(self.stabiliser0)

    def orbit(self, x: int) -> int:
        return (1 << self.n) - 1  # transitive

    def stabiliser(self, x: int) -> PermutationGroup | None:
        """All elements fixing x, or None when only the identity does."""
        if len(self.stabiliser0) == 1:
            return None
        t = self.transversal[x]
        inv = [0] * self.n
        for v, w in enumerate(t):
            inv[w] = v
        inv = tuple(inv)
        return PermutationGroup([_compose(t, _compose(s, inv)) for s in self.stabiliser0])


def _grid(r: int, c: int, f) -> Perm:
    """The map (a, b) -> f(a, b) on an r x c grid with wrap-around, where
    vertex a * c + b sits at (a, b)."""
    return tuple((a % r) * c + b % c for a, b in (f(a, b) for a in range(r) for b in range(c)))


def _torus_group(i: int, j: int):
    flips = [_grid(i, j, lambda a, b: (-a, b)), _grid(i, j, lambda a, b: (a, -b))]
    if i == j:
        flips.append(_grid(i, j, lambda a, b: (b, a)))
    return [_grid(i, j, lambda a, b: (a + 1, b)), _grid(i, j, lambda a, b: (a, b + 1))], flips


def _honeycomb_group(m: int, n: int):
    if m % 2 or n % 2:
        raise ValueError(f"honeycomb_torus{(m, n)} needs even dimensions")
    # translations by (a, b) with a + b even keep the vertical edges; the
    # reflection in rows swaps the two parity classes
    moves = [_grid(m, n, lambda a, b: (a + 1, b + 1)), _grid(m, n, lambda a, b: (a, b + 2)),
             _grid(m, n, lambda a, b: (1 - a, b))]
    return moves, [_grid(m, n, lambda a, b: (a, -b))]


def _hypercube_group(d: int):
    n = 1 << d
    flips = [tuple(v ^ 1 << k for v in range(n)) for k in range(d)]
    if d < 2:
        return flips, []
    # exchanging coordinates 0 and 1 and rotating all d generate S_d
    swap = tuple(v ^ 0b11 if (v ^ v >> 1) & 1 else v for v in range(n))
    rotate = tuple((v << 1 | v >> d - 1) & n - 1 for v in range(n))
    return flips, [swap, rotate]


# a hypercube's vertex stabiliser is S_d on the coordinates, held as all d!
# elements; above d = 7 (5,040) the hypercube gets no group
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


def automorphisms(g: Graph) -> Automorphisms | None:
    """The automorphism group that ``g.meta`` names, or None.

    Only builder provenance counts; nothing is inferred from the shape.
    Each family names its moves and its fixers (which fix vertex 0).
    ``torus``: the unit translations; the two reflections and, when
    i == j, the transpose.  ``honeycomb_torus``: the (1,1) and (0,2)
    translations and the reflection (i,j) -> (1-i,j); the reflection
    (i,j) -> (i,-j).  ``hypercube``: the XOR translations; the exchange of
    coordinates 0 and 1 and the rotation of all d, for d <= 7 only.
    Raises ValueError when one of them is not an automorphism of ``g``, or
    as ``Automorphisms`` does.
    """
    fam, params = g.provenance()
    if g.n == 0:  # no vertex 0 to move
        return None
    if fam == "torus" and len(params) == 2:
        moves, fixers = _torus_group(*params)
    elif fam == "honeycomb_torus" and len(params) == 2:
        moves, fixers = _honeycomb_group(*params)
    elif fam == "hypercube" and len(params) == 1 and params[0] <= _MAX_HYPERCUBE_DIM:
        moves, fixers = _hypercube_group(*params)
    else:
        return None
    for p in (*moves, *fixers):
        if not _is_automorphism(g, p):
            raise ValueError(f"{fam}{params} names a map that is not an automorphism of this graph")
    return Automorphisms(g.n, moves, fixers)
