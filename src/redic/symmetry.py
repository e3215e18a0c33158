"""Automorphism groups that a graph's builder provenance names.

``automorphisms(g)`` reads ``g.meta`` and never infers symmetry from the
shape: a torus, honeycomb quotient or hypercube made by its named builder
gets its group, every other graph None.  Each group is transitive on the
vertices and is held without being enumerated, as the stabiliser of
vertex 0 plus one element per vertex taking 0 there.

A permutation is a tuple p with p[v] the image of vertex v; _compose(p, q)
applies q first.  Every element is a product of generators that
``automorphisms`` has checked against the adjacency, so it is an
automorphism too.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, bits

Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    return tuple(map(p.__getitem__, q))


def _product(n: int, perms: Iterable[Perm]) -> Perm:
    out = tuple(range(n))
    for p in perms:
        out = _compose(out, p)
    return out


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
    """A vertex-transitive group of automorphisms, never enumerated.

    It is held as the stabiliser of vertex 0 and a rule ``transversal(x)``
    giving one element that takes 0 to x.  Every element is
    ``transversal(x)`` times an element of the stabiliser, so the order is
    n times the stabiliser's, and the stabiliser of x is its conjugate
    t_x Stab(0) t_x^-1.
    """

    __slots__ = ("n", "generators", "transversal", "stabiliser0")

    def __init__(self, n: int, generators: Sequence[Perm], transversal, stabiliser0: Sequence[Perm]):
        self.n = n
        self.generators = tuple(generators)
        self.transversal = transversal
        self.stabiliser0 = tuple(stabiliser0)

    @property
    def order(self) -> int:
        return self.n * len(self.stabiliser0)

    def orbit(self, x: int) -> int:
        return (1 << self.n) - 1  # transitive

    def stabiliser(self, x: int) -> PermutationGroup | None:
        """All elements fixing x, or None when only the identity does."""
        if len(self.stabiliser0) == 1:
            return None
        t = self.transversal(x)
        inv = [0] * self.n
        for v, w in enumerate(t):
            inv[w] = v
        inv = tuple(inv)
        return PermutationGroup([_compose(t, _compose(s, inv)) for s in self.stabiliser0])


def _cosets(n: int, factors: Sequence[Sequence[Perm]]) -> list[Perm]:
    """Every product f1 f2 ... fk with fi drawn from factors[i], in order."""
    out = [tuple(range(n))]
    for f in factors:
        out = [_compose(p, q) for p in out for q in f]
    return out


def _torus_group(i: int, j: int):
    def perm(f):
        return tuple((a % i) * j + b % j for a, b in (f(a, b) for a in range(i) for b in range(j)))

    down, right = perm(lambda a, b: (a + 1, b)), perm(lambda a, b: (a, b + 1))
    flips = [perm(lambda a, b: (-a, b)), perm(lambda a, b: (a, -b))]
    if i == j:
        flips.append(perm(lambda a, b: (b, a)))

    def transversal(x):
        a, b = divmod(x, j)
        return _product(i * j, [down] * a + [right] * b)

    stab = _cosets(i * j, [[tuple(range(i * j)), f] for f in flips])
    return [down, right, *flips], transversal, stab


def _honeycomb_group(m: int, n: int):
    if m % 2 or n % 2:
        raise ValueError(f"honeycomb_torus{(m, n)} needs even dimensions")

    def perm(f):
        return tuple((a % m) * n + b % n for a, b in (f(a, b) for a in range(m) for b in range(n)))

    # translations by (a, b) with a + b even keep the vertical edges; the
    # reflection in rows swaps the two parity classes
    diag, across = perm(lambda a, b: (a + 1, b + 1)), perm(lambda a, b: (a, b + 2))
    rows, cols = perm(lambda a, b: (1 - a, b)), perm(lambda a, b: (a, -b))

    def shift(a, b):  # translation by (a, b), a + b even
        a %= m
        return [diag] * a + [across] * ((b - a) % n // 2)

    def transversal(x):
        a, b = divmod(x, n)
        if (a + b) % 2 == 0:
            return _product(m * n, shift(a, b))
        return _product(m * n, shift(a - 1, b) + [rows])  # rows takes 0 to (1, 0)

    return [diag, across, rows, cols], transversal, [tuple(range(m * n)), cols]


def _hypercube_group(d: int):
    n = 1 << d

    def swap(k):  # exchange coordinates k and k + 1
        return tuple(v ^ (0b11 << k) if (v >> k ^ v >> k + 1) & 1 else v for v in range(n))

    flips = [tuple(v ^ 1 << k for v in range(n)) for k in range(d)]
    swaps = [swap(k) for k in range(d - 1)]

    def transversal(x):
        return _product(n, (flips[k] for k in bits(x)))

    # S_{k+1} = the union over m of c_m S_k, where c_m = s_{k-m} ... s_{k-1}
    # takes coordinate k to k - m
    stab = _cosets(n, [[_product(n, swaps[k - m:k]) for m in range(k + 1)]
                       for k in range(d - 1, 0, -1)])
    return [*flips, *swaps], transversal, stab


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
    ``torus``: translations, both reflections and, when i == j, the
    transpose.  ``honeycomb_torus``: the (1,1) and (0,2) translations and
    the reflections (i,j) -> (1-i,j) and (i,j) -> (i,-j).  ``hypercube``:
    XOR translations and coordinate permutations, for d <= 7 only.  Each of
    these groups is transitive on the vertices.  Raises ValueError when a
    generator is not an automorphism of ``g``.
    """
    fam, params = g.provenance()
    if fam == "torus" and len(params) == 2:
        gens, transversal, stab = _torus_group(*params)
    elif fam == "honeycomb_torus" and len(params) == 2:
        gens, transversal, stab = _honeycomb_group(*params)
    elif fam == "hypercube" and len(params) == 1 and params[0] <= _MAX_HYPERCUBE_DIM:
        gens, transversal, stab = _hypercube_group(*params)
    else:
        return None
    for p in gens:
        if not _is_automorphism(g, p):
            raise ValueError(f"{fam}{params} names a map that is not an automorphism of this graph")
    return Automorphisms(g.n, gens, transversal, stab)
