"""Isomorphism-free enumeration: free trees and connected cubic graphs.

Trees are level sequences (the depth of each vertex in preorder, rooted at
a centre), stepped through one per isomorphism class by the algorithm of
Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15, 1986) in constant
amortized time; vertex i is entry i.  Cubic graphs are generated
natively by an orderly algorithm (Read, Ann. Discrete Math. 2, 1978):
graphs are grown one vertex at a time, and a graph is emitted only if its
column-major upper-triangle encoding is the lexicographic maximum over all
relabelings.  Restricting each new vertex to attach to at least one
earlier vertex is sound because the maximal encoding of a connected graph
never contains an empty column, and prefixes of maximal encodings are
maximal for the induced subgraph -- so every isomorphism class is emitted
exactly once, with no explicit duplicate store.

The maximality test runs on every complete graph, but on a partial graph
only when it has two or more candidate children; one with fewer leaves the
decision to its child.  This is sound because a child of a non-maximal
graph is not maximal: the parent's better labeling, with the new vertex
put last, beats the child at the same column.  So a rejection is never
lost, only made further down, and every emitted graph is still tested.
Since the prefixes of a maximal complete graph are maximal and pass the
same filters, the emitted stream is the same, in the same order, as when
every partial graph is tested.  A partial graph with no children is never
tested, and the test of one with a single child could have spared at most
that child's test.

Each new vertex is moreover attached to the lowest vertex that still has
degree < 3 (Brinkmann's cubic generator, J. Graph Theory 23, 1996, rests
on the same idea).  Proof: let a_j be the earliest neighbour of vertex j.
In a maximal encoding the sequence a_1, a_2, ... is non-decreasing, for if
a_{j+1} < a_j, swapping positions j and j+1 would give column j a 1 at
position a_{j+1}, more significant than any 1 it has now, and a larger
encoding.  So once a vertex with earliest neighbour b is placed, no later
vertex touches any vertex a < b, and every such a must already have
degree 3.  A child that breaks the rule is therefore either rejected later
or has no cubic descendant; the children that keep it are generated in the
same order as before, so the emitted stream is unchanged, with about an
eighth of the canonicity tests.

The maximality test (``_better_labeling``) tries each start vertex and
extends relabelings position by position.  It classifies all unplaced
vertices against the target column at once with bitmask operations over
the placed prefix, so a search node costs O(depth) integer operations and
no per-vertex loop.  A completed relabeling with an equal encoding is an
automorphism; if it first differs from the current labeling at position
i, it maps its whole branch onto the branch that puts vertex i there,
which was searched earlier and failed, so the search unwinds to position
i (for i = 0, the start is abandoned).  When the labeling is not maximal
the test returns a strictly better one, and the same search gives
canonical forms: ``canonical_key`` climbs from better labeling to better
labeling until none is left, which is the maximum.
"""

from __future__ import annotations

import logging
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator

from .graphs import Graph, bits, mask_of

log = logging.getLogger(__name__)


# -- free trees ----------------------------------------------------------


def enum_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of free trees on n vertices:
    the ``Graph`` of each level sequence that ``tree_levels(n)`` walks to,
    in the same order.

    Building is the costly part: over n = 4..16 (32,505 trees) the walk
    takes about 0.09 s and building every graph (adjacency masks and
    ``Graph``) about 0.33 s, in one Python 3.11 process on a 2-vCPU x86-64
    machine.  The tree census therefore walks the sequences itself, decides
    existence on each sequence (``existence.levels_have_red_ic``, about
    0.04 s for all) and builds only the 3,150 trees that admit a code, in
    about 0.03-0.05 s.
    """
    for lev in tree_levels(n):
        yield tree_graph(lev)


def tree_graph(lev: list[int]) -> Graph:
    """The tree of a preorder level sequence: each vertex but the root 0 is
    joined to its parent, the latest earlier vertex one level up."""
    n = len(lev)
    adj = [0] * n
    last = [0] * n  # last[h]: the latest vertex seen at level h
    for v in range(1, n):
        h = lev[v]
        u = last[h - 1]
        last[h] = v
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def tree_levels(n: int, res: int = 0, mod: int = 1) -> Iterator[list[int]]:
    """The level sequences of the free trees on n vertices, one per
    isomorphism class, rooted at a centre.

    The stream starts at the path rooted at its centre.  A level sequence
    is canonical for its free tree when the root's first subtree, set
    against the rest of the tree, is lower, or as high and smaller, or of
    equal height and size and no greater as a sequence.  Each step takes
    the Beyer-Hedetniemi successor of rooted trees, and a non-canonical
    sequence jumps straight to the next canonical one.

    ``res`` and ``mod`` select a shard.  The walk visits the sequences
    with the same first subtree ``lev[:m]`` (m the root's second child)
    one after another; block b of those runs belongs to shard b % mod, so
    the shards for res = 0..mod-1 partition the stream, and merged block by
    block they give it in order.  At the first sequence of a block it does
    not own, a shard leaves the block with the jump it makes for a first
    subtree that is too big, so it never walks the sequences of the other
    shards' blocks.  The same list is yielded each time and changed in
    place by the next step: read it, or copy it, before asking for the next.
    """
    for name, value in (("n", n), ("res", res), ("mod", mod)):
        if not isinstance(value, int):
            raise ValueError(f"tree_levels needs an integer {name}, got {value!r}")
    if n < 1:
        raise ValueError("trees need n >= 1")
    if mod < 1 or not 0 <= res < mod:
        raise ValueError(f"a tree shard needs mod >= 1 and 0 <= res < mod, got res={res}, mod={mod}")
    lev = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    block, new_block = 0, True
    while True:
        try:
            m = lev.index(1, 2)  # the root's second child
        except ValueError:
            m = n
        # the first subtree, one level up, against the rest with the root:
        # heights, then sizes (m - 1 against n - m + 1), then the sequences,
        # which both start with the root's 0
        top, top_rest = max(lev[1:m], default=1) - 1, max(lev[m:], default=0)
        skip = top > top_rest or top == top_rest and (2 * m > n + 2 or 2 * m == n + 2
                                                      and [h - 1 for h in lev[2:m]] > lev[m:])
        if new_block and not skip:
            skip, block, new_block = block % mod != res, block + 1, False
            if skip and m <= 2:  # a first subtree of at most one vertex: the star, the last tree
                return
        if skip:
            # past every sequence with the first subtree lev[:m]
            deep = lev[m - 1] > 2
            _next_rooted(lev, m - 1)
            if deep:
                # the root has one child now: regrow the rest as a path one level taller
                h = max(lev)
                lev[n - h:] = range(1, h + 1)
            new_block = True
            continue
        yield lev
        p = n - 1  # the last vertex at depth > 1; lev[0] = 0 stops the scan
        while lev[p] == 1:
            p -= 1
        if p == 0:  # the star is the last tree
            return
        new_block = p < m  # the step changes the first subtree
        _next_rooted(lev, p)


def _next_rooted(lev: list[int], p: int) -> None:
    """Beyer-Hedetniemi successor in place: the levels from p's parent up
    to p are repeated periodically over positions p onwards."""
    q = p - 1
    while lev[q] != lev[p] - 1:
        q -= 1
    for i in range(p, len(lev)):
        lev[i] = lev[i - p + q]


# -- connected cubic graphs ------------------------------------------------


def _column_value(nbr_mask: int, order: Iterable[int]) -> int:
    """Column bits of a candidate vertex against already-placed vertices.

    Earlier placed vertices occupy more significant bits, so columns of the
    same length compare as plain integers.
    """
    c = 0
    for p in order:
        c = c << 1 | (nbr_mask >> p & 1)
    return c


def _better_labeling(adj: list[int], cols: list[int]) -> list[int] | None:
    """A relabeling with a larger encoding, or None when the current
    labeling's encoding is the lexicographic maximum.

    ``cols[j-1]`` is the column of the vertex at position j: its adjacency
    to positions 0..j-1, position 0 in the most significant bit.  The
    search places vertices one position at a time and looks for a
    relabeling whose column sequence is strictly larger, abandoning a
    branch as soon as it falls below the current one.  The first vertex
    found to beat the target column settles it: the placed prefix ties
    ``cols``, so every completion is larger.  The relabeling is returned
    as a position -> vertex list: the prefix, the beating vertex, then the
    other unplaced vertices in ascending order.

    Classification is bit-parallel.  At depth d the unplaced vertices are
    compared with the target column ``cols[d-1]`` over the placed prefix
    ``order``, most significant position first, as vertex masks: ``eq``
    holds the vertices still equal to the target; where the target bit is
    1, ``eq &= adj[p]``; where it is 0, the neighbours of ``p`` in ``eq``
    are larger (the labeling is beaten) and the rest stay in ``eq``.  The
    vertices left in ``eq`` are the ties to branch on.  When the target
    extends the parent's (``cols[d-1] >> 1 == cols[d-2]``), the parent's
    ties minus the chosen vertex are already the equal class over the old
    prefix, so only the newest position is compared.

    Automorphism cut: a complete relabeling with an equal encoding is an
    automorphism.  Let i be the first position where it differs from the
    current labeling (position p -> vertex p): it fixes vertices 0..i-1
    and maps vertex i to the vertex v it puts at position i, so it carries
    every relabeling under the prefix 0..i-1, v to one under 0..i-1, i with
    the same encoding.  Vertex i is the lowest tie at that node, so its
    branch was searched in full first and found nothing larger; nothing
    under v is larger either, and the search unwinds to position i and
    tries the next tie (for i = 0, the next start).  Only the labeling
    itself differs nowhere, and it is simply passed.
    """
    k = len(adj)
    if k <= 2:
        return None
    order = [0] * k
    better = None

    def extend(depth: int, free: int, ties: int) -> int:
        # order[:depth] is placed; free holds the unplaced vertices and ties
        # those of them equal to cols[depth-2] over order[:depth-1].  Returns
        # the depth to unwind to: -1 once ``better`` is set, k for none
        nonlocal better
        if depth == k:  # an equal encoding: order is an automorphism
            return next((p for p in range(k) if order[p] != p), k)
        target = cols[depth - 1]
        if depth >= 2 and target >> 1 == cols[depth - 2]:
            a = adj[order[depth - 1]]
            if target & 1:
                eq = ties & a
            elif ties & a:
                better = _beaten(order, depth, free, ties & a)
                return -1
            else:
                eq = ties
        else:
            eq = free
            bit = 1 << depth
            for p in order[:depth]:
                bit >>= 1
                a = adj[p]
                if target & bit:
                    eq &= a
                elif eq & a:
                    better = _beaten(order, depth, free, eq & a)
                    return -1
                if not eq:
                    return k
        rest = eq
        while rest:
            low = rest & -rest
            rest ^= low
            order[depth] = low.bit_length() - 1
            r = extend(depth + 1, free ^ low, eq ^ low)
            if r < depth:
                return r
        return k

    full = (1 << k) - 1
    for start in range(k):
        order[0] = start
        if extend(1, full ^ 1 << start, 0) < 0:
            return better
    return None


def _beaten(order: list[int], depth: int, free: int, larger: int) -> list[int]:
    """The placed prefix, the lowest vertex of ``larger``, then the rest of
    ``free`` in ascending order."""
    v = (larger & -larger).bit_length() - 1
    rest = free ^ 1 << v
    return order[:depth] + [v] + [u for u in range(len(order)) if rest >> u & 1]


def enum_cubic(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected 3-regular graphs.

    Odd n yields nothing (the degree sum would be odd); a note is logged.
    """
    if not isinstance(n, int):
        raise ValueError(f"enum_cubic needs an integer n, got {n!r}")
    if n < 4:
        return
    if n % 2:
        log.info("no cubic graph exists on %d vertices (odd order)", n)
        return
    yield from _grow_cubic([0], [], n)


@cache
def cubic_graphs_cached(n: int) -> tuple[Graph, ...]:
    """Materialized ``enum_cubic`` stream; graphs are immutable, reuse is safe."""
    return tuple(enum_cubic(n))


def _grow_cubic(adj: list[int], cols: list[int], n: int) -> Iterator[Graph]:
    """The maximal completions of a partial graph, in stream order.  The
    canonicity test runs only where it can prune: on a complete graph, and
    on a partial graph with two or more children (module docstring)."""
    if len(adj) == n:
        if _better_labeling(adj, cols) is None:
            yield Graph(n, adj)
        return
    children = _children(adj, cols, n)
    if len(children) > 1 and _better_labeling(adj, cols) is not None:
        return
    for child in children:
        yield from _grow_cubic(*child, n)


def _children(adj: list[int], cols: list[int], n: int) -> list[tuple[list[int], list[int]]]:
    """The candidate children of a partial graph as (adjacency, columns),
    in stream order: each way of joining vertex k to earlier vertices that
    the degree arithmetic, the lowest-open-vertex rule and the swap check
    allow.  None of them is tested for canonicity here."""
    k = len(adj)
    # Degree arithmetic, decided once per level: can the partial graph still
    # close to 3-regular once the new vertex joins?  No deficit may exceed
    # the future vertices' count (simple graph), so a deficit of future + 1
    # must drop by joining the new vertex.  The remaining total deficit must
    # fit the future vertices' 3-slot budget with matching parity (each
    # internal future edge consumes two slots); it depends only on the size
    # of the new vertex's backward neighbourhood.
    future = n - k - 1
    deficits = [3 - a.bit_count() for a in adj]
    if max(deficits) > future + 1:
        return []
    must = mask_of(v for v, d in enumerate(deficits) if d == future + 1)
    open_verts = [v for v in range(k) if deficits[v] > 0]
    children = []
    for size in (3, 2, 1):
        total = sum(deficits) + 3 - 2 * size
        if (size > len(open_verts) or total > 3 * future or (total - future) % 2
                or (future == 0 and total) or 3 * future - total > future * (future - 1)):
            continue
        # the lowest unsaturated vertex is always a neighbour (module docstring)
        for rest in combinations(open_verts[1:], size - 1):
            mask = 1 << open_verts[0]
            for v in rest:
                mask |= 1 << v
            if must & ~mask:
                continue
            new_col = _column_value(mask, range(k))
            # swapping the last two vertices must not increase the encoding
            if k >= 2 and new_col >> 1 > cols[-1]:
                continue
            new_adj = [a | ((mask >> v & 1) << k) for v, a in enumerate(adj)]
            new_adj.append(mask)
            children.append((new_adj, cols + [new_col]))
    return children


# -- canonical certificates (for tests and de-duplication) -----------------


def canonical_key(g: Graph) -> tuple[int, ...]:
    """Canonical form usable as an isomorphism-class key (small graphs):
    the key begins with n, so two graphs are isomorphic exactly when their
    keys are equal.

    The maximal column encoding, reached by a climb: while
    ``_better_labeling`` finds a relabeling with a larger encoding, move
    to it.  Each step strictly raises the encoding, so the climb ends at
    the maximum.  Meant for the sizes the enumerators are verified at, not
    for large graphs.
    """
    n = g.n
    adj = list(g.adj)
    while True:
        cols = [_column_value(adj[j], range(j)) for j in range(1, n)]
        order = _better_labeling(adj, cols)
        if order is None:
            return (n, *cols)
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        adj = [mask_of(pos[u] for u in bits(adj[v])) for v in order]
