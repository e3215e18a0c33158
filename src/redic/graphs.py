"""Immutable bitmask graphs: builders, products, graph6 I/O, edge-list input.

Vertices are dense integers 0..n-1.  Adjacency is stored as one Python int
per vertex (bit v of ``adj[u]`` is set iff uv is an edge), so neighborhood
algebra -- union, intersection, symmetric difference -- is a single integer
operation.  Python ints are arbitrary precision, so there is no fixed upper
limit on the number of vertices.

Graphs are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence


class Graph6Error(ValueError):
    """Malformed graph6 data."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_adjacency(n: int, adj: tuple[int, ...]) -> None:
    """Raise ValueError unless ``adj`` is a loopless symmetric adjacency on
    vertices 0..n-1.

    Each bit above the diagonal (v in row u, u < v) is looked up in row v.
    When all of them have their mirror there and they are half of all bits,
    the bits below the diagonal are exactly those mirrors, so the check is
    O(n + m) and walks each edge once.
    """
    if len(adj) != n:
        raise ValueError(f"adjacency has {len(adj)} masks for {n} vertices")
    upper = 0
    for u, a in enumerate(adj):
        if a < 0 or a >> n:
            raise ValueError(f"neighbors of vertex {u} lie outside 0..{n - 1}")
        if a >> u & 1:
            raise ValueError(f"loop at vertex {u}")
        rest = a >> u
        while rest > 1:  # the neighbors above u, highest first
            k = rest.bit_length() - 1
            rest ^= 1 << k
            if not adj[u + k] >> u & 1:
                raise ValueError(f"edge ({u}, {u + k}) has no reverse ({u + k}, {u})")
            upper += 1
    if 2 * upper != sum(map(int.bit_count, adj)):  # a bit below the diagonal has no mirror
        for v, a in enumerate(adj):
            for u in bits(a & ((1 << v) - 1)):
                if not adj[u] >> v & 1:
                    raise ValueError(f"edge ({v}, {u}) has no reverse ({u}, {v})")


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``labels`` and ``meta`` are annotations only; equality and hashing use
    the adjacency structure alone, so a graph6 round trip compares equal to
    the original.
    """

    __slots__ = ("n", "adj", "labels", "meta", "_closed")

    def __init__(
        self,
        n: int,
        adj: Sequence[int],
        labels: Sequence[str] | None = None,
        meta: Mapping | None = None,
    ):
        adj = tuple(adj)
        _check_adjacency(n, adj)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} vertices")
        self.n = n
        self.adj = adj
        self.labels = labels
        self.meta = dict(meta) if meta is not None else None
        self._closed = tuple(a | (1 << v) for v, a in enumerate(adj))

    # -- basic queries -------------------------------------------------

    def closed_nbhd(self, v: int) -> int:
        """Bitmask of N[v] = N(v) | {v}."""
        return self._closed[v]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for v in bits(rest):
                out.append((u, u + 1 + v))
        return out

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v)

    # -- structure -----------------------------------------------------

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks, by lowest vertex."""
        adj = self.adj
        remaining = self.full_mask()
        comps = []
        while remaining:
            start = remaining & -remaining
            seen = start
            frontier = start
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & ~seen
                seen |= frontier
            comps.append(seen)
            remaining &= ~seen
        return comps

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected() and self.num_edges() == self.n - 1

    def is_cubic(self) -> bool:
        return self.n > 0 and all(a.bit_count() == 3 for a in self.adj)

    def triangles(self) -> list[tuple[int, int, int]]:
        """All triangles as sorted vertex triples."""
        out = []
        for u in range(self.n):
            above_u = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(above_u):
                common = self.adj[u] & self.adj[v] >> (v + 1) << (v + 1)
                for w in bits(common):
                    out.append((u, v, w))
        return out

    # -- dunder --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def provenance(self) -> tuple[str | None, tuple]:
        """The builder family and parameters recorded in ``meta``, or (None, ())."""
        if not self.meta or "family" not in self.meta:
            return None, ()
        return self.meta["family"], tuple(self.meta.get("params", ()))

    def __repr__(self) -> str:
        fam, _ = self.provenance()
        tag = f" {fam}" if fam else ""
        return f"<Graph{tag} n={self.n} m={self.num_edges()}>"


# -- construction ------------------------------------------------------


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
    meta: Mapping | None = None,
) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops are rejected
    (by ``Graph``)."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj, labels=labels, meta=meta)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], meta={"family": "path", "params": (n,)})


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], meta={"family": "cycle", "params": (n,)})


def star_graph(k: int) -> Graph:
    """K_{1,k}: center vertex 0 with k leaves."""
    if k < 1:
        raise ValueError("star needs k >= 1")
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)], meta={"family": "star", "params": (k,)})


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)],
                       meta={"family": "complete", "params": (n,)})


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts in the given order."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("every part must have size >= 1")
    n = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    return build_graph(n, edges, meta={"family": "complete_multipartite", "params": tuple(sizes)})


def cartesian_product(g: Graph, h: Graph, meta: Mapping | None = None) -> Graph:
    """Box product: (a,b) ~ (a',b') iff (a=a' and b~b') or (b=b' and a~a').

    Vertex (a, b) gets index a*|V(h)| + b (row-major).  ``meta`` annotates
    the product, as in ``build_graph``.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("cartesian product needs nonempty factors")
    n = g.n * h.n
    edges = []
    for a in range(g.n):
        base = a * h.n
        for (b1, b2) in h.edges():
            edges.append((base + b1, base + b2))
    for (a1, a2) in g.edges():
        for b in range(h.n):
            edges.append((a1 * h.n + b, a2 * h.n + b))
    return build_graph(n, edges, meta=meta)


def hypercube(d: int) -> Graph:
    """Q_d: repeated box product of K_2; index = d-bit coordinate word.

    Built by doubling: Q_{i+1} is two copies of Q_i, where vertex v < 2^i
    of copy 0 gains neighbour v + 2^i, and copy 1 (vertices v + 2^i) has
    copy 0's mask shifted left by 2^i plus neighbour v.  So v and w are
    adjacent exactly when v ^ w is a single bit, as in the definition.
    """
    if d < 0:
        raise ValueError("hypercube needs d >= 0")
    adj = [0]
    for i in range(d):
        h = 1 << i
        adj = [a | 1 << (v + h) for v, a in enumerate(adj)] + [a << h | 1 << v for v, a in enumerate(adj)]
    return Graph(1 << d, adj, meta={"family": "hypercube", "params": (d,)})


def ladder(j: int) -> Graph:
    """P_2 box P_j."""
    if j < 1:
        raise ValueError("ladder needs j >= 1")
    return cartesian_product(path_graph(2), path_graph(j), meta={"family": "ladder", "params": (j,)})


def cylinder(j: int) -> Graph:
    """P_2 box C_j."""
    if j < 3:
        raise ValueError("cylinder needs j >= 3")
    return cartesian_product(path_graph(2), cycle_graph(j), meta={"family": "cylinder", "params": (j,)})


def torus(i: int, j: int) -> Graph:
    """C_i box C_j."""
    if i < 3 or j < 3:
        raise ValueError("torus needs i, j >= 3")
    return cartesian_product(cycle_graph(i), cycle_graph(j), meta={"family": "torus", "params": (i, j)})


def honeycomb_torus(m: int, n: int) -> Graph:
    """Brick-wall quotient of the hexagonal grid on an m x n torus.

    Start from C_m box C_n and keep the vertical edge (i,j)-(i+1,j) only
    when i+j is even.  Each vertex keeps both horizontal edges and exactly
    one vertical edge, so the result is 3-regular; it is bipartite for even
    m, n.  This is one finite hexagonal quotient among several; densities
    measured on it are reported per quotient.
    """
    if m < 4 or n < 4 or m % 2 or n % 2:
        raise ValueError("honeycomb torus needs even m, n >= 4")
    edges = []
    for i in range(m):
        for j in range(n):
            v = i * n + j
            edges.append((v, i * n + (j + 1) % n))
            if (i + j) % 2 == 0:
                edges.append((v, ((i + 1) % m) * n + j))
    return build_graph(m * n, edges, meta={"family": "honeycomb_torus", "params": (m, n)})


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "star": (star_graph, 1),
    "complete": (complete_graph, 1),
    "complete_multipartite": (None, None),  # variadic, handled below
    "hypercube": (hypercube, 1),
    "ladder": (ladder, 1),
    "cylinder": (cylinder, 1),
    "torus": (torus, 2),
    "honeycomb_torus": (honeycomb_torus, 2),
}


def named_builder(family: str, *params: int) -> Graph:
    """Build a named graph family; see ``_FAMILIES`` for the accepted names."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    if family == "complete_multipartite":
        return complete_multipartite(list(params))
    fn, arity = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"{family} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


# -- graph6 ------------------------------------------------------------
#
# Byte layout: optional ">>graph6<<" header, a size field (one byte n+63
# for n <= 62, otherwise 0x7e followed by 3 bytes, or 0x7e 0x7e followed
# by 6 bytes, each carrying 6 bits big-endian), then ceil(n(n-1)/2 / 6)
# bytes holding the upper triangle column-major -- bit order (0,1), (0,2),
# (1,2), (0,3), ... -- six bits per byte, each byte offset by 63.

_G6_HEADER = b">>graph6<<"
_G6_BYTES = bytes(range(63, 127))
_G6_BITS = {63 + x: format(x, "06b") for x in range(64)}  # byte -> its six bits


def _g6_size_field(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError("graph too large for graph6")


def write_graph6(g: Graph) -> bytes:
    """Serialize to graph6 (no header, no trailing newline): the inverse of
    ``parse_graph6``, column v being v's lower neighbour mask reversed."""
    stream = "".join(format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n))
    stream += "0" * (-len(stream) % 6)
    return _g6_size_field(g.n) + bytes(int(stream[i:i + 6], 2) + 63 for i in range(0, len(stream), 6))


def parse_graph6(data: bytes | str) -> Graph:
    """Parse one graph6 value; accepts the optional standard header."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 data")
    bad = data.translate(None, _G6_BYTES)  # the bytes outside 63..126, in order
    if bad:
        raise Graph6Error(f"byte value {bad[0]} outside graph6 range 63..126")
    if data[0] == 126:
        # the field's first and last byte, and the least n it may encode
        start, end, smallest = (2, 8, 258048) if data[1:2] == b"~" else (1, 4, 63)
        if len(data) < end:
            raise Graph6Error("truncated size field")
        n = 0
        for b in data[start:end]:
            n = n << 6 | (b - 63)
        body = data[end:]
        if n < smallest:
            raise Graph6Error(f"size field too long for n={n}")
    else:
        n = data[0] - 63
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated bit stream: need {need} bytes, have {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"trailing bytes after graph body: {len(body) - need}")
    pad = -(n * (n - 1) // 2) % 6
    if body and (body[-1] - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits after the last edge bit")
    # the upper triangle column by column: character u of column v says
    # whether uv is an edge, so the reversed column is v's lower neighbor mask
    stream = "".join(map(_G6_BITS.__getitem__, body))
    adj = [0] * n
    idx = 0
    for v in range(1, n):
        adj[v] = col = int(stream[idx:idx + v][::-1], 2)
        idx += v
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= 1 << v
            col ^= low
    return Graph(n, adj)


# -- edge-list text format ----------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header + one "u v" line per edge format."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list needs an 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    nums = tokens[2:]
    if len(nums) != 2 * m:
        raise ValueError(f"expected {2 * m} endpoints after header, got {len(nums)}")
    edges = [(int(nums[2 * i]), int(nums[2 * i + 1])) for i in range(m)]
    g = build_graph(n, edges)
    if g.num_edges() != m:
        raise ValueError(f"header promises {m} edges, found {g.num_edges()} distinct ones")
    return g
