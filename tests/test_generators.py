import hashlib
import io
import random
from functools import cache
from itertools import groupby, permutations

import pytest

from redic import generators
from redic.generators import (
    _better_labeling,
    _column_value,
    are_isomorphic,
    canonical_key,
    cubic_graphs_cached,
    enum_cubic,
    enum_trees,
    read_graph6_stream,
    tree_graph,
    tree_levels,
    tree_parents,
)
from redic.graphs import Graph6Error, bits, build_graph, complete_graph, cycle_graph, write_graph6

# OEIS A000055
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551,
    13: 1301, 14: 3159, 15: 7741, 16: 19320,
}
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}


@cache
def tree_stream(n: int) -> bytes:
    """The newline-terminated graph6 stream of ``enum_trees(n)``, built once."""
    return b"".join(write_graph6(t) + b"\n" for t in enum_trees(n))


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_tree_counts(n, count):
    assert tree_stream(n).count(b"\n") == count


def tree_code(t) -> str:
    """AHU code of a free tree rooted at its centre (Aho, Hopcroft, Ullman
    1974); the lesser of the two codes when there are two centres.  Two
    trees get the same code exactly when they are isomorphic."""
    deg = [a.bit_count() for a in t.adj]
    centre = [v for v in range(t.n) if deg[v] <= 1]
    remaining = t.n
    while remaining > 2:  # strip the leaves, layer by layer
        remaining -= len(centre)
        inner = []
        for v in centre:
            for u in bits(t.adj[v]):
                deg[u] -= 1
                if deg[u] == 1:
                    inner.append(u)
        centre = inner

    def code(v, parent):
        return "(" + "".join(sorted(code(u, v) for u in bits(t.adj[v]) if u != parent)) + ")"

    return min(code(c, -1) for c in centre)


def test_tree_code_separates_isomorphism_classes():
    path = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    relabeled = build_graph(5, [(3, 0), (0, 4), (4, 1), (1, 2)])
    spider = build_graph(5, [(0, 1), (1, 2), (0, 3), (0, 4)])
    assert tree_code(path) == tree_code(relabeled) == "((())(()))"
    assert tree_code(spider) == "((()())())" != tree_code(path)  # two centres: the lesser code
    bicentral = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert tree_code(bicentral) == tree_code(build_graph(4, [(2, 0), (0, 3), (3, 1)]))


@pytest.mark.parametrize("n", [
    *range(1, 16),
    pytest.param(16, marks=pytest.mark.stretch(reason="1.1-1.7 s")),
])
def test_trees_are_pairwise_non_isomorphic(n):
    trees = list(enum_trees(n))
    assert all(t.is_tree() for t in trees)
    codes = {tree_code(t) for t in trees}
    assert len(codes) == len(trees) == TREE_COUNTS[n]


@pytest.mark.parametrize("n,count", sorted(CUBIC_COUNTS.items()))
def test_cubic_counts(n, count):
    graphs = list(enum_cubic(n))
    assert len(graphs) == count
    assert all(g.is_cubic() and g.is_connected() for g in graphs)


def test_no_isomorphic_duplicates():
    for n in (4, 6, 8, 10):
        keys = [canonical_key(g) for g in enum_cubic(n)]
        assert len(keys) == len(set(keys))


def test_streams_are_deterministic_and_restartable():
    a = [write_graph6(g) for g in enum_cubic(8)]
    b = [write_graph6(g) for g in enum_cubic(8)]
    assert a == b
    a = [write_graph6(t) for t in enum_trees(7)]
    b = [write_graph6(t) for t in enum_trees(7)]
    assert a == b


def test_odd_cubic_is_empty():
    assert list(enum_cubic(7)) == []
    assert list(enum_cubic(3)) == []
    with pytest.raises(ValueError, match="integer n, got 7.5"):  # was empty, as if odd
        list(enum_cubic(7.5))


def test_canonical_key_invariant_under_relabeling():
    import random

    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = build_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_key(g) == canonical_key(h)
        assert are_isomorphic(g, h)
    assert not are_isomorphic(cycle_graph(4), build_graph(4, [(0, 1), (0, 2), (0, 3)]))


def test_read_graph6_stream():
    lines = b"\n".join(write_graph6(t) for t in enum_trees(5)) + b"\n"
    parsed = list(read_graph6_stream(io.BytesIO(lines)))
    assert len(parsed) == 3
    assert list(read_graph6_stream(io.BytesIO(b""))) == []


def test_read_graph6_stream_reports_line_numbers(tmp_path):
    path = tmp_path / "g.g6"
    good = write_graph6(cycle_graph(4))
    path.write_bytes(good + b"\nCl\n\x03bad\n" + good + b"\n")
    with pytest.raises(Graph6Error, match="line 3"):
        list(read_graph6_stream(path))


# sha256 (first 16 hex digits) of the newline-terminated graph6 stream
CUBIC_STREAM_DIGESTS = {
    4: "62073900de6d9451",
    6: "49a7391d96ad84fd",
    8: "6946d13a0aec8538",
    10: "b46e70b9578943cb",
    12: "ba8840f3f3c1135e",
    14: "c8332365a95da623",
    16: "626260d4c24f2c78",
}


@pytest.mark.parametrize("n,digest", [
    pytest.param(n, digest, marks=[pytest.mark.stretch(reason="about 4-5 s")] if n > 14 else [])
    for n, digest in sorted(CUBIC_STREAM_DIGESTS.items())
])
def test_cubic_stream_is_pinned(n, digest):
    # the order is part of the contract: g14_gadget_search (tests/gadgets.py)
    # orders its parents by stream index, so the frozen g14 gadget depends on it
    stream = b"".join(write_graph6(g) + b"\n" for g in cubic_graphs_cached(n))
    assert hashlib.sha256(stream).hexdigest()[:16] == digest


def _canonicity_tests(monkeypatch, n: int) -> int:
    """The ``_better_labeling`` calls of ``enum_cubic(n)``: the enumeration's
    work as a count, the same on every machine."""
    calls = 0
    test = generators._better_labeling

    def counted(adj, cols):
        nonlocal calls
        calls += 1
        return test(adj, cols)

    monkeypatch.setattr(generators, "_better_labeling", counted)
    for _ in enum_cubic(n):
        pass
    return calls


def test_cubic_canonicity_test_count(monkeypatch):
    # only complete graphs and partial graphs with two or more children are
    # tested (190 / 878 / 5,096 when every child was)
    counts = {n: _canonicity_tests(monkeypatch, n) for n in (10, 12, 14)}
    assert counts == {10: 116, 12: 549, 14: 3109}


@pytest.mark.stretch(reason="about 3-5 s")
def test_stretch_cubic_canonicity_test_count_16(monkeypatch):
    assert _canonicity_tests(monkeypatch, 16) == 21312  # 36,177 when every child was tested


def test_prefixes_of_emitted_cubic_graphs_are_maximal():
    # why a partial graph with at most one child may skip its test: every
    # prefix of an emitted graph passes the test it would have run, so no
    # skipped test would have cut a branch that leads to the stream
    for n in range(4, 13, 2):
        for g in enum_cubic(n):
            for j in range(1, n):
                prefix = [a & (1 << j + 1) - 1 for a in g.adj[:j + 1]]
                assert _better_labeling(prefix, _columns(prefix)) is None, (write_graph6(g), j)


TREE_STREAM_DIGESTS = {
    1: "ecf5de1a2ecc66a1",
    2: "fae4bfc454bd0436",
    3: "881159da90c6f286",
    4: "fca32a9fe1fd1a40",
    5: "cadaf2507e308dfd",
    6: "ebd2e76a890da0bf",
    7: "883bedb3adcf7a80",
    8: "a8c4f337ebc1e38b",
    9: "4de29cae1bfa7aea",
    10: "3e064a325cd6531c",
    11: "b805b2aa54a8478c",
    12: "e74f2d9e2ca9736d",
    13: "e9285ea8b757a16a",
    14: "f6dc48f24d3cf473",
    15: "6f26fa9caf4e799e",
    16: "b85ca0c739da75de",
    17: "11dc414f1ea7e46e",
}


@pytest.mark.parametrize("n,digest", [
    pytest.param(n, digest, marks=[pytest.mark.stretch(reason="about 4 s")] if n > 16 else [])
    for n, digest in sorted(TREE_STREAM_DIGESTS.items())
])
def test_tree_stream_is_pinned(n, digest):
    # the order and labels of the stream that networkx's level-sequence
    # generator produced, which the native one reproduces
    assert hashlib.sha256(tree_stream(n)).hexdigest()[:16] == digest


def _tree_block(lev: list[int]) -> list[int]:
    """The key of a level sequence's block in ``tree_levels``: the root and
    its first subtree, ``lev[:m]`` with m the root's second child (the whole
    sequence when n <= 2, where the root has at most one child)."""
    try:
        return lev[:lev.index(1, 2)]
    except ValueError:
        return lev[:]


def merged_tree_shards(n: int, mod: int) -> bytes:
    """The graph6 stream of the shards ``tree_levels(n, res, mod)``, each
    cut into its blocks (runs with one ``_tree_block``) and merged: block j
    of the stream is block j // mod of shard j % mod."""
    shards = [[[tree_graph(tree_parents(lev)) for lev in block]
               for _, block in groupby(tree_levels(n, res, mod), _tree_block)] for res in range(mod)]
    blocks = sum(map(len, shards))
    return b"".join(write_graph6(t) + b"\n" for j in range(blocks) for t in shards[j % mod][j // mod])


@pytest.mark.parametrize("mod", [1, 2, 3])
def test_tree_shards_interleave_to_the_stream(mod):
    # n = 1, 2, 3 have one tree, so every shard but the first is empty
    for n in range(1, 15):
        assert hashlib.sha256(merged_tree_shards(n, mod)).hexdigest()[:16] == TREE_STREAM_DIGESTS[n], (n, mod)


@pytest.mark.stretch(reason="about 4 s")
@pytest.mark.parametrize("mod", [2, 3])
def test_stretch_tree_shards_interleave_to_the_stream_at_17(mod):
    assert hashlib.sha256(merged_tree_shards(17, mod)).hexdigest()[:16] == TREE_STREAM_DIGESTS[17]


@pytest.mark.parametrize("res,mod", [(0, 0), (0, -1), (-1, 2), (2, 2), (5, 3)])
def test_tree_shard_out_of_range_raises(res, mod):
    with pytest.raises(ValueError, match="shard"):
        next(enum_trees(6, res, mod))


@pytest.mark.parametrize("n,res,mod,name", [(5, 0.5, 2, "res"), (5, 0, 2.0, "mod"), (5.0, 0, 1, "n")])
def test_tree_levels_rejects_non_integer_arguments(n, res, mod, name):
    # 0.5 matched no stream position, so the shard was silently empty
    with pytest.raises(ValueError, match=f"integer {name}, got"):
        list(tree_levels(n, res, mod))


def _columns(adj: list[int]) -> list[int]:
    """cols[j-1] = column of vertex j against vertices 0..j-1."""
    return [_column_value(adj[j], list(range(j))) for j in range(1, len(adj))]


def _relabel(adj: list[int], order: tuple[int, ...]) -> list[int]:
    """Adjacency masks after moving vertex order[i] to position i."""
    pos = {v: i for i, v in enumerate(order)}
    out = []
    for v in order:
        m = 0
        for u in range(len(adj)):
            if adj[v] >> u & 1:
                m |= 1 << pos[u]
        out.append(m)
    return out


def _max_columns(adj: list[int]) -> tuple[list[int], list[int]]:
    """Brute force over all k! relabelings: the largest column sequence and
    an adjacency that realizes it."""
    best, best_adj = None, None
    for order in permutations(range(len(adj))):
        r = _relabel(adj, order)
        c = _columns(r)
        if best is None or c > best:
            best, best_adj = c, r
    return best, best_adj


def _adj(k: int, edges) -> list[int]:
    return list(build_graph(k, list(edges)).adj)


SYMMETRIC = {
    "C6": _adj(6, [(i, (i + 1) % 6) for i in range(6)]),
    "K4": _adj(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "K3,3": _adj(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "prism": _adj(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
}


def test_better_labeling_matches_brute_force():
    rng = random.Random(23)
    graphs = list(SYMMETRIC.values())
    for _ in range(60):
        k = rng.randint(1, 7)
        p = rng.choice((0.3, 0.5, 0.7))
        graphs.append(_adj(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p]))
    seen = {True: 0, False: 0}
    for adj in graphs:
        k = len(adj)
        best, best_adj = _max_columns(adj)
        labelings = [adj, best_adj]
        for _ in range(4):
            order = list(range(k))
            rng.shuffle(order)
            labelings.append(_relabel(adj, tuple(order)))
        for lab in labelings:
            cols = _columns(lab)
            # None iff no relabeling gives a larger column sequence; otherwise
            # the relabeling returned gives one
            expected = cols == best
            better = _better_labeling(lab, cols)
            assert (better is None) == expected, (lab, cols, best)
            if better is not None:
                assert sorted(better) == list(range(k))
                assert _columns(_relabel(lab, tuple(better))) > cols
            seen[expected] += 1
    assert seen[True] >= len(graphs) and seen[False] > 100


def test_symmetric_canonical_labelings_pass():
    # every labeling with the maximal columns is accepted, also when the
    # automorphism group is large (the cut fires on every start)
    for name, adj in SYMMETRIC.items():
        best, _ = _max_columns(adj)
        for order in permutations(range(len(adj))):
            lab = _relabel(adj, order)
            cols = _columns(lab)
            assert (_better_labeling(lab, cols) is None) == (cols == best), name


def reference_key(g) -> tuple[int, ...]:
    """The maximal column encoding by an independent branch and bound:
    candidates ranked by their column over the placed prefix, a branch
    dropped once its columns fall below the best found.  ``canonical_key``
    must agree with it."""
    n = g.n
    if n == 0:
        return (0,)
    best = None
    order = []
    used = [False] * n

    def extend(depth, cols):
        nonlocal best
        if depth == n:
            if best is None or cols > best:
                best = list(cols)
            return
        ranked = sorted(
            ((_column_value(g.adj[v], order), v) for v in range(n) if not used[v]),
            reverse=True,
        )
        for c, v in ranked:
            cols.append(c)
            # ranked is descending, so once below the incumbent prefix all
            # remaining choices are too
            if best is not None and cols < best[:depth]:
                cols.pop()
                break
            used[v] = True
            order.append(v)
            extend(depth + 1, cols)
            order.pop()
            used[v] = False
            cols.pop()

    for start in range(n):
        used[start] = True
        order.append(start)
        extend(1, [])
        order.pop()
        used[start] = False
    return (n, *best)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_emitted_labelings_are_canonical_forms():
    # ties the orderly generator's test to the independent reference search
    for n in range(4, 13, 2):
        for g in enum_cubic(n):
            assert reference_key(g) == (n, *_columns(list(g.adj)))


def test_canonical_key_matches_reference():
    rng = random.Random(29)
    graphs = [_shuffled(g, rng) for n in range(4, 13, 2) for g in enum_cubic(n) for _ in range(3)]
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.uniform(0.25, 0.75)
        graphs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for g in graphs:
        assert canonical_key(g) == reference_key(g)


def _earliest_neighbours(cols: list[int]) -> list[int]:
    """a_j, the earliest neighbour of vertex j, read off its column: the
    most significant 1 (position 0 is bit j-1)."""
    return [j - c.bit_length() for j, c in enumerate(cols, start=1)]


def test_maximal_encodings_have_non_decreasing_earliest_neighbours():
    # the lemma behind attaching each new cubic vertex to the lowest
    # unsaturated vertex
    rng = random.Random(31)
    keys = [(g.n, *_columns(list(g.adj))) for n in range(4, 15, 2) for g in cubic_graphs_cached(n)]
    for _ in range(500):
        n = rng.randint(2, 10)
        p = rng.uniform(0.2, 0.8)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if g.is_connected():
            keys.append(canonical_key(g))
    for key in keys:
        a = _earliest_neighbours(list(key[1:]))
        assert a == sorted(a) and all(x >= 0 for x in a), key


def _complete_bipartite(m: int, rng):
    perm = list(range(2 * m))
    rng.shuffle(perm)
    return build_graph(2 * m, [(perm[u], perm[m + v]) for u in range(m) for v in range(m)])


@pytest.mark.parametrize("n", [12, 14])
def test_canonical_key_of_large_groups(n):
    # the automorphism cut unwinds to the first moved position, so these
    # take milliseconds, not (n-1)! leaves
    m = n // 2
    assert canonical_key(complete_graph(n)) == (n, *(2**j - 1 for j in range(1, n)))
    assert canonical_key(build_graph(n, [])) == (n, *[0] * (n - 1))
    # K_{m,m}: positions 1..m take the far side, each adjacent to 0 alone;
    # the rest of the near side is adjacent to all of 1..m
    want = (n, *(1 << (j - 1) for j in range(1, m + 1)),
            *(((1 << m) - 1) << (j - 1 - m) for j in range(m + 1, n)))
    assert canonical_key(_complete_bipartite(m, random.Random(n))) == want
