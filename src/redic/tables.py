"""Summary harnesses over the enumerators, with frozen expected values.

The expected numbers are embedded as data rather than recomputed, so any
divergence is an immediate red flag for a regression in the enumerators or
the solver.  Free-tree counts also match OEIS A000055; connected-cubic
counts match A002851.

Both row kinds run one census path, ``_census``, which returns the
histogram of a row's per-graph results (each graph's minimum code size,
None when it admits no code, -1 when the node budget ran out first) and
the row's solver node total.  One helper, ``_row``, derives either row
type's columns from that histogram, so on a complete row the minima
columns account for every graph with a code.  No output reads the order
of the graphs, so none is kept.

With N threads the stream is split into N shards, each returning the
histogram of its own graphs, and the row adds them up.  A tree shard
holds blocks r, r + N, ... of the level-sequence walk, the runs of trees
with the same first subtree (``generators.tree_levels``), and its walk
jumps over the blocks of the other shards instead of stepping through
them.  A cubic shard holds the graphs at stream positions r, r + N, ....
The N processes include the caller: each row starts one process per extra
shard, which enumerates and solves its shard itself while the caller
solves shard 0, and only the shard's histogram and its node total come
back over a pipe, never a graph.  Tree shards decide existence on each
level sequence itself (``existence.levels_have_red_ic``, one scan of its
bytes): a rejected tree counts as having no code and gets no parent array
and no ``Graph``, so only the trees that admit a code (3,150 of the
32,505 for n = 4..16) are built and reach ``solve_min``.  Most of those
(2,866) close at the root: the members of their constraints with exactly
two members already form a code, which ``solve_min`` returns without
building the constraint list or packing a search (``solver._root``); only
the 284 trees that search build the list.  Cubic shards each enumerate the
whole cubic stream and keep their slice, one extra enumeration per extra
process.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .detection import CodeKind
from .existence import levels_have_red_ic
from .generators import cubic_graphs_cached, tree_graph, tree_levels, tree_parents
from .graphs import Graph
from .solver import Budget, solve_min

# n -> (trees, with code, minimum < n-2, = n-2, = n-1, = n)
TREE_REFERENCE = {
    4: (2, 1, 0, 0, 0, 1),
    5: (3, 1, 0, 0, 0, 1),
    6: (6, 2, 0, 0, 0, 2),
    7: (11, 3, 0, 0, 0, 3),
    8: (23, 6, 0, 0, 0, 6),
    9: (47, 10, 0, 0, 3, 7),
    10: (106, 21, 0, 0, 4, 17),
    11: (235, 39, 0, 0, 10, 29),
    12: (551, 82, 0, 0, 24, 58),
    13: (1301, 167, 0, 0, 64, 103),
    14: (3159, 360, 0, 13, 130, 217),
    15: (7741, 766, 0, 29, 323, 414),
    16: (19320, 1692, 0, 96, 744, 852),
    17: (48629, 3726, 0, 287, 1731, 1708),
}

# n -> (cubic graphs, with code, lowest minimum, highest minimum)
CUBIC_REFERENCE = {
    6: (2, 2, 6, 6),
    8: (5, 4, 6, 6),
    10: (19, 14, 6, 8),
    12: (85, 63, 8, 12),
    14: (509, 386, 8, 12),
    16: (4060, 3189, 10, 14),
    18: (41301, 33586, 11, 18),
    20: (510489, 427277, 12, 18),
}


@dataclass(frozen=True)
class TreeRow:
    n: int
    trees: int
    with_code: int
    at_n_minus_2: int
    at_n_minus_1: int
    at_n: int
    partial: bool = False
    below_n_minus_2: int = 0  # from n = 19 the tree bound falls below n - 2
    nodes: int = 0  # solver nodes over the row, not a printed column
    minima: tuple[tuple[int, int], ...] = ()  # (minimum, graphs), ascending

    # the table's header and frozen values: class attributes, not fields
    COLUMNS = ("trees", "with_code", "min<n-2", "min=n-2", "min=n-1", "min=n")
    REFERENCE = TREE_REFERENCE

    def values(self) -> tuple[int, ...]:
        return (self.trees, self.with_code, self.below_n_minus_2, self.at_n_minus_2, self.at_n_minus_1,
                self.at_n)

    @staticmethod
    def minima_columns(n: int, minima: Counter) -> dict[str, int]:
        """Every minimum falls in one column: a code has at most n detectors."""
        return {"below_n_minus_2": sum(c for k, c in minima.items() if k < n - 2),
                "at_n_minus_2": minima[n - 2], "at_n_minus_1": minima[n - 1], "at_n": minima[n]}


@dataclass(frozen=True)
class CubicRow:
    n: int
    count: int
    with_code: int
    lowest: int | None
    highest: int | None
    partial: bool = False
    nodes: int = 0
    minima: tuple[tuple[int, int], ...] = ()

    COLUMNS = ("cubic", "with_code", "lowest", "highest")
    REFERENCE = CUBIC_REFERENCE

    def values(self):
        return (self.count, self.with_code, self.lowest, self.highest)

    @staticmethod
    def minima_columns(n: int, minima: Counter) -> dict[str, int | None]:
        return {"lowest": min(minima, default=None), "highest": max(minima, default=None)}


def _solve_all(graphs: Iterable[Graph | None], budget: Budget) -> tuple[Counter, int]:
    """The histogram of the graphs' results (each graph's minimum code size,
    None when it admits no code, a None in ``graphs`` standing for a graph
    already known to admit none, and -1 when the budget ran out first) and
    the solver nodes spent over all of them."""
    results, nodes = Counter(), 0
    for g in graphs:
        if g is None:
            results[None] += 1
            continue
        out = solve_min(g, CodeKind.RED_IC, budget=budget)
        nodes += out.stats.nodes
        results[None if out.status == "infeasible" else out.k if out.is_optimal else -1] += 1
    return results, nodes


def _solve_tree_shard(n: int, res: int, mod: int, budget: Budget) -> tuple[Counter, int]:
    """``_solve_all`` over the trees of shard res of mod of ``tree_levels``;
    a tree that admits no code is never built."""
    return _solve_all((tree_graph(tree_parents(lev)) if levels_have_red_ic(lev) else None
                       for lev in tree_levels(n, res, mod)), budget)


def _solve_cubic_shard(n: int, res: int, mod: int, budget: Budget) -> tuple[Counter, int]:
    """``_solve_all`` over the cubic graphs at stream positions i with
    i % mod == res."""
    return _solve_all(cubic_graphs_cached(n)[res::mod], budget)


def _send_shard(conn, solve_shard, n: int, res: int, mod: int, budget: Budget) -> None:
    """Body of a census child: solve one shard and send its histogram and node total."""
    with conn:
        conn.send(solve_shard(n, res, mod, budget))


def _census(solve_shard, n: int, threads: int, budget_nodes: int | None) -> tuple[Counter, int]:
    """Solve the stream ``solve_shard(n, 0, 1, budget)``, with ``budget``
    the ``Budget(max_nodes=budget_nodes)`` built before any process starts:
    the histogram of its per-graph results and its solver node total, the
    sums over the shards r of N = ``threads``, ``solve_shard(n, r, N,
    budget)``.  The shards partition the stream, so the sums are the same
    for every N.  The caller starts one process per shard r >= 1, solves
    shard 0 itself meanwhile, then receives each child's histogram over a
    one-way pipe: N processes work, the caller included, and only the
    histograms, node totals, the budget and a module-level function cross.
    A child that exits without sending raises RuntimeError; no child
    outlives the call."""
    if not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be at least 1 and an integer, got {threads!r}")
    budget = Budget(max_nodes=budget_nodes)
    children = []
    try:
        for res in range(1, threads):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_shard,
                                            args=(send, solve_shard, n, res, threads, budget))
            child.start()
            send.close()  # the child holds the only write end, so its exit ends the pipe
            children.append((res, child, recv))
        shards = [solve_shard(n, 0, threads, budget)]
        for res, child, recv in children:
            try:
                shards.append(recv.recv())
            except EOFError:
                child.join()
                raise RuntimeError(f"census shard {res} exited with code {child.exitcode} "
                                   "before sending its results") from None
            child.join()
    finally:
        for _, child, recv in children:
            if child.is_alive():
                child.terminate()
            child.join()
            recv.close()
    histograms, nodes = zip(*shards)
    return sum(histograms, Counter()), sum(nodes)


def _row(row_type, n: int, results: Counter, nodes: int):
    """A census row from the histogram of its per-graph results: the
    graphs, those that admit a code, and the histogram of their minima,
    from which the row type derives its minima columns; a budget miss (-1)
    marks it partial."""
    minima = results.copy()
    no_code = minima.pop(None, 0)
    partial = minima.pop(-1, 0) > 0
    graphs = results.total()
    return row_type(n, graphs, graphs - no_code, **row_type.minima_columns(n, minima),
                    partial=partial, nodes=nodes, minima=tuple(sorted(minima.items())))


def tree_row(n: int, threads: int = 1, budget_nodes: int | None = None) -> TreeRow:
    return _row(TreeRow, n, *_census(_solve_tree_shard, n, threads, budget_nodes))


def cubic_row(n: int, threads: int = 1, budget_nodes: int | None = None) -> CubicRow:
    return _row(CubicRow, n, *_census(_solve_cubic_shard, n, threads, budget_nodes))


def diff_row(row: TreeRow | CubicRow) -> list[tuple[str, int, int | None, bool]]:
    """(column, expected, got, ok) against the row type's reference, ok
    when got equals expected; empty if n is beyond the embedded range.  A
    partial row is flagged by its own ``partial``, not here, so its columns
    that match still read ok.  A reference whose length is not the row's
    raises ValueError, so no column goes unchecked."""
    ref = row.REFERENCE.get(row.n)
    if ref is None:
        return []
    got = row.values()
    if not len(row.COLUMNS) == len(ref) == len(got):
        raise ValueError(f"{type(row).__name__} n={row.n}: {len(row.COLUMNS)} columns, "
                         f"{len(ref)} reference values, {len(got)} values")
    return [(name, expected, value, expected == value)
            for name, expected, value in zip(row.COLUMNS, ref, got)]
