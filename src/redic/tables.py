"""Summary harnesses over the enumerators, with frozen expected values.

The expected numbers are embedded as data rather than recomputed, so any
divergence is an immediate red flag for a regression in the enumerators or
the solver.  Free-tree counts also match OEIS A000055; connected-cubic
counts match A002851.

Both row kinds run one census path, ``_census``.  A row counts its graphs'
minima and so does not depend on their order, which lets the stream be
split by position: with N threads, shard r holds the graphs at positions
r, r + N, ...  The N processes include the caller: each row starts one
process per extra shard, which enumerates and solves its shard itself
while the caller solves shard 0, and only the shard's list of ints comes
back over a pipe, never a graph.  Tree shards walk
the level sequences of their share and decide existence on each tree's
parent array (``existence.tree_has_red_ic``): a rejected tree counts as having no code
and is never built, so only the trees that admit a code (about a tenth)
become a ``Graph`` and reach the solver.  Cubic shards each enumerate the
whole cubic stream and keep their slice, one extra enumeration per extra
process.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .detection import CodeKind
from .existence import tree_has_red_ic
from .generators import cubic_graphs_cached, tree_graph, tree_levels, tree_parents
from .graphs import Graph
from .solver import Budget, solve_min

# n -> (trees, with code, minimum = n-2, = n-1, = n)
TREE_REFERENCE = {
    4: (2, 1, 0, 0, 1),
    5: (3, 1, 0, 0, 1),
    6: (6, 2, 0, 0, 2),
    7: (11, 3, 0, 0, 3),
    8: (23, 6, 0, 0, 6),
    9: (47, 10, 0, 3, 7),
    10: (106, 21, 0, 4, 17),
    11: (235, 39, 0, 10, 29),
    12: (551, 82, 0, 24, 58),
    13: (1301, 167, 0, 64, 103),
    14: (3159, 360, 13, 130, 217),
    15: (7741, 766, 29, 323, 414),
    16: (19320, 1692, 96, 744, 852),
    17: (48629, 3726, 287, 1731, 1708),
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

    # the table's header and frozen values: class attributes, not fields
    COLUMNS = ("trees", "with_code", "min=n-2", "min=n-1", "min=n")
    REFERENCE = TREE_REFERENCE

    def values(self) -> tuple[int, int, int, int, int]:
        return (self.trees, self.with_code, self.at_n_minus_2, self.at_n_minus_1, self.at_n)


@dataclass(frozen=True)
class CubicRow:
    n: int
    count: int
    with_code: int
    lowest: int | None
    highest: int | None
    partial: bool = False

    COLUMNS = ("cubic", "with_code", "lowest", "highest")
    REFERENCE = CUBIC_REFERENCE

    def values(self):
        return (self.count, self.with_code, self.lowest, self.highest)


def _solve_one(g: Graph, budget_nodes: int | None) -> int | None:
    """Minimum code size of one graph, or None when it admits no code; -1
    when the budget ran out first."""
    out = solve_min(g, CodeKind.RED_IC, budget=Budget(max_nodes=budget_nodes))
    if out.status == "infeasible":
        return None
    return out.k if out.is_optimal else -1  # -1 marks a budget miss


def _solve_tree_shard(n: int, res: int, mod: int, budget_nodes: int | None) -> list[int | None]:
    """``_solve_one`` over the trees at stream positions i with
    i % mod == res; a tree that admits no code is never built."""
    return [_solve_one(tree_graph(parent), budget_nodes) if tree_has_red_ic(parent) else None
            for parent in map(tree_parents, tree_levels(n, res, mod))]


def _solve_cubic_shard(n: int, res: int, mod: int, budget_nodes: int | None) -> list[int | None]:
    """``_solve_one`` over the cubic graphs at stream positions i with
    i % mod == res."""
    return [_solve_one(g, budget_nodes) for g in cubic_graphs_cached(n)[res::mod]]


def _send_shard(conn, solve_shard, n: int, res: int, mod: int, budget_nodes: int | None) -> None:
    """Body of a census child: solve one shard and send its list of ints."""
    with conn:
        conn.send(solve_shard(n, res, mod, budget_nodes))


def _census(solve_shard, n: int, threads: int, budget_nodes: int | None) -> tuple[int, int, list[int], bool]:
    """Solve the stream ``solve_shard(n, 0, 1, budget_nodes)``: (graphs,
    graphs admitting a code, their solved minima, whether a budget ran
    out).  Shard r of N = ``threads`` is ``solve_shard(n, r, N,
    budget_nodes)``.  The caller starts one process per shard r >= 1,
    solves shard 0 itself meanwhile, then receives each child's list of
    ints over a one-way pipe: N processes work, the caller included, and
    only ints and a module-level function cross.  A child that exits
    without sending raises RuntimeError; no child outlives the call."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    children = []
    try:
        for res in range(1, threads):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_shard,
                                            args=(send, solve_shard, n, res, threads, budget_nodes))
            child.start()
            send.close()  # the child holds the only write end, so its exit ends the pipe
            children.append((res, child, recv))
        results = solve_shard(n, 0, threads, budget_nodes)
        for res, child, recv in children:
            try:
                results += recv.recv()
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
    solved = [k for k in results if k is not None and k != -1]
    return len(results), sum(1 for k in results if k is not None), solved, -1 in results


def tree_row(n: int, threads: int = 1, budget_nodes: int | None = None) -> TreeRow:
    trees, with_code, solved, partial = _census(_solve_tree_shard, n, threads, budget_nodes)
    return TreeRow(
        n,
        trees=trees,
        with_code=with_code,
        at_n_minus_2=solved.count(n - 2),
        at_n_minus_1=solved.count(n - 1),
        at_n=solved.count(n),
        partial=partial,
    )


def cubic_row(n: int, threads: int = 1, budget_nodes: int | None = None) -> CubicRow:
    count, with_code, solved, partial = _census(_solve_cubic_shard, n, threads, budget_nodes)
    return CubicRow(
        n,
        count=count,
        with_code=with_code,
        lowest=min(solved, default=None),
        highest=max(solved, default=None),
        partial=partial,
    )


def diff_row(row: TreeRow | CubicRow) -> list[tuple[str, int, int | None, bool]]:
    """(column, expected, got, ok) against the row type's reference; empty
    if n is beyond the embedded range."""
    ref = row.REFERENCE.get(row.n)
    if ref is None:
        return []
    return [(name, expected, got, expected == got and not row.partial)
            for name, expected, got in zip(row.COLUMNS, ref, row.values())]
