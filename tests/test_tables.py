import contextlib
import multiprocessing
import signal
import time

import pytest

from redic import tables
from redic.graphs import Graph
from redic.tables import CUBIC_REFERENCE, TREE_REFERENCE, TreeRow, cubic_row, diff_row, tree_row


def test_tree_reference_is_internally_consistent():
    for n, (_, with_code, a, b, c) in TREE_REFERENCE.items():
        assert with_code == a + b + c, n  # every feasible tree sits at n-2, n-1 or n


def test_tree_rows_small():
    for n in (4, 7, 9):
        row = tree_row(n)
        assert row.values() == TREE_REFERENCE[n]
        assert all(ok for _, _, _, ok in diff_row(row))


def test_tiny_tree_rows_have_no_code():
    for n in (1, 2, 3):
        assert tree_row(n) == TreeRow(n, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [10, 12])
def test_tree_census_builds_only_the_trees_with_a_code(monkeypatch, n, threads):
    # existence is decided on the level sequence; a rejected tree never
    # becomes a Graph, in the caller or in a shard's child process
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("child processes see the counting patch only when forked")
    built = multiprocessing.Value("i", 0)
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        with built.get_lock():
            built.value += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    row = tree_row(n, threads=threads)
    assert row.values() == TREE_REFERENCE[n]
    assert built.value == row.with_code


# (n, node cap) -> the row and its partial flag; a cap of 0 stops every
# solve, a cap of 1 none at these n.  Rejected trees never reach the solver.
CAPPED_TREE_ROWS = {
    (10, 0): (106, 21, 0, 0, 0, True),
    (10, 1): (106, 21, 0, 4, 17, False),
    (12, 0): (551, 82, 0, 0, 0, True),
    (12, 1): (551, 82, 0, 24, 58, False),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_capped_tree_rows_are_pinned(threads):
    for (n, cap), expected in CAPPED_TREE_ROWS.items():
        row = tree_row(n, threads=threads, budget_nodes=cap)
        assert (*row.values(), row.partial) == expected, (n, cap)


def test_cubic_rows_small():
    for n in (6, 8, 10):
        row = cubic_row(n)
        assert row.values() == CUBIC_REFERENCE[n]
        assert all(ok for _, _, _, ok in diff_row(row))


def test_budget_marks_partial():
    row = cubic_row(10, budget_nodes=1)
    assert row.partial
    assert not all(ok for _, _, _, ok in diff_row(row))


def test_zero_budget_is_a_cap_not_unlimited():
    assert cubic_row(8, budget_nodes=0).partial
    assert not cubic_row(8, budget_nodes=None).partial


def test_threads_give_identical_rows():
    # each shard's process enumerates and solves its own share of the stream
    assert tree_row(8, threads=2) == tree_row(8, threads=1)
    assert tree_row(9, threads=2) == tree_row(9, threads=1)
    assert cubic_row(10, threads=2) == cubic_row(10, threads=1)
    # a node-capped row: the -1 budget marker comes back from the child too
    capped = cubic_row(10, threads=2, budget_nodes=1)
    assert capped.partial and capped == cubic_row(10, threads=1, budget_nodes=1)


def test_three_workers_give_identical_rows():
    # n = 4 (two trees) and n = 6 (two cubic graphs) leave the third shard nothing
    for n in (4, 9):
        assert tree_row(n, threads=3) == tree_row(n, threads=1)
    for n in (6, 10):
        assert cubic_row(n, threads=3) == cubic_row(n, threads=1)
    capped = tree_row(9, threads=3, budget_nodes=0)
    assert capped.partial and capped == tree_row(9, threads=1, budget_nodes=0)


def test_one_thread_reads_the_cubic_cache_once(monkeypatch):
    # the cubic-census benchmark counts cache misses minus hits as enumerations
    calls = []
    cached = tables.cubic_graphs_cached
    monkeypatch.setattr(tables, "cubic_graphs_cached", lambda n: calls.append(n) or cached(n))
    assert cubic_row(10).values() == CUBIC_REFERENCE[10]
    assert calls == [10]


@pytest.mark.parametrize("row", [tree_row, cubic_row])
@pytest.mark.parametrize("threads", [0, -3])
def test_rows_reject_fewer_than_one_thread(row, threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        row(8, threads=threads)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_census_starts_one_process_per_extra_shard(monkeypatch, threads):
    # the caller solves shard 0 itself, so a row of N shards starts N - 1 processes
    starts = []
    start = multiprocessing.Process.start
    monkeypatch.setattr(multiprocessing.Process, "start", lambda self: starts.append(self) or start(self))
    for n in (4, 9):
        assert tree_row(n, threads=threads).values() == TREE_REFERENCE[n]
    assert cubic_row(10, threads=threads).values() == CUBIC_REFERENCE[10]
    assert len(starts) == 3 * (threads - 1)
    assert multiprocessing.active_children() == []


def _shard_1_fails(n, res, mod, budget_nodes):
    if res == 1:
        raise ValueError("shard 1 fails")
    return [n]


def _caller_fails(n, res, mod, budget_nodes):
    if res == 0:
        raise ValueError("the caller's shard fails")
    time.sleep(60)  # still running when the caller fails: the row must stop it
    return [n]


@contextlib.contextmanager
def _within(seconds):
    # a row that waits for a dead child or joins a live one would hang the suite
    def expire(signum, frame):
        pytest.fail(f"the row did not return within {seconds} s")  # not an OSError, which waits swallow

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("threads", [2, 3])
def test_census_failures_leave_no_process(threads):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("child processes find this module's shard functions only when forked")
    with _within(30), pytest.raises(RuntimeError, match="census shard 1 exited with code 1 "):
        tables._census(_shard_1_fails, 5, threads, None)
    assert multiprocessing.active_children() == []
    with _within(30), pytest.raises(ValueError, match="the caller's shard fails"):
        tables._census(_caller_fails, 5, threads, None)
    assert multiprocessing.active_children() == []
