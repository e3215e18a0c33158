import contextlib
import hashlib
import multiprocessing
import signal
import time

import pytest

from redic import tables
from redic.graphs import Graph
from redic.tables import CUBIC_REFERENCE, TREE_REFERENCE, CubicRow, TreeRow, cubic_row, diff_row, tree_row


def test_tree_reference_is_internally_consistent():
    for n, (_, with_code, *minima) in TREE_REFERENCE.items():
        assert with_code == sum(minima), n  # every tree with a code sits in one minima column


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
    (10, 0): (106, 21, 0, 0, 0, 0, True),
    (10, 1): (106, 21, 0, 0, 4, 17, False),
    (12, 0): (551, 82, 0, 0, 0, 0, True),
    (12, 1): (551, 82, 0, 0, 24, 58, False),
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
    return [n], 0


def _caller_fails(n, res, mod, budget_nodes):
    if res == 0:
        raise ValueError("the caller's shard fails")
    time.sleep(60)  # still running when the caller fails: the row must stop it
    return [n], 0


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


def test_diff_row_rejects_a_reference_of_another_length(monkeypatch):
    # a reference that misses a column must not pass the row on the others
    row = tree_row(4)
    for ref in ((2, 1, 0, 0, 1), (2, 1, 0, 0, 0, 1, 0)):
        monkeypatch.setitem(TREE_REFERENCE, 4, ref)
        with pytest.raises(ValueError, match=f"TreeRow n=4: 6 columns, {len(ref)} reference values"):
            diff_row(row)


# stream-order results of a fake tree shard for n = 10: a graph without a
# code, and minima in every column, four of them below n - 2
FAKE_RESULTS = [5, None, 6, 7, 8, 9, 10, 7]


def _fake_tree_shard(n, res, mod, budget_nodes):
    share = FAKE_RESULTS[res::mod]
    return share, sum(k is not None for k in share)  # one node per graph with a code


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_tree_rows_count_minima_below_n_minus_2(monkeypatch, threads):
    # from n = 19 some trees have minimum n - 3: no tree row may drop them
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("child processes see the patched shard only when forked")
    assert tables._census(_fake_tree_shard, 10, threads, None) == (FAKE_RESULTS, 7)
    monkeypatch.setattr(tables, "_solve_tree_shard", _fake_tree_shard)
    row = tree_row(10, threads=threads)
    assert row == TreeRow(10, 8, 7, at_n_minus_2=1, at_n_minus_1=1, at_n=1, below_n_minus_2=4, nodes=7,
                          minima=((5, 1), (6, 1), (7, 2), (8, 1), (9, 1), (10, 1)))
    assert sum(row.values()[2:]) == row.with_code


# (kind, n) -> (histogram of minima, solver nodes over the row, sha256 prefix
# of the repr of the per-graph results in stream order); each graph was also
# solved on its own with solve_min to the same minimum and node count.  The
# node totals are 3,168 over the 3,150 trees with a code (n = 4..16) and
# 21,341 over the cubic graphs (n = 6..14).
CENSUS_PINS = {
    ("tree", 4): ({4: 1}, 1, "87c63ccb48cafbc5"),
    ("tree", 5): ({5: 1}, 1, "d3e4d0c62f5fc152"),
    ("tree", 6): ({6: 2}, 2, "a2a2be7fa86992ec"),
    ("tree", 7): ({7: 3}, 3, "c4844de4a7db7bd4"),
    ("tree", 8): ({8: 6}, 6, "73aa41b748002443"),
    ("tree", 9): ({8: 3, 9: 7}, 10, "6d17c26c0fd17e3d"),
    ("tree", 10): ({9: 4, 10: 17}, 21, "e65dda8b96be0451"),
    ("tree", 11): ({10: 10, 11: 29}, 39, "644b9b1f630d55da"),
    ("tree", 12): ({11: 24, 12: 58}, 82, "c5193eda148cd2e7"),
    ("tree", 13): ({12: 64, 13: 103}, 167, "64d88d3945cd9961"),
    ("tree", 14): ({12: 13, 13: 130, 14: 217}, 360, "3355c193ef9caa2d"),
    ("tree", 15): ({13: 29, 14: 323, 15: 414}, 768, "fdc1704cebda91d9"),
    ("tree", 16): ({14: 96, 15: 744, 16: 852}, 1708, "c3f850162ccac961"),
    ("cubic", 6): ({6: 2}, 2, "01cc9a5aeea1afec"),
    ("cubic", 8): ({6: 4}, 74, "8a26b7ad3f421df7"),
    ("cubic", 10): ({6: 4, 7: 6, 8: 4}, 270, "fc6684805d62592a"),
    ("cubic", 12): ({8: 51, 9: 8, 10: 2, 12: 2}, 1829, "8da87e3ff2e72f4c"),
    ("cubic", 14): ({8: 29, 9: 155, 10: 187, 11: 7, 12: 8}, 19166, "919c1785905e5c8c"),
}

STRETCH_CENSUS_PINS = {
    ("tree", 17): ({15: 287, 16: 1731, 17: 1708}, 3754, "895951e501e13b41"),
    ("cubic", 16): ({10: 1522, 11: 1228, 12: 419, 13: 13, 14: 7}, 244555, "6ff93393e827fce4"),
}


def _check_census_row(kind, n, threads, pins):
    shard, row_type = {"tree": (tables._solve_tree_shard, TreeRow),
                       "cubic": (tables._solve_cubic_shard, CubicRow)}[kind]
    results, nodes = tables._census(shard, n, threads, None)
    row = tables._row(row_type, n, results, nodes)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()[:16]
    assert (dict(row.minima), row.nodes, digest) == pins[kind, n]
    assert row.values() == row_type.REFERENCE[n] and not row.partial


# threads vary fastest, so each row's children inherit a warm cubic cache
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("kind,n", list(CENSUS_PINS))
def test_census_row_is_pinned(kind, n, threads):
    _check_census_row(kind, n, threads, CENSUS_PINS)


@pytest.mark.stretch(reason="about 15 s")
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("kind,n", list(STRETCH_CENSUS_PINS))
def test_stretch_census_row_is_pinned(kind, n, threads):
    _check_census_row(kind, n, threads, STRETCH_CENSUS_PINS)


@pytest.mark.stretch(reason="about 8 s")
def test_stretch_tree_rows_18_19_are_complete():
    # not frozen in TREE_REFERENCE until an independent tree method agrees
    for n, with_code in ((18, 8370), (19, 18866)):
        row = tree_row(n, threads=2)
        assert not row.partial and row.with_code == with_code
        assert sum(row.values()[2:]) == with_code, n
    # the tree bound certifies extremal_tree(19) at 16 = n - 3
    assert row.below_n_minus_2 > 0
