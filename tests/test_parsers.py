"""Fuzzing of the three text parsers: every input round-trips or raises ValueError."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from redic.graphs import build_graph, parse_edge_list, parse_graph6, write_graph6
from redic.reduction import CnfFormula, parse_dimacs

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

small_graphs = st.integers(0, 14).flatmap(lambda n: st.builds(
    lambda edges: build_graph(n, edges),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
             max_size=2 * n) if n > 1 else st.just([])))


def _graph6_roundtrips_or_raises(data: bytes):
    try:
        g = parse_graph6(data)
    except ValueError:
        return
    body = data.strip().removeprefix(b">>graph6<<")
    assert write_graph6(g) == body, data


@FUZZ
@given(st.binary(max_size=24))
def test_graph6_arbitrary_bytes(data):
    _graph6_roundtrips_or_raises(data)


@FUZZ
@given(small_graphs, st.data())
def test_graph6_one_byte_changed(g, data):
    # a valid encoding with one byte replaced by another graph6 byte, or cut
    enc = bytearray(write_graph6(g))
    i = data.draw(st.integers(0, len(enc) - 1))
    if data.draw(st.booleans()):
        enc[i] = data.draw(st.integers(63, 126))
    else:
        del enc[i]
    _graph6_roundtrips_or_raises(bytes(enc))


def test_graph6_rejects_noncanonical_encodings():
    with pytest.raises(ValueError, match="padding"):
        parse_graph6("Bx")  # the triangle is "Bw"; the last three bits are padding
    with pytest.raises(ValueError, match="size field"):
        parse_graph6("~??Bw")  # n = 3 written in the four-byte form


@pytest.mark.parametrize("data, message", [
    ("~??", "truncated size field"),
    ("~~?????", "truncated size field"),
    ("~~??????", "size field too long for n=0"),
    ("~~???A?B", "size field too long for n=8195"),  # 2 * 64^2 + 3, which the four-byte form holds
])
def test_graph6_size_field_errors(data, message):
    # the four-byte form starts with one 126, the eight-byte form with two
    with pytest.raises(ValueError, match=message):
        parse_graph6(data)


def _edge_list_text(g):
    """The "n m" header and one "u v" line per edge."""
    return f"{g.n} {g.num_edges()}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


@FUZZ
@given(st.integers(-1, 9), st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=8),
       st.integers(-1, 1), st.lists(st.sampled_from(["x", "1.5", "-", "3"]), max_size=2))
def test_edge_list_roundtrips_or_raises(n, pairs, m_off, extra):
    m = len(pairs) + m_off
    text = " ".join([str(n), str(m), *(str(x) for e in pairs for x in e), *extra])
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    # an accepted list has exactly the vertices and edges its header promises
    assert (g.n, g.num_edges()) == (n, m), text
    assert parse_edge_list(_edge_list_text(g)) == g


@FUZZ
@given(small_graphs)
def test_edge_list_roundtrip(g):
    assert parse_edge_list(_edge_list_text(g)) == g


def test_edge_list_rejects_repeated_edges():
    with pytest.raises(ValueError, match="promises 2 edges"):
        parse_edge_list("3 2\n0 1\n1 0\n")


def _dimacs(phi: CnfFormula) -> str:
    return f"p cnf {phi.n_vars} {len(phi.clauses)}\n" + "".join(
        " ".join(map(str, cl)) + " 0\n" for cl in phi.clauses)


def _clause(n_vars):
    return st.tuples(st.permutations(range(1, n_vars + 1)), st.lists(st.booleans(), min_size=3, max_size=3)).map(
        lambda ps: tuple(v if pos else -v for v, pos in zip(ps[0][:3], ps[1])))


formulas = st.integers(3, 6).flatmap(lambda n: st.builds(
    CnfFormula, st.just(n), st.lists(_clause(n), min_size=1, max_size=3).map(tuple)))
NOISE = ["c a comment", "", "p cnf 6 2", "p cnf 6 1", "px cnf 4 2", "p dnf 4 2", "p cnf 4",
         "1 2 3 0", "1 -1 2 0", "1 2", "0", "%"]


@FUZZ
@given(formulas, st.lists(st.tuples(st.integers(0, 6), st.sampled_from(NOISE)), max_size=2))
def test_dimacs_roundtrips_or_raises(phi, noise):
    body = _dimacs(phi).splitlines()
    for i, line in noise:
        body.insert(i, line)
    text = "\n".join(body) + "\n"
    try:
        got = parse_dimacs(text)
    except ValueError:
        return
    # an accepted file has one problem line, and it is the one read
    headers = [ln.split() for ln in body if ln.strip().startswith("p")]
    assert headers == [["p", "cnf", str(got.n_vars), str(len(got.clauses))]], text
    assert parse_dimacs(_dimacs(got)) == got


def test_dimacs_rejects_a_second_problem_line():
    with pytest.raises(ValueError, match="second problem line"):
        parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 5 1\n")
    with pytest.raises(ValueError, match="malformed problem line"):
        parse_dimacs("px cnf 3 1\n1 2 3 0\n")
