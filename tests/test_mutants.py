"""The mutation gate: each entry is a deliberate fault that a named test must catch.

An entry names a file of ``src/redic`` or ``tests`` (by its path from the
repository root), a snippet of its source, the replacement that plants the
fault, and the tests that must catch it.  Both trees, ``pyproject.toml`` and
the CI workflow are copied to a temporary directory, the snippet (which
must occur exactly once, so the entry cannot go stale unnoticed) is
replaced, and the tests run in a subprocess from the copy, importing the
copied package.  They must fail: exit code 1, not 2 (an error before any
test ran) and not 0 (a surviving mutant).  A surviving mutant is closed
with a test or documented as equivalent, never deleted to pass.  The named
tests must also pass on an unmutated copy, so that no failure is the
copy's own.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CLOSURE = "tests/test_symmetry.py::test_provenance_group_is_what_its_generators_make"
RANDOM_GROUPS = "tests/test_symmetry.py::test_random_groups_are_what_their_generators_make"
STREAM_TREES = "tests/test_existence.py::test_tree_rule_matches_exists_red_ic[16]"
ANY_ROOT = "tests/test_existence.py::test_tree_rule_on_any_parent_array"
VERIFY_RANDOM = "tests/test_detection.py::test_verify_equals_literal_check"
MOVED_Q8 = "tests/test_detection.py::test_verify_equals_literal_check_on_moved_q8_detectors"
HYPERCUBE = "tests/test_graphs.py::test_hypercube_is_its_definition"
G14_RING = "tests/test_cli.py::test_output_is_pinned[construct g14-ring --t 2]"
G14_SEARCH = "tests/test_constructions.py::test_g14_search_and_ring"
TREE_SHARDS = "tests/test_generators.py::test_tree_shards_interleave_to_the_stream[2]"
TREE_ROW_2 = "tests/test_tables.py::test_census_row_is_pinned[tree-16-2]"
CUBIC_ROW = "tests/test_tables.py::test_census_row_is_pinned[cubic-12-1]"
TIGHT_CODES = "tests/test_reduction.py::test_satisfying_assignments_give_tight_codes"
SAT_ORACLE = "tests/test_reduction.py::test_brute_force_sat"
F_SEARCH = "tests/test_reduction.py::test_f_gadget_search_reproduces_frozen_artifact"
RESCAN = "tests/test_solver.py::test_incremental_counters_match_rescan"
CORPUS = "tests/test_corpus.py::test_differential_corpus"
ROOT_LITERAL = "tests/test_solver.py::test_root_matches_literal_constraint_list"
OPEN_ROOT = "tests/test_solver.py::test_open_root_is_rejected_before_verify"
CUBIC_STREAM = "tests/test_generators.py::test_cubic_stream_is_pinned[12-ba8840f3f3c1135e]"
SECONDS_CAP = "tests/test_solver.py::test_seconds_cap_counts_from_the_start_of_the_search"
DENSITY = "tests/test_solver.py::test_density_on_zero_and_one_vertex"
MULTIPARTITE = "tests/test_cli.py::test_construct_multipartite_defaults_to_four_vertices"
ORBITAL_PINS = "tests/test_solver.py::test_pinned_node_counts_with_orbital_fixing"
ORBIT_INVARIANT = "tests/test_solver.py::test_counters_hold_under_orbital_fixing"
PROPAGATED_ONCE = "tests/test_solver.py::test_root_is_propagated_once"

MUTANTS = [
    pytest.param("src/redic/symmetry.py", "        return self._level(x)[1]\n", "        return self\n",
                 [CLOSURE], id="stabiliser-returns-the-group"),
    pytest.param("src/redic/symmetry.py", "        key = i, g[i]\n", "        key = i\n",
                 [RANDOM_GROUPS], id="sims-filter-keyed-on-the-moved-point-only"),
    pytest.param("src/redic/symmetry.py", "                for s in self.generators:\n                    if s[y] not in u:",
                 "                for s in self.generators[:1]:\n                    if s[y] not in u:",
                 [CLOSURE], id="orbit-under-the-first-generator-only"),
    pytest.param("src/redic/existence.py", "re.escape(bytes((x,)))", "re.escape(bytes((x - 1,)))",
                 [STREAM_TREES], id="lone-leaf-child-followed-by-a-depth-below-x-only"),
    pytest.param("src/redic/existence.py", r'b"]|\\Z)"', 'b"])"',
                 [STREAM_TREES], id="lone-leaf-child-not-at-the-end"),
    pytest.param("src/redic/existence.py",
                 "    if root_degree == 1 and seq.count(2) < 2 or root_degree == 2 and 1 in (seq[2], seq[-1]):\n",
                 "    if False:\n", [ANY_ROOT], id="tree-rule-without-the-root-case"),
    pytest.param("src/redic/detection.py", "            if c - 1 not in sizes:\n", "            if c + 1 not in sizes:\n",
                 [VERIFY_RANDOM], id="minus-one-lookup-filter-looks-one-size-up"),
    pytest.param("src/redic/detection.py", "            if c - 1 not in sizes:\n", "            if c - 2 not in sizes:\n",
                 [MOVED_Q8], id="minus-one-lookup-filter-looks-two-sizes-down"),
    pytest.param("src/redic/detection.py", "    if req == 2:\n", "    if True:\n",
                 [VERIFY_RANDOM], id="minus-one-lookups-for-ic-too"),
    pytest.param("src/redic/detection.py", "    if req == 2:\n", "    if False:\n",
                 [VERIFY_RANDOM], id="no-minus-one-lookups"),
    pytest.param("src/redic/graphs.py", "[a << h | 1 << v for v, a in enumerate(adj)]", "[a << h for v, a in enumerate(adj)]",
                 [HYPERCUBE], id="hypercube-copy-one-without-its-cross-bit"),
    pytest.param("src/redic/graphs.py",
                 "adj = [a | 1 << (v + h) for v, a in enumerate(adj)] + [a << h | 1 << v for v, a in enumerate(adj)]",
                 "adj = [a | 1 << (2 * h - 1 - v) for v, a in enumerate(adj)] + [a << h | 1 << (h - 1 - v) for v, a in enumerate(adj)]",
                 [HYPERCUBE], id="hypercube-cross-edges-reversed"),
    pytest.param("src/redic/constructions.py", "(0, 3, 4, 5, 8, 9, 10, 13)", "(0, 3, 4, 5, 8, 9, 10, 12)",
                 [G14_RING], id="g14-gadget-witness-vertex-changed"),
    pytest.param("src/redic/constructions.py", "(10, 13)", "(10, 12)",
                 [G14_SEARCH], id="g14-gadget-edge-moved"),
    pytest.param("src/redic/generators.py", "block % mod != res", "block % mod == res",
                 [TREE_SHARDS], id="tree-shard-walks-the-blocks-it-does-not-own"),
    pytest.param("src/redic/generators.py", "new_block = p < m ", "new_block = True ",
                 [TREE_SHARDS], id="tree-shard-takes-every-sequence-for-a-block"),
    pytest.param("src/redic/generators.py", "            if skip and m <= 2:", "            if skip and m < 2:",
                 [TREE_SHARDS], id="tree-shard-walks-on-past-the-star"),
    pytest.param("src/redic/generators.py", "    return children\n",
                 "    return children[:-1] if len(children) > 1 else children\n",
                 [CUBIC_STREAM], id="cubic-children-drop-the-last-candidate"),
    pytest.param("src/redic/tables.py", "sum(histograms, Counter())", "histograms[0]",
                 [TREE_ROW_2], id="census-keeps-only-the-callers-histogram"),
    pytest.param("src/redic/reduction.py", 'role = "x" if lit > 0 else "nx"', 'role = "nx" if lit > 0 else "x"',
                 [TIGHT_CODES], id="reduction-wires-each-literal-to-its-negation"),
    pytest.param("src/redic/reduction.py", "full ^ table[-l - 1]", "table[-l - 1]",
                 [SAT_ORACLE], id="sat-oracle-drops-the-negation"),
    pytest.param("src/redic/reduction.py", "(1, 6))", "(1, 7))",
                 [F_SEARCH], id="f-gadget-edge-moved"),
    pytest.param("src/redic/solver.py", "if score >= best_score:", "if score > best_score:",
                 [RESCAN], id="branch-vertex-ties-to-the-highest"),
    pytest.param("src/redic/solver.py", "kept[take] = keep = ones ^ drop", "kept[take] = keep = ~drop",
                 [RESCAN], id="packing-keeps-bits-outside-ones"),
    pytest.param("src/redic/solver.py", "        if pick:\n", "        if False:\n",
                 [RESCAN], id="branch-ignores-res-among-the-least-slack"),
    pytest.param("src/redic/solver.py", "if self.stop_at_first else least & heavy", "if True else least & heavy",
                 [ORBITAL_PINS], id="minimising-branch-prefers-res-1"),
    pytest.param("src/redic/solver.py", "least ^ (least & heavy) if self.stop_at_first",
                 "least & heavy if self.stop_at_first", [ORBITAL_PINS], id="feasibility-branch-prefers-res-2"),
    pytest.param("src/redic/solver.py", "if packed == gap - 1 else 0", "if packed == gap - 2 else 0",
                 [RESCAN], id="bound-fixing-one-detector-early"),
    pytest.param("src/redic/solver.py", "            fix |= orbit\n", "            pass\n",
                 [ORBIT_INVARIANT], id="bound-fixing-not-widened-to-orbits"),
    pytest.param("src/redic/solver.py", "if active ^ (active & C - R + self.high):", "if False:",
                 [PROPAGATED_ONCE], id="bound-fixing-without-the-slack-cut"),
    pytest.param("src/redic/solver.py", "self._exclude_orbits(1 << x)",
                 '(setattr(self, "sym", None), self._exclude_orbits(1 << x), setattr(self, "sym", sym))[1]',
                 [ORBIT_INVARIANT], id="exclude-child-not-widened-to-its-orbit"),
    pytest.param("src/redic/solver.py", "    if t == 2:\n", "    if False:\n",
                 [ROOT_LITERAL], id="root-drops-the-open-twins"),
    pytest.param("src/redic/solver.py", "                forced |= m\n", "                pass\n",
                 [ROOT_LITERAL], id="root-leaves-the-tight-edge-masks-out-of-f"),
    pytest.param("src/redic/solver.py", "verify(g, forced, kind) is None", "True",
                 [CUBIC_ROW], id="closed-root-skips-verify"),
    pytest.param("src/redic/solver.py", "all((m & forced).bit_count() >= t for m in loose)", "True",
                 [OPEN_ROOT], id="closed-root-skips-the-kept-masks"),
    pytest.param("src/redic/solver.py", "    return [*closed, *sorted(pair_masks)]\n",
                 "    return [*closed, *sorted(pair_masks)[:-1]]\n", [CORPUS], id="constraint-list-skips-a-pair-mask"),
    pytest.param("src/redic/solver.py", "time.perf_counter() - self.t0 > b.max_seconds",
                 "time.perf_counter() + self.t0 > b.max_seconds", [SECONDS_CAP], id="seconds-cap-adds-the-start-time"),
    pytest.param("src/redic/solver.py", "if self.k is None or self.n == 0:", "if self.k is None or self.n <= 1:",
                 [DENSITY], id="density-undefined-on-one-vertex"),
    pytest.param("src/redic/cli.py", 'p.add_argument("--n", type=int, default=4)',
                 'p.add_argument("--n", type=int, default=5)', [MULTIPARTITE], id="construct-n-defaults-to-five"),
    pytest.param("tests/gadgets.py", "key=lambda t: (t[0], t[1])", "key=lambda t: (t[0], -t[1])",
                 [G14_SEARCH], id="g14-search-ties-in-reverse-stream-order"),
]


def _copy(tmp_path):
    """Both trees, the pytest settings and the CI workflow that
    ``tests/test_cli.py`` reads, without byte-code caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "src" / "redic", tmp_path / "src" / "redic", ignore=ignore)
    shutil.copytree(ROOT / "tests", tmp_path / "tests", ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    workflow = Path(".github", "workflows", "tests.yml")
    (tmp_path / workflow).parent.mkdir(parents=True)
    shutil.copy(ROOT / workflow, tmp_path / workflow)


def _run(tmp_path, tests):
    """The named tests, run from the copy against the copied package."""
    path = os.pathsep.join(filter(None, [str(tmp_path / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


@pytest.mark.stretch(reason="a test run per mutant, about 90 s in all")
@pytest.mark.parametrize("path, snippet, replacement, tests", MUTANTS)
def test_mutant_is_caught(tmp_path, path, snippet, replacement, tests):
    _copy(tmp_path)
    target = tmp_path / path
    source = target.read_text()
    assert source.count(snippet) == 1
    target.write_text(source.replace(snippet, replacement))
    run = _run(tmp_path, tests)
    assert run.returncode == 1, run.stdout[-3000:] + run.stderr[-3000:]


@pytest.mark.stretch(reason="about 5 s")
def test_named_tests_pass_on_an_unmutated_copy(tmp_path):
    _copy(tmp_path)
    tests = sorted({t for param in MUTANTS for t in param.values[3]})
    run = _run(tmp_path, tests)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
