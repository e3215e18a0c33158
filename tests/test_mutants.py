"""The mutation gate: each entry is a deliberate fault that a named test must catch.

An entry names a module of ``src/redic``, a snippet of its source, the
replacement that plants the fault, and the tests that must catch it.  The
package is copied to a temporary directory, the snippet (which must occur
exactly once, so the entry cannot go stale unnoticed) is replaced, and the
tests run in a subprocess that imports the copy.  They must fail: exit
code 1, not 2 (an error before any test ran) and not 0 (a surviving
mutant).  A surviving mutant is closed with a test or documented as
equivalent, never deleted to pass.
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

MUTANTS = [
    pytest.param("symmetry.py", "        return self._level(x)[1]\n", "        return self\n",
                 [CLOSURE], id="stabiliser-returns-the-group"),
    pytest.param("symmetry.py", "        key = i, g[i]\n", "        key = i\n",
                 [RANDOM_GROUPS], id="sims-filter-keyed-on-the-moved-point-only"),
    pytest.param("symmetry.py", "                for s in self.generators:\n                    if s[y] not in u:",
                 "                for s in self.generators[:1]:\n                    if s[y] not in u:",
                 [CLOSURE], id="orbit-under-the-first-generator-only"),
    pytest.param("existence.py", "re.escape(bytes((x,)))", "re.escape(bytes((x - 1,)))",
                 [STREAM_TREES], id="lone-leaf-child-followed-by-a-depth-below-x-only"),
    pytest.param("existence.py", r'b"]|\\Z)"', 'b"])"',
                 [STREAM_TREES], id="lone-leaf-child-not-at-the-end"),
    pytest.param("existence.py",
                 "    if root_degree == 1 and seq.count(2) < 2 or root_degree == 2 and 1 in (seq[2], seq[-1]):\n",
                 "    if False:\n", [ANY_ROOT], id="tree-rule-without-the-root-case"),
    pytest.param("detection.py", "            if c - 1 not in sizes:\n", "            if c + 1 not in sizes:\n",
                 [VERIFY_RANDOM], id="minus-one-lookup-filter-looks-one-size-up"),
    pytest.param("detection.py", "            if c - 1 not in sizes:\n", "            if c - 2 not in sizes:\n",
                 [MOVED_Q8], id="minus-one-lookup-filter-looks-two-sizes-down"),
    pytest.param("detection.py", "    if req == 2:\n", "    if True:\n",
                 [VERIFY_RANDOM], id="minus-one-lookups-for-ic-too"),
    pytest.param("detection.py", "    if req == 2:\n", "    if False:\n",
                 [VERIFY_RANDOM], id="no-minus-one-lookups"),
    pytest.param("graphs.py", "[a << h | 1 << v for v, a in enumerate(adj)]", "[a << h for v, a in enumerate(adj)]",
                 [HYPERCUBE], id="hypercube-copy-one-without-its-cross-bit"),
    pytest.param("graphs.py",
                 "adj = [a | 1 << (v + h) for v, a in enumerate(adj)] + [a << h | 1 << v for v, a in enumerate(adj)]",
                 "adj = [a | 1 << (2 * h - 1 - v) for v, a in enumerate(adj)] + [a << h | 1 << (h - 1 - v) for v, a in enumerate(adj)]",
                 [HYPERCUBE], id="hypercube-cross-edges-reversed"),
    pytest.param("constructions.py", "(0, 3, 4, 5, 8, 9, 10, 13)", "(0, 3, 4, 5, 8, 9, 10, 12)",
                 [G14_RING], id="g14-gadget-witness-vertex-changed"),
    pytest.param("constructions.py", "(10, 13)", "(10, 12)",
                 [G14_SEARCH], id="g14-gadget-edge-moved"),
    pytest.param("generators.py", "block % mod != res", "block % mod == res",
                 [TREE_SHARDS], id="tree-shard-walks-the-blocks-it-does-not-own"),
    pytest.param("generators.py", "new_block = split and p < m ", "new_block = split ",
                 [TREE_SHARDS], id="tree-shard-takes-every-sequence-for-a-block"),
    pytest.param("generators.py", "            if skip and m <= 2:", "            if skip and m < 2:",
                 [TREE_SHARDS], id="tree-shard-walks-on-past-the-star"),
    pytest.param("tables.py", "chunks[j % threads][j // threads]", "chunks[j // threads][j % threads]",
                 [TREE_ROW_2], id="census-merge-swaps-shard-and-chunk"),
]


@pytest.mark.stretch(reason="a test run per mutant, about 20 s in all")
@pytest.mark.parametrize("module, snippet, replacement, tests", MUTANTS)
def test_mutant_is_caught(tmp_path, module, snippet, replacement, tests):
    shutil.copytree(ROOT / "src" / "redic", tmp_path / "redic", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "redic" / module
    source = path.read_text()
    assert source.count(snippet) == 1
    path.write_text(source.replace(snippet, replacement))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout[-3000:] + run.stderr[-3000:]
