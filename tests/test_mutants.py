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

MUTANTS = [
    pytest.param("symmetry.py", "        return self._level(x)[1]\n", "        return self\n",
                 [CLOSURE], id="stabiliser-returns-the-group"),
    pytest.param("symmetry.py", "        key = i, g[i]\n", "        key = i\n",
                 [RANDOM_GROUPS], id="sims-filter-keyed-on-the-moved-point-only"),
    pytest.param("symmetry.py", "                for s in self.generators:\n                    if s[y] not in u:",
                 "                for s in self.generators[:1]:\n                    if s[y] not in u:",
                 [CLOSURE], id="orbit-under-the-first-generator-only"),
]


@pytest.mark.stretch(reason="a test run per mutant, about 5 s in all")
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
