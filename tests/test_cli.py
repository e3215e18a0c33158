import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import redic
from redic import tables
from redic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify", "--family", "star", "--params", "3",
                       "--detectors", "0,1,2,3", "--kind", "red-ic")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "--graph6", "Cl", "--detectors", "0,1,2")
    assert code == 1 and "pair" in out


def test_bad_input_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--graph6-file", "/nonexistent", "--detectors", "0")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "solve", "--graph6", "Cl", "--edgelist-file", "x")
    assert code == 2


def test_verify_rejects_repeated_detector(capsys):
    code, out, err = run(capsys, "verify", "--family", "cycle", "--params", "7",
                         "--detectors", "0,1,2,3,4,5,6,6")
    assert code == 2 and out == ""
    assert err == "error: detector 6 is listed more than once\n"
    code, _, err = run(capsys, "verify", "--family", "cycle", "--params", "7",
                       "--detectors", "3,0,3", "--json")
    assert code == 2 and "detector 3" in err


def test_empty_list_entries_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "cycle", "--params", "7",
                         "--detectors", "0,,1,2,3,4,5,6,")
    assert (code, out, err) == (2, "", "error: --detectors has an empty entry: '0,,1,2,3,4,5,6,'\n")
    code, out, err = run(capsys, "bounds", "--family", "torus", "--params", "6,,6", "--json")
    assert (code, out, err) == (2, "", "error: --params has an empty entry: '6,,6'\n")
    # an empty --params still means no parameters, as when it is left out
    for argv in (["--params", ""], []):
        code, _, err = run(capsys, "bounds", "--family", "star", *argv)
        assert (code, err) == (2, "error: star takes 1 parameter(s), got 0\n")


def test_non_integer_list_entries_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "cycle", "--params", "7",
                         "--detectors", "0,x")
    assert (code, out, err) == (2, "", "error: --detectors has a non-integer entry: '0,x'\n")
    code, out, err = run(capsys, "bounds", "--family", "torus", "--params", "6,1.5", "--json")
    assert (code, out, err) == (2, "", "error: --params has a non-integer entry: '6,1.5'\n")


def test_solve_json_schema(capsys):
    code, out, _ = run(capsys, "solve", "--family", "cycle", "--params", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["command", "input_digest", "outcome", "k", "witness", "bounds", "stats"]
    assert rep["outcome"] == "optimal" and rep["k"] == 4


def test_solve_infeasible_exits_1(capsys):
    code, out, _ = run(capsys, "solve", "--family", "path", "--params", "6")
    assert code == 1 and "support" in out


def test_solve_empty_graph_exits_1_with_its_reason(capsys):
    # graph6 '?' is the graph on no vertices, which has no RED:IC
    code, out, _ = run(capsys, "solve", "--graph6", "?")
    assert (code, out) == (1, "no red-ic code exists: component () has fewer than 4 vertices\n")


def test_exists(capsys):
    code, out, _ = run(capsys, "exists", "--family", "complete", "--params", "5")
    assert code == 1 and "twins" in out
    code, out, _ = run(capsys, "exists", "--family", "star", "--params", "3")
    assert code == 0


def test_constructed_witness_reverifies(capsys):
    code, out, _ = run(capsys, "construct", "star-even", "--k", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    code, out, _ = run(capsys, "verify", "--graph6", rep["graph6"],
                       "--detectors", ",".join(map(str, rep["witness"])))
    assert code == 0


def test_construct_multipartite_defaults_to_four_vertices(capsys):
    code, out, _ = run(capsys, "construct", "multipartite")
    assert code == 0 and out.splitlines()[-1] == "k=4 n=4 certificate=solver"


def test_reduce_roundtrip(capsys, tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(capsys, "reduce", str(cnf), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["vertices"] == 27 and rep["edges"] == 29 and rep["threshold"] == 24
    assert rep["roles"]["x1"] == 0


def test_reduce_digest_ignores_path_spelling(capsys, pinned_dir):
    spellings = ("phi.cnf", "./phi.cnf", str(Path("phi.cnf").resolve()))
    digests = {json.loads(run(capsys, "reduce", p, "--json")[1])["input_digest"] for p in spellings}
    assert len(digests) == 1


def test_feasible(capsys):
    code, out, _ = run(capsys, "feasible", "--graph6", "Cl", "--k", "4")
    assert code == 0 and "witness" in out
    code, out, _ = run(capsys, "feasible", "--graph6", "Cl", "--k", "3")
    assert code == 1 and "none" in out


def test_table_output_is_bit_identical(capsys):
    code, out1, _ = run(capsys, "table1", "--max-n", "6")
    assert code == 0
    code, out2, _ = run(capsys, "table1", "--max-n", "6")
    assert out1 == out2
    assert out1.count("PASS") == 3


def test_table_fail_and_no_reference_rows(capsys, monkeypatch):
    monkeypatch.setitem(tables.TREE_REFERENCE, 4, (2, 1, 0, 0, 1, 0))  # the row is (2, 1, 0, 0, 0, 1)
    code, out, _ = run(capsys, "table1", "--max-n", "4")
    assert code == 1 and out.splitlines()[1] == "4\t2\t1\t0\t0\t0\t1\tFAIL"
    code, out, _ = run(capsys, "table1", "--max-n", "4", "--json")
    assert code == 1
    assert json.loads(out) == {"command": "table-trees", "all_match": False, "rows": [
        {"n": 4, "values": [2, 1, 0, 0, 0, 1], "status": "FAIL",
         "diffs": [["min=n-1", 1, 0, False], ["min=n", 0, 1, False]], "nodes": 1, "minima": {"4": 1}}]}
    monkeypatch.delitem(tables.TREE_REFERENCE, 4)
    code, out, _ = run(capsys, "table1", "--max-n", "4")
    assert code == 0 and out.splitlines()[1] == "4\t2\t1\t0\t0\t0\t1\tno-reference"
    code, out, _ = run(capsys, "table1", "--max-n", "4", "--json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": 4, "values": [2, 1, 0, 0, 0, 1], "status": "no-reference",
                                        "diffs": [], "nodes": 1, "minima": {"4": 1}}]
    assert json.loads(out)["all_match"]


def test_table_reference_of_another_length_exits_2(capsys, monkeypatch):
    # a reference row without the min<n-2 column is an error, not a PASS on five columns
    monkeypatch.setitem(tables.TREE_REFERENCE, 4, (2, 1, 0, 0, 1))
    code, _, err = run(capsys, "table1", "--max-n", "4")
    assert code == 2 and err == "error: TreeRow n=4: 6 columns, 5 reference values, 6 values\n"


def test_table2_json(capsys):
    code, out, _ = run(capsys, "table2", "--max-n", "8", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_match"] and [r["n"] for r in rep["rows"]] == [6, 8]


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "torus", "--params", "6,6")
    assert code == 0 and "15" in out


def test_file_inputs(capsys, tmp_path):
    g6 = tmp_path / "claw.g6"
    g6.write_bytes(b"Cs\n")  # the 4-vertex star
    code, out, _ = run(capsys, "solve", "--graph6-file", str(g6))
    assert code == 0 and "k=4" in out
    el = tmp_path / "claw.edges"
    el.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run(capsys, "solve", "--edgelist-file", str(el))
    assert code == 0 and "k=4" in out


def test_zero_node_budget_caps_the_search(capsys):
    code, out, _ = run(capsys, "solve", "--family", "cycle", "--params", "7")
    assert code == 0 and out.startswith("optimal")
    code, out, _ = run(capsys, "solve", "--family", "cycle", "--params", "7", "--budget-nodes", "0")
    assert code == 0 and out.startswith("bounded") and out.rstrip().endswith("nodes=0")
    code, out, _ = run(capsys, "feasible", "--graph6", "Cl", "--k", "4", "--budget-nodes", "0")
    assert code == 1 and "budget exhausted" in out
    code, out, _ = run(capsys, "table2", "--max-n", "8", "--budget-nodes", "0")
    assert code == 1 and "partial" in out


def test_bounded_line_shows_the_lower_bound(capsys):
    # the bounds bracket the optimum 25 that the unbudgeted search proves
    code, out, _ = run(capsys, "solve", "--family", "torus", "--params", "7,7", "--budget-nodes", "1000")
    assert code == 0 and out == (
        "bounded: k=26 of n=49 (density 26/49) lower=20"
        " witness=0,1,2,3,4,5,6,14,15,16,17,18,19,20,28,29,30,31,32,33,34,37,38,39,40,42 nodes=1000\n")
    code, out, _ = run(capsys, "solve", "--family", "torus", "--params", "7,7", "--budget-nodes", "1000", "--json")
    rep = json.loads(out)
    assert (rep["outcome"], rep["bounds"], rep["stats"]["nodes"]) == ("bounded", {"lower": 20, "upper": 26}, 1000)


@pytest.mark.parametrize("cmd", ["table1", "table2"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(capsys, cmd, threads):
    code, out, err = run(capsys, cmd, "--threads", threads)
    assert (code, out, err) == (2, "", f"error: --threads must be at least 1, got {threads}\n")


@pytest.mark.parametrize("argv", [
    "solve --family cycle --params 7 --budget-nodes -5",
    "solve --family cycle --params 7 --budget-seconds -1",
    "feasible --graph6 Cl --k 4 --budget-nodes -5",
    "feasible --graph6 Cl --k 4 --budget-seconds -1",
    "table1 --max-n 6 --budget-nodes -1",
    "table2 --max-n 8 --budget-nodes -1",
])
def test_negative_budgets_exit_2(capsys, argv):
    *_, flag, value = argv.split()
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "") and err.startswith(f"error: {flag} must be at least 0, got {value}")


@pytest.mark.parametrize("argv, message", [
    ("table1 --max-n 6 --budget-nodes -1", "--budget-nodes must be at least 0, got -1"),
    ("solve --family cycle --params 7 --budget-seconds -1", "--budget-seconds must be at least 0, got -1.0"),
    ("feasible --graph6 Cl --k 4 --budget-seconds nan", "--budget-seconds must be at least 0, got nan"),
])
def test_budget_errors_name_the_flag(capsys, argv, message):
    # Budget rejects the cap, and the message names the flag that set it
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_table_below_its_first_row_exits_2(capsys):
    for cmd, first in (("table1", 4), ("table2", 6)):
        for form in ([], ["--json"]):
            code, out, err = run(capsys, cmd, "--max-n", str(first - 1), *form)
            assert (code, out) == (2, "") and f"--max-n must be at least {first}" in err


def test_json_stats_show_search_counters(capsys):
    for argv, exit_code in ((["solve"], 0), (["feasible", "--k", "9"], 1)):
        code, out, _ = run(capsys, *argv, "--family", "hypercube", "--params", "4", "--json")
        stats = json.loads(out)["stats"]
        assert code == exit_code
        assert list(stats) == ["nodes", "seconds", "forced", "pruned", "orbit_fixed", "group_order"]
        assert stats["forced"] > 0 and 0 < stats["pruned"] < stats["nodes"]


def test_json_stats_show_the_symmetry_used(capsys):
    torus = ["--family", "torus", "--params", "4,4", "--json"]
    for argv, exit_code in ((["solve"], 0), (["feasible", "--k", "9"], 1)):
        code, out, _ = run(capsys, *argv, *torus)
        stats = json.loads(out)["stats"]
        assert code == exit_code
        assert stats["group_order"] == 128 and stats["orbit_fixed"] > 0
    # the same graph read from graph6 carries no provenance: no group, no fixing
    code, out, _ = run(capsys, "solve", "--graph6", "Ol`HGsG@GC_L_GOCc@G_L", "--json")
    assert code == 0 and json.loads(out)["stats"]["group_order"] == 1


def test_wall_clock_budget_is_honoured(capsys):
    # a zero-second budget stops the search at its first clock check, 256 nodes in
    torus = ["--family", "torus", "--params", "6,6", "--json", "--budget-seconds", "0"]
    code, out, err = run(capsys, "solve", *torus)
    rep = json.loads(out)
    assert (code, err, rep["outcome"], rep["stats"]["nodes"]) == (0, "", "bounded", 256)
    assert rep["bounds"]["lower"] < rep["k"]
    code, out, err = run(capsys, "feasible", "--k", "17", *torus)
    rep = json.loads(out)
    assert (code, err, rep["outcome"], rep["stats"]["nodes"]) == (1, "", "unknown (budget exhausted)", 256)


def test_runs_without_networkx():
    # networkx is a test reference only: with it unimportable, every module
    # still imports and the tree census still runs
    script = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None
import redic
for m in pkgutil.iter_modules(redic.__path__):
    importlib.import_module("redic." + m.name)
from redic.cli import main
sys.exit(main(["table1", "--max-n", "10"]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(redic.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 7


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def console_step() -> str:
    """The shell lines of the workflow's "Installed console script" step:
    the literal block under its ``run: |``, dedented."""
    lines = WORKFLOW.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.strip() == "- name: Installed console script")
    run_line = lines[i + 1]
    assert run_line.strip() == "run: |", run_line
    indent = len(run_line) - len(run_line.lstrip())
    block = []
    for line in lines[i + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def run_console(script: str, cwd: Path) -> subprocess.CompletedProcess:
    """``script`` under ``bash -eo pipefail``, as the workflow runs a step,
    with ``redic`` standing for ``python -m redic.cli`` on this source tree."""
    prelude = f'redic() {{ {shlex.quote(sys.executable)} -m redic.cli "$@"; }}\n'
    env = {**os.environ, "PYTHONPATH": str(Path(redic.__file__).parents[1])}
    return subprocess.run(["bash", "-eo", "pipefail", "-c", prelude + script], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=600)


def test_console_harness_fails_on_a_failing_line(tmp_path):
    assert "redic table2" in console_step()
    for script in ("redic exists --family path --params 5\necho reached\n",
                   "redic exists --family path --params 5 | cat\necho reached\n"):
        proc = run_console(script, tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "no: support vertex 1 has degree 2 or less\n")


@pytest.mark.stretch(reason="about 5 s")
def test_stretch_ci_console_step(tmp_path):
    # every pinned exit code and output of the workflow's console step
    proc = run_console(console_step(), tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# Each invocation runs in text form and with --json, in a directory holding
# claw.g6, claw.edges and phi.cnf; the value is the sha256 (first 16 hex
# digits) of "exit code, stdout, stderr" for each form, "seconds" blanked.
PINNED_OUTPUTS = {
    "verify --family star --params 3 --detectors 0,1,2,3": ("449392ce9267c83d", "a23125e9b0cd2d7f"),
    "verify --graph6 Cl --detectors 0,1,2 --kind ic": ("098ba274e7d71c2a", "1d7a330dcf25cddd"),
    "verify --graph6 Cl --detectors 0,1,2": ("342b919cc9d30296", "ed1c57bb6eec9953"),
    "solve --family cycle --params 7": ("85f47cdcae78c47e", "a063aeeb91eb426d"),
    "solve --family cycle --params 7 --budget-nodes 0": ("3a05ba84155c4aca", "9937fcd4bf538f9d"),
    "solve --family hypercube --params 4 --kind ic": ("473961e96068c235", "75dd45443719ec68"),
    "solve --family path --params 6": ("cf9965d3bb7785f7", "2f760ccf50881a55"),
    "solve --graph6-file claw.g6": ("4cf3a2e38d2d5a42", "ee8d3a70207da1fd"),
    "solve --edgelist-file claw.edges": ("4cf3a2e38d2d5a42", "ee8d3a70207da1fd"),
    "exists --family complete --params 5": ("3c99c4d847042254", "88b9dd24b89d640b"),
    "exists --family star --params 3": ("8e1e87e0f875adcb", "6eefe383e48a4bc9"),
    "feasible --graph6 Cl --k 4": ("78fea103fc5e4a50", "be0c0799a149599c"),
    "feasible --graph6 Cl --k 3": ("3eb7e15ba99027a5", "104860a348797e24"),
    "feasible --graph6 Cl --k 4 --budget-nodes 0": ("baab6acbec3d5e03", "acf7be5189ea47a0"),
    "bounds --family torus --params 6,6": ("759ad3b3954a98e2", "cc4a57e15a1bdd4c"),
    "bounds --family hypercube --params 4 --kind ic": ("b7e68e4a188867c8", "c5569e7f5ac631f1"),
    "construct star-even --k 6": ("431aa364a33d82a3", "740b5e157feddafd"),
    "construct star-odd --k 5": ("b554bec5332b582c", "7052b9bed1cab6f3"),
    "construct cycle-odd --k 7": ("0a35a93f16ef4a55", "8780e76c42ca764a"),
    "construct multipartite --n 6": ("58f465aba74f865e", "7fd1562d71a53ff4"),
    "construct tree --n 7": ("5c39dd575f96e374", "1b5267fcfaeb93d8"),
    "construct g6-ring --t 3": ("c60006c869f570c2", "c7da5506f29fe358"),
    "construct g14-ring --t 2": ("b46b4e5d2643c390", "92b4495ecede4fd4"),
    "construct q5": ("e52b53633ca0e893", "cc45df7a9b746ead"),
    "reduce phi.cnf": ("5c2fac9c377985d2", "f06c0375f03ad9c5"),
    "table1 --max-n 8": ("46808748f8f938f8", "bf99bff5aae2c03b"),
    "table2 --max-n 10": ("7776c2124f7a718e", "cb97fc46230fb8cb"),
    "table2 --max-n 10 --budget-nodes 1": ("b0aecb3abaf4619a", "a6ef204e8e9ce0a2"),  # partial rows, no diffs
    # exit 2: usage and I/O errors
    "solve": ("f63dde731e30a3f8", "f63dde731e30a3f8"),
    "solve --graph6 Cl --edgelist-file claw.edges": ("f63dde731e30a3f8", "f63dde731e30a3f8"),
    "verify --graph6-file missing.g6 --detectors 0": ("ef3a89b6b7ac9abd", "ef3a89b6b7ac9abd"),
    "solve --graph6 !!": ("8cd6086895e56133", "8cd6086895e56133"),
    "solve --family nosuch": ("625262fc1f9d6e90", "625262fc1f9d6e90"),
    "construct star-odd --k 4": ("b34c10f976694819", "b34c10f976694819"),
    "construct multipartite --n 5": ("22d6f0f081d43143", "22d6f0f081d43143"),
    "reduce missing.cnf": ("e0b0335006809d1e", "e0b0335006809d1e"),
    "solve --family cycle --params 5 --kind xx": ("d6d2a8922ad94d47", "d6d2a8922ad94d47"),
}

PINNED_HELP = {
    "--help": "c9a7fdc619d77e1d",
    "table1 --help": "46996ee370e69e9b",
    "table2 --help": "f232447c1a9019b8",
}


def _output_digest(capsys, argv: list[str]) -> str:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    out = capsys.readouterr()
    text = re.sub(r'"seconds": [-0-9.e]+', '"seconds": 0', f"{code}\n{out.out}\n{out.err}")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture
def pinned_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the invocations name their input files by relative path
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    (tmp_path / "claw.g6").write_bytes(b"Cs\n")
    (tmp_path / "claw.edges").write_text("4 3\n0 1\n0 2\n0 3\n")
    (tmp_path / "phi.cnf").write_text("p cnf 3 1\n1 2 3 0\n")


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS))
def test_output_is_pinned(argv, capsys, pinned_dir):
    got = tuple(_output_digest(capsys, argv.split() + form) for form in ([], ["--json"]))
    assert got == PINNED_OUTPUTS[argv]


@pytest.mark.parametrize("argv", list(PINNED_HELP))
def test_help_is_pinned(argv, capsys, pinned_dir):
    assert _output_digest(capsys, argv.split()) == PINNED_HELP[argv]
