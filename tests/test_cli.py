import json
import os
import subprocess
import sys
from pathlib import Path

import redic
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


def test_solve_json_schema(capsys):
    code, out, _ = run(capsys, "solve", "--family", "cycle", "--params", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["command", "input_digest", "outcome", "k", "witness", "bounds", "stats"]
    assert rep["outcome"] == "optimal" and rep["k"] == 4


def test_solve_infeasible_exits_1(capsys):
    code, out, _ = run(capsys, "solve", "--family", "path", "--params", "6")
    assert code == 1 and "support" in out


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


def test_reduce_roundtrip(capsys, tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(capsys, "reduce", str(cnf), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["vertices"] == 27 and rep["edges"] == 29 and rep["threshold"] == 24
    assert rep["roles"]["x1"] == 0


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
