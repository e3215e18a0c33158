"""Tests of the benchmark itself, on smoke-sized workloads.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_reproduces_untraced_values(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(5, True)[0]
    plain = wl.run(inputs, NullTracer())
    tracer = Tracer("test")
    traced = wl.run(inputs, tracer)
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert traced.values == plain.values
    assert tracer.spans and all(s[3] is not None for s in tracer.spans)


def test_cubic_census_enumerates_on_every_pass():
    wl = workloads.WORKLOADS["cubic-census"]
    inputs = wl.inputs(0, True)[0]
    for _ in range(2):
        res = wl.run(inputs, NullTracer())
        assert res.failed == 0, res.problems
        info = workloads.generators.cubic_graphs_cached.cache_info()
        assert (info.misses, info.hits) == (len(inputs.sizes), 0)


def test_lattice_node_counts_are_reported_per_instance():
    tracer = Tracer("test")
    res = workloads.WORKLOADS["lattice-search"].run(workloads.LATTICE_SMOKE, tracer)
    metrics = layers.layer_metrics(tracer, 0.0, 0.0)
    nodes = [n for *_, n in res.values]
    assert [metrics[f"solver.{c.slot}.nodes"] for c in workloads.LATTICE_SMOKE] == nodes
    assert all(n > 0 for n in nodes)


def test_self_time_subtracts_the_union_of_children():
    tr = Tracer("test")
    tr.spans.append([0, "outer", 0.0, 10.0, None, {}])
    tr._stack.append(0)
    tr.adopt([("a", 1.0, 3.0, {}), ("b", 2.0, 5.0, {}), ("c", 7.0, 8.0, {})])
    assert tr.self_times() == [10.0 - 4.0 - 1.0, 2.0, 3.0, 1.0]


def test_tail_leaves_ten_samples_beyond():
    assert layers.tail(list(range(1, 21))) == 10
    assert layers.tail([3.0, 1.0]) == 3.0


def test_seed_alone_determines_the_formulas():
    make = workloads.WORKLOADS["certify-large"].inputs
    sets = [i.formulas for i in make(7, False)]
    assert sets == [i.formulas for i in make(7, False)]
    assert sets != [i.formulas for i in make(8, False)]
    assert len(set(sets)) == len(sets)
    phi = workloads.random_formula(random.Random(1), 8, 60)
    assert phi.variables_used() == set(range(1, 9)) and len(phi.clauses) == 60


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = _run(tmp_path, "--workload", "lattice-search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_probe_samples_during_a_call_and_nets_out_its_slices():
    probe = speed.SpeedProbe()
    with probe:
        out, wall, cpu, reading = probe.measure(time.sleep, 0.35)
    assert out is None
    # two explicit slices and about seven from the timer
    assert reading.slices >= 4 and reading.cpu > 0
    assert abs(wall - 0.35) < 0.05 and cpu < 0.05
    assert reading.scale() == reading.cpu / reading.slices / speed.NOMINAL_SLICE_S


def test_setup_process_reports_its_own_speed():
    proc = _run(ROOT, "--workload", "lattice-search", "--seed", "1", "--setup-only", "--smoke")
    assert proc.returncode == 0, proc.stderr
    reading = speed.Reading(**json.loads(proc.stdout.splitlines()[-1]))
    assert reading.slices >= 2 and reading.scale() > 0


def test_speed_probe_leaves_no_timer_armed_after_it_closes():
    probe = speed.SpeedProbe()
    with probe:
        assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
    # a SIGALRM handled just after the timer was disarmed must not re-arm it:
    # with the default action restored, the next one would kill the process
    probe._tick(signal.SIGALRM, None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
