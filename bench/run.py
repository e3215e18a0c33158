"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run sets up several times in fresh processes, then
repeats untraced passes for about ``--seconds`` and reports the end-to-end
metrics as medians over passes, every time scaled to reference host speed
(see ``speed.py``).  With ``--trace 1`` it makes one untraced
and one traced pass, reports the per-module metrics of the traced pass,
prints where the time went, and writes the spans to
``bench/traces/<workload>-seed<N>.jsonl``.  Either way the last line of
standard output is the JSON result; the exit code is 0 only when every
output checked out.  ``--smoke`` shrinks every workload to seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter

import layers
from speed import Reading, SpeedProbe, process_cpu
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "redic" / "__init__.py").is_file():
        sys.exit(f"run.py: {SRC / 'redic'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import redic

    if Path(redic.__file__).resolve().parent != (SRC / "redic").resolve():
        sys.exit(f"run.py: imported redic from {redic.__file__}, not from {SRC}")


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest child
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def _setup_seconds(args) -> float:
    """Wall time, at reference speed, of a fresh process that imports, builds
    inputs and warms up; the process samples its own speed and reports it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    t0 = perf_counter()
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    wall = perf_counter() - t0
    speed = Reading(**json.loads(proc.stdout.splitlines()[-1]))
    return (wall - speed.wall) / speed.scale()


def _timed_pass(wl, inputs, tracer):
    t0, c0 = perf_counter(), process_cpu()
    res = wl.run(inputs, tracer)
    return res, perf_counter() - t0, process_cpu() - c0


def _untraced(wl, inputs: list, seconds: float, probe: SpeedProbe) -> dict:
    """Passes for about ``seconds``, each on the next inputs in turn; wall and
    CPU time of each pass at reference speed (see speed.py)."""
    passes = []
    count = 1
    while len(passes) < count:
        res, wall, cpu, speed = probe.measure(wl.run, inputs[len(passes) % len(inputs)], NullTracer())
        passes.append((res, wall / speed.scale(), cpu / speed.scale()))
        print(f"# pass {len(passes)}: {wall:.3f} s wall measured, host {speed.scale():.3f} times "
              f"slower than reference over {speed.slices} slices")
        if len(passes) == 1:
            count = max(1, round(seconds / wall))
    return {
        "results": [p[0] for p in passes],
        "metrics": {
            "wall_s": median(p[1] for p in passes),
            "cpu_s": median(p[2] for p in passes),
            "items_per_s": median(p[0].attempted / p[1] for p in passes),
        },
    }


def _traced(wl, inputs: list, args) -> dict:
    plain, plain_wall, _ = _timed_pass(wl, inputs[0], NullTracer())
    tracer = Tracer(f"{args.workload}-seed{args.seed}")
    children0 = _children_cpu()
    with tracer.span("bench.pass"):
        traced, traced_wall, _ = _timed_pass(wl, inputs[0], tracer)
    pool_cpu = _children_cpu() - children0
    if traced.values != plain.values:
        traced.failed += 1
        traced.problems.append("traced pass values differ from the untraced pass")
    metrics = layers.layer_metrics(tracer, pool_cpu, traced_wall - plain_wall)
    shares = layers.layer_shares(tracer)
    busy = sum(shares.values())
    print(f"# where the time goes: {args.workload}, traced pass {traced_wall:.3f} s wall, "
          f"{busy:.3f} s self time over all processes")
    for layer, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:<14}{secs:9.3f} s {100 * secs / busy:6.1f} %")
    print(f"#   tables.pool_efficiency {metrics['tables.pool_efficiency']:.3f}, "
          f"trace.overhead_s {metrics['trace.overhead_s']:.3f}")
    tracer.write(HERE / "traces" / f"{tracer.run_id}.jsonl")
    return {"results": [plain, traced], "metrics": metrics, "units": layers.UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    probe = SpeedProbe()
    with probe:
        probe.sample()
        _import_program()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.inputs(args.seed, args.smoke)
        wl.run(wl.inputs(args.seed, True)[0], NullTracer())  # warm-up
        probe.sample()
    if args.setup_only:
        print(json.dumps(asdict(probe.reading())))
        return 0

    if args.trace:
        run = _traced(wl, inputs, args)
    else:
        setup = median(_setup_seconds(args) for _ in range(SETUP_SAMPLES))
        with probe:
            run = _untraced(wl, inputs, args.seconds, probe)
        run["metrics"].update(setup_s=setup, peak_rss_mb=_peak_rss_mb())
        run["units"] = END_TO_END_UNITS
    attempted = sum(r.attempted for r in run["results"])
    failed = sum(r.failed for r in run["results"])
    for problem in dict.fromkeys(p for r in run["results"] for p in r.problems):
        print(f"# FAILED: {problem}")
    print(f"# seed {args.seed}, error_rate {failed}/{attempted}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": run["units"][k]} for k, v in run["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
