"""Command-line surface: verify, solve, exists, construct, reduce, tables.

Exit codes: 0 pass/solved, 1 property failure or infeasible or reference
mismatch, 2 usage or I/O trouble.  ``--json`` emits one report object with
the stable field order {command, input_digest, outcome, k, witness,
bounds, stats}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import constructions, reduction, tables
from .detection import CodeKind, verify
from .existence import exists_red_ic
from .graphs import Graph, named_builder, parse_edge_list, parse_graph6, write_graph6
from .solver import Budget, SolverStats, feasible_at, lower_bound, solve_min


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("graph input (choose one)")
    src.add_argument("--graph6", metavar="STR", help="graph6 value, e.g. 'Cl'")
    src.add_argument("--graph6-file", metavar="PATH", help="file with one graph6 value")
    src.add_argument("--edgelist-file", metavar="PATH", help="file with 'n m' header then 'u v' lines")
    src.add_argument("--family", metavar="NAME", help="named builder, e.g. cycle, ladder, torus")
    src.add_argument("--params", metavar="A,B", default="", help="comma-separated family parameters")


def _int_list(text: str, flag: str) -> list[int]:
    """A flag's comma-separated integers; empty text means none."""
    items = text.split(",") if text.strip() else []
    if not all(x.strip() for x in items):
        raise ValueError(f"{flag} has an empty entry: {text!r}")
    try:
        return [int(x) for x in items]
    except ValueError:
        raise ValueError(f"{flag} has a non-integer entry: {text!r}") from None


def _load_graph(args) -> Graph:
    given = [x for x in (args.graph6, args.graph6_file, args.edgelist_file, args.family) if x]
    if len(given) != 1:
        raise ValueError("choose exactly one graph input option")
    if args.graph6:
        return parse_graph6(args.graph6)
    if args.graph6_file:
        with open(args.graph6_file, "rb") as fh:
            return parse_graph6(fh.read())
    if args.edgelist_file:
        with open(args.edgelist_file) as fh:
            return parse_edge_list(fh.read())
    return named_builder(args.family, *_int_list(args.params, "--params"))


# the Budget field each budget flag sets
_BUDGET_FLAGS = {"max_nodes": "--budget-nodes", "max_seconds": "--budget-seconds"}


def _check_limits(args) -> None:
    """Reject a worker count below 1, and any cap that ``Budget`` rejects,
    before the command starts; every message names the flag."""
    if getattr(args, "threads", 1) < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    _budget(args)


def _budget(args) -> Budget:
    """The caps the budget flags set; ``Budget``'s own check rejects a bad
    one, and its message, which starts with the field, names the flag."""
    try:
        return Budget(max_nodes=getattr(args, "budget_nodes", None),
                      max_seconds=getattr(args, "budget_seconds", None))
    except ValueError as exc:
        field, _, reason = str(exc).partition(" ")
        raise ValueError(f"{_BUDGET_FLAGS[field]} {reason}") from None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(write_graph6(p) if isinstance(p, Graph) else str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _report(command, digest, outcome, k=None, witness=None, bounds=None, stats=None) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "outcome": outcome,
        "k": k,
        "witness": list(witness) if witness is not None else None,
        "bounds": bounds,
        "stats": stats,
    }


def _emit(args, report: dict, human: str) -> None:
    if args.json:
        print(json.dumps(report))
    else:
        print(human)


# -- subcommands --------------------------------------------------------------


def cmd_verify(args) -> int:
    g = _load_graph(args)
    detectors = sorted(_int_list(args.detectors, "--detectors"))
    for a, b in zip(detectors, detectors[1:]):
        if a == b:
            raise ValueError(f"detector {a} is listed more than once")
    kind = CodeKind(args.kind)
    v = verify(g, detectors, kind)
    digest = _digest(g, kind.value, detectors)
    if v is None:
        _emit(args, _report("verify", digest, "pass", k=len(detectors), witness=detectors),
              f"pass: {len(detectors)} detectors form a valid {kind.value} code")
        return 0
    _emit(args, _report("verify", digest, f"fail: {v}"), f"fail: {v}")
    return 1


def _stats(st: SolverStats) -> dict:
    return {"nodes": st.nodes, "seconds": round(st.elapsed, 4), "forced": st.forced, "pruned": st.pruned,
            "orbit_fixed": st.orbit_fixed, "bound_fixed": st.bound_fixed, "group_order": st.group_order}


def cmd_solve(args) -> int:
    g = _load_graph(args)
    kind = CodeKind(args.kind)
    out = solve_min(g, kind, budget=_budget(args))
    digest = _digest(g, kind.value)
    bounds = {"lower": out.lower, "upper": out.upper}
    stats = _stats(out.stats)
    if out.status == "infeasible":
        _emit(args, _report("solve", digest, f"infeasible: {out.reason}", stats=stats),
              f"no {kind.value} code exists: {out.reason}")
        return 1
    lower = f" lower={out.lower}" if out.status == "bounded" else ""
    human = (
        f"{out.status}: k={out.k} of n={g.n} (density {out.k}/{g.n}){lower}"
        f" witness={','.join(map(str, out.witness))} nodes={out.stats.nodes}"
    )
    _emit(args, _report("solve", digest, out.status, k=out.k, witness=out.witness,
                        bounds=bounds, stats=stats), human)
    return 0


def cmd_exists(args) -> int:
    g = _load_graph(args)
    reason = exists_red_ic(g)
    digest = _digest(g, "red-ic")
    if reason is None:
        _emit(args, _report("exists", digest, "yes"), "yes: a fault-tolerant code exists")
        return 0
    _emit(args, _report("exists", digest, f"no: {reason}"), f"no: {reason}")
    return 1


def cmd_feasible(args) -> int:
    g = _load_graph(args)
    kind = CodeKind(args.kind)
    res = feasible_at(g, kind, args.k, budget=_budget(args))
    digest = _digest(g, kind.value, args.k)
    stats = _stats(res.stats)
    if res.witness is not None:
        _emit(args, _report("feasible", digest, "witness", k=len(res.witness),
                            witness=res.witness, stats=stats),
              f"witness of size {len(res.witness)}: {','.join(map(str, res.witness))}")
        return 0
    outcome = "none" if res.exhaustive else "unknown (budget exhausted)"
    _emit(args, _report("feasible", digest, outcome, stats=stats), outcome)
    return 1


# name -> builder from the parsed arguments
CONSTRUCTIONS = {
    "star-even": lambda args: constructions.star_extremal_even(args.k),
    "star-odd": lambda args: constructions.star_extremal_odd(args.k),
    "cycle-odd": lambda args: constructions.cycle_extremal_odd(args.k),
    "multipartite": lambda args: constructions.multipartite_exact(args.n),
    "tree": lambda args: constructions.extremal_tree(args.n),
    "g6-ring": lambda args: constructions.g6_ring(args.t),
    "g14-ring": lambda args: constructions.g14_ring(constructions.g14_gadget(), args.t),
    "q5": lambda args: constructions.q5_code_search(),
}


def cmd_construct(args) -> int:
    inst = CONSTRUCTIONS[args.what](args)
    g6 = write_graph6(inst.graph).decode("ascii")
    report = _report("construct", _digest(inst.graph, inst.claimed_k), inst.certificate,
                     k=inst.claimed_k, witness=inst.witness)
    report["graph6"] = g6
    _emit(args, report, f"{g6}\nwitness: {' '.join(map(str, inst.witness))}\n"
                        f"k={inst.claimed_k} n={inst.graph.n} certificate={inst.certificate}")
    return 0


def cmd_reduce(args) -> int:
    with open(args.cnf) as fh:
        phi = reduction.parse_dimacs(fh.read())
    g, threshold = reduction.build_reduction(phi)
    g6 = write_graph6(g).decode("ascii")
    roles = {g.label(v): v for v in range(g.n)}
    sidecar = {
        "command": "reduce",
        "input_digest": _digest(phi),
        "n_vars": phi.n_vars,
        "n_clauses": len(phi.clauses),
        "vertices": g.n,
        "edges": g.num_edges(),
        "threshold": threshold,
        "roles": roles,
        "graph6": g6,
    }
    _emit(args, sidecar, f"{g6}\nK={threshold} vertices={g.n} edges={g.num_edges()}")
    return 0


# subcommand -> (help, row type, row function, first n, step, JSON name, default --max-n)
TABLES = {
    "table1": ("tree summary vs reference values", tables.TreeRow, tables.tree_row, 4, 1, "trees", 13),
    "table2": ("cubic summary vs reference values", tables.CubicRow, tables.cubic_row, 6, 2, "cubic", 14),
}


def cmd_table(args) -> int:
    _, row_type, row_fn, first, step, name, _ = TABLES[args.cmd]
    if args.max_n < first:
        raise ValueError(f"--max-n must be at least {first}, the first row of {args.cmd}; got {args.max_n}")
    if not args.json:
        print("\t".join(("n", *row_type.COLUMNS, "status")))
    ok_all = True
    payload = []
    for n in range(first, args.max_n + 1, step):
        row = row_fn(n, threads=args.threads, budget_nodes=args.budget_nodes)
        diffs = tables.diff_row(row)
        if row.partial:
            status = "partial"
            ok_all = False
        elif not diffs:
            status = "no-reference"
        elif all(d[3] for d in diffs):
            status = "PASS"
        else:
            status = "FAIL"
            ok_all = False
        payload.append({"n": n, "values": row.values(), "status": status,
                        "diffs": [d for d in diffs if not d[3]],
                        "nodes": row.nodes, "minima": dict(row.minima)})
        if not args.json:
            print("\t".join(map(str, (n, *row.values(), status))))
    if args.json:
        print(json.dumps({"command": f"table-{name}", "rows": payload, "all_match": ok_all}))
    return 0 if ok_all else 1


def cmd_bounds(args) -> int:
    g = _load_graph(args)
    rep = lower_bound(g, CodeKind(args.kind))
    digest = _digest(g, args.kind)
    bounds = {
        "log": rep.log_bound,
        "tree": rep.tree_bound,
        "cubic": rep.cubic_bound,
        "torus": rep.torus_bound,
        "value": rep.value,
    }
    _emit(args, _report("bounds", digest, "ok", bounds=bounds),
          f"lower bound {rep.value} ({'; '.join(rep.notes)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="redic", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, kind=True, budget=True):
        p.add_argument("--json", action="store_true")
        if kind:
            p.add_argument("--kind", choices=["ic", "red-ic"], default="red-ic")
        if budget:
            p.add_argument("--budget-nodes", type=int, default=None)
            p.add_argument("--budget-seconds", type=float, default=None)

    p = sub.add_parser("verify", help="check a detector set")
    _add_graph_args(p)
    p.add_argument("--detectors", required=True, metavar="V,V,...")
    common(p, budget=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve", help="minimum code size")
    _add_graph_args(p)
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("exists", help="does any fault-tolerant code exist")
    _add_graph_args(p)
    common(p, kind=False, budget=False)
    p.set_defaults(fn=cmd_exists)

    p = sub.add_parser("feasible", help="is there a code of size at most K")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_feasible)

    p = sub.add_parser("construct", help="build an extremal family instance")
    p.add_argument("what", choices=list(CONSTRUCTIONS))
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("reduce", help="3-SAT to code-size-K instance")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    for cmd, (help_text, *_, max_n) in TABLES.items():
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--max-n", type=int, default=max_n)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--budget-nodes", type=int, default=None)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_table)

    p = sub.add_parser("bounds", help="structural lower bounds")
    _add_graph_args(p)
    common(p, budget=False)
    p.set_defaults(fn=cmd_bounds)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
