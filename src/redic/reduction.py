"""Polynomial reduction from 3-SAT to the fault-tolerant code decision problem.

Each variable contributes an 8-vertex, 8-edge fragment F and each clause a
3-vertex, 2-edge star H, plus one edge from the clause center to each of
its three literal vertices: 8N + 3M vertices and 8N + 5M edges in total.

Inside F, six vertices are forced into every code (four leaves and the two
supports); the pairs (leaf, support) and (support, second leaf) inside each
3-vertex arm differ in a single forced detector, and both literal vertices
are adjacent to both supports, so picking either literal -- and nothing
else -- repairs all four pairs.  Inside H the two leaves force the center,
and the center is told apart from its leaves only when some adjacent
literal vertex is a detector.  Hence a code of size 7N + 3M exists exactly
when the formula is satisfiable; the forced floor is 6N + 3M plus one
literal per variable.

The two literal vertices of a variable are distinguished by the clause
edges, so every variable must occur in at least one clause; formulas with
unused variables are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .detection import CodeKind
from .graphs import Graph, build_graph
from .solver import Budget, SolveOutcome, solve_min

__all__ = [
    "CnfFormula",
    "GadgetSpec",
    "parse_dimacs",
    "f_gadget",
    "h_gadget",
    "build_reduction",
    "brute_force_sat",
    "verify_reduction",
    "verify_reduction_equivalence",
]


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF with clauses over distinct variables, 1-indexed literals."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def validate(self) -> None:
        if self.n_vars < 1:
            raise ValueError("need at least one variable")
        if not self.clauses:
            raise ValueError("need at least one clause")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} does not have exactly 3 literals")
            vs = [abs(l) for l in cl]
            if any(l == 0 for l in cl):
                raise ValueError("literal 0 is not allowed")
            if any(v > self.n_vars for v in vs):
                raise ValueError(f"clause {cl} references a variable beyond {self.n_vars}")
            if len(set(vs)) != 3:
                raise ValueError(f"clause {cl} repeats a variable")

    def variables_used(self) -> set[int]:
        return {abs(l) for cl in self.clauses for l in cl}


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF: 'p cnf N M' header, clauses 0-terminated."""
    n_vars = n_clauses = None
    lits: list[int] = []
    clauses: list[tuple[int, int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise ValueError(f"malformed problem line: {line!r}")
            if n_vars is not None:
                raise ValueError(f"second problem line: {line!r}")
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            continue
        if n_vars is None:
            raise ValueError("clause data before the 'p cnf' header")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if len(lits) != 3:
                    raise ValueError(f"clause {tuple(lits)} does not have exactly 3 literals")
                clauses.append(tuple(lits))
                lits = []
            else:
                lits.append(lit)
    if n_vars is None:
        raise ValueError("missing 'p cnf' header")
    if lits:
        raise ValueError("unterminated clause at end of input")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise ValueError(f"header promises {n_clauses} clauses, found {len(clauses)}")
    phi = CnfFormula(n_vars, tuple(clauses))
    phi.validate()
    return phi


# -- gadgets -----------------------------------------------------------------


@dataclass(frozen=True)
class GadgetSpec:
    """A reduction fragment: edges over 0..n-1, named ports, forced set."""

    kind: str  # "variable" or "clause"
    n: int
    edges: tuple[tuple[int, int], ...]
    roles: dict[str, int]
    forced: tuple[int, ...]


# Frozen golden artifacts.  The variable fragment on x, nx, y, p, u, z, r,
# v -- two paths y-p-u and z-r-v with both centers p, r adjacent to both
# literal vertices -- is what the search in tests/gadgets.py finds; the
# clause star is the path a-c-b, the only 2-edge graph on 3 vertices.
_F_ROLES = {"x": 0, "nx": 1, "y": 2, "p": 3, "u": 4, "z": 5, "r": 6, "v": 7}
_F_EDGES = ((2, 3), (3, 4), (5, 6), (6, 7), (0, 3), (0, 6), (1, 3), (1, 6))
_H_ROLES = {"a": 0, "b": 1, "c": 2}
_H_EDGES = ((2, 0), (2, 1))


def f_gadget() -> GadgetSpec:
    return GadgetSpec("variable", 8, _F_EDGES, dict(_F_ROLES), (2, 3, 4, 5, 6, 7))


def h_gadget() -> GadgetSpec:
    return GadgetSpec("clause", 3, _H_EDGES, dict(_H_ROLES), (0, 1, 2))


# -- the reduction -----------------------------------------------------------


def build_reduction(phi: CnfFormula) -> tuple[Graph, int]:
    """Build the instance graph and threshold K = 7N + 3M.

    Raises if some variable never occurs in a clause: its two literal
    vertices would be distinguishable only by taking both, which breaks
    the threshold.
    """
    phi.validate()
    f = f_gadget()
    h = h_gadget()
    missing = set(range(1, phi.n_vars + 1)) - phi.variables_used()
    if missing:
        raise ValueError(f"variables never used in any clause: {sorted(missing)}")
    n_v, n_c = phi.n_vars, len(phi.clauses)
    f_names = {idx: name for name, idx in f.roles.items()}
    h_names = {idx: name for name, idx in h.roles.items()}
    edges: list[tuple[int, int]] = []
    labels: list[str] = []
    for i in range(n_v):
        base = f.n * i
        edges += [(base + u, base + v) for u, v in f.edges]
        labels += [f"{f_names[j]}{i + 1}" for j in range(f.n)]
    cbase0 = f.n * n_v
    for j, cl in enumerate(phi.clauses):
        base = cbase0 + h.n * j
        edges += [(base + u, base + v) for u, v in h.edges]
        labels += [f"{h_names[t]}{j + 1}" for t in range(h.n)]
        for lit in cl:
            var = abs(lit) - 1
            role = "x" if lit > 0 else "nx"
            edges.append((base + h.roles["c"], f.n * var + f.roles[role]))
    g = build_graph(f.n * n_v + h.n * n_c, edges, labels=labels)
    assert g.n == 8 * n_v + 3 * n_c
    assert g.num_edges() == 8 * n_v + 5 * n_c
    return g, 7 * n_v + 3 * n_c


def brute_force_sat(phi: CnfFormula) -> bool:
    """Truth over all 2^N assignments at once; the independent oracle.

    Bit a of a 2^N-bit table stands for assignment a, in which variable v
    is true when bit v - 1 of a is.  A clause is the OR of its literals'
    tables (the complement for a negated literal), the formula the AND of
    its clauses."""
    phi.validate()
    n = phi.n_vars
    if n > 24:
        raise ValueError("too many variables for the brute-force oracle")
    table: list[int] = []
    for i in range(n):  # from the tables over 2^i assignments to 2^(i+1)
        w = 1 << i
        for j, t in enumerate(table):
            table[j] = t | t << w
        table.append(((1 << w) - 1) << w)
    sat = full = (1 << (1 << n)) - 1
    for cl in phi.clauses:
        any_true = 0
        for l in cl:
            any_true |= table[l - 1] if l > 0 else full ^ table[-l - 1]
        sat &= any_true
    return sat != 0


@dataclass(frozen=True)
class ReductionReport:
    n_vars: int
    n_clauses: int
    threshold: int
    satisfiable: bool
    outcome: SolveOutcome
    conclusive: bool
    consistent: bool


def verify_reduction(phi: CnfFormula, budget: Budget | None = None) -> ReductionReport:
    """Check the reduction end to end on one formula.

    Satisfiable formulas must have optimum exactly 7N + 3M; unsatisfiable
    ones strictly more.  A budget-limited solver run yields an inconclusive
    report instead of a verdict.
    """
    g, threshold = build_reduction(phi)
    sat = brute_force_sat(phi)
    out = solve_min(g, CodeKind.RED_IC, budget=budget)
    if not out.is_optimal:
        return ReductionReport(phi.n_vars, len(phi.clauses), threshold, sat, out, False, False)
    consistent = (out.k == threshold) if sat else (out.k > threshold)
    return ReductionReport(phi.n_vars, len(phi.clauses), threshold, sat, out, True, consistent)


def verify_reduction_equivalence(max_clauses: int = 4, budget: Budget | None = None):
    """Sweep every 3-variable formula with up to ``max_clauses`` distinct
    clauses (deduplicated up to clause order); yields the per-formula reports."""
    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    all_clauses = [tuple(s * v for s, v in zip(sg, (1, 2, 3))) for sg in signs]
    for m in range(1, max_clauses + 1):
        for subset in combinations(all_clauses, m):
            yield verify_reduction(CnfFormula(3, subset), budget=budget)
