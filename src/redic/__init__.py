"""redic: identifying codes and their fault-tolerant (redundant) variant.

Library surface: graph construction and serialization (:mod:`redic.graphs`),
code verification semantics (:mod:`redic.detection`), existence tests
(:mod:`redic.existence`), the exact solver (:mod:`redic.solver`) and the
automorphism groups it takes from builder provenance (:mod:`redic.symmetry`),
isomorphism-free enumeration (:mod:`redic.generators`), extremal families
(:mod:`redic.constructions`), and the 3-SAT reduction (:mod:`redic.reduction`).
The ``redic`` console script wraps all of it.
"""

from .detection import CodeKind, Violation, delta, domination, is_valid_code, robustness_check, share, verify
from .existence import NoCode, closed_twins, exists_ic, exists_red_ic, has_red_ic
from .graphs import (
    Graph,
    Graph6Error,
    build_graph,
    cartesian_product,
    named_builder,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .solver import Budget, BoundReport, FeasibilityResult, SolveOutcome, feasible_at, forced_detectors, lower_bound, solve_min

__version__ = "0.1.0"
