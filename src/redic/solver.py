"""Exact minimum IC / RED:IC computation by branch and bound.

Every code condition is a covering constraint ``|mask & S| >= t``:
domination of v uses mask N[v], and distinguishing u, v uses mask
N[u] symdiff N[v] (intersecting with S distributes over the symmetric
difference).  Pairs at distance >= 3 are implied by the domination
constraints and are not tracked.

Propagation is incremental, after the counter-and-trail scheme of Chaff
(Moskewicz et al., DAC 2001).  ``inc[v]`` lists the constraints whose mask
contains v; for each constraint i, ``res[i]`` is its threshold minus its
included members (the residual requirement, met once <= 0) and ``cnt[i]``
its number of free members; the constraints with ``res > 0`` form the
active set.  Assigning a vertex walks only its incidence list, and a trail
of assignments lets backtracking restore every counter.

Slack invariant: a constraint's slack ``cnt - res`` is |mask| - t minus
its excluded members, so it starts at |mask| - t >= 0 once a code exists
(V itself is one).  Including a vertex lowers ``res`` and ``cnt`` together
and never changes a slack; excluding one lowers by one only the slacks of
its own constraints, and a constraint whose slack reaches 0 forces all its
free members at once.  So every active constraint enters a node with slack
>= 1, no exclusion takes a slack below 0, and the search never meets a
conflict.  Forcing is itself inclusion, so a single walk over ``inc[x]``
reaches the fixpoint.

The search branches on a vertex drawn from the most-constrained active
constraint, include branch first, with ties broken toward the lowest vertex
index.  Nothing is randomized, so runs are reproducible node for node.

Orbital fixing (Margot, Math. Programming 2002; Ostrowski, Linderoth, Rossi
and Smriglio, Math. Programming 2011) uses the automorphism group that the
graph's builder provenance names (``symmetry.automorphisms``); graphs without
one are searched plainly.  Each node carries H, the stabiliser of its
branching decisions: the root has the whole group, the include-x child
Stab_H(x), and the exclude child excludes the whole H-orbit of x and keeps
H.  Orbit invariant: H maps the included set and the excluded set of
every node onto themselves, since the seed and propagation are
automorphism-invariant, the include child fixes x and the exclude child
excludes a whole H-orbit.  So the H-orbit of a free branch vertex holds
no assigned vertex.  Soundness: automorphisms preserve every constraint,
so h in H maps each completion of a node to a completion of the same
size.  A completion that avoids x but contains some y = h(x) of the orbit
therefore has an image h^-1 S that contains x, in the include child, which
is searched first; the exclude child may drop every such completion.  For
the same reason the exclude child is skipped when propagation forces a
member of the orbit in while the orbit is being excluded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

from . import existence
from .detection import CodeKind, _detector_reach, verify
from .graphs import Graph, bits
from .symmetry import automorphisms

__all__ = [
    "Budget",
    "BoundReport",
    "SolveOutcome",
    "FeasibilityResult",
    "forced_detectors",
    "lower_bound",
    "solve_min",
    "feasible_at",
]


@dataclass(frozen=True)
class Budget:
    """Caps for the search; None means unlimited.

    A node cap gives the same outcome on every machine.  A wall-clock cap
    is checked every 256 nodes, so where it stops depends on machine speed.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class SolverStats:
    """Search counters: nodes visited, seconds, vertices included by
    propagation, nodes cut by the lower bound, vertices excluded by orbital
    fixing, and the order of the symmetry group used (1 for none)."""

    nodes: int = 0
    elapsed: float = 0.0
    forced: int = 0
    pruned: int = 0
    orbit_fixed: int = 0
    group_order: int = 1


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a minimization run.

    status is "optimal" (k and witness set), "bounded" (search stopped on
    budget; lower <= optimum <= upper, witness realizes upper when present)
    or "infeasible" (reason explains why no code exists).
    """

    status: str
    n: int
    k: int | None = None
    witness: tuple[int, ...] | None = None
    lower: int | None = None
    upper: int | None = None
    reason: existence.NoCode | None = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def density(self):
        if self.k is None or self.n == 0:
            return None
        return Fraction(self.k, self.n)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the size-K decision problem.

    witness is a verified code of size <= K when one exists.  When witness
    is None, ``exhaustive`` distinguishes a proof of impossibility from a
    budget-limited unknown.
    """

    witness: tuple[int, ...] | None
    exhaustive: bool
    stats: SolverStats = field(default_factory=SolverStats)


def forced_detectors(g: Graph, kind: CodeKind = CodeKind.RED_IC) -> frozenset[int]:
    """Vertices provably contained in every RED:IC of g.

    Union of: all leaves and all support vertices; all neighbors of a
    degree-3 support vertex; every v beginning a path v-w-u whose interior
    w and endpoint u both have degree 2.  Raises on infeasible input, and
    returns the empty set for plain ICs (these rules need the doubled
    thresholds).
    """
    if kind is CodeKind.RED_IC and existence.exists_red_ic(g) is not None:
        raise ValueError("no RED:IC exists for this graph")
    return frozenset(bits(_forced_mask(g, kind)))


def _forced_mask(g: Graph, kind: CodeKind) -> int:
    """``forced_detectors`` as a mask, for a graph known to have a code."""
    if kind is not CodeKind.RED_IC:
        return 0
    forced = 0
    deg = g.degrees()
    for v in range(g.n):
        if deg[v] == 1:
            forced |= g.closed_nbhd(v)  # leaf and its support
            s = next(bits(g.adj[v]))
            if deg[s] == 3:
                forced |= g.closed_nbhd(s)  # neighbors of a degree-3 support
        elif deg[v] == 2:
            a, b = bits(g.adj[v])
            if deg[a] == 2:
                forced |= 1 << b
            if deg[b] == 2:
                forced |= 1 << a
    return forced


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds applicable to a graph, with the structural reasons."""

    log_bound: int
    tree_bound: int | None = None
    cubic_bound: int | None = None
    torus_bound: int | None = None
    notes: tuple[str, ...] = ()

    @property
    def value(self) -> int:
        vals = [self.log_bound, self.tree_bound, self.cubic_bound, self.torus_bound]
        return max(v for v in vals if v is not None)


def lower_bound(g: Graph, kind: CodeKind) -> BoundReport:
    """Structural lower bounds on the minimum code size.

    Always includes the counting bound ceil(log2(n+1)) (+1 for RED:IC,
    since dropping any one detector must leave an IC).  For RED:IC adds:
    ceil(4(n+1)/5) on trees, ceil(4n/7) on cubic graphs, and ceil(2n/5) on
    torus products C_i box C_j built by the named builder with i, j >= 5
    and at least one even -- the torus bound depends on the product
    structure, so it keys on builder provenance, never on shape inference.
    """
    n = g.n
    log_b = n.bit_length()  # = ceil(log2(n+1))
    notes = []
    if kind is CodeKind.IC:
        return BoundReport(log_bound=log_b, notes=("counting bound",))
    log_b += 1
    notes.append("counting bound plus one for fault tolerance")
    tree_b = cubic_b = torus_b = None
    if n >= 4 and g.is_tree():
        tree_b = -(-4 * (n + 1) // 5)
        notes.append("acyclic: detector components argument")
    if g.is_cubic():
        cubic_b = -(-4 * n // 7)
        notes.append("cubic: share of a detector is at most 7/4")
    fam, params = g.provenance()
    if fam == "torus":
        i, j = params
        if i >= 5 and j >= 5 and (i % 2 == 0 or j % 2 == 0):
            torus_b = -(-2 * n // 5)
            notes.append("torus product built with tileable dimensions")
    return BoundReport(log_b, tree_b, cubic_b, torus_b, tuple(notes))


class _BudgetExhausted(Exception):
    pass


class _Search:
    """Shared branch-and-bound core for minimization and K-feasibility.

    The current assignment lives in ``chosen`` (included vertices), ``free``
    (unassigned ones) and the per-constraint counters ``res`` and ``cnt``;
    ``trail`` lists the assignments in order (x for an inclusion, ~x for an
    exclusion) so that ``_undo`` can restore every counter.  ``greedy``,
    ``root_lower`` and ``run`` each start from ``_reset``.  ``sym`` holds
    the current node's stabiliser H for orbital fixing, None when it is
    trivial or the graph has no group.
    """

    def __init__(self, g: Graph, kind: CodeKind, budget: Budget | None):
        self.g = g
        self.kind = kind
        self.budget = budget or Budget()
        self.nodes = 0
        self.forced = 0
        self.pruned = 0
        self.orbit_fixed = 0
        self.group = automorphisms(g)
        self.sym = None  # the stabiliser H of the branching decisions so far
        self.t0 = time.perf_counter()
        self.best: int | None = None  # incumbent mask
        self.cap = g.n + 1  # solutions must have size < cap
        self.stop_at_first = False
        self.done = False

        closed = g._closed
        # with S = V the detector reach of u is its distance-<=2 ball; a
        # farther pair's mask is N[u] | N[v], implied by domination
        pair_masks = {closed[u] ^ closed[v] for u in range(g.n)
                      for v in bits(_detector_reach(closed, closed[u])[0] & ~((1 << (u + 1)) - 1))}
        # domination constraints first, one per vertex, then the pairs
        self.masks = masks = [*closed, *sorted(pair_masks)]
        self.n_dom = g.n
        self.max_cover = max((c.bit_count() for c in closed), default=1)
        inc: list[list[int]] = [[] for _ in range(g.n)]  # constraints containing each vertex
        for i, m in enumerate(masks):
            while m:
                low = m & -m
                inc[low.bit_length() - 1].append(i)
                m ^= low
        self.inc = inc

    def _reset(self, chosen: int):
        """Set every counter for the assignment that includes exactly chosen."""
        self.chosen = chosen
        self.free = free = self.g.full_mask() & ~chosen
        self.trail: list[int] = []
        # requirement minus included members (<= 0 once met), and free members
        req = self.kind.req
        self.res = res = [req - (m & chosen).bit_count() for m in self.masks]
        self.cnt = [(m & free).bit_count() for m in self.masks]
        self.active = {i for i, r in enumerate(res) if r > 0}
        self.dom_deficit = sum(r for r in res[: self.n_dom] if r > 0)  # over active domination constraints

    # -- budget ----------------------------------------------------------

    def _tick(self):
        b = self.budget
        if b.max_nodes is not None and self.nodes >= b.max_nodes:
            raise _BudgetExhausted
        self.nodes += 1
        if (
            b.max_seconds is not None
            and self.nodes % 256 == 0
            and time.perf_counter() - self.t0 > b.max_seconds
        ):
            raise _BudgetExhausted

    # -- assignment, propagation and undo ----------------------------------

    def _include(self, x: int):
        self.trail.append(x)
        self.free ^= 1 << x
        self.chosen |= 1 << x
        res, cnt, active, n_dom = self.res, self.cnt, self.active, self.n_dom
        deficit = self.dom_deficit
        for i in self.inc[x]:
            cnt[i] -= 1
            r = res[i]
            res[i] = r - 1
            if r > 0:
                if r == 1:
                    active.remove(i)
                if i < n_dom:
                    deficit -= 1
        self.dom_deficit = deficit

    def _exclude(self, x: int) -> int:
        """Exclude x and propagate; the number of vertices forced."""
        self.trail.append(~x)
        self.free ^= 1 << x
        cnt = self.cnt
        inc = self.inc[x]
        for i in inc:
            cnt[i] -= 1
        return self._force(inc)

    def _force(self, cons) -> int:
        """Include the free members of every tight constraint among cons.

        A constraint is tight when its free members are exactly as many as
        it still requires (slack 0; by the slack invariant never fewer).
        Returns the number of vertices forced.  Inclusions leave every
        slack ``cnt - res`` unchanged, so one pass reaches the fixpoint.
        """
        res, cnt, masks = self.res, self.cnt, self.masks
        forced = 0
        for i in cons:
            r = res[i]
            if r > 0 and cnt[i] == r:
                forced |= masks[i]
        forced &= self.free
        for x in bits(forced):
            self._include(x)
        return forced.bit_count()

    def _undo(self, mark: int):
        """Take back the assignments made since the trail had length mark."""
        trail, inc, res, cnt, active, n_dom = self.trail, self.inc, self.res, self.cnt, self.active, self.n_dom
        deficit = self.dom_deficit
        while len(trail) > mark:
            x = trail.pop()
            if x < 0:
                x = ~x
                for i in inc[x]:
                    cnt[i] += 1
            else:
                self.chosen ^= 1 << x
                for i in inc[x]:
                    cnt[i] += 1
                    r = res[i] + 1
                    res[i] = r
                    if r > 0:
                        if r == 1:
                            active.add(i)
                        if i < n_dom:
                            deficit += 1
            self.free |= 1 << x
        self.dom_deficit = deficit

    def _start(self, seed_mask: int) -> int:
        """Reset to the seed and propagate; as ``_force``."""
        self._reset(seed_mask)
        return self._force(self.active)

    # -- bounding ----------------------------------------------------------

    def _order(self) -> list[int]:
        """The active constraints by (free members, index)."""
        order = sorted(self.active)
        order.sort(key=self.cnt.__getitem__)
        return order

    def _need(self, order: list[int], gap: int) -> int:
        """Lower bound on the detectors still to add, exact below gap.

        The larger of a disjoint packing (constraints with pairwise disjoint
        free members each need their own detectors) and the domination
        deficit over the largest closed neighbourhood.  Stops as soon as the
        bound reaches gap.
        """
        ratio = -(-self.dom_deficit // self.max_cover)
        if ratio >= gap:
            return ratio
        masks, res, free = self.masks, self.res, self.free
        used = 0  # a subset of free, so m & used == (m & free) & used
        packed = 0
        for i in order:
            m = masks[i]
            if not m & used:
                packed += res[i]
                if packed >= gap:
                    return packed
                used |= m & free
        return packed if packed >= ratio else ratio

    # -- branching -----------------------------------------------------------

    def _branch_vertex(self, order: list[int]) -> int:
        """A free member of the constraint with the least (slack, cnt, index),
        the one in the most active constraints, lowest index on ties."""
        cnt, res = self.cnt, self.res
        slack = list(map(sub, map(cnt.__getitem__, order), map(res.__getitem__, order)))
        i = order[slack.index(min(slack))]
        in_active = self.active.__contains__
        best_x = -1
        best_score = -1
        for x in bits(self.masks[i] & self.free):
            score = sum(map(in_active, self.inc[x]))
            if score > best_score:
                best_score = score
                best_x = x
        return best_x

    # -- search ------------------------------------------------------------

    def _node(self):
        """Search below the current assignment, which propagation has closed."""
        if not self.active:
            size = self.chosen.bit_count()
            if size < self.cap:
                self.best = self.chosen
                self.cap = size
                if self.stop_at_first:
                    self.done = True
            return
        order = self._order()
        gap = self.cap - self.chosen.bit_count()
        if self._need(order, gap) >= gap:
            self.pruned += 1
            return
        x = self._branch_vertex(order)
        mark = len(self.trail)
        sym = self.sym
        self._tick()
        self._include(x)
        if sym is not None:
            self.sym = sym.stabiliser(x)
        self._node()
        self.sym = sym
        self._undo(mark)
        if self.done:
            return
        self._tick()
        forced = self._exclude_orbit(x, sym.orbit(x) if sym is not None else 1 << x)
        if forced >= 0:
            self.forced += forced
            self._node()
        self._undo(mark)

    def _exclude_orbit(self, x: int, orbit: int) -> int:
        """Exclude x, then every other member of its orbit, all free by the
        orbit invariant; as ``_exclude``, or -1 when propagation includes a
        member."""
        forced = self._exclude(x)
        for y in bits(orbit & ~(1 << x)):
            if self.chosen >> y & 1:
                return -1
            forced += self._exclude(y)
        self.orbit_fixed += orbit.bit_count() - 1
        return forced

    def root_lower(self) -> int:
        self._start(0)
        size = self.chosen.bit_count()
        return size + (self._need(self._order(), self.g.n + 1) if self.active else 0)

    def greedy(self, seed_mask: int) -> int:
        """Deterministic greedy cover used as the initial incumbent."""
        self._start(seed_mask)
        masks, res = self.masks, self.res
        while self.active:
            scores = [0] * self.g.n
            for i in self.active:
                r = res[i]
                for x in bits(masks[i] & self.free):
                    scores[x] += r
            self._include(scores.index(max(scores)))  # lowest index on ties
        return self.chosen

    def run(self, seed_mask: int, cap: int, stop_at_first: bool) -> bool:
        """Explore from the seed; returns False when the budget ran out.

        The seed is always the forced-detector set, which every
        automorphism maps onto itself, so orbital fixing starts from the
        whole group.  Either way the trail is unwound, leaving the counters
        at the seed.
        """
        self.cap = cap
        self.stop_at_first = stop_at_first
        self.sym = self.group
        forced = self._start(seed_mask)
        try:
            self._tick()
            self.forced += forced
            self._node()
            return True
        except _BudgetExhausted:
            return False
        finally:
            self._undo(0)

    def stats(self, t0: float) -> SolverStats:
        return SolverStats(self.nodes, time.perf_counter() - t0, self.forced, self.pruned,
                           self.orbit_fixed, self.group.order if self.group is not None else 1)


def _prelude(
    g: Graph, kind: CodeKind, budget: Budget | None
) -> tuple[existence.NoCode | None, _Search | None, int]:
    """Ask existence for the kind once: the reason no code exists, or the
    search and its seed, the mask of forced detectors."""
    reason = existence.exists_red_ic(g) if kind is CodeKind.RED_IC else existence.exists_ic(g)
    if reason is not None:
        return reason, None, 0
    return None, _Search(g, kind, budget), _forced_mask(g, kind)


def _verified(g: Graph, mask: int, kind: CodeKind) -> tuple[int, ...]:
    """The witness mask as a tuple, once ``verify`` has passed it."""
    bad = verify(g, mask, kind)
    if bad is not None:
        raise RuntimeError(f"solver produced an invalid witness: {bad}")
    return tuple(bits(mask))


def solve_min(
    g: Graph,
    kind: CodeKind = CodeKind.RED_IC,
    budget: Budget | None = None,
) -> SolveOutcome:
    """Minimum code size with witness, or bounds when the budget runs out.

    The incumbent starts from a deterministic greedy completion of the
    forced detectors (V(G) itself is feasible once existence holds), so a
    budget-limited run still reports a valid upper bound and witness.
    """
    t0 = time.perf_counter()
    reason, search, seed = _prelude(g, kind, budget)
    if reason is not None:
        return SolveOutcome("infeasible", g.n, reason=reason,
                            stats=SolverStats(0, time.perf_counter() - t0))
    if g.n == 0:
        return SolveOutcome("optimal", 0, k=0, witness=(), lower=0, upper=0,
                            stats=SolverStats(0, time.perf_counter() - t0))
    incumbent = search.greedy(seed)
    completed = search.run(seed, cap=incumbent.bit_count(), stop_at_first=False)
    best = search.best if search.best is not None else incumbent
    k = best.bit_count()
    lower = k if completed else min(max(lower_bound(g, kind).value, search.root_lower()), k)
    stats = search.stats(t0)
    return SolveOutcome("optimal" if completed else "bounded", g.n, k=k,
                        witness=_verified(g, best, kind), lower=lower, upper=k, stats=stats)


def feasible_at(
    g: Graph,
    kind: CodeKind,
    k: int,
    budget: Budget | None = None,
) -> FeasibilityResult:
    """Decide whether a code of size <= k exists; returns a verified witness.

    Without a budget the answer is exhaustive: witness=None means no such
    code exists.  With a budget, witness=None and exhaustive=False means
    the search was cut short.
    """
    t0 = time.perf_counter()
    reason, search, seed = _prelude(g, kind, budget)
    if reason is not None or k < 0:
        return FeasibilityResult(None, True, SolverStats(0, time.perf_counter() - t0))
    completed = search.run(seed, cap=min(k, g.n) + 1, stop_at_first=True)
    stats = search.stats(t0)
    if search.best is not None:
        return FeasibilityResult(_verified(g, search.best, kind), True, stats)
    return FeasibilityResult(None, completed, stats)
