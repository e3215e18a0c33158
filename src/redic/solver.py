"""Exact minimum IC / RED:IC computation by branch and bound.

Every code condition is a covering constraint ``|mask & S| >= t``:
domination of v uses mask N[v], and distinguishing u, v uses mask
N[u] symdiff N[v] (intersecting with S distributes over the symmetric
difference).  Pairs at distance >= 3 are implied by the domination
constraints and are not tracked.

Propagation keeps counters, after Chaff (Moskewicz et al., DAC 2001),
packed into machine words after the bit-parallel branch and bound of San
Segundo, Rodriguez-Losada and Jimenez (Computers & OR 38, 2011).  For each
constraint i, ``res`` is its threshold minus its included members (the
residual requirement, met once <= 0) and ``cnt`` its number of free
members; the constraints with ``res > 0`` form the active set.  Every
``res`` lives in one Python int and every ``cnt`` in another, one
fixed-width field per constraint, and ``inc[v]`` has a 1 in the field of
each constraint containing v.  So assigning a vertex is one big-int
subtraction, a question about every constraint at once (which are active,
which tight, which have a given ``cnt``) is a few word-parallel operations,
and backtracking restores a snapshot of the counters.  The fields run in
reverse: of L constraints, constraint i has field L - 1 - i, so the lowest
index among flagged constraints is the highest set bit, which
``int.bit_length`` finds without a scan.  And no operation on a packed
int takes a negative operand: ``a & ~b`` is written ``a ^ (a & b)``, since
in CPython an AND with a negative int of thousands of bits costs about
three times one between non-negative ints.

Slack invariant: a constraint's slack ``cnt - res`` is |mask| - t minus its
excluded members, so it starts at |mask| - t.  A code exists iff V itself
is one, iff no slack starts below 0 (``existence`` only explains a graph
that fails), and the members of a constraint whose slack starts at 0 lie in
every code: the search starts with nothing assigned, and its first
propagation includes them.  Including a vertex lowers ``res`` and ``cnt``
together and never changes a slack; excluding one lowers by one only the
slacks of its own constraints, and a constraint whose slack reaches 0
forces all its free members at once.  So every active constraint enters a
node with slack >= 1.  Forcing is itself inclusion, so one pass over the
tight constraints reaches the fixpoint.

Closed root: let F be the union of the constraints with exactly t members,
those whose slack starts at 0.  When every constraint has at least t
members in F, the root's propagation leaves none active, so F is a code
contained in every code, the unique minimum.  Neither F nor that test needs
the constraint list.  A pair u, v at distance 2 is not adjacent, so its mask
N[u] ^ N[v] holds u and v: it never has fewer than 2 members, and it has
exactly 2 iff N(u) = N(v).  So ``_root`` finds a constraint with fewer than
t members, and ORs F together, in one pass over the closed neighbourhoods
and the edges, adding for t = 2 every vertex that shares its open
neighbourhood with another; the same pass keeps the N[v] and edge masks
with more than t members, since one with exactly t lies inside F.  F has t
members in every constraint exactly when it is a code, which ``verify``
decides, and that call is the closed root's witness check.  Before it,
``_solve`` checks that F has t members in each kept mask, a subset of what
``verify`` checks, because it is the part that fails cheaply: on the graphs
of a 3-SAT reduction F dominates every vertex twice and misses an edge
mask, which this check finds in a small part of the time ``verify`` takes to
group the views.  ``_solve`` returns F, once both have passed it, before the
constraint list is built or anything packed, with the counters the search
would report: one node, |F| forced, nothing pruned.  A node cap of 0 admits
no node, so it goes to the search.

A node is cut when a lower bound on the detectors it still needs reaches
the gap to the incumbent: a greedy disjoint packing of the active
constraints, bucket by bucket of ``cnt``, or the domination deficit.  Each
constraint the packing takes rules out those that meet its free members, a
set that depends on those members alone, so the search caches it by them
within a fixed byte budget.  A hit gives the int that a miss would build,
so the cache changes no bound, node count or witness.

Fixing by the packing bound is the covering analogue of reduced-cost
fixing (Crowder, Johnson and Padberg, Operations Research 31, 1983) and of
MCQ's colour-bound pruning of candidates (Tomita and Seki, DMTCS 2003).
When the packing ends exactly one short of the gap, every free vertex
outside the free members of the constraints it took is excluded at once.
The packing stays valid in the include child of such a vertex x: no
packed constraint contains x, so including x changes neither its res nor
its free members, and the packing still counts gap - 1 detectors against
a gap that x made one smaller, so that child would be cut.  Under orbital
fixing (below) h in H maps the node's assignment onto itself, so it maps
the packing to one of the same value that leaves out h(x), and the
include-h(x) child is cut as well.  So no completion below the cap contains
any vertex of the set's H-orbits, and excluding them together loses none.
After the exclusion (below) the node is evaluated again, bound and then
fixing, before it branches.

The search branches on a vertex drawn from an active constraint of least
slack, include branch first.  A minimising search takes, among those, one
that still needs the most detectors (res = 2 before res = 1), after the
fail-first principle of Haralick and Elliott (Artificial Intelligence 14,
1980); the torus 7x7 takes 228,113 nodes this way, against 326,837 with
ties broken the other way.  A feasibility search takes one that needs the
fewest, the least cnt of that slack, which reaches a witness sooner: Q5 at
k = 12 in 7 nodes, against 164 with the minimising rule.  Of the
constraint's free members it takes the one in the most active constraints,
with ties broken toward the lowest vertex index.  Nothing is randomized, so
runs are reproducible node for node.

Orbital fixing (Margot, Math. Programming 2002; Ostrowski, Linderoth, Rossi
and Smriglio, Math. Programming 2011) uses the automorphism group that the
graph's builder provenance names (``symmetry.automorphisms``); graphs
without one are searched plainly.  Each node carries H, the stabiliser of
its branching decisions: the root has the whole group, the include-x child
Stab_H(x), and the exclude child excludes the whole H-orbit of x and keeps
H, a ``symmetry.PermutationGroup`` held by its generators.  Orbit invariant:
H maps the included and excluded sets of every node onto themselves, since
propagation is automorphism-invariant, the include child fixes x and the
exclude child excludes a whole H-orbit, as does fixing by the packing
bound.  So the H-orbit of a free branch vertex holds no assigned vertex.
Soundness: automorphisms preserve every constraint, so h in H maps each
completion of a node to a completion of the same size.  A completion that
avoids x but contains some y = h(x) of the orbit therefore has an image
h^-1 S that contains x, in the include child, which is searched first; the
exclude child may drop every such completion.

One rule excludes, for the exclude child (x) and for fixing (the set
above): the set is widened to its H-orbits, all free by the orbit
invariant, and excluded at once.  If that leaves an active slack below 0,
no completion avoids the set, so nothing is excluded: fixing cuts its
node, and the exclude child is skipped, since each of its completions
holds some h(x) and has its image in the include child.  Otherwise one
propagation pass follows.  A single vertex never leaves a slack below 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from . import existence
from .detection import CodeKind, verify
from .graphs import Graph, bits, torus
from .symmetry import automorphisms

__all__ = [
    "Budget",
    "BoundReport",
    "SolveOutcome",
    "SolverStats",
    "FeasibilityResult",
    "forced_detectors",
    "lower_bound",
    "solve_min",
    "feasible_at",
]


@dataclass(frozen=True)
class Budget:
    """Caps for the search; None means unlimited.  A negative or NaN cap,
    or a node cap that is not an integer, raises ValueError.

    A node cap gives the same outcome on every machine.  A wall-clock cap
    is checked every 256 nodes, so where it stops depends on machine speed.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and not isinstance(self.max_nodes, int):
            raise ValueError(f"max_nodes must be an integer, got {self.max_nodes!r}")
        for name, cap in (("max_nodes", self.max_nodes), ("max_seconds", self.max_seconds)):
            if cap is not None and not cap >= 0:  # NaN compares false
                raise ValueError(f"{name} must be at least 0, got {cap}")


@dataclass
class SolverStats:
    """Search counters: nodes visited, seconds, vertices included by
    propagation (the root's forced set among them once the search visits
    the root, which a node cap of 0 prevents, although the witness then
    contains that set), nodes cut by the lower bound or by a fixing that
    leaves an active slack below 0, vertices excluded by orbital fixing, the
    order of the symmetry group used (1 for none), and vertices excluded by
    the packing bound."""

    nodes: int = 0
    elapsed: float = 0.0
    forced: int = 0
    pruned: int = 0
    orbit_fixed: int = 0
    group_order: int = 1
    bound_fixed: int = 0


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
    """Vertices contained in every code of the kind: the members of every
    constraint with exactly t members, which the search includes at its
    root; F as ``_root`` builds it, without a constraint list.  For RED:IC
    this covers the leaves and their supports, every neighbour of a
    degree-3 support, and both ends of a four-vertex path whose inner
    vertices have degree 2; on cubic graphs, where none of these apply, it
    is often not empty.
    Raises ValueError when no code of the kind exists.
    """
    reason, forced, _ = _root(g, kind)
    if reason is not None:
        raise ValueError(f"no {kind.value} code exists for this graph")
    return frozenset(bits(forced))


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
    torus products C_i box C_j with i, j >= 5 and at least one even -- the
    torus bound depends on the product structure, so it keys on builder
    provenance, never on shape inference, and holds only when the graph is
    the one ``torus(i, j)`` builds.
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
    if fam == "torus" and len(params) == 2:
        i, j = params
        # n first, so that parameters naming a larger torus build none
        if i >= 5 and j >= 5 and (i % 2 == 0 or j % 2 == 0) and n == i * j and g == torus(i, j):
            torus_b = -(-2 * n // 5)
            notes.append("torus product built with tileable dimensions")
    return BoundReport(log_b, tree_b, cubic_b, torus_b, tuple(notes))


def _constraint_masks(g: Graph) -> list[int]:
    """The constraint list: N[v] for every vertex in order, then the distinct
    masks N[u] ^ N[v] of the pairs u < v at distance <= 2, sorted.  A
    farther pair's mask is N[u] | N[v], implied by domination."""
    closed = g._closed
    pair_masks = set()
    for u, cu in enumerate(closed):
        ball = 0  # the union of N[x] over x in N[u]
        rest = cu
        while rest:
            low = rest & -rest
            ball |= closed[low.bit_length() - 1]
            rest ^= low
        ball >>= u + 1  # bit j now stands for vertex u + 1 + j
        while ball:
            low = ball & -ball
            pair_masks.add(cu ^ closed[u + low.bit_length()])
            ball ^= low
    return [*closed, *sorted(pair_masks)]


def _tight_union(g: Graph, t: int) -> tuple[int, list[int]] | None:
    """F, the union of the constraints with exactly t members, and the N[v]
    and edge masks with more than t members; None when a constraint has
    fewer.  Only the domination and edge masks can have fewer; a pair at
    distance 2 has exactly t members iff t = 2 and its vertices are open
    twins (N(u) = N(v)), so F adds every group of open twins."""
    closed = g._closed
    forced = 0
    loose = []
    for u, cu in enumerate(closed):
        size = cu.bit_count()
        if size > t:
            loose.append(cu)
        elif size == t:
            forced |= cu
        else:
            return None
        later = g.adj[u] >> u + 1  # the edges u < v: bit j stands for v = u + 1 + j
        while later:
            low = later & -later
            m = cu ^ closed[u + low.bit_length()]
            size = m.bit_count()
            if size > t:
                loose.append(m)
            elif size == t:
                forced |= m
            else:
                return None
            later ^= low
    if t == 2:
        # no vertex here is isolated, and twins of degree 1 are in F already
        # (each one's N[v] has two members), so only the vertices of degree
        # >= 2 are grouped, and only once two of them are found to be twins
        adj = g.adj
        multi = [a for a in adj if a & a - 1]
        if len(set(multi)) < len(multi):
            twins: dict[int, int] = {}
            for v, a in enumerate(adj):
                if a & a - 1:
                    twins[a] = twins.get(a, 0) | 1 << v
            for group in twins.values():
                if group & group - 1:
                    forced |= group
    return forced, loose


def _root(g: Graph, kind: CodeKind) -> tuple[existence.NoCode | None, int, list[int]]:
    """Why no code of the kind exists, or None; F, the union of the
    constraints with exactly t members; and the N[v] and edge masks with more
    than t members (0 and no masks without a code).  In O(n + m) mask
    operations and without the constraint list (``_tight_union``).  Asks
    ``existence`` only when a constraint has fewer than t members, or for the
    empty graph, which by its convention has no RED:IC."""
    root = _tight_union(g, kind.req) if g.n else None
    if root is not None:
        return None, *root
    reason = existence.exists_red_ic(g) if kind is CodeKind.RED_IC else existence.exists_ic(g)
    if reason is None and g.n:
        raise RuntimeError(f"a constraint has fewer than {kind.req} members, but existence finds a code")
    return reason, 0, []


class _BudgetExhausted(Exception):
    pass


# bytes that ``_Search.kept`` may hold, counted as len(masks) * fb per
# entry, one packed int; it holds the working set of every lattice instance
# (torus 7x7: about 2.2 MB), and a cache that would pass it is emptied
_KEPT_BYTES = 1 << 22


class _Search:
    """Shared branch-and-bound core for minimization and K-feasibility.

    The current assignment lives in ``chosen`` (included vertices), ``free``
    (unassigned ones) and two packed counters: of the L constraints,
    constraint i owns the w-bit field at bit ``w * (L - 1 - i)`` of ``R``,
    which holds ``res + big``, and of ``C``, which holds ``cnt + big``,
    where ``big`` is the largest mask size; ``field_masks`` lists the masks
    in field order, so the domination constraints hold the top n fields.
    w is 8 times the least power of two fb with 2^(w-1) > 2 * big + 2, so
    every field stays in [0, 2^(w-1)) and no carry or borrow crosses into
    the next; ``C - R`` then holds every slack.  Including x is
    ``R -= inc[x]; C -= inc[x]``, excluding it ``C -= inc[x]``.  A query
    adds ``top - t`` to every field, which sets a field's high bit exactly
    where it exceeds t, and returns the constraints it selects as the low
    bits of their fields; the highest such bit is the lowest index.  Every
    packed operand stays non-negative (``a ^ (a & b)`` for ``a & ~b``, and
    ``kept`` holds ``ones ^ drop``).  ``_node`` backtracks by restoring the
    four ints it saved.  The ``inc`` ints take n * fb bytes per constraint in all.
    ``kept`` is the packing bound's cache (see ``_need``), emptied before
    it would pass ``_KEPT_BYTES``.
    ``masks`` is the list ``_constraint_masks`` built, for a graph with a
    code.  ``root`` holds the four ints at the root, propagated once on
    construction, which forced ``root_forced`` vertices; ``greedy``,
    ``root_lower`` and ``run`` each start by restoring it.
    ``sym`` holds the current node's stabiliser H for orbital fixing, None
    when it is trivial or the graph has no group.
    """

    def __init__(self, g: Graph, kind: CodeKind, budget: Budget | None, masks: list[int]):
        self.g = g
        self.kind = kind
        self.budget = budget or Budget()
        self.nodes = 0
        self.forced = 0
        self.pruned = 0
        self.orbit_fixed = 0
        self.bound_fixed = 0
        self.spare = 0  # the free vertices ``_need``'s packing rules out, if any
        self.group = automorphisms(g)
        self.sym = None  # the stabiliser H of the branching decisions so far
        self.t0 = time.perf_counter()
        self.best: int | None = None  # incumbent mask
        self.cap = g.n + 1  # solutions must have size < cap
        self.stop_at_first = False
        self.done = False

        self.masks = masks
        self.max_cover = max(map(int.bit_count, g._closed), default=1)
        self.big = big = max(map(int.bit_count, masks), default=0)
        fb = 1  # bytes per field, a power of two so that a field is one array item
        while 1 << (8 * fb - 1) <= 2 * big + 2:
            fb *= 2
        self.w = w = 8 * fb
        self.ones = ones = int.from_bytes(b"\1".ljust(fb, b"\0") * len(masks), "little")
        # transpose the masks a field at a time: gather the k-th w-bit group
        # of every mask into one int, one field per constraint; shifted right
        # by r, its low field bits say which constraints contain k*w + r
        per = -(-g.n // w)  # groups per mask
        self.field_masks = field_masks = masks[::-1]  # the constraint of each field, bottom field first
        groups = memoryview(b"".join(map(int.to_bytes, field_masks, repeat(per * fb), repeat("little"))))
        groups = groups.cast("BHIQ"[fb.bit_length() - 1])
        self.inc = inc = []  # per vertex, a 1 in the field of each constraint containing it
        for k in range(per):
            col = int.from_bytes(groups[k::per].tobytes(), "little")
            inc += [col >> r & ones for r in range(min(w, g.n - k * w))]
        self.high = ones << (w - 1)
        self.top = ((1 << (w - 1)) - 1) * ones  # 2^(w-1) - 1 in every field
        self.over = self.top - big * ones  # flags R > big, that is res >= 1
        self.dom = (1 << w * len(masks)) - (1 << w * (len(masks) - g.n))  # the domination fields, on top
        self.kept = {}  # by a packed constraint's free members, what the packing keeps
        self.kept_room = _KEPT_BYTES // (max(len(masks), 1) * fb)
        # the root: nothing assigned, then propagated (``forced_detectors``)
        self.chosen, self.free = 0, g.full_mask()
        self.R, self.C = (kind.req + big) * ones, big * ones + sum(inc)
        self.root_forced = self._force()
        self.root = self.R, self.C, self.chosen, self.free

    def _unmet(self) -> tuple[int, int]:
        """The active constraints (res >= 1), and those with res >= 2."""
        R, high, sh = self.R + self.over, self.high, self.w - 1
        return (R & high) >> sh, (R - self.ones & high) >> sh

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

    # -- assignment and propagation -----------------------------------------

    def _include(self, x: int):
        a = self.inc[x]
        self.R -= a
        self.C -= a
        self.free ^= 1 << x
        self.chosen |= 1 << x

    def _exclude_orbits(self, fix: int) -> int:
        """Exclude the free vertices fix, widened to the union of their
        H-orbits, and propagate once.  Returns how many were excluded, or
        minus that number when an active constraint would be left with
        slack below 0; then nothing is assigned."""
        sym = self.sym
        rest = fix
        while sym is not None and rest:
            orbit = sym.orbit(rest.bit_length() - 1)
            fix |= orbit
            rest ^= rest & orbit
        R, C, inc = self.R, self.C, self.inc
        rest = fix
        while rest:
            x = rest.bit_length() - 1
            C -= inc[x]
            rest ^= 1 << x
        active = R + self.over & self.high
        if active ^ (active & C - R + self.high):  # an active slack below 0
            return -fix.bit_count()
        self.C, self.free = C, self.free ^ fix
        self.forced += self._force()
        return fix.bit_count()

    def _force(self) -> int:
        """Include the free members of every tight constraint.

        A constraint is tight when it is active and its free members are
        exactly as many as it still requires (slack 0; by the slack
        invariant never fewer).  Returns the number of vertices forced.
        Inclusions leave every slack ``cnt - res`` unchanged, so one pass
        reaches the fixpoint.
        """
        R = self.R
        active = R + self.over & self.high
        tight = active ^ (active & self.C - R + self.top)  # active, and slack not above 0
        if not tight:
            return 0
        field_masks, w = self.field_masks, self.w
        forced = 0
        while tight:
            hi = tight.bit_length() - 1
            forced |= field_masks[hi // w]
            tight ^= 1 << hi
        forced &= self.free
        inc = self.inc
        taken = 0
        left = forced
        while left:
            x = left.bit_length() - 1
            taken += inc[x]
            left ^= 1 << x
        self.R = R - taken
        self.C -= taken
        self.free ^= forced
        self.chosen |= forced
        return forced.bit_count()

    # -- bounding ----------------------------------------------------------

    def _deficit(self, active: int, heavy: int) -> int:
        """The domination deficit: res summed over the active domination
        constraints, given those with res >= 2 (heavy)."""
        dom = self.dom
        return (active & dom).bit_count() + (heavy & dom).bit_count()

    def _need(self, active: int, heavy: int, gap: int) -> int:
        """Lower bound on the detectors still to add, exact below gap.

        The larger of a disjoint packing (constraints with pairwise disjoint
        free members each need their own detectors) and the domination
        deficit over the largest closed neighbourhood.  Stops as soon as the
        bound reaches gap.  ``heavy`` is the active constraints with
        res >= 2; res never exceeds ``kind.req`` <= 2.

        The packing takes the active constraints greedily by (cnt, index),
        one bucket of equal ``cnt`` at a time, and each one it takes drops
        every constraint that meets its free members ``take``: the OR of
        ``inc[x]`` over x in take.  That conflict set depends on ``take``
        alone, since ``inc`` is fixed for the search, so ``kept`` caches its
        complement within ``ones`` by ``take``; a hit returns the int a miss
        would build, and the cache cannot change a bound.

        When the bound stays below gap, ``spare`` is left holding the free
        vertices outside every ``take`` if the packing ended at gap - 1, the
        ones ``_node`` excludes by fixing, and 0 otherwise.
        """
        ratio = -(-self._deficit(active, heavy) // self.max_cover)
        if ratio >= gap:
            return ratio
        field_masks, inc, free, w, kept = self.field_masks, self.inc, self.free, self.w, self.kept
        ones, sh = self.ones, w - 1
        # every active constraint has cnt > res >= 1 (the slack invariant),
        # so the bucket cnt == 1 is empty and the walk starts at cnt == 2
        C = self.C + self.over - ones
        packed = used = 0
        while active:
            C -= ones  # high bits flag cnt > t, for the next bucket t = 2, 3, ...
            rest = active & C >> sh  # each field's high bit moved to its low bit
            bucket = active ^ rest  # so cnt == t
            active = rest
            while bucket:
                hi = bucket.bit_length() - 1  # the lowest constraint index of the bucket
                packed += 2 if heavy >> hi & 1 else 1
                if packed >= gap:
                    return packed
                take = field_masks[hi // w] & free
                used |= take
                keep = kept.get(take)
                if keep is None:
                    # drop every constraint that meets the free members
                    # taken, this one among them, since take is not empty
                    drop = 0
                    left = take
                    while left:
                        bit = left & -left
                        drop |= inc[bit.bit_length() - 1]
                        left ^= bit
                    if len(kept) >= self.kept_room:
                        kept.clear()
                    kept[take] = keep = ones ^ drop
                bucket &= keep
                active &= keep
        self.spare = free ^ used if packed == gap - 1 else 0
        return packed if packed >= ratio else ratio

    # -- branching -----------------------------------------------------------

    def _branch_vertex(self, active: int, heavy: int) -> int:
        """A free member of the constraint with the least slack, then the
        most res when minimising or the least when deciding (the least cnt
        of that slack), then the least index; of its members, the one in the
        most active constraints, lowest index on ties."""
        slack, ones, high, sh = self.C - self.R + self.top, self.ones, self.high, self.w - 1
        least = 0
        while not least:
            slack -= ones  # flags slack > s, for s = 1, 2, ...
            least = active ^ (active & (slack & high) >> sh)  # so slack == s
        pick = least ^ (least & heavy) if self.stop_at_first else least & heavy  # res = 1 deciding, 2 minimising
        if pick:
            least = pick
        left = self.field_masks[(least.bit_length() - 1) // self.w] & self.free
        inc = self.inc
        best_x = -1
        best_score = -1
        while left:  # from the highest vertex down, so ties go to the lowest
            x = left.bit_length() - 1
            score = (active & inc[x]).bit_count()
            if score >= best_score:
                best_score = score
                best_x = x
            left ^= 1 << x
        return best_x

    # -- search ------------------------------------------------------------

    def _node(self):
        """Search below the current assignment, which propagation has closed.
        Fixing by the packing bound may exclude and force vertices first;
        the caller restores the assignment."""
        high, sh, sym = self.high, self.w - 1, self.sym
        while True:
            R, C, chosen, free = self.R, self.C, self.chosen, self.free
            U = R + self.over  # as ``_unmet``
            active = (U & high) >> sh
            if not active:
                size = chosen.bit_count()
                if size < self.cap:
                    self.best = chosen
                    self.cap = size
                    if self.stop_at_first:
                        self.done = True
                return
            heavy = (U - self.ones & high) >> sh
            gap = self.cap - chosen.bit_count()
            if self._need(active, heavy, gap) >= gap:
                self.pruned += 1
                return
            if not self.spare:
                break
            excluded = self._exclude_orbits(self.spare)
            self.bound_fixed += abs(excluded)
            if excluded < 0:
                self.pruned += 1
                return
        x = self._branch_vertex(active, heavy)
        self._tick()
        a, bit = self.inc[x], 1 << x  # as ``_include``
        self.R, self.C, self.free, self.chosen = R - a, C - a, free ^ bit, chosen | bit
        if sym is not None:
            self.sym = sym.stabiliser(x)
        self._node()
        self.sym = sym
        self.R, self.C, self.chosen, self.free = R, C, chosen, free
        if self.done:
            return
        self._tick()
        excluded = self._exclude_orbits(1 << x)
        if excluded > 0:
            self.orbit_fixed += excluded - 1
            self._node()
        self.R, self.C, self.chosen, self.free = R, C, chosen, free

    def root_lower(self) -> int:
        self.R, self.C, self.chosen, self.free = self.root
        active, heavy = self._unmet()
        return self.chosen.bit_count() + (self._need(active, heavy, self.g.n + 1) if active else 0)

    def greedy(self) -> int:
        """Deterministic greedy cover used as the initial incumbent: from the
        root, add the free vertex with the most residual requirement over the
        active constraints containing it, lowest index on ties."""
        self.R, self.C, self.chosen, self.free = self.root
        inc = self.inc
        while True:
            active, heavy = self._unmet()
            if not active:
                return self.chosen
            best_x = best_score = -1
            for x in bits(self.free):
                a = inc[x]
                score = (active & a).bit_count() + (heavy & a).bit_count()
                if score > best_score:
                    best_score = score
                    best_x = x
            self._include(best_x)

    def run(self, cap: int, stop_at_first: bool) -> bool:
        """Explore from the root; returns False when the budget ran out.

        The root's forced set counts in ``forced`` once the root node is
        visited, so a node cap of 0 counts none.  Automorphisms map the set
        onto itself, so orbital fixing starts from the whole group.  Either
        way the counters are restored to the root.
        """
        self.cap = cap
        self.stop_at_first = stop_at_first
        self.sym = self.group
        self.R, self.C, self.chosen, self.free = self.root
        try:
            self._tick()
            self.forced += self.root_forced
            self._node()
            return True
        except _BudgetExhausted:
            return False
        finally:
            self.R, self.C, self.chosen, self.free = self.root

    def stats(self, t0: float) -> SolverStats:
        return SolverStats(self.nodes, time.perf_counter() - t0, self.forced, self.pruned,
                           self.orbit_fixed, self.group.order if self.group is not None else 1,
                           self.bound_fixed)


def _verified(g: Graph, mask: int, kind: CodeKind) -> tuple[int, ...]:
    """The witness mask as a tuple, once ``verify`` has passed it."""
    bad = verify(g, mask, kind)
    if bad is not None:
        raise RuntimeError(f"solver produced an invalid witness: {bad}")
    return tuple(bits(mask))


def _solve(
    g: Graph, kind: CodeKind, budget: Budget | None, k: int | None
) -> tuple[existence.NoCode | None, tuple[int, ...] | None, int | None, bool, SolverStats]:
    """The root decision, then the closed root or one search, for a minimum
    (k None) or for the first code of size <= k.  Returns why no code
    exists, the verified witness (None when none was found), a lower bound
    on the minimum when the budget cut a minimising search short, whether
    the answer is exhaustive, and the counters."""
    t0 = time.perf_counter()
    reason, forced, loose = _root(g, kind)
    if reason is not None:
        return reason, None, None, True, SolverStats(0, time.perf_counter() - t0)
    t = kind.req
    if ((budget is None or budget.max_nodes != 0) and all((m & forced).bit_count() >= t for m in loose)
            and verify(g, forced, kind) is None):
        # F is verified, so the witness is not verified again
        witness = tuple(bits(forced)) if k is None or forced.bit_count() <= k else None
        group = automorphisms(g)
        stats = SolverStats(1, time.perf_counter() - t0, forced.bit_count(),
                            group_order=group.order if group is not None else 1)
        return None, witness, None, True, stats
    lower = None
    search = _Search(g, kind, budget, _constraint_masks(g))
    if k is None:
        incumbent = search.greedy()
        completed = search.run(cap=incumbent.bit_count(), stop_at_first=False)
        best = search.best if search.best is not None else incumbent
        if not completed:
            lower = min(max(lower_bound(g, kind).value, search.root_lower()), best.bit_count())
    else:
        completed = search.run(cap=min(k, g.n) + 1, stop_at_first=True)
        best = search.best
    stats = search.stats(t0)
    return None, None if best is None else _verified(g, best, kind), lower, completed, stats


def solve_min(
    g: Graph,
    kind: CodeKind = CodeKind.RED_IC,
    budget: Budget | None = None,
) -> SolveOutcome:
    """Minimum code size with witness, or bounds when the budget runs out.

    The incumbent starts from a deterministic greedy completion of the
    root's forced detectors (V(G) itself is a code once one exists), so a
    budget-limited run still reports a valid upper bound and witness.
    """
    reason, witness, lower, completed, stats = _solve(g, kind, budget, None)
    if reason is not None:
        return SolveOutcome("infeasible", g.n, reason=reason, stats=stats)
    k = len(witness)
    return SolveOutcome("optimal" if completed else "bounded", g.n, k=k, witness=witness,
                        lower=k if completed else lower, upper=k, stats=stats)


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
    if k < 0:
        return FeasibilityResult(None, True)
    _, witness, _, completed, stats = _solve(g, kind, budget, k)
    return FeasibilityResult(witness, completed, stats)
