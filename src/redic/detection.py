"""Detection semantics: domination, distinguishing, code verification, share.

A detector set S is an identifying code (IC) when every vertex is at least
1-dominated (|N[v] & S| >= 1) and every vertex pair is 1-distinguished
(|(N[u] & S) symdiff (N[v] & S)| >= 1).  The fault-tolerant variant
(RED:IC) raises both thresholds to 2, which is equivalent to S remaining
an IC after the removal of any single detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, bits, mask_of


class CodeKind(Enum):
    IC = "ic"
    RED_IC = "red-ic"

    @property
    def req(self) -> int:
        """The threshold t for domination and distinguishing alike."""
        return 1 if self is CodeKind.IC else 2


@dataclass(frozen=True)
class Violation:
    """Certificate of a failed verification.

    ``kind`` is "undominated" (vertex ``u`` has only ``count`` detectors in
    its closed neighborhood) or "undistinguished" (pair ``u``, ``v`` has the
    too-small detector symmetric difference ``delta``).
    """

    kind: str
    u: int
    v: int | None = None
    count: int | None = None
    delta: frozenset[int] | None = None

    def __str__(self) -> str:
        if self.kind == "undominated":
            return f"vertex {self.u} is only {self.count}-dominated"
        d = "{" + ",".join(map(str, sorted(self.delta))) + "}"
        return f"pair ({self.u},{self.v}) has detector symmetric difference {d}"


def _smask(g: Graph, detectors: Iterable[int] | int) -> int:
    try:
        m = detectors if isinstance(detectors, int) else mask_of(detectors)
    except ValueError:  # a negative index: negative shift count
        m = -1
    if m < 0 or m.bit_length() > g.n:
        raise ValueError("detector index out of range")
    return m


def domination(g: Graph, detectors: Iterable[int] | int, v: int) -> int:
    """|N[v] & S|: how many detectors watch vertex v."""
    return (g.closed_nbhd(v) & _smask(g, detectors)).bit_count()


def delta(g: Graph, detectors: Iterable[int] | int, u: int, v: int) -> frozenset[int]:
    """Symmetric difference of the dominated views of u and v, as a vertex set.

    Equals (N[u] symdiff N[v]) & S since intersecting with S distributes
    over the symmetric difference.
    """
    if u == v:
        raise ValueError("delta needs two distinct vertices")
    s = _smask(g, detectors)
    return frozenset(bits((g.closed_nbhd(u) ^ g.closed_nbhd(v)) & s))


def verify(g: Graph, detectors: Iterable[int] | int, kind: CodeKind) -> Violation | None:
    """Check the code conditions; return None on pass, else the first violation.

    Violations are reported deterministically: all vertices are checked for
    domination in ascending order, then pairs in lexicographic order.  With
    view(v) = N[v] & S, the detector difference of a pair is the symmetric
    difference of its views.  Once every view holds t = ``kind.req``
    detectors, a pair fails exactly when its views are equal or, for t = 2,
    when one view is the other plus one detector; the argument holds for
    t <= 2 only.  So the views are grouped in one dict, and each view is
    looked up there, for t = 2 also each view minus one of its detectors:
    every failing pair is met, and the least is reported.  A view minus one
    detector can only equal a view one detector smaller, so the domination
    pass keeps the set of view sizes, and a vertex whose size minus one is
    not in it makes no such lookup; every skipped lookup could not have
    matched, so the same pairs are met.  The dict is keyed
    by ``hash(view)`` to a bucket of vertices, so that no view is kept
    alive; each match re-derives the view and compares it exactly, since
    sparse masks collide by structure (hash({i, i+61}) == hash({i+1})).
    """
    s = _smask(g, detectors)
    req = kind.req
    closed = g._closed
    groups: dict[int, list[int]] = {}
    counts = []
    best = None
    for v in range(g.n):
        view = closed[v] & s
        c = view.bit_count()
        if c < req:
            return Violation("undominated", v, count=c)
        counts.append(c)
        group = groups.setdefault(hash(view), [])
        for x in group:
            if closed[x] & s == view:
                if best is None or (x, v) < best:
                    best = (x, v)
                break
        group.append(v)
    if req == 2:
        sizes = set(counts)
        for w, c in enumerate(counts):
            if c - 1 not in sizes:
                continue
            view = rest = closed[w] & s
            while rest:
                low = rest & -rest
                rest ^= low
                less = view ^ low
                for x in groups.get(hash(less), ()):
                    if closed[x] & s == less:
                        pair = (x, w) if x < w else (w, x)
                        if best is None or pair < best:
                            best = pair
                        break
    if best is None:
        return None
    u, v = best
    return Violation("undistinguished", u, v, delta=frozenset(bits((closed[u] ^ closed[v]) & s)))


def is_valid_code(g: Graph, detectors: Iterable[int] | int, kind: CodeKind) -> bool:
    return verify(g, detectors, kind) is None


def share(g: Graph, detectors: Iterable[int] | int, x: int) -> Fraction:
    """sh(x) = sum over v in N[x] of 1/dom(v), as an exact rational.

    Summed over all detectors this telescopes to exactly n whenever every
    vertex is dominated at all, which is why exact arithmetic matters: the
    per-detector bounds used for density arguments are equalities between
    fractions, not approximations.
    """
    s = _smask(g, detectors)
    if not (s >> x & 1):
        raise ValueError(f"vertex {x} is not a detector")
    total = Fraction(0)
    for v in bits(g.closed_nbhd(x)):
        d = (g.closed_nbhd(v) & s).bit_count()
        if d == 0:
            raise ValueError(f"share undefined: vertex {v} is undominated")
        total += Fraction(1, d)
    return total


@dataclass(frozen=True)
class RobustnessFailure:
    """Witness that S is not robust: removing ``removed`` (or nothing, when
    None) leaves the violation ``violation`` against the plain IC conditions."""

    removed: int | None
    violation: Violation


def robustness_check(g: Graph, detectors: Iterable[int] | int) -> RobustnessFailure | None:
    """Behavioral fault-tolerance: S and every S minus one detector must be an IC.

    S passes exactly when ``verify(g, S, RED_IC)`` passes, which decides the
    verdict with one grouping of the views.  Only a failure is explained, as
    the literal check would: the base violation when S is not an IC, else
    the first x in ascending order for which ``verify(g, S - {x}, IC)``
    fails, with that violation.  That costs up to |S| + 1 more
    verifications, each grouping all n views again, so a late critical
    detector on a large failing set is slow.
    """
    s = _smask(g, detectors)
    if verify(g, s, CodeKind.RED_IC) is None:
        return None
    base = verify(g, s, CodeKind.IC)
    if base is not None:
        return RobustnessFailure(None, base)
    for x in bits(s):
        v = verify(g, s & ~(1 << x), CodeKind.IC)
        if v is not None:
            return RobustnessFailure(x, v)
    raise AssertionError("RED:IC failed but every S - {x} is an IC")
