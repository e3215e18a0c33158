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


def _detector_reach(closed: list[int], su: int) -> tuple[int, int]:
    """The vertices that share at least one, and at least two, detectors with
    u, given ``su`` = N[u] & S: unions of the N[x] over the detectors x in
    ``su``, u itself among them when ``su`` is not empty."""
    once = twice = 0
    while su:
        low = su & -su
        nx = closed[low.bit_length() - 1]
        twice |= once & nx
        once |= nx
        su ^= low
    return once, twice


def verify(g: Graph, detectors: Iterable[int] | int, kind: CodeKind) -> Violation | None:
    """Check the code conditions; return None on pass, else the first violation.

    Violations are reported deterministically: all vertices are checked for
    domination in ascending order, then pairs in lexicographic order.  With
    c_v = |N[v] & S|, the detector difference of a pair is

        |(N[u] symdiff N[v]) & S| = c_u + c_v - 2 |N[u] & N[v] & S|,

    so once every vertex meets the threshold t = ``kind.req``, a pair that
    shares no detector has a difference of c_u + c_v >= 2t >= t and passes,
    at any distance.  A pair fails only when twice its shared detectors
    exceed c_u + c_v - t >= c_u; where c_u >= 2 (always for RED:IC), v must
    share two detectors with u.  So for each u only the v > u that share a
    detector with u, or two where c_u >= 2, are counted, one AND each;
    skipping the others never changes which pair fails first.
    """
    s = _smask(g, detectors)
    req = kind.req
    closed = g._closed
    cnt = []
    for v in range(g.n):
        c = (closed[v] & s).bit_count()
        if c < req:
            return Violation("undominated", v, count=c)
        cnt.append(c)
    for u in range(g.n):
        su = closed[u] & s
        cu = cnt[u]
        once, twice = _detector_reach(closed, su)
        others = (twice if cu >= 2 else once) >> (u + 1)
        v = u
        while others:
            k = (others & -others).bit_length()
            v += k
            others >>= k
            if cu + cnt[v] - 2 * (su & closed[v]).bit_count() < req:
                d = (closed[u] ^ closed[v]) & s
                return Violation("undistinguished", u, v, delta=frozenset(bits(d)))
    return None


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
    verdict.  Only a failure is explained, as the literal check would: the
    base violation when S is not an IC, else the first x in ascending order
    for which ``verify(g, S - {x}, IC)`` fails, with that violation.  That
    costs up to |S| + 1 more verifications, so a late critical detector on
    a large failing set is slow.
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
