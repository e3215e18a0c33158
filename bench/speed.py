"""Host speed, sampled in-process while a pass runs.

The reference host is a virtual machine whose CPU speed drifts by 20 to 40 %
over tens of seconds to minutes; CPU time drifts with wall time, so neither
is steady from one run to the next.  A ``SpeedProbe`` measures that drift
where it happens: every 10 to 50 ms (``INTERVAL_S``) a timer signal
interrupts the process and runs one slice of a fixed pure-Python kernel,
whose thread CPU time says how fast the host is at that moment.  The kernel
is the benchmark's own code, never the program's, so a change to the program
leaves it alone.

A pass's time minus the time its slices took, divided by the mean slice cost
over ``NOMINAL_SLICE_S``, is the time the pass would take at the pace where a
slice costs ``NOMINAL_SLICE_S``: its seconds at reference speed.  Slices are
about 3 % of a pass.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass
from time import perf_counter, thread_time

# the timer fires after a random interval in this range, so that slices do
# not fall in step with anything periodic on the host
INTERVAL_S = (0.01, 0.05)
SLICE_REPS = 4
# the mean slice cost on the reference host in a fast phase
NOMINAL_SLICE_S = 0.001


def _kernel_graph(n: int = 96, seed: int = 7) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


_ADJ = _kernel_graph()


def kernel(reps: int = SLICE_REPS) -> int:
    """Bitmask set unions, dict counting and a sort: the operations the
    program's own search and enumeration spend their time on."""
    acc = 0
    for _ in range(reps):
        seen: dict[int, int] = {}
        for v, m in enumerate(_ADJ):
            ball = m | (1 << v)
            w = ball
            while w:
                low = w & -w
                ball |= _ADJ[low.bit_length() - 1]
                w ^= low
            key = ball & 0xFFFFFFFFFFFFFFFF
            seen[key] = seen.get(key, 0) + 1
            acc += ball.bit_count()
        acc += len(sorted(seen.values()))
    return acc


@dataclass
class Reading:
    """Slices taken so far: their count, wall time and thread CPU time."""

    slices: int = 0
    wall: float = 0.0
    cpu: float = 0.0

    def __sub__(self, other: "Reading") -> "Reading":
        return Reading(self.slices - other.slices, self.wall - other.wall, self.cpu - other.cpu)

    def scale(self) -> float:
        """How many times slower than reference speed the host ran."""
        return self.cpu / self.slices / NOMINAL_SLICE_S


class SpeedProbe:
    """Samples host speed on a timer while it is open (a context manager).

    Only the main thread may open it, as only it receives signals; processes
    forked while it is open inherit the handler but not the timer."""

    def __init__(self) -> None:
        self._total = Reading()
        self._previous = None
        self._busy = False
        self._open = False
        self._rng = random.Random(0)

    def sample(self) -> None:
        if self._busy:  # the timer fired inside a slice
            return
        self._busy = True
        w0, c0 = perf_counter(), thread_time()
        kernel()
        self._total.slices += 1
        self._total.cpu += thread_time() - c0
        self._total.wall += perf_counter() - w0
        self._busy = False

    def reading(self) -> Reading:
        return Reading(self._total.slices, self._total.wall, self._total.cpu)

    def _tick(self, signum, frame) -> None:
        self.sample()
        # a signal that arrived just before __exit__ disarmed the timer can
        # be handled after it; re-arming then would let a later SIGALRM meet
        # the default action, which kills the process
        if self._open:
            signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(*INTERVAL_S))

    def __enter__(self) -> "SpeedProbe":
        self._open = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(*INTERVAL_S))
        return self

    def __exit__(self, *exc) -> None:
        self._open = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args, **kwargs):
        """Run ``fn`` between two explicit slices, so that even a short call
        has a reading.  Return its result, its wall and CPU time net of the
        slices taken during it, and the reading over it and both slices."""
        before = self.reading()
        self.sample()
        start = self.reading()
        w0, c0 = perf_counter(), process_cpu()
        out = fn(*args, **kwargs)
        w1, c1 = perf_counter(), process_cpu()
        during = self.reading() - start
        self.sample()
        return out, w1 - w0 - during.wall, c1 - c0 - during.cpu, self.reading() - before


def process_cpu() -> float:
    """User and system time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
