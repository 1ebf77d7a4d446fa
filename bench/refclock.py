"""Time at reference speed, for a machine whose speed drifts.

On a shared machine the speed of a fixed pure-Python loop drifts by up to
a factor of two, within seconds and between minutes (52-104 ms for the
same loop on a 2-vCPU VM, with no steal time reported).  Wall times taken
minutes apart then differ more than any regression bound.

A fixed reference loop, timed between requests, measures that speed.  Each
wall time is scaled by ``REFERENCE`` over the median of the five reference
timings nearest to it, so it reads as the time the work takes when the
reference loop takes ``REFERENCE`` seconds.  The loop mixes integer row
elimination (Bareiss and symmetric), integer arithmetic and small-object
and dict traffic, the kinds of work linksig does; of the mixes tried, it
tracked the speed of all three workloads best.  It is benchmark code and
never changes with linksig.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

#: seconds the reference loop takes at reference speed (its median on the
#: 2-vCPU VM this benchmark was defined on)
REFERENCE = 0.010

#: seconds between reference timings while requests run
EVERY = 0.1


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def diff(self) -> int:
        return self.a - self.b


def reference_loop() -> int:
    """Fraction-free determinant and symmetric elimination of a 32 x 32
    integer matrix, an integer loop, and small frozen objects in a dict."""
    n = 32
    rows = [[(i * 7 + j * 3) % 11 - 5 + 9 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        piv = rows[k][k] or 1
        for i in range(k + 1, n):
            row, aik = rows[i], rows[i][k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - aik * rows[k][j]) // prev
        prev = piv
    total = rows[-1][-1]
    sym = [[(i * 5 + j * 5) % 7 - 3 + 8 * (i == j) for j in range(n)] for i in range(n)]
    div = 1
    while len(sym) > 1:
        piv, k = sym[0][0] or 1, len(sym)
        sym = [[(piv * sym[i][j] - sym[i][0] * sym[0][j]) // div for j in range(1, k)]
               for i in range(1, k)]
        div = piv
    total += sym[0][0]
    for i in range(12000):
        total += i * i % 7
    seen = {}
    for i in range(1500):
        pair = _Pair(i, i % 5)
        seen[i % 97, pair.b] = pair
        total += pair.diff()
    return total + len(seen)


class RefClock:
    """Reference-loop timings, and the scale factor they give a wall time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the reference loop now; returns the sample's index."""
        start = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - start)
        self._last = perf_counter()
        return len(self.samples) - 1

    def tick(self) -> int:
        """Index of the latest sample, taking a new one every EVERY seconds."""
        if not self.samples or perf_counter() - self._last >= EVERY:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """REFERENCE over the median of the five samples around index."""
        return REFERENCE / statistics.median(self.samples[max(0, index - 2):index + 3])
