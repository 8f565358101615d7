"""Machine speed, measured alongside the ops by a fixed reference computation.

On a shared machine the speed of one core drifts by a third over phases
that last from seconds to minutes, which moves every timing of a run
together.  A reference computation that never touches mipkit (a breadth
first closure over fixed permutations and a row reduction mod 3 of a fixed
matrix, the two kinds of work mipkit spends its time on) is timed between
ops; an op's time is scaled by REFERENCE_S over the reference computation's
time around it.  The scaled times are seconds at the reference speed; they
move with mipkit's own cost and not with the machine's phase.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median time of reference_work on the reference machine (2-core Xeon
# sandbox, Python 3.11, numpy 2.4) in its fast phase.
REFERENCE_S = 1.4e-3
# Seconds of ops between two samples.
INTERVAL_S = 0.2
# Timed runs of the reference computation per sample (the median counts).
RUNS = 3
# Samples on each side of an op that set its speed.
NEIGHBOURS = 1

def _lcg(n: int, seed: int = 12345) -> list[int]:
    out = []
    for _ in range(n):
        seed = (seed * 1103515245 + 12345) % 2**31
        out.append(seed >> 16)
    return out


_POINTS = 512
_PERMS = [[(a * x + b) % _POINTS for x in range(_POINTS)] for a, b in ((5, 1), (9, 7), (13, 3))]
_MATRIX = (np.array(_lcg(40 * 40), dtype=np.int64) % 3).reshape(40, 40)


def reference_work() -> int:
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for perm in _PERMS:
                y = perm[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    a = _MATRIX.copy()
    r = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, 3)) % 3
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % 3
        r += 1
        if r == a.shape[0]:
            break
    return len(seen) + r


class Speedometer:
    """Samples of the reference computation's time, taken between ops."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        reference_work()  # refill the caches the last op evicted
        runs = []
        for _ in range(RUNS):
            start = time.perf_counter()
            reference_work()
            runs.append(time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.samples.append(statistics.median(runs))

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median of the samples nearest time ``at``."""
        k = bisect.bisect_left(self.times, at)
        window = self.samples[max(0, k - NEIGHBOURS) : k + NEIGHBOURS]
        return REFERENCE_S / statistics.median(window)

    def overall_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
