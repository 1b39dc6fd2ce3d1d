"""The pace of the machine during a run, from a fixed reference computation.

The machine the benchmark runs on may be shared: other work on it slows
every computation by tens of percent (up to 1.7 times), switching on and off
over seconds and for stretches longer than a run.  Such a slowdown moves the
benchmark's times without any change to germkit.  So a run also times a
fixed piece of plain Python, `reference()`, between rungs, and reports each
time scaled to what it would have been had the reference taken
`REFERENCE_S` at that moment:

    reported = measured * REFERENCE_S / reference time around the measurement

where the reference time around a moment is the median of the NEAR samples
before it and the NEAR after it.

The reference does the kinds of work germkit's kernels do (exact `Fraction`
elimination, lookups in a Cayley table, hashing tuples into dicts and
sets) and never imports germkit, so a change to germkit leaves it alone and
moves the reported times by exactly the share it moves the measured ones.
"""

import bisect
import statistics
import time
from fractions import Fraction

# About the reference's median time on the 2-core x86-64 VM these numbers
# were first taken on (Python 3.11), so reported times read close to
# measured ones there.  Only the ratio matters: a fixed constant, it scales
# the parent's and a change's runs alike.
REFERENCE_S = 0.002
# Sample the reference at most this often, so it takes a few percent of a run.
EVERY_S = 0.02
NEAR = 3

_N = 6
_MATRIX = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(_N + 2)] for i in range(_N)]
_TABLE = [[(a * b + a + b) % 16 for b in range(16)] for a in range(16)]


def _eliminate():
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [x / p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _associative_triples():
    tab = _TABLE
    n = len(tab)
    return sum(1 for a in range(n) for b in range(n) for c in range(n)
               if tab[tab[a][b]][c] == tab[a][tab[b][c]])


def _components():
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(40):
        for b in (a * 7 % 40, a * 11 % 40):
            parent[find((a % 8, a))] = find((b % 8, b))
    return len({find(x) for x in list(parent)})


EXPECTED = (_eliminate(), _associative_triples(), _components())


def reference():
    """Run the reference once; raise if it computed something else."""
    got = (_eliminate(), _associative_triples(), _components())
    if got != EXPECTED:
        raise AssertionError(f"reference computed {got}, not {EXPECTED}")


class Pace:
    """Reference times taken over a run, with the moments they ended."""

    def __init__(self):
        self.ends = []
        self.times = []
        self.last = -float("inf")

    def sample(self, force=False):
        """Time the reference, unless it ran less than EVERY_S ago; returns
        the seconds spent."""
        t0 = time.perf_counter()
        if not force and t0 - self.last < EVERY_S:
            return 0.0
        reference()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self.last = t1
        return t1 - t0

    def burst(self):
        """NEAR samples in a row, around a measurement that takes none."""
        for _ in range(NEAR):
            self.sample(force=True)

    def scale_at(self, t):
        """The factor that turns seconds measured up to moment t into
        reported ones."""
        i = bisect.bisect(self.ends, t)
        return REFERENCE_S / statistics.median(self.times[max(0, i - NEAR):i + NEAR])
