"""A gauge of the machine's speed, so run times can be read at one reference speed.

On a shared host the same pure-Python work takes up to a third longer in
one minute than in the next, with CPU time equal to wall time, so the drift
is in the speed of the core and not in scheduling.  A run's medians would
carry whichever phase it ran in.  The gauge takes that phase out:

* ``start()`` arms a wall-clock timer.  Every ``INTERVAL_S`` its signal
  handler runs ``probe()``, a fixed piece of pure-Python work that does not
  touch subcount, and records when the probe started and how long it took.
  The handler runs between bytecodes on the one thread, so a probe can land
  inside an op.
* ``rescale(t0, t1)`` takes a timed window, subtracts the probes that ran
  inside it, and multiplies what is left by ``NOMINAL_S`` over the median
  probe time around the window.  The result is the window's time at the
  speed at which one probe takes ``NOMINAL_S``: seconds on a steady machine.

The probe is code of this benchmark, so a change to subcount cannot move it.
"""

import signal
import statistics
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.2
# Probes whose start lies within this far of a window set its speed.
WINDOW_S = 1.0
# The probe's median time on the 2-core VM the bounds were measured on; any
# fixed figure would do, this one keeps rescaled times near the raw ones.
NOMINAL_S = 0.018

_MODS = (4, 4, 2, 2, 2)
_ELEMS = [(a, b, c, d, e) for a in range(4) for b in range(4)
          for c in range(2) for d in range(2) for e in range(2)]
_ZERO = (0, 0, 0, 0, 0)


def probe():
    """Fixed work of the kinds subcount does: tuple arithmetic, sets, big ints."""
    found = {}
    for g in _ELEMS[::8]:
        for h in _ELEMS[1::5]:
            span = {_ZERO}
            frontier = [g, h]
            while frontier:
                x = frontier.pop()
                if x in span:
                    continue
                span.add(x)
                for y in (g, h):
                    frontier.append(tuple((a + b) % m for a, b, m in zip(x, y, _MODS)))
            key = frozenset(span)
            found[key] = found.get(key, 0) + 1
    acc = 1
    for i in range(1, 300):
        acc = acc * (i * i + 7) % (1 << 521) - 1
    return len(found), acc


class SpeedGauge:
    def __init__(self):
        self.starts = []
        self.times = []
        self._cum = None
        self._busy = False

    def _tick(self, signum, frame):
        # a tick that lands inside a probe (a probe slower than the interval)
        # is dropped, so probes never nest and starts stay in order
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Disarm the timer, then probe for one more window so the last ops have
        speed samples after them as well as before."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        end = perf_counter() + WINDOW_S
        while perf_counter() < end:
            self._tick(None, None)
        self._cum = [0.0] + list(accumulate(self.times))

    def own_time(self, t0, t1):
        """The window's time less the probes that ran inside it."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        return (t1 - t0) - (self._cum[hi] - self._cum[lo])

    def probe_time(self, t0, t1):
        """Median probe time around a window."""
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        return statistics.median(self.times[lo:hi])

    def rescale(self, t0, t1):
        return self.own_time(t0, t1) * NOMINAL_S / self.probe_time(t0, t1)

    def summary(self):
        return {
            "probes": len(self.times),
            "nominal_s": NOMINAL_S,
            "median_s": statistics.median(self.times),
            "min_s": min(self.times),
            "max_s": max(self.times),
        }
