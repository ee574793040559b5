"""Time in units of a fixed CPU probe, to cancel machine-speed drift.

On a shared machine the speed of a core switches within seconds: the
same pass can take a third longer from one minute to the next, wider
than any useful regression bound.  The probe is a fixed piece of
pure-Python work shaped like the engine's own (exact elimination over
Q and F_p on sparse dict rows), frozen here so that no change to
``src/`` can change it.  ``ProbeClock`` interrupts the timed code every
PERIOD_S seconds, runs the probe, and divides the time since the last
interruption by the probe's recent duration, so every slice of work is
measured against the machine's speed at that moment.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
WINDOW = 3

_N = 10
_P = 10007


def _matrix(one):
    return [{j: one * ((i * 7 + j * 13) % 11 - 5) for j in range(_N)
             if (i + 2 * j) % 3} for i in range(_N)]


def _eliminate(rows, inv, norm):
    rank = 0
    rows = [dict(r) for r in rows]
    for col in range(_N):
        piv = next((r for r in rows[rank:] if r.get(col)), None)
        if piv is None:
            continue
        rows.remove(piv)
        c = inv(piv[col])
        piv = {k: norm(v * c) for k, v in piv.items()}
        for r in rows:
            f = r.get(col)
            if f:
                for k, v in piv.items():
                    r[k] = norm(r.get(k, 0) - f * v)
                    if not r[k]:
                        del r[k]
        rows.insert(rank, piv)
        rank += 1
    return rank


def probe_s(repeats=1):
    """Seconds taken by the fixed probe work (about 3 ms per repeat)."""
    q = _matrix(Fraction(1))
    fp = [{k: v % _P for k, v in r.items()} for r in _matrix(1)]
    t = perf_counter()
    for _ in range(repeats):
        _eliminate(q, lambda a: 1 / a, lambda a: a)
        _eliminate(fp, lambda a: pow(a, -1, _P), lambda a: a % _P)
    return perf_counter() - t


class ProbeClock:
    """Measures laps in seconds and in probe units.

    Between start() and stop() a timer signal runs the probe every
    PERIOD_S seconds.  A slice of work between two probes counts its
    seconds divided by the median of the last WINDOW probe times.  The
    probe's own time is excluded from both measures.
    """

    def __init__(self):
        self.samples = []
        self.raw = self.rel = 0.0
        self.mark = None

    def _tick(self, *_):
        piece = perf_counter() - self.mark
        self.samples.append(probe_s())
        self.raw += piece
        self.rel += piece / statistics.median(self.samples[-WINDOW:])
        self.mark = perf_counter()

    def start(self):
        self.samples.append(probe_s())
        self.mark = perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def lap(self):
        """(seconds, probe units) since the previous lap or start."""
        # a timer tick landing inside this one would count a slice twice;
        # held back, it is delivered on unblocking and counts for later
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick()
            out = (self.raw, self.rel)
            self.raw = self.rel = 0.0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return out

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
