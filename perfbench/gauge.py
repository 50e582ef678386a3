"""A fixed reference loop that measures how fast the host runs at the moment.

On a shared host other tenants slow the CPU itself, for seconds or minutes at
a time, with no steal time recorded; then every operation runs slower, in
every pass of a run, and no minimum or median over the run's passes removes
it.  So while the benchmark measures, a timer interrupts the program every
``PERIOD`` s to time this loop, and each operation's time, less the probes
that ran inside it, is scaled by how much faster or slower than
``REFERENCE_NS`` the probes ran during it:

    scaled = measured * mean(REFERENCE_NS / probe)

over the probes inside the operation and ``SIDE`` on either side of it,
leaving out the tenth that ran fastest and the tenth that ran slowest.  The
mean, not the median, because an operation that lasts a second is slowed by
every burst of contention inside it; the trim drops single probes that an
interrupt hit.  The loop is the engine's own kind of work -- series products
of small jets (``np.add.at`` over gathered coefficients) and scalar ``math``
calls -- but uses no code of the repository, so a change to the program
moves the measured time and leaves the probes as they were.  Times then read
as on a host that runs one probe in ``REFERENCE_NS``, about the probe's
median on the 2-core Xeon VM where the benchmark was written.
"""

from __future__ import annotations

import gc
import math
import signal
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 150_000
ROUNDS = 5
PERIOD = 0.01
SIDE = 5

_rng = np.random.default_rng(0)
# an order-3 jet in two chart variables has 10 coefficients and 35 products
_TERMS = 10
_TI, _TJ, _TK = (_rng.integers(_TERMS, size=35) for _ in range(3))
_SRC = _rng.integers(_TERMS, size=_TERMS)
_FAC = _rng.uniform(0.5, 2.0, size=_TERMS)


class _Jet:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        out = np.zeros(_TERMS)
        np.add.at(out, _TK, self.c[_TI] * other.c[_TJ])
        return _Jet(out)

    def __add__(self, other):
        return _Jet(self.c + other.c)

    def __neg__(self):
        return _Jet(-self.c)

    def derivative(self):
        return _Jet(self.c[_SRC] * _FAC)


_V = [_Jet(c) for c in _rng.standard_normal((4, _TERMS))]
_W = [_Jet(c) for c in _rng.standard_normal((4, _TERMS))]


def probe() -> int:
    """Run the reference loop once; returns its time in ns."""
    # a collection of the program's garbage would land on the probe
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter_ns()
    for _ in range(ROUNDS):
        # a Lorentzian inner product of two vectors of jets, as the
        # ambient metric takes it, and the derivatives of one component
        acc = -(_V[0] * _W[0])
        for a, b in zip(_V[1:], _W[1:]):
            acc = acc + a * b
        acc = acc + acc.derivative() * _V[1].derivative()
        x = float(acc.c[0])
        math.sinh(math.atan(x))
    took = perf_counter_ns() - start
    if collecting:
        gc.enable()
    return took


def speed(probe_ns) -> float:
    """Host speed relative to reference over ``probe_ns``: the mean of
    ``REFERENCE_NS / probe`` without its fastest and slowest tenth."""
    speeds = sorted(REFERENCE_NS / p for p in probe_ns)
    cut = len(speeds) // 10
    return fmean(speeds[cut : len(speeds) - cut])


class Sampler:
    """Probes the host every ``PERIOD`` s while it is entered.

    The probe runs in a SIGALRM handler, so in the main thread between two
    bytecodes of whatever the program is doing; ``spent`` is the time all
    probes took, for the caller to take out of the operations it times.
    """

    def __init__(self):
        self.stamps, self.probe_ns, self.spent = [], [], 0

    def _tick(self, signum, frame):
        start = perf_counter_ns()
        took = probe()
        self.stamps.append(start)
        self.probe_ns.append(took)
        self.spent += perf_counter_ns() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, ns, start, end) -> float:
        """``ns`` measured from ``start`` to ``end``, at reference host speed."""
        i, j = bisect_left(self.stamps, start), bisect_right(self.stamps, end)
        return ns * speed(self.probe_ns[max(0, i - SIDE) : j + SIDE])


sampler = Sampler()
