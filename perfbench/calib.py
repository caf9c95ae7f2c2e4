"""Machine-speed calibration for timings on a shared host.

On a shared 2-vCPU host the speed of pure-Python code drifts by up to 2x
in phases lasting seconds (measured: a fixed loop took 55 ms in fast phases
and 110 ms in slow ones, with CPU time equal to wall time, so the cause is
host contention, not steal time).  Raw timings of one run therefore spread
by ~30% between runs, more than any regression bound worth having.

The runner times ``calibrate()`` -- a fixed interpreter-bound mix of int
arithmetic, small-object method calls and str/tuple/dict work, none of it
tamecovers code -- before, after and (``Probe``) every 30 ms during each
request, and reports the request time scaled to the reference speed at
which ``calibrate()`` takes REFERENCE_S (about its median on a shared
2-vCPU x86-64 VM with Python 3.11).  Times are thus "seconds at reference
speed".  This cut the seed-to-seed spread of tower throughput from ~20%
to ~2%.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.002

_A = [(i * 7919) % 101 for i in range(40)]
_B = [(i * 104729) % 101 for i in range(40)]
_WORDS = {i: str(i) for i in range(200)}


class _Mod:
    p = 101

    def mul(self, a, b):
        return a * b % self.p

    def add(self, a, b):
        return (a + b) % self.p


class _Elem:
    __slots__ = ("ctx", "v")

    def __init__(self, ctx, v):
        self.ctx = ctx
        self.v = v

    def __mul__(self, o):
        return _Elem(self.ctx, self.ctx.mul(self.v, o.v))

    def __add__(self, o):
        return _Elem(self.ctx, self.ctx.add(self.v, o.v))


_CTX = _Mod()
_EA = [_Elem(_CTX, x) for x in _A[:20]]
_EB = [_Elem(_CTX, x) for x in _B[:20]]


def _ints():
    out = [0] * 79
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] = (out[i + j] + x * y) % 101
    return out


def _objects():
    out = [_Elem(_CTX, 0)] * 39
    for i, x in enumerate(_EA):
        for j, y in enumerate(_EB):
            out[i + j] = out[i + j] + x * y
    return out


def _text():
    parts = []
    for i in range(300):
        t = tuple((i + k) % 7 for k in range(4))
        parts.append(_WORDS[i % 200] + str(t))
    return "".join(sorted(parts))


def calibrate() -> float:
    """Seconds the fixed calibration mix takes right now."""
    t0 = time.perf_counter()
    _ints()
    _ints()
    _objects()
    _text()
    return time.perf_counter() - t0


class Probe:
    """Samples the machine speed while a request runs.

    A SIGALRM timer runs ``calibrate()`` every INTERVAL_S inside the
    request, so the speed of a multi-second request is measured all along,
    not only at its ends; the time spent in the samples is subtracted from
    the request time.  With ``sampling`` off (traced runs, where the samples
    would land in the self time of whatever span is open) only the ends are
    measured.
    """

    INTERVAL_S = 0.03

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [calibrate(), calibrate()], 0.0
        if self.sampling:
            self._old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self.t0
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.samples += [calibrate(), calibrate()]
        self.raw_s -= self.spent
        return False

    @property
    def reference_s(self) -> float:
        """The request time scaled to reference speed."""
        return self.raw_s * REFERENCE_S * len(self.samples) / sum(self.samples)
