"""Host-drift correction for wall-clock timings.

On a shared 2-core VM a fixed numpy block can run anywhere from 1x to 5x
its fastest time within one minute while steal time stays flat, so a raw
wall time cannot repeat within a tenth from run to run. A fixed yardstick,
a few milliseconds of small-matrix numpy and Python work that does not
depend on the package, is therefore sampled all through a run by an
interval timer (SIGALRM) every PERIOD_S seconds. The samples fall between
timed operations and also inside long ones, such as the model.full_loss
block of `run_gradcheck()`, without touching the code under test.

A timed interval is cut at the samples that fall inside it. Each piece,
with the sampling time removed, is scaled by the yardstick's speed there
(linear between the neighbouring samples) relative to a fixed reference:

    corrected = sum(piece * reference_ms / yardstick_ms(piece))

so timings are reported in reference-yardstick units, and the raw value
(wall time minus sampling time) is kept beside them.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.25  # interval-timer sampling period
REPS = 3  # yardstick runs per sample; the sample is their median

_RNG = np.random.default_rng(20260217)
_W = _RNG.standard_normal((64, 32, 3))
_M_SMALL = _RNG.standard_normal((4, 3, 3))
_M_LARGE = _RNG.standard_normal((12, 3, 3))
_A = _RNG.standard_normal((64, 64)) / 8.0
_X = _RNG.standard_normal((24, 64))
_INNER = 3


def yardstick_once() -> float:
    """A fixed block shaped like the package's work: Python-level bookkeeping
    around small projector-like matmuls and softmaxes, then a kernel-like
    einsum with per-slice normalisation over a few hundred kilobytes."""
    acc = 0.0
    table = {}
    for i in range(_INNER):
        o = np.einsum("kpc,bcd->bkpd", _W, _M_SMALL)
        h = np.tanh(_X @ _A)
        s = h @ h.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        table[i] = float(e[0, 0]) + float(o[0, 0, 0, 0])
        acc += table[i]
    o = np.einsum("kpc,bcd->bkpd", _W, _M_LARGE)
    c = o - o.mean(axis=2, keepdims=True)
    acc += float(np.sqrt((c * c).mean(axis=(2, 3))).sum())
    return acc


class DriftClock:
    """Yardstick samples over a run, and the correction derived from them.

    Use as a context manager around everything that is timed; corrections
    are computed after the last sample, when both neighbours of every
    interval are known.
    """

    def __init__(self, reference_ms: float):
        self.reference_ms = reference_ms
        self.starts: list[float] = []  # sample i occupied [starts[i], ends[i]]
        self.ends: list[float] = []
        self.values: list[float] = []  # median yardstick ms of sample i
        self._busy = False
        self._previous = None
        self._mids: list[float] = []

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            times = []
            for _ in range(REPS):
                s = time.perf_counter()
                yardstick_once()
                times.append(time.perf_counter() - s)
            self.values.append(1e3 * sorted(times)[REPS // 2])
            self.starts.append(t0)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()
        self._mids = [0.5 * (a + b) for a, b in zip(self.starts, self.ends)]
        return False

    def _speed_at(self, t: float) -> float:
        """Yardstick ms at time t, linear between neighbouring samples."""
        mids = self._mids
        i = bisect.bisect_left(mids, t)
        if i == 0:
            return self.values[0]
        if i == len(mids):
            return self.values[-1]
        w = (t - mids[i - 1]) / (mids[i] - mids[i - 1])
        return (1.0 - w) * self.values[i - 1] + w * self.values[i]

    def correct(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw_s, corrected_s) of [t0, t1] with sampling time removed;
        valid once the clock has been exited."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        cuts = [t0]
        for a, b in zip(self.starts[lo:hi], self.ends[lo:hi]):
            cuts += [max(a, t0), min(b, t1)]
        cuts.append(t1)
        raw = corrected = 0.0
        for a, b in zip(cuts[0::2], cuts[1::2]):
            if b > a:
                raw += b - a
                corrected += (b - a) * self.reference_ms / self._speed_at(0.5 * (a + b))
        return raw, corrected

    def median_ms(self) -> float:
        return float(np.median(self.values)) if self.values else float("nan")
