"""The host's speed, sampled while a workload runs, to express its timings at
one reference speed.

The benchmark's host is shared: its speed drifts by up to ~40 % over minutes
and by ±15 % from one second to the next, and every timing of a run moves
with it.  A reference slice is a fixed ~12 ms piece of work that imports
nothing from gatelab, so its time depends on the host alone.  It mixes what
gatelab spends its time on: small numpy calls driven from Python (the
amplitude polish), elementwise work on a 217 x 217 pair grid (the crystal
solves), a batch of small Hermitian eigenproblems (the oracle) and a plain
Python loop (the interpreter work around all of them).

:class:`Sampler` runs a slice on a SIGALRM timer every ``PERIOD_S`` while the
timed code runs, plus a few just before and after it.  The code's own time
(wall time minus the slices run inside it) times ``REFERENCE_SLICE_S`` over
the mean slice time is its time at the reference speed: the time it would
take on a host whose slice takes exactly ``REFERENCE_SLICE_S``.  That
cancels the host's speed and keeps the program's: a change that halves the
program's work halves the figure.
"""

import signal
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20090625)
_S = (_RNG.standard_normal((127, 5))
      + 1j * _RNG.standard_normal((127, 5)))
_W = _RNG.uniform(0.0, 1.0, (4, 127))
_X, _Y = _RNG.standard_normal((2, 217))
_H = _RNG.standard_normal((6, 24, 24))
_H = _H + np.swapaxes(_H, -1, -2)

ITERATIONS = 40
PYTHON_STEPS = 40000
REFERENCE_SLICE_S = 0.012
PERIOD_S = 0.25
BRACKET_SLICES = 8


def slice_seconds():
    """Wall time of one reference slice."""
    start = time.perf_counter()
    vec = np.linspace(1.0, 2.0, 5)
    acc = 0.0
    for i in range(ITERATIONS):
        power = np.abs(_S @ vec) ** 2
        ex = np.exp(-1e-3 * (_W @ power))
        acc += 0.25 * (1.0 + ex[0] + ex[1] + 0.5 * (ex[2] + ex[3]))
        vec = np.roll(vec, 1)
        if i % 8 == 0:
            r = np.hypot(_X[:, None] - _X[None, :],
                         _Y[:, None] - _Y[None, :]) + np.eye(_X.size)
            acc += float((1.0 / r).sum()) * 1e-9
        if i % 24 == 0:
            acc += float(np.linalg.eigvalsh(_H).sum()) * 1e-12
    # plain interpreter work, as in the golden-section searches
    count = 0
    for i in range(PYTHON_STEPS):
        count += i * i % 7
    acc += count * 1e-12
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference slice produced %r" % acc)
    return elapsed


def reference_seconds(seconds, slices):
    """``seconds`` of the host's time at the reference speed, given the
    slice times measured around them."""
    return seconds * REFERENCE_SLICE_S / statistics.fmean(slices)


class Sampler:
    """Times the code in its ``with`` block and samples the host's speed.

    After the block, ``wall_s`` is its wall time without the slices run
    inside it and ``slices`` every slice time taken; :meth:`seconds` gives
    ``wall_s`` at the reference speed.
    """

    def __init__(self):
        self.slices = []
        self.wall_s = None
        self._inside = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        elapsed = slice_seconds()
        self._inside += elapsed
        self.slices.append(elapsed)

    def __enter__(self):
        self.slices += [slice_seconds() for _ in range(BRACKET_SLICES // 2)]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self._start - self._inside
        signal.signal(signal.SIGALRM, self._previous)
        self.slices += [slice_seconds() for _ in range(BRACKET_SLICES // 2)]
        return False

    def seconds(self):
        return reference_seconds(self.wall_s, self.slices)
