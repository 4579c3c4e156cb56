"""Speed calibration: a fixed reference kernel timed around every command.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over minutes, which would swamp any regression bound.
The reference kernel is timed ``SAMPLES`` times just before and just after
each command, and a ``Probe`` times it once more every ``PROBE_INTERVAL_S``
during the command, at a call of a function the program makes often
(``kgblowup.cli.certify``, once per sweep point).  The median of those
samples measures the speed the command ran at, and its wall time, less
the probe's own time, is reported in *reference seconds*:

    (wall_s - probe_s) * REFERENCE_S / median(samples)

that is, as if the kernel had taken ``REFERENCE_S``.  The kernel lives
here, not in the program, so a change to kgblowup cannot change it.

Of the candidates tried (a pure-Python loop, scalar math through function
calls, NumPy calls on 2-element arrays, and this one), NumPy expressions
on PDE-sized arrays tracked the drift best on all three workloads.
Samples taken only around a command miss bursts during a long one: on
20 s certificate sweeps the run-to-run range was 40% raw, 25% with
samples around the command and 9% with the probe's samples added.  Over
ten seeds per workload on a 2-vCPU Intel Xeon virtual machine (Python
3.11.7, NumPy 2.4.6) the interquartile spread of the median command time
was 9-14% raw and 4.5-5% in reference seconds, though one set of
``sweep_ode`` runs during heavier contention still spread 13.5%.
``REFERENCE_S`` is the kernel's median time on that machine when it was
quiet; it only fixes the scale of the reported numbers.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

SAMPLES = 8  # per batch; one batch before and one after each command
PROBE_INTERVAL_S = 0.1
REFERENCE_S = 0.0024

_rng = np.random.default_rng(0)
_Y = _rng.standard_normal(15_256)
_K = [_rng.standard_normal(15_256) for _ in range(5)]


def kernel() -> None:
    """NumPy expressions on 15k-element arrays, like a PDE Runge-Kutta
    stage, its semilinear term and its error norm."""
    for _ in range(10):
        yi = _Y + 1e-3 * (0.1 * _K[0] + 0.2 * _K[1] + 0.3 * _K[2] + 0.1 * _K[3] + 0.2 * _K[4])
        m = np.hypot(yi[:7_000], yi[7_000:14_000])
        m = m * np.sqrt(m)
        float(np.mean((yi / (1e-10 + 1e-8 * np.maximum(np.abs(_Y), np.abs(yi)))) ** 2))


def batch() -> List[float]:
    out = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def reference_scale(samples: Sequence[float]) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REFERENCE_S / statistics.median(samples)


class Probe:
    """Samples the kernel during a command, at the first call of the
    wrapped function after each ``PROBE_INTERVAL_S``; ``spent`` is the
    time that took, which the caller subtracts from the command's time."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self._next = 0.0

    def wrap(self, fn):
        def probed(*args, **kwargs):
            t0 = time.perf_counter()
            if t0 >= self._next:
                kernel()
                t1 = time.perf_counter()
                self.samples.append(t1 - t0)
                self.spent += t1 - t0
                self._next = t1 + PROBE_INTERVAL_S
            return fn(*args, **kwargs)

        return probed
