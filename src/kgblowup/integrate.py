"""Embedded Dormand-Prince 5(4) stepper with blow-up aware termination.

One controller drives both the scalar comparison ODE and the method-of-lines
PDE system: step-size control, the termination rules, the counters,
``on_step`` and the first-same-as-last hand-over exist once, in
``dopri_integrate``.  Blow-up is declared only when the solution magnitude
exceeds a threshold *and* the accepted step size has collapsed, which
separates a genuine finite-time singularity from ordinary stiffness.

A trial step (six stage states, the 5th-order solution, the error vector
and its RMS norm) has two arithmetics, picked by the type of ``y0``:

* a tuple runs on Python floats, and ``rhs`` gets and returns tuples.  A
  2-element state costs more in NumPy call overhead than in arithmetic.
* an ndarray runs on NumPy, and the stage sums write into buffers that are
  allocated once per integration.

Both add the stage terms in one order, ``((0 + a0 k0) + a1 k1) + ...``,
then multiply by ``h`` and add ``y``; the leading 0 turns a ``-0.0`` first
term into ``+0.0``.  The norm is ``sqrt(mean(q^2))`` with the mean summed in
index order, as NumPy sums fewer than 8 terms.  So for states of up to 7
components the two arithmetics give the same bytes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["TerminationReason", "RkResult", "dopri_integrate"]

# Dormand-Prince 5(4) tableau; the last row of _A holds the 5th-order
# weights, so stage 6 is the new solution and its slope is the next k0
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

State = Union[Tuple[float, ...], np.ndarray]


class TerminationReason(enum.Enum):
    REACHED_HORIZON = "ReachedHorizon"
    BLOWUP_THRESHOLD = "BlowupThreshold"
    STEP_UNDERFLOW = "StepUnderflow"
    MAX_STEPS = "MaxSteps"


@dataclass
class RkResult:
    status: TerminationReason
    t: float
    y: np.ndarray
    blowup_time: Optional[float]
    n_steps: int
    n_rejected: int
    last_h: float


def _initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, t_span):
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_span)


def _rms(q: np.ndarray, scale: np.ndarray) -> float:
    """sqrt(mean((q / scale)^2)), overwriting ``q``."""
    with np.errstate(invalid="ignore", over="ignore"):
        np.divide(q, scale, out=q)
        np.multiply(q, q, out=q)
        return math.sqrt(float(np.mean(q)))


def _float_trial(rhs, rel_tol: float, abs_tol: float):
    """Trial step on tuples of Python floats."""

    def trial(t: float, h: float, y: tuple, k0: Sequence[float]):
        k = [k0]
        for i in range(1, 7):
            row = _A[i]
            stage = []
            for yc, kc in zip(y, zip(*k)):
                s = 0.0
                for a, v in zip(row, kc):
                    s += a * v
                stage.append(yc + h * s)
            stage = tuple(stage)
            k.append(rhs(t + _C[i] * h, stage))
        errs = []
        scales = []
        for yc, nc, kc in zip(y, stage, zip(*k)):
            s = 0.0
            for a, v in zip(_ERR, kc):
                s += a * v
            errs.append(h * s)
            # max() drops a NaN that np.maximum keeps, but a NaN in y_new comes
            # with a NaN or inf error term, so err is inf either way
            scales.append(abs_tol + rel_tol * max(abs(yc), abs(nc)))
        try:
            sq = 0.0
            for e, sc in zip(errs, scales):
                q = e / sc
                sq += q * q
            err = math.sqrt(sq / len(errs))
        except ZeroDivisionError:  # IEEE inf/NaN, as NumPy gives
            err = _rms(np.array(errs), np.array(scales))
        return stage, k[6], err

    return trial


def _array_trial(rhs, y: np.ndarray, rel_tol: float, abs_tol: float):
    """Trial step on float ndarrays, with the stage sums in reused buffers.

    Stages 1-5 each get their own buffer, so an ``rhs`` that returns (a
    view of) its argument stays correct; stage 6, the new solution, is a
    fresh array because it becomes ``y`` and is handed to ``on_step``.
    """
    acc = np.empty_like(y)
    term = np.empty_like(y)
    stages = [np.empty_like(y) for _ in range(5)]

    def combine(weights, k, out):
        np.multiply(weights[0], k[0], out=out)
        np.add(0.0, out, out=out)
        for w, kj in zip(weights[1:], k[1:]):
            np.multiply(w, kj, out=term)
            np.add(out, term, out=out)
        return out

    def trial(t: float, h: float, y: np.ndarray, k0: np.ndarray):
        k = [k0]
        for i in range(1, 7):
            s = np.multiply(h, combine(_A[i], k, acc), out=acc)
            stage = np.add(y, s, out=stages[i - 1] if i < 6 else None)
            k.append(rhs(t + _C[i] * h, stage))
        err_vec = np.multiply(h, combine(_ERR, k, acc), out=acc)
        scale = np.maximum(np.abs(y, out=term), np.abs(stage, out=stages[0]), out=term)
        np.multiply(rel_tol, scale, out=scale)
        np.add(abs_tol, scale, out=scale)
        return stage, k[6], _rms(err_vec, scale)

    return trial


def _result(status, t, y, blowup_time, n_steps, n_rejected, h) -> RkResult:
    return RkResult(
        status, t, np.asarray(y, dtype=float), blowup_time, n_steps, n_rejected, h
    )


def dopri_integrate(
    rhs: Callable[[float, State], State],
    t0: float,
    y0: State,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    *,
    magnitude: Optional[Callable[[State], float]] = None,
    blow_magnitude: float = math.inf,
    blow_step_fraction: float = 1e-14,
    min_step_fraction: float = 1e-16,
    max_steps: int = 2_000_000,
    max_step: float = math.inf,
    on_step: Optional[Callable[[float, State, float], None]] = None,
) -> RkResult:
    """Integrate y' = rhs(t, y) from t0 to t_end.

    ``y0`` is a tuple of floats (``rhs``, ``on_step`` and ``magnitude`` then
    see tuples) or an array.  ``on_step(t, y, h)`` is invoked after every
    accepted step.  Blow-up is declared when ``magnitude(y) >
    blow_magnitude`` and the step size has fallen below
    ``blow_step_fraction * max(1, t)``.  ``RkResult.y`` is an array either way.
    """
    t = float(t0)
    if isinstance(y0, tuple):
        y = tuple(float(v) for v in y0)
        k0 = rhs(t, y)
        h = _initial_step(
            lambda s, v: np.array(rhs(s, tuple(v.tolist())), dtype=float),
            t, np.array(y), np.array(k0, dtype=float), rel_tol, abs_tol, t_end - t0,
        )
        trial = _float_trial(rhs, rel_tol, abs_tol)
    else:
        y = np.array(y0, dtype=float, copy=True)
        k0 = rhs(t, y)
        h = _initial_step(rhs, t, y, k0, rel_tol, abs_tol, t_end - t0)
        trial = _array_trial(rhs, y, rel_tol, abs_tol)
    h = min(h, max_step)
    n_steps = n_rejected = 0

    while t < t_end:
        if n_steps >= max_steps:
            return _result(TerminationReason.MAX_STEPS, t, y, None, n_steps, n_rejected, h)
        h = min(h, t_end - t)
        if t + h == t:  # t_end within one ulp of t
            return _result(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)
        step_floor = min_step_fraction * max(1.0, abs(t))
        blow_floor = blow_step_fraction * max(1.0, abs(t))
        if not h >= step_floor:  # "not >=" so that a NaN step ends here too
            big = magnitude is not None and magnitude(y) > blow_magnitude
            reason = (
                TerminationReason.BLOWUP_THRESHOLD if big else TerminationReason.STEP_UNDERFLOW
            )
            return _result(reason, t, y, t if big else None, n_steps, n_rejected, h)

        y_new, k_new, err = trial(t, h, y, k0)
        if not math.isfinite(err):
            err = math.inf

        if err <= 1.0:
            n_steps += 1
            t = t + h
            y, k0 = y_new, k_new  # FSAL: the last stage's slope is rhs(t+h, y_new)
            if on_step is not None:
                on_step(t, y, h)
            if (
                magnitude is not None
                and h < blow_floor
                and magnitude(y) > blow_magnitude
            ):
                return _result(
                    TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected, h
                )
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = min(h * factor, max_step)
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            if not h >= step_floor:
                if magnitude is not None and magnitude(y) > blow_magnitude:
                    return _result(
                        TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected, h
                    )
                return _result(
                    TerminationReason.STEP_UNDERFLOW, t, y, None, n_steps, n_rejected, h
                )

    return _result(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)
