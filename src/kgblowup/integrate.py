"""Embedded Dormand-Prince 5(4) stepper with blow-up aware termination.

One core drives both the scalar comparison ODE and the method-of-lines PDE
system.  Blow-up is declared only when the solution magnitude exceeds a
threshold *and* the accepted step size has collapsed, which separates a
genuine finite-time singularity from ordinary stiffness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["TerminationReason", "RkResult", "dopri_integrate"]

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


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


def dopri_integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    *,
    magnitude: Optional[Callable[[np.ndarray], float]] = None,
    blow_magnitude: float = math.inf,
    blow_step_fraction: float = 1e-14,
    min_step_fraction: float = 1e-16,
    max_steps: int = 2_000_000,
    max_step: float = math.inf,
    on_step: Optional[Callable[[float, np.ndarray, float], None]] = None,
) -> RkResult:
    """Integrate y' = rhs(t, y) from t0 to t_end.

    ``on_step(t, y, h)`` is invoked after every accepted step.  Blow-up is
    declared when ``magnitude(y) > blow_magnitude`` and the step size has
    fallen below ``blow_step_fraction * max(1, t)``.
    """
    y = np.array(y0, dtype=float, copy=True)
    t = float(t0)
    f0 = rhs(t, y)
    h = _initial_step(rhs, t, y, f0, rel_tol, abs_tol, t_end - t0)
    h = min(h, max_step)
    k = [f0] + [np.empty_like(y) for _ in range(6)]
    n_steps = n_rejected = 0

    while t < t_end:
        if n_steps >= max_steps:
            return RkResult(TerminationReason.MAX_STEPS, t, y, None, n_steps, n_rejected, h)
        h = min(h, t_end - t)
        if t + h == t:  # t_end within one ulp of t
            return RkResult(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)
        step_floor = min_step_fraction * max(1.0, abs(t))
        blow_floor = blow_step_fraction * max(1.0, abs(t))
        if h < step_floor:
            big = magnitude is not None and magnitude(y) > blow_magnitude
            reason = (
                TerminationReason.BLOWUP_THRESHOLD if big else TerminationReason.STEP_UNDERFLOW
            )
            return RkResult(reason, t, y, t if big else None, n_steps, n_rejected, h)

        for i in range(1, 7):
            yi = y + h * sum(_A[i][j] * k[j] for j in range(i))
            k[i] = rhs(t + _C[i] * h, yi)
        y_new = y + h * sum(_B5[j] * k[j] for j in range(6))
        # FSAL: stage 7 equals rhs at (t+h, y_new); reuse k[6] computed above
        err_vec = h * sum(_ERR[j] * k[j] for j in range(7))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(invalid="ignore", over="ignore"):
            err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        if not math.isfinite(err):
            err = math.inf

        if err <= 1.0:
            n_steps += 1
            t = t + h
            y = y_new
            k[0] = k[6].copy()
            if on_step is not None:
                on_step(t, y, h)
            if (
                magnitude is not None
                and h < blow_floor
                and magnitude(y) > blow_magnitude
            ):
                return RkResult(
                    TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected, h
                )
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = min(h * factor, max_step)
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < step_floor:
                if magnitude is not None and magnitude(y) > blow_magnitude:
                    return RkResult(
                        TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected, h
                    )
                return RkResult(
                    TerminationReason.STEP_UNDERFLOW, t, y, None, n_steps, n_rejected, h
                )

    return RkResult(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)
