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
  The trial is written out one tableau row per line, with the coefficients
  bound as locals: each stage is one comprehension over the components.
* an ndarray runs on NumPy, and the stage sums write into buffers that are
  allocated once per integration.

Both add the stage terms in one order, ``((0 + a0 k0) + a1 k1) + ...``
with the zero coefficients included, then multiply by ``h`` and add ``y``;
the leading 0 turns a ``-0.0`` first term into ``+0.0``.  The norm is
``sqrt(mean(q^2))`` with the mean summed in index order, as NumPy sums
fewer than 8 terms.  So for states of up to 7
components the two arithmetics give the same bytes.

An ndarray state may come with a window: ``active(y)`` returns a basic
index (slices only) into the state, and the trial computes its stage sums,
new solution and error terms on ``buf[index]`` alone.  The contract:

* outside the index, ``y`` and every slope the full computation of the
  trial would make are zeros of either sign;
* the index never shrinks from one trial to the next;
* ``abs_tol > 0``.

Each stage sum starts from +0.0, so outside the index the full
computation's stage states, new solution and error terms are all +0.0
(``-0.0 + h (+0.0)`` is +0.0 too).  Every buffer is zero-filled once and
written only at the index, so it holds those same +0.0 there, and ``rhs``
sees the states it would see on the full computation.  The norm still
takes ``np.mean`` over the whole buffer, whose tail is +0.0 where
``0 / abs_tol`` was: the same terms in the same pairwise order, so the
same bits.  The default index, ``...``, is the whole state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple, Union

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
    """Where and why the integration stopped, and what it took.

    ``n_rhs`` counts the calls of ``rhs``: the start slope, the initial-step
    probe and six per trial step.  ``min_step`` is the smallest accepted
    step, None when no step was accepted.
    """

    status: TerminationReason
    t: float
    y: np.ndarray
    blowup_time: Optional[float]
    n_steps: int
    n_rejected: int
    n_rhs: int
    min_step: Optional[float]
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


def _rms(q: np.ndarray, scale: np.ndarray, index=...) -> float:
    """sqrt(mean((q / scale)^2)), overwriting ``q[index]``; ``scale`` has
    the shape of ``q[index]``, and the mean runs over all of ``q``."""
    with np.errstate(invalid="ignore", over="ignore"):
        v = q[index]
        np.divide(v, scale, out=v)
        np.multiply(v, v, out=v)
        return math.sqrt(float(np.mean(q)))


def _whole(y: np.ndarray):
    """The default window: every component of the state."""
    return ...


def _float_trial(rhs, rel_tol: float, abs_tol: float):
    """Trial step on tuples of Python floats, one tableau row per line."""
    _, c1, c2, c3, c4, c5, c6 = _C
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _A[1:5]
    a50, a51, a52, a53, a54 = _A[5]
    a60, a61, a62, a63, a64, a65 = _A[6]
    e0, e1, e2, e3, e4, e5, e6 = _ERR

    def trial(t: float, h: float, y: tuple, k0: Sequence[float]):
        k1 = rhs(t + c1 * h, tuple([
            yc + h * (0.0 + a10 * p0) for yc, p0 in zip(y, k0)
        ]))
        k2 = rhs(t + c2 * h, tuple([
            yc + h * ((0.0 + a20 * p0) + a21 * p1) for yc, p0, p1 in zip(y, k0, k1)
        ]))
        k3 = rhs(t + c3 * h, tuple([
            yc + h * (((0.0 + a30 * p0) + a31 * p1) + a32 * p2)
            for yc, p0, p1, p2 in zip(y, k0, k1, k2)
        ]))
        k4 = rhs(t + c4 * h, tuple([
            yc + h * ((((0.0 + a40 * p0) + a41 * p1) + a42 * p2) + a43 * p3)
            for yc, p0, p1, p2, p3 in zip(y, k0, k1, k2, k3)
        ]))
        k5 = rhs(t + c5 * h, tuple([
            yc + h * (((((0.0 + a50 * p0) + a51 * p1) + a52 * p2) + a53 * p3) + a54 * p4)
            for yc, p0, p1, p2, p3, p4 in zip(y, k0, k1, k2, k3, k4)
        ]))
        y_new = tuple([
            yc + h * ((((((0.0 + a60 * p0) + a61 * p1) + a62 * p2) + a63 * p3)
                       + a64 * p4) + a65 * p5)
            for yc, p0, p1, p2, p3, p4, p5 in zip(y, k0, k1, k2, k3, k4, k5)
        ])
        k6 = rhs(t + c6 * h, y_new)
        errs = [
            h * (((((((0.0 + e0 * p0) + e1 * p1) + e2 * p2) + e3 * p3) + e4 * p4)
                  + e5 * p5) + e6 * p6)
            for p0, p1, p2, p3, p4, p5, p6 in zip(k0, k1, k2, k3, k4, k5, k6)
        ]
        # max() drops a NaN that np.maximum keeps, but a NaN in y_new comes
        # with a NaN or inf error term, so err is inf either way
        scales = [abs_tol + rel_tol * max(abs(yc), abs(nc)) for yc, nc in zip(y, y_new)]
        try:
            sq = 0.0
            for e, sc in zip(errs, scales):
                q = e / sc
                sq += q * q
            err = math.sqrt(sq / len(errs))
        except ZeroDivisionError:  # IEEE inf/NaN, as NumPy gives
            err = _rms(np.array(errs), np.array(scales))
        return y_new, k6, err

    return trial


def _array_trial(rhs, y: np.ndarray, rel_tol: float, abs_tol: float, active=_whole):
    """Trial step on float ndarrays, with the stage sums in reused buffers.

    Stages 1-5 each get their own buffer, so an ``rhs`` that returns (a
    view of) its argument stays correct; stage 6, the new solution, is a
    fresh array because it becomes ``y`` and is handed to ``on_step``.
    Each buffer starts at +0.0 and is written only at ``active(y)``; see
    the module docstring for the window contract.
    """
    acc = np.zeros_like(y)
    term = np.zeros_like(y)
    stages = [np.zeros_like(y) for _ in range(5)]

    def combine(weights, k, out, tmp):
        np.multiply(weights[0], k[0], out=out)
        np.add(0.0, out, out=out)
        for w, kj in zip(weights[1:], k[1:]):
            np.multiply(w, kj, out=tmp)
            np.add(out, tmp, out=out)
        return out

    def trial(t: float, h: float, y: np.ndarray, k0: np.ndarray):
        ix = active(y)
        y_ix, acc_ix, term_ix = y[ix], acc[ix], term[ix]
        k = [k0[ix]]
        for i in range(1, 7):
            s = np.multiply(h, combine(_A[i], k, acc_ix, term_ix), out=acc_ix)
            stage = stages[i - 1] if i < 6 else np.zeros_like(y)
            np.add(y_ix, s, out=stage[ix])
            k_last = rhs(t + _C[i] * h, stage)
            k.append(k_last[ix])
        err_ix = np.multiply(h, combine(_ERR, k, acc_ix, term_ix), out=acc_ix)
        scale = np.maximum(
            np.abs(y_ix, out=term_ix), np.abs(stage[ix], out=stages[0][ix]), out=term_ix
        )
        np.multiply(rel_tol, scale, out=scale)
        np.add(abs_tol, scale, out=scale)
        return stage, k_last, _rms(acc, scale, ix)

    return trial


def _result(status, t, y, blowup_time, n_steps, n_rejected, min_step, h) -> RkResult:
    n_rhs = 2 + 6 * (n_steps + n_rejected)
    min_step = None if math.isinf(min_step) else min_step
    return RkResult(
        status, t, np.asarray(y, dtype=float), blowup_time, n_steps, n_rejected,
        n_rhs, min_step, h,
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
    active: Callable[[np.ndarray], Any] = _whole,
) -> RkResult:
    """Integrate y' = rhs(t, y) from t0 to t_end.

    ``y0`` is a tuple of floats (``rhs``, ``on_step`` and ``magnitude`` then
    see tuples) or an array.  ``on_step(t, y, h)`` is invoked after every
    accepted step.  Blow-up is declared when ``magnitude(y) >
    blow_magnitude`` and the step size has fallen below
    ``blow_step_fraction * max(1, t)``.  ``RkResult.y`` is an array either way.

    ``active(y)``, for an array state, gives the index each trial computes
    on; the module docstring states what the caller promises for it.
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
        trial = _array_trial(rhs, y, rel_tol, abs_tol, active)
    h = min(h, max_step)
    n_steps = n_rejected = 0
    min_step = math.inf

    while t < t_end:
        if n_steps >= max_steps:
            return _result(
                TerminationReason.MAX_STEPS, t, y, None, n_steps, n_rejected, min_step, h
            )
        h = min(h, t_end - t)
        if t + h == t:  # t_end within one ulp of t
            return _result(
                TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, min_step, h
            )
        step_floor = min_step_fraction * max(1.0, abs(t))
        blow_floor = blow_step_fraction * max(1.0, abs(t))
        if not h >= step_floor:  # "not >=" so that a NaN step ends here too
            big = magnitude is not None and magnitude(y) > blow_magnitude
            reason = (
                TerminationReason.BLOWUP_THRESHOLD if big else TerminationReason.STEP_UNDERFLOW
            )
            return _result(
                reason, t, y, t if big else None, n_steps, n_rejected, min_step, h
            )

        y_new, k_new, err = trial(t, h, y, k0)
        if not math.isfinite(err):
            err = math.inf

        if err <= 1.0:
            n_steps += 1
            if h < min_step:
                min_step = h
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
                    TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected,
                    min_step, h,
                )
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = min(h * factor, max_step)
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            if not h >= step_floor:
                if magnitude is not None and magnitude(y) > blow_magnitude:
                    return _result(
                        TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected,
                        min_step, h,
                    )
                return _result(
                    TerminationReason.STEP_UNDERFLOW, t, y, None, n_steps, n_rejected,
                    min_step, h,
                )

    return _result(
        TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, min_step, h
    )
