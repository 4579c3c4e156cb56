"""Embedded Dormand-Prince 5(4) stepper with a caller-given stop rule.

One controller drives both the scalar comparison ODE and the method-of-lines
PDE system: step-size control, the termination rules, the counters,
``on_step`` and the first-same-as-last hand-over exist once, in
``dopri_integrate``.  A run ends in BlowupThreshold by one rule: the
caller's ``on_step``, which owns the blow-up test (see ``ode.integrate``
and ``pde.evolve``), returns true.  It ends in ReachedHorizon only at
``t_end`` exactly, and in StepUnderflow at a step below the floor ``1e-16
max(1, |t|)``, at one that leaves ``t + h == t`` (where half an ulp of t
exceeds the floor, t in [1, 1.11) for one, a step can do so above it), or
at an infinite one, grown past the float range toward ``t_end = inf``.
The landing step, clipped by ``_last_step`` so that ``t + h`` is ``t_end``,
is exempt: below ``t = 0.5`` one ulp of ``t`` is smaller than the floor
(Hairer, Norsett and Wanner, *Solving ODEs I*, II.4).

A trial step (six stage states, the 5th-order solution, the error vector
and its RMS norm) and the first-step probe (Hairer, Norsett and Wanner,
*Solving ODEs I*, II.4) have two arithmetics, picked by the type of ``y0``:

* a tuple runs on Python floats, and ``rhs`` gets and returns tuples.  The
  trial is straight-line code, free of NumPy's call overhead and of loops,
  generated from ``_A``, ``_C`` and ``_ERR`` for the state's size: one
  name per stage and component and the coefficients as literals, compiled
  once per size and cached.  The probe, ``_float_initial_step``, is a loop
  over the components.
* an ndarray runs on NumPy, and ``rhs(t, y, out)`` writes the slope into
  ``out`` and returns it.  The seven slopes live in one ``(7, *y.shape)``
  stack: stage ``i`` hands ``rhs`` row ``i`` as ``out`` (a returned array
  that is not ``out`` is copied there), and an accepted trial copies row 6
  into row 0, first-same-as-last.  The stack and the stage and scratch
  buffers are made once, so a step allocates only the new solution.

Both add the stage terms in one order, ``((0 + a0 k0) + a1 k1) + ...``
with the zero coefficients included, then multiply by ``h`` and add ``y``;
the leading 0 turns a ``-0.0`` first term into ``+0.0``.  On ndarrays the
sum is one ``np.einsum`` over the stack's first axis, which zero-fills its
output and, for outputs of two or more elements, adds the terms in index
order (``tests/test_integrate.py`` pins this bit for bit).  A one-element
output goes to einsum's reduction kernel, which may reorder the terms, so
a one-component ndarray state can step differently from the tuple; no
command integrates one (the comparison ODE is a tuple).  The norm is
``sqrt(mean(q^2))`` with the mean summed in index order, as NumPy sums
fewer than 8 terms.  So for states of 2 to 7 components the two
arithmetics give the same bytes, up to the sign of a NaN, which IEEE 754
leaves open (and a non-finite norm is a rejection either way).

Step control is shared.  A rejection scales ``h`` by ``max(0.2, 0.9
err^-1/5)``.  An accepted trial that follows an accepted trial with error
``err_old > 0`` and step ``h_old`` takes Gustafsson's predictive factor
``0.9 (h / h_old) (err_old / err^2)^(1/5)``; other accepted trials take
``0.9 err^-1/5`` (5 at ``err == 0``).  The factor is clamped to [0.2, 5],
and to at most 1 right after a rejection.  The prediction follows an error
that grows along the solution, as towards a blow-up, where the plain rule
has every other trial rejected.  The clamps and the floor's ``max(1, |t|)``
are conditionals with the builtins' NaN behaviour: a NaN factor gives 0.2.

An ndarray state may come with a window: ``active(y)`` returns a column
count ``w`` on the state's last axis, and the trial computes its stage
sums, new solution and error terms on ``[..., :w]`` alone, contracts the
stack's rows there alone, and copies returned slopes there alone.  The
contract, besides the ``abs_tol > 0`` that ``dopri_integrate`` asks of
every state:

* past column ``w``, every value of ``y`` and of every slope the full
  computation of the trial would make is a zero of either sign;
* ``w`` never shrinks from one trial to the next.

Each stage sum starts from +0.0, so past column ``w`` the full
computation's stage states, new solution and error terms are all +0.0
(``-0.0 + h (+0.0)`` is +0.0 too).  The buffers and the stack start at
+0.0 and are written only in the window, so they hold those same +0.0
past it, and ``rhs`` sees the states it would see on the full
computation.  The norm still sums the whole buffer, whose tail is +0.0
where ``0 / abs_tol`` was: the same terms in the same pairwise order, so
the same bits.  It is ``np.mean``'s arithmetic, a sum and then one true
division, without its call overhead.  The default, ``active=None``, is
the whole state.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

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
    probe (none when the start slope's norm overflows or the span is 0)
    and six per trial step.  ``min_step`` is the smallest accepted step,
    None when no step was accepted.
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


def _first_step(d0, d1, probe, t0, t_span):
    """The first step from the norms ``d0`` of y0, ``d1`` of f0 and ``probe(h0)``
    of (f(t0 + h0, y0 + h0 f0) - f0) / h0, and the number of probes made."""
    # the probe stays within the span, where rhs is defined
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_span)
    if h0 == 0.0:  # d1 overflowed to inf, or no span: no probe, start at the step floor
        return 1e-16 * max(1.0, abs(t0)), 0
    d2 = probe(h0)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_span), 1


def _initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, t_span):
    """The first step of an ndarray state and the probe calls it made."""
    scale = abs_tol + rel_tol * np.abs(y0)
    rms = lambda q: math.sqrt(float(np.mean((q / scale) ** 2)))  # noqa: E731
    d0 = rms(y0)
    with np.errstate(over="ignore"):
        d1 = rms(f0)
    return _first_step(d0, d1, lambda h0: rms(rhs(t0 + h0, y0 + h0 * f0) - f0) / h0, t0, t_span)


def _float_initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, t_span):
    """``_initial_step`` on floats: each mean a sum in index order from 0.0
    and one division, as NumPy sums fewer than 8 terms (and as the tuple
    trial sums its norm at every size)."""
    scale = [abs_tol + rel_tol * abs(v) for v in y0]

    def rms(q):
        sq = 0.0
        for v, s in zip(q, scale):
            sq += (v / s) * (v / s)
        return math.sqrt(sq / len(scale))

    def probe(h0):
        f1 = rhs(t0 + h0, tuple([v + h0 * f for v, f in zip(y0, f0)]))
        return rms([a - b for a, b in zip(f1, f0)]) / h0

    return _first_step(rms(y0), rms(f0), probe, t0, t_span)


def _last_step(t: float, t_end: float) -> float:
    """The step from ``t`` that ends at ``t_end``: the float nearest
    ``t_end - t`` for which ``t + h`` rounds to ``t_end``, or, where none
    does, the largest for which it rounds below.  ``t_end - t`` itself can
    put ``t + h``, the time of the last stages and of the accepted step,
    one float past ``t_end``, where ``rhs`` may be undefined."""
    h = t_end - t
    while t + h > t_end:
        h = math.nextafter(h, 0.0)
    while t + h < t_end and t + math.nextafter(h, math.inf) <= t_end:
        h = math.nextafter(h, math.inf)
    return h


def _trial_source(size: int) -> str:
    """Source of the tuple trial factory for states of ``size`` components.

    Each tableau row becomes one sum per component, ``((0.0 + a0 * k0_j) +
    a1 * k1_j) + ...`` with the zero weights kept, and each coefficient a
    ``repr`` literal, which reads back as the same float.
    """
    comps = range(size)

    def row(names):  # a tuple display, or the left side of an unpacking
        return "(" + ", ".join(names) + ",)"

    def weighted(weights, j):
        expr = "0.0"
        for i, w in enumerate(weights):
            expr = f"({expr} + {w!r} * k{i}_{j})"
        return expr

    body = [f"{row(f'y_{j}' for j in comps)} = y", f"{row(f'k0_{j}' for j in comps)} = k0"]
    for i in range(1, 7):  # stage 6 is the new solution
        body += [
            f"state = {row(f'y_{j} + h * {weighted(_A[i], j)}' for j in comps)}",
            f"k = rhs(t + {_C[i]!r} * h, state)",
            f"{row(f'k{i}_{j}' for j in comps)} = k",
        ]
    body.append(f"{row(f'n_{j}' for j in comps)} = state")
    body += [f"e_{j} = h * {weighted(_ERR, j)}" for j in comps]
    # max(a, b) written out: it drops a NaN b, as the array trial's np.fmax
    # does; a NaN a (in y) makes b (in y_new) NaN too, and both keep it
    body += [f"s_{j} = abs_tol + rel_tol * (b if (b := abs(n_{j})) > (a := abs(y_{j})) else a)"
             for j in comps]
    body.append("sq = 0.0")
    for j in comps:
        body += [f"q = e_{j} / s_{j}", "sq += q * q"]
    body += [f"err = sqrt(sq / {size})", "return state, k, err"]
    head = ["def factory(rhs, rel_tol, abs_tol):", "    def trial(t, h, y, k0):"]
    return "\n".join(head + ["        " + line for line in body] + ["    return trial\n"])


@functools.cache
def _float_trial(size: int):
    """The trial factory for tuple states of ``size`` components, compiled
    once per size; ``_float_trial(size)(rhs, rel_tol, abs_tol)`` is a trial."""
    namespace = {"sqrt": math.sqrt}
    exec(compile(_trial_source(size), f"<dopri trial, {size} components>", "exec"), namespace)
    return namespace["factory"]


def _stage_sum(row: np.ndarray, stack: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``((0 + row[0] stack[0]) + row[1] stack[1]) + ...`` into ``out``, as
    one contraction over the first axis of ``stack`` (see the module
    docstring for the order, and its one-element exception)."""
    return np.einsum("i,i...->...", row, stack, out=out)


def _array_trial(rhs, y: np.ndarray, rel_tol: float, abs_tol: float, active=None):
    """Trial step on float ndarrays; returns ``(trial, slopes)``, ``slopes``
    the rows of the slope stack, ``slopes[i]`` the ``out`` of stage ``i``.

    The trial reads ``k0`` from row 0, not from its argument.  One buffer
    serves stages 1-5; stage 6, the new solution, is a fresh array because
    it becomes ``y`` and is handed to ``on_step``.  Each trial takes its
    views of the stack and the buffers at the window ``[..., :w]`` anew.
    """
    stack = np.zeros((7,) + y.shape)
    slopes = list(stack)  # views made once, so ``k is slopes[i]`` can be tested
    acc, stage, scale = np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
    rows = [np.array(row) for row in _A[1:] + (_ERR,)]

    def trial(t: float, h: float, y: np.ndarray, k0: np.ndarray):
        w = None if active is None else active(y)
        y_w, acc_w, stage_w, scale_w = y[..., :w], acc[..., :w], stage[..., :w], scale[..., :w]
        # a trial that leaves the float range has a non-finite norm, which
        # is a rejection: its overflow, 0/0 and x/0 are no news
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            new, new_w = stage, stage_w
            for i in range(1, 7):
                if i == 6:
                    new = np.zeros_like(y)
                    new_w = new[..., :w]
                d = _stage_sum(rows[i - 1], stack[:i, ..., :w], acc_w)
                np.multiply(h, d, out=d)
                np.add(y_w, d, out=new_w)
                k = rhs(t + _C[i] * h, new, slopes[i])
                if k is not slopes[i]:
                    slopes[i][..., :w] = k[..., :w]
            q = _stage_sum(rows[6], stack[..., :w], acc_w)  # the error terms
            np.multiply(h, q, out=q)
            s = np.fmax(np.abs(y_w, out=scale_w), np.abs(new_w, out=stage_w), out=scale_w)
            np.multiply(rel_tol, s, out=s)
            np.add(abs_tol, s, out=s)
            np.divide(q, s, out=q)
            np.multiply(q, q, out=q)
            # np.mean's bits: the sum over the whole buffer, then a true division
            err = math.sqrt(float(np.add.reduce(acc, axis=None)) / acc.size)
        if err <= 1.0:  # dopri_integrate accepts the step: first-same-as-last
            slopes[0][..., :w] = slopes[6][..., :w]
        return new, slopes[6], err

    return trial, slopes


def dopri_integrate(
    rhs: Callable[..., State],
    t0: float,
    y0: State,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    *,
    max_steps: int = 2_000_000,
    on_step: Optional[Callable[[float, State, float], Optional[bool]]] = None,
    active: Optional[Callable[[np.ndarray], int]] = None,
) -> RkResult:
    """Integrate y' = rhs(t, y) from t0 to t_end.

    ``y0`` is a tuple of floats (``rhs`` and ``on_step`` then see tuples)
    or an array with an axis (``rhs(t, y, out)`` then fills ``out``), with
    at least one component.  ``rel_tol >= 0`` and ``abs_tol > 0`` (a ValueError
    otherwise), so that no error scale is zero.  ``on_step(t, y, h)`` is
    invoked after every accepted step; a true return ends the run in
    BlowupThreshold at ``t``.  A step below ``1e-16 * max(1, |t|)``, or
    one that leaves ``t`` unchanged, ends the run in StepUnderflow, unless
    it is the landing step; so does an infinite step, at the last accepted
    t.  ReachedHorizon ends exactly at ``t_end``, and ``rhs`` is never
    called past it.  ``RkResult.y`` is an array either way.

    ``active(y)``, for an array state, gives the number of columns each
    trial computes on; the module docstring states what the caller
    promises for it.
    """
    if np.ndim(y0) == 0 or np.size(y0) == 0:  # no axis (never a tuple), or no component
        raise ValueError("dopri_integrate needs a state with at least one component")
    if not (rel_tol >= 0.0 and abs_tol > 0.0):
        raise ValueError(f"dopri_integrate needs rel_tol >= 0 and abs_tol > 0, "
                         f"not {rel_tol!r} and {abs_tol!r}")
    t = float(t0)
    if isinstance(y0, tuple):
        y = tuple(float(v) for v in y0)
        k0 = rhs(t, y)
        h, probes = _float_initial_step(rhs, t, y, k0, rel_tol, abs_tol, _last_step(t, t_end))
        trial = _float_trial(len(y))(rhs, rel_tol, abs_tol)
    else:
        y = np.array(y0, dtype=float, copy=True)
        trial, slopes = _array_trial(rhs, y, rel_tol, abs_tol, active)
        slopes[0][...] = k0 = rhs(t, y, slopes[0])  # the probe below writes slopes[1]
        probe = lambda s, v: rhs(s, v, slopes[1])  # noqa: E731
        h, probes = _initial_step(probe, t, y, k0, rel_tol, abs_tol, _last_step(t, t_end))
    n_steps = n_rejected = 0
    min_step = math.inf
    t_scale = max(1.0, abs(t))  # the step floor is 1e-16 of it
    # the controller's memory: the last trial's h and err if it was
    # accepted with err > 0 (else err_old = 0), and the factor's cap
    h_old, err_old, cap = h, 0.0, 5.0
    status, blowup_time = TerminationReason.REACHED_HORIZON, None

    while t < t_end:
        if n_steps >= max_steps:
            status = TerminationReason.MAX_STEPS
            break
        if h >= t_end - t:
            h = _last_step(t, t_end)
        # an infinite step, or one below the floor or too small to move t
        # that is not the landing step; "not" so that a NaN step ends here too
        if h == math.inf or not (h >= 1e-16 * t_scale and t + h != t) and t + h != t_end:
            status = TerminationReason.STEP_UNDERFLOW
            break

        y_new, k_new, err = trial(t, h, y, k0)
        if err <= 1.0:  # False for a NaN norm too
            n_steps += 1
            if h < min_step:
                min_step = h
            t = t + h
            y, k0 = y_new, k_new  # FSAL: the last stage's slope is rhs(t+h, y_new)
            if on_step is not None and on_step(t, y, h):
                status, blowup_time = TerminationReason.BLOWUP_THRESHOLD, t
                break
            t_scale = t if t > 1.0 else -t if t < -1.0 else 1.0  # max(1.0, abs(t))
            if err == 0.0:
                factor = 5.0
            elif err_old > 0.0:  # Gustafsson's predictive controller
                factor = 0.9 * (h / h_old) * (err_old / err / err) ** 0.2
            else:
                factor = 0.9 * err ** -0.2
            h_old, err_old = h, err
            h *= (factor if factor < cap else cap) if factor > 0.2 else 0.2
            cap = 5.0
        else:  # inf and NaN norms shrink h by 0.2
            n_rejected += 1
            err_old, cap = 0.0, 1.0
            h *= factor if (factor := 0.9 * err ** -0.2) > 0.2 else 0.2
            if not h >= 1e-16 * t_scale:
                status = TerminationReason.STEP_UNDERFLOW
                break

    return RkResult(
        status, t, np.asarray(y, dtype=float), blowup_time, n_steps, n_rejected,
        1 + probes + 6 * (n_steps + n_rejected), None if math.isinf(min_step) else min_step, h,
    )
