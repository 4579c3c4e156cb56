"""Comparison dynamics for the spatial integral: c^-2 w'' + M^2 w = b |w|^p.

The spatial integral of a solution satisfies this relation as an
inequality (the forcing integral dominates b |w|^p by Jensen); the equality
system integrated here is the extremal comparison case, so the growth
properties and the envelope are checked one-sidedly with slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .certificate import (
    BlowupCertificate,
    TheoremInputs,
    cone_ball_factor,
    rpow,
)
from .cosmology import curved_mass_sq, stop_time
from .errors import PoleError, PreconditionError
from .integrate import RkResult, TerminationReason, dopri_integrate
from .scenario import RunSettings

__all__ = [
    "OdeTrajectory",
    "Lemma21Report",
    "integrate",
    "detect_blowup_time",
    "check_lemma21",
    "envelope",
    "envelope_pole",
    "growth_bound",
    "forcing_coefficient",
    "trajectory_to_csv",
]


@dataclass
class OdeTrajectory:
    t: np.ndarray
    w: np.ndarray
    wdot: np.ndarray
    blowup_time_refined: Optional[float]  # T^ = t + w/(k w') as t -> T, see integrate
    rk: RkResult  # where and why the integration stopped, and its counters, both phases

    @property
    def blowup_detected(self) -> bool:
        return self.rk.status is TerminationReason.BLOWUP_THRESHOLD


def forcing_coefficient(inputs: TheoremInputs) -> Callable[[float], float]:
    """b(t) = lambda / (Q q(t))^(n(p-1)/2): the background's ``forcing``."""
    expo = inputs.params.n * (inputs.p - 1.0) / 2.0
    return inputs.geom.forms.forcing(inputs.lam, cone_ball_factor(inputs.params), expo)


def _times_exp(b: float, x: float) -> float:
    """b e^x where e^x alone passes the float range: e^(log|b| + x) with
    the sign of b, b itself at b = 0, and +-inf where b e^x passes it too."""
    if b == 0.0:
        return b
    try:
        return math.copysign(math.exp(math.log(abs(b)) + x), b)
    except OverflowError:
        return math.copysign(math.inf, b)


def integrate(
    inputs: TheoremInputs, t_end: float, run: RunSettings = RunSettings()
) -> OdeTrajectory:
    """Integrate the equality dynamics from (w0, w1) up to t_end <= T0.

    Phase 1 steps (w, w') in t up to the first sample where w runs away from
    0 (w w' > 0, w w'' > 0) with |w| > 100 max(1, |w0|) or, at large p, with
    w/(k w') < 1e-6 max(1, t), k = (p-1)/2.  From it, (t_s, w_s, w'_s), sigma
    = sign(w_s), g = |w'_s/w_s| and d = (|w|/|w_s|)^-k, phase 2 steps tau =
    g (t - t_s), l = log|w| and r = (w'/w) d / g in a time with dt/ds = d/g:

        tau' = d,  l' = r,  r' = c^2 (sigma |w_s|^(p-1) b(t) - M^2 d^2) / g^2 - (k+1) r^2,

    smooth up to a blow-up, which sits at s -> inf with r settling to a
    constant: the step does not collapse for any p > 1.  Blow-up is declared
    at the first sample with |w| > 1e8 max(1, |w0|); phase 2 then steps on,
    unrecorded, until T^ = t + d/(g k r) = t + w/(k w') gives the same float
    twice.  Phase 1 resumes from the last sample when |w| falls below |w_s|/e,
    past the threshold too (with no blow-up, and a gap in the samples), and
    ends the run alone when t would pass t_end or a phase 2 leg stalls.
    """
    params = inputs.params
    t_stop = stop_time(params, t_end)
    forms, m2 = inputs.geom.forms, run.ode_mass_sq_const
    # M^2 is the float m2 throughout, or the closure mass where m2 is None
    mass, m2 = forms.mass_sq, forms.fixed_mass_sq if m2 is None else m2
    if run.ode_forcing_const is not None:
        forcing = lambda t: run.ode_forcing_const  # noqa: E731
    else:
        forcing = forcing_coefficient(inputs)

    c2 = params.c * params.c
    p = inputs.p
    k = (p - 1.0) / 2.0
    exp, log = math.exp, math.log
    big = max(1.0, abs(inputs.w0))
    w_hand, l_blow = 100.0 * big, log(1e8 * big)
    samples: List[Tuple[float, float, float]] = [(0.0, inputs.w0, inputs.w1)]  # (t, w, w')
    # the last (t, b(t)) of phase 1: a trial's stages 5 and 6 and the stop
    # rule's rhs at the accepted t share one time, t + 1.0 h
    t_b, b_t = math.nan, 0.0

    def rhs(t: float, y: Tuple[float, float]) -> Tuple[float, float]:
        nonlocal t_b, b_t
        w, v = y  # |w|^p is rpow(abs(w), p) written out, skipped (it may overflow) at b = 0
        if t != t_b:
            t_b, b_t = t, forcing(t)
        b = b_t
        try:
            f = b * (exp(p * log(abs(w))) if w != 0.0 and b != 0.0 else 0.0)
        except OverflowError:  # |w|^p past the float range, b |w|^p not always
            f = _times_exp(b, p * log(abs(w)))
        return v, c2 * (f - (mass(t) if m2 is None else m2) * w)

    def on_step(t: float, y: Tuple[float, float], h: float) -> bool:
        w, v = y
        samples.append((t, w, v))
        a = abs(w)  # w w' > 0 and, checked last, w w'' > 0: w runs away from 0
        # (t if t > 1.0 else 1.0) is max(1.0, t) without the call
        if not (armed and 0.0 < w * v
                and (a > w_hand or a < 1e-6 * k * abs(v) * (t if t > 1.0 else 1.0))):
            return False
        return w * rhs(t, y)[1] > 0.0

    legs: List[RkResult] = []  # phase 1, phase 2, phase 1, ...
    armed, t_blow, t_hat = True, None, None
    while True:
        t_s, w_s, v_s = samples[-1]
        legs.append(dopri_integrate(
            rhs, t_s, (w_s, v_s), t_stop, rel_tol=run.rel_tol,
            abs_tol=1e-12 * max(1.0, abs(inputs.w0), abs(inputs.w1)), on_step=on_step,
        ))
        if legs[-1].status is not TerminationReason.BLOWUP_THRESHOLD:
            break
        t_s, w_s, v_s = samples[-1]
        l_s, g, sigma = log(abs(w_s)), abs(v_s / w_s), math.copysign(1.0, w_s)
        ms, forcing_s, k1 = c2 / (g * g), forcing, k + 1.0
        ms_m2 = None if m2 is None else ms * m2
        try:
            bs = sigma * c2 / (g * g) * exp((p - 1.0) * l_s)
        except OverflowError:  # |w_s|^(p-1) past the float range: fold it into b
            bs, x_s = sigma * ms, (p - 1.0) * l_s
            forcing_s = lambda t: _times_exp(forcing(t), x_s)  # noqa: E731

        def rhs_s(s: float, y: Tuple[float, float, float]) -> Tuple[float, float, float]:
            tau, l, r = y  # past t_stop, or d past the float range, only in a dropped step
            t = t_stop if (t := t_s + tau / g) > t_stop else t  # min(t, t_stop)
            d = exp(x) if (x := k * (l_s - l)) < 700.0 else math.inf
            return d, r, (bs * forcing_s(t) - (ms * mass(t) if m2 is None else ms_m2) * d * d
                          - k1 * r * r)

        def on_step_s(s: float, y: Tuple[float, float, float], h: float) -> bool:
            nonlocal armed, t_blow, t_hat
            tau, l, r = y
            t = t_s + tau / g
            if t >= t_stop:  # no blow-up before t_stop: phase 1 ends the run
                armed, t_blow, t_hat = False, None, None
                return True
            if l < l_s - 1.0:  # |w| turned back, past the threshold or not: no blow-up
                t_blow = t_hat = None
            elif t_blow is not None:  # the tail, not recorded
                t_hat, last = t_s + (tau + exp(k * (l_s - l)) / (k * r)) / g, t_hat
                return t_hat == last
            w = sigma * exp(l)
            try:
                samples.append((t, w, w * g * r * exp(k * (l - l_s))))
            except OverflowError:  # w' is past the float range
                samples.append((t, w, math.copysign(math.inf, w * r)))
            t_blow = t if l > l_blow else None
            return l < l_s - 1.0

        legs.append(dopri_integrate(
            rhs_s, 0.0, (0.0, l_s, math.copysign(1.0, v_s / w_s)), math.inf,
            rel_tol=run.rel_tol, abs_tol=1e-12, on_step=on_step_s,
        ))
        if legs[-1].status is not TerminationReason.BLOWUP_THRESHOLD:
            armed, t_blow, t_hat = False, None, None  # phase 2 stalled: phase 1 ends the run
        elif t_blow is not None:
            break  # T^ settled

    # the counters sum every leg; min_step is over the steps in t
    status = TerminationReason.BLOWUP_THRESHOLD if t_blow is not None else legs[-1].status
    steps = [r.min_step for r in legs[::2] if r.min_step is not None]
    t, w, wdot = np.array(samples).T
    rk = RkResult(
        status, t[-1], np.array([w[-1], wdot[-1]]), t_blow, sum(r.n_steps for r in legs),
        sum(r.n_rejected for r in legs), sum(r.n_rhs for r in legs), min(steps, default=None),
        legs[-1].last_h,
    )
    return OdeTrajectory(t, w, wdot, t_blow if t_hat is None else t_hat, rk)


def detect_blowup_time(traj: OdeTrajectory) -> Optional[float]:
    """The blow-up time T^ that phase 2 settled on (see ``integrate``),
    None when no blow-up was declared."""
    return traj.blowup_time_refined if traj.blowup_detected else None


@dataclass(frozen=True)
class PropertyCheck:
    holds: bool
    worst_margin: float
    first_bad_t: Optional[float]


@dataclass(frozen=True)
class Lemma21Report:
    exponential_lower_bound: PropertyCheck  # w >= w0 e^{cNt}
    forcing_dominates_mass: PropertyCheck  # (1-theta) b w^{p-1} - M^2 > N^2
    convexity_reserve: PropertyCheck  # c^-2 w'' - N^2 w - theta b w^p >= 0
    velocity_lower_bound: PropertyCheck  # w' >= w1

    @property
    def all_hold(self) -> bool:
        return (
            self.exponential_lower_bound.holds
            and self.forcing_dominates_mass.holds
            and self.convexity_reserve.holds
            and self.velocity_lower_bound.holds
        )


def _scan(values: np.ndarray, t: np.ndarray) -> PropertyCheck:
    worst = float(np.min(values))
    bad = np.nonzero(values < 0.0)[0]
    first = float(t[bad[0]]) if bad.size else None
    return PropertyCheck(bad.size == 0, worst, first)


def check_lemma21(
    traj: OdeTrajectory,
    inputs: TheoremInputs,
    cert: BlowupCertificate,
    tol: float = 1e-6,
) -> Lemma21Report:
    """Verify the four growth properties pointwise along a trajectory.

    Preconditions (checked against the certificate): w0 must exceed the
    data threshold and w1 >= cN w0.
    """
    if cert.w0_threshold is None or not inputs.w0 > cert.w0_threshold:
        raise PreconditionError(
            "lemma hypotheses fail: w0 does not exceed the data threshold "
            f"(w0={inputs.w0}, threshold={cert.w0_threshold})"
        )
    cN = inputs.params.c * inputs.N
    if not inputs.w1 >= cN * inputs.w0:
        raise PreconditionError(
            f"lemma hypotheses fail: w1={inputs.w1} < cN w0={cN * inputs.w0}"
        )

    t, w, v = traj.t, traj.w, traj.wdot
    b = forcing_coefficient(inputs)
    bt = np.array([b(x) for x in t.tolist()])
    m2 = curved_mass_sq(inputs.params, t)
    p, theta, N = inputs.p, inputs.theta, inputs.N

    margin1 = w - growth_bound(inputs, t) * (1.0 - tol)

    lhs2 = (1.0 - theta) * bt * np.abs(w) ** (p - 1.0) - m2
    margin2 = lhs2 - N * N + tol * np.maximum(1.0, np.maximum(np.abs(lhs2), N * N))

    reserve = bt * np.abs(w) ** p - m2 * w - N * N * w - theta * bt * np.abs(w) ** p
    scale3 = np.maximum(1.0, np.abs(bt * np.abs(w) ** p) + np.abs(m2 * w))
    margin3 = reserve + tol * scale3

    margin4 = v - inputs.w1 * (1.0 - tol)

    return Lemma21Report(
        exponential_lower_bound=_scan(margin1, t),
        forcing_dominates_mass=_scan(margin2, t),
        convexity_reserve=_scan(margin3, t),
        velocity_lower_bound=_scan(margin4, t),
    )


def envelope_pole(inputs: TheoremInputs, cert: BlowupCertificate) -> float:
    """Pole time of the lower envelope, 1/(C (alpha-1) w0^(alpha-1)) = T*."""
    if cert.C_squared is None or not cert.C_squared > 0.0:
        raise PreconditionError("envelope needs C^2 > 0")
    C = math.sqrt(cert.C_squared)
    return 1.0 / (C * (cert.alpha - 1.0) * rpow(inputs.w0, cert.alpha - 1.0))


def envelope(inputs: TheoremInputs, cert: BlowupCertificate, t: float) -> float:
    """Lower envelope w0 (1 - C(alpha-1) w0^(alpha-1) t)^(-1/(alpha-1))."""
    pole = envelope_pole(inputs, cert)
    if t >= pole:
        raise PoleError(f"t={t} is at or past the envelope pole {pole}", pole)
    C = math.sqrt(cert.C_squared)
    brace = 1.0 - C * (cert.alpha - 1.0) * rpow(inputs.w0, cert.alpha - 1.0) * t
    return inputs.w0 * rpow(brace, -1.0 / (cert.alpha - 1.0))


def growth_bound(inputs: TheoremInputs, t: np.ndarray) -> np.ndarray:
    """Exponential lower bound w0 e^{cNt}."""
    return inputs.w0 * np.exp(inputs.params.c * inputs.N * np.asarray(t))


def trajectory_to_csv(
    path,
    traj: OdeTrajectory,
    inputs: TheoremInputs,
    cert: Optional[BlowupCertificate] = None,
) -> None:
    """Write columns t, w, wdot, envelope, growth_bound."""
    gb = growth_bound(inputs, traj.t)
    env = np.full_like(traj.t, math.nan)
    if cert is not None and cert.C_squared is not None and cert.C_squared > 0.0:
        pole = envelope_pole(inputs, cert)
        for i, x in enumerate(traj.t):
            env[i] = envelope(inputs, cert, x) if x < pole else math.inf
    with open(path, "w") as fh:
        fh.write("t,w,wdot,envelope,growth_bound\n")
        for i in range(traj.t.size):
            row = (traj.t[i], traj.w[i], traj.wdot[i], env[i], gb[i])
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
