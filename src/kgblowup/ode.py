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
from .cone import q_function
from .cosmology import curved_mass_sq, mass_sq_function, t_cap
from .errors import DomainError, ExcludedRegionError, PoleError, PreconditionError
from .integrate import RkResult, TerminationReason, dopri_integrate

__all__ = [
    "OdeControls",
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


@dataclass(frozen=True)
class OdeControls:
    rel_tol: float = 1e-10
    # constant-coefficient overrides for benchmark problems
    mass_sq_const: Optional[float] = None
    forcing_const: Optional[float] = None


@dataclass
class OdeTrajectory:
    t: np.ndarray
    w: np.ndarray
    wdot: np.ndarray
    alpha_hint: float  # saturation exponent 1 + (p-1)/2 of the equality ODE
    rk: RkResult  # where and why the integration stopped, and its counters

    @property
    def blowup_detected(self) -> bool:
        return self.rk.status is TerminationReason.BLOWUP_THRESHOLD


def forcing_coefficient(inputs: TheoremInputs) -> Callable[[float], float]:
    """b(t) = lambda / (Q q(t))^(n(p-1)/2) built from the cone geometry,
    its constants bound once."""
    Q = cone_ball_factor(inputs.params)
    expo = inputs.params.n * (inputs.p - 1.0) / 2.0
    lam = inputs.lam
    q = q_function(inputs.geom)

    def b(t: float) -> float:
        return lam / rpow(Q * q(t), expo)

    return b


def integrate(
    inputs: TheoremInputs, t_end: float, controls: OdeControls = OdeControls()
) -> OdeTrajectory:
    """Integrate the equality dynamics from (w0, w1) up to t_end <= T0."""
    params = inputs.params
    if params.excluded_region:
        raise ExcludedRegionError(
            "background has (1+sigma)H<0 with sigma<0; not integrated"
        )
    T0 = params.T0
    if t_end > T0:
        raise DomainError(f"t_end={t_end} exceeds the horizon T0={T0}")

    if controls.mass_sq_const is not None:
        mass = lambda t: controls.mass_sq_const  # noqa: E731
    else:
        mass = mass_sq_function(params)
    if controls.forcing_const is not None:
        forcing = lambda t: controls.forcing_const  # noqa: E731
    else:
        forcing = forcing_coefficient(inputs)

    c2 = params.c * params.c
    p = inputs.p

    def rhs(t: float, y: Tuple[float, float]) -> Tuple[float, float]:
        w, v = y
        return v, c2 * (forcing(t) * rpow(abs(w), p) - mass(t) * w)

    ts: List[float] = [0.0]
    ws: List[float] = [inputs.w0]
    vs: List[float] = [inputs.w1]

    def on_step(t: float, y: Tuple[float, float], h: float) -> None:
        ts.append(t)
        ws.append(y[0])
        vs.append(y[1])

    # blow-up: |w| above 1e8 max(1, |w0|) with the step below the default
    # blow_step_fraction (1e-14) of max(1, t)
    res: RkResult = dopri_integrate(
        rhs,
        0.0,
        (inputs.w0, inputs.w1),
        t_cap(t_end, T0),
        rel_tol=controls.rel_tol,
        abs_tol=1e-12 * max(1.0, abs(inputs.w0), abs(inputs.w1)),
        magnitude=lambda y: abs(y[0]),
        blow_magnitude=1e8 * max(1.0, abs(inputs.w0)),
        on_step=on_step,
    )
    return OdeTrajectory(
        t=np.array(ts),
        w=np.array(ws),
        wdot=np.array(vs),
        alpha_hint=1.0 + (p - 1.0) / 2.0,
        rk=res,
    )


def detect_blowup_time(traj: OdeTrajectory, alpha: Optional[float] = None) -> Optional[float]:
    """Refine the blow-up time by extrapolating w^(1-alpha) to zero.

    Near the singularity w ~ K (T-t)^(-2/(p-1)), so with the saturation
    exponent alpha = 1 + (p-1)/2 the quantity w^(1-alpha) is asymptotically
    linear in t; secant roots from the final samples are Aitken-accelerated.
    """
    if not traj.blowup_detected:
        return None
    a = traj.alpha_hint if alpha is None else alpha
    mask = traj.w > 0
    t = traj.t[mask][-8:]
    w = traj.w[mask][-8:]
    if t.size < 2:
        return traj.rk.blowup_time
    z = w ** (1.0 - a)
    roots: List[float] = []
    for i in range(t.size - 1, 0, -1):
        dz = z[i] - z[i - 1]
        dt = t[i] - t[i - 1]
        if dz == 0.0 or dt == 0.0:
            continue
        roots.append(float(t[i] - z[i] * dt / dz))
        if len(roots) == 3:
            break
    if not roots:
        return traj.rk.blowup_time
    roots = roots[::-1]
    est = roots[-1]
    if len(roots) == 3:
        r0, r1, r2 = roots
        denom = (r2 - r1) - (r1 - r0)
        if denom != 0.0:
            acc = r2 - (r2 - r1) ** 2 / denom
            if math.isfinite(acc) and abs(acc - r2) <= abs(r1 - r2) + 1e-12:
                est = acc
    return est


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

    params = inputs.params
    b = forcing_coefficient(inputs)
    t, w, v = traj.t, traj.w, traj.wdot
    bt = np.array([b(x) for x in t])
    m2 = curved_mass_sq(params, t)
    p, theta, N = inputs.p, inputs.theta, inputs.N

    bound = inputs.w0 * np.exp(cN * t)
    margin1 = w - bound * (1.0 - tol)

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
