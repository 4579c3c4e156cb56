"""FLRW background: scale factor family, horizon, and curved mass.

The closed-form family is parameterised by the Hubble constant H and an
equation-of-state exponent sigma.  With e = n(1+sigma)/2,

    a(t) = a0 (1 + e H t)^(1/e),

defined on [0, T0) where T0 = -1/(e H) is finite exactly when e H < 0.
sigma = -1 (e = 0, a = a0 exp(H t)) and the coasting point e = 1 (a grows
linearly) are removable singularities of this one formula, so it is
evaluated in the form that is continuous through them and through H = 0:

    log(a/a0) = H s(t),   s(t) = t L(e H t),   L(x) = log1p(x)/x, L(0) = 1.

The transformation u = v * a^(n/2) turns the damped wave operator into one
with the time-dependent "curved" squared mass

    M^2(t) = m^2 - n(n-2)/(4c^2) (adot/a)^2 - n/(2c^2) (addot/a),

which on the closed-form family collapses to

    M^2(t) = m^2 + sigma (nH/2c)^2 (1 + e H t)^(-2).

A negative ``m_squared`` encodes a purely imaginary mass; only M^2 ever
enters the formulas, so no square root is taken.  Every evaluator takes
one time (a float, evaluated with ``math``) or an array of times
(evaluated with NumPy).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ExcludedRegionError

__all__ = [
    "CosmologyParams",
    "MassTag",
    "MassBehavior",
    "BackgroundForms",
    "scale_eval",
    "mass_sq_function",
    "curved_mass_sq",
    "classify_mass_behavior",
]

# The one horizon margin: on a finite horizon T0, every closed form's domain,
# every run and the certificate's time grid end at t_last = T0 (1 - HORIZON_SHAVE).
HORIZON_SHAVE = 1e-9

_EXP_SAFE = 600.0  # log r switches to its log-asymptotic form beyond this k s


@dataclass(frozen=True)
class CosmologyParams:
    """Background constants: dimension, light speed, scale family, mass.

    ``m_squared`` may be any real; negative values encode m in i*R.  Derived
    once: the exponent ``e`` = n(1+sigma)/2, the rates ``eH`` = e H and
    ``radius_rate`` = (e - 1) H, the horizon ``T0``, the last admissible
    time ``t_last`` (inf where T0 is) and the coefficient ``mass_shift`` =
    sigma (nH/2c)^2 of M^2.
    """

    n: int
    c: float
    a0: float
    H: float
    sigma: float
    m_squared: float
    e: float = field(init=False, compare=False, repr=False)
    eH: float = field(init=False, compare=False, repr=False)
    radius_rate: float = field(init=False, compare=False, repr=False)
    T0: float = field(init=False, compare=False, repr=False)
    t_last: float = field(init=False, compare=False, repr=False)
    mass_shift: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("spatial dimension n must be a positive integer")
        if not self.c > 0:
            raise ValueError("speed of light c must be positive")
        if not self.a0 > 0:
            raise ValueError("initial scale factor a0 must be positive")
        e = self.n * (1.0 + self.sigma) / 2.0
        # T0 from the rounded e H the closed forms use: 1 + e H t stays
        # positive at every time the horizon check admits.  At H = +-0.0, e
        # held in [-1, 2] keeps the signs of e and e - 1 but cannot overflow
        finite_e = e if self.H != 0.0 else min(max(e, -1.0), 2.0)
        rate = finite_e * self.H
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "eH", rate)
        object.__setattr__(self, "radius_rate", (finite_e - 1.0) * self.H)
        T0 = -1.0 / rate if rate < 0.0 else math.inf
        object.__setattr__(self, "T0", T0)
        object.__setattr__(self, "t_last", T0 * (1.0 - HORIZON_SHAVE))
        shift = self.sigma * (self.n * self.H / (2.0 * self.c)) ** 2
        object.__setattr__(self, "mass_shift", shift)

    @property
    def excluded_region(self) -> bool:
        """(1+sigma)H < 0 with sigma < 0: curved mass unbounded below."""
        return self.sigma < 0.0 and _sign_of_e_H(self.sigma, self.H) < 0


def _sign_of_e_H(sigma: float, H: float) -> int:
    """The sign of (1+sigma)H, read from sigma against -1 and from H: the
    product underflows to zero at a subnormal H."""
    return ((sigma > -1.0) - (sigma < -1.0)) * ((H > 0.0) - (H < 0.0))


def t_cap(t_end: float, params: CosmologyParams) -> float:
    """t_end, held to the background's last admissible time t_last."""
    return min(t_end, params.t_last)


def stop_time(params: CosmologyParams, t_end: float) -> float:
    """Where a solver run to t_end stops, t_cap(t_end, params), on a
    background it may run on: the excluded region and a t_end past T0 raise."""
    if params.excluded_region:
        raise ExcludedRegionError("background has (1+sigma)H<0 with sigma<0; not integrated")
    if t_end > params.T0:
        raise DomainError(f"t_end={t_end} exceeds the horizon T0={params.T0}")
    return t_cap(t_end, params)


def _check_time(t, t_last: float) -> None:
    """t (or every time in an array t) lies in [0, t_last]."""
    if isinstance(t, np.ndarray):
        lo, hi = float(t.min()), float(t.max())
    else:
        lo = hi = t
    if lo < 0:
        raise DomainError(f"t={lo} is negative")
    if hi > t_last:
        raise DomainError(f"t={hi} lies past t_last={t_last}, the last time short of the horizon")


def _array_ratio(x: np.ndarray, f) -> np.ndarray:
    """f(x)/x elementwise, with its limit 1 where x = 0."""
    if x.all():
        return f(x) / x
    return np.divide(f(x), x, out=np.ones_like(x), where=x != 0.0)


def scale_eval(params: CosmologyParams, t):
    """a(t) = a0 exp(H s(t)), s(t) = t L(e H t), at one time or at every
    time of an array, in [0, t_last]."""
    _check_time(t, params.t_last)
    a0, H, eH = params.a0, params.H, params.eH
    if isinstance(t, np.ndarray):
        return a0 * np.exp(H * (t * _array_ratio(eH * t, np.log1p)))
    return a0 * math.exp(H * (t * (math.log1p(x) / x) if (x := eH * t) != 0.0 else t))


def mass_sq_function(params: CosmologyParams) -> Callable:
    """M^2 as a function of one time or an array of times, its constants
    bound once: M^2(t) = m^2 + sigma (nH/2c)^2 (1 + e H t)^-2.

    A float time costs one range compare; any other time, or a float out
    of range, goes through _check_time, which raises for the latter.
    """
    m2, shift, rate, end = params.m_squared, params.mass_shift, params.eH, params.t_last

    def mass_sq(t):
        if not (isinstance(t, float) and 0.0 <= t <= end):
            _check_time(t, end)
        g = 1.0 + rate * t
        return m2 + shift / (g * g)

    return mass_sq


def curved_mass_sq(params: CosmologyParams, t):
    """Closed-form M^2(t) at one time or an array of times."""
    return mass_sq_function(params)(t)


class BackgroundForms:
    """The closed forms of one background, params and r0, with their
    constants bound once: ``ConeGeometry.forms``.

    ``kind`` is picked once from the exact zeros: "flat" at H = +-0.0, where
    a is a0 (``fixed_scale``), "steady" at e H = +-0.0 (de Sitter, or a
    subnormal H whose e H underflows), where s = t and M^2 is one float
    (``fixed_mass_sq``), and "general".  ``mass_sq`` and ``r`` take one time
    or an array, ``log_q`` one time and ``log_q_array`` an array: r = r0 +
    w E(k s), w = c s / a0, k = (e - 1) H and log q = H s + 2 log r, with
    log r in log space past k s = _EXP_SAFE.  ``forcing(lam, Q, expo)`` is
    b = lam (Q q)^-expo, q = a r^2 / a0, in one body per kind that drops
    the steps that give back their operand.  Each float form is one call.
    """

    def __init__(self, params: CosmologyParams, r0: float) -> None:
        H, eH, k, c, a0, end = (params.H, params.eH, params.radius_rate, params.c, params.a0,
                                params.t_last)
        self.kind = kind = "flat" if H == 0.0 else "steady" if eH == 0.0 else "general"
        self.mass_sq = mass_sq_function(params)
        self.fixed_scale = a0 if kind == "flat" else None
        self.fixed_mass_sq = None if kind == "general" else self.mass_sq(0.0)
        log, log1p, expm1, exp = math.log, math.log1p, math.expm1, math.exp

        def terms(t: np.ndarray):  # (s, w, k s) at every time of an array
            s = t * 1.0 if kind != "general" else t * _array_ratio(eH * t, np.log1p)
            return s, c * s / a0, k * s

        def r(t):
            _check_time(t, end)
            if isinstance(t, np.ndarray):
                _, w, z = terms(t)
                return r0 + w * _array_ratio(z, np.expm1)
            s = t * (log1p(x) / x) if (x := eH * t) != 0.0 else t
            w = c * s / a0
            return r0 + w * (expm1(z) / z) if (z := k * s) != 0.0 else r0 + w

        def log_q(t):
            if not (isinstance(t, float) and 0.0 <= t <= end):
                _check_time(t, end)
            s = t * (log1p(x) / x) if (x := eH * t) != 0.0 else t
            w = c * s / a0
            if (z := k * s) <= _EXP_SAFE:
                return H * s + 2.0 * log(r0 + w * (expm1(z) / z) if z != 0.0 else r0 + w)
            return H * s + 2.0 * (log(w / z) + z + log1p(r0 * z / w * exp(-z)))

        def log_q_array(t: np.ndarray) -> np.ndarray:
            _check_time(t, end)
            s, w, z = terms(t)
            if not float(z.max()) > _EXP_SAFE:
                return H * s + 2.0 * np.log(r0 + w * _array_ratio(z, np.expm1))
            zs, zb = np.minimum(z, _EXP_SAFE), np.maximum(z, _EXP_SAFE)
            # each form is evaluated at every time, and kept only where it applies
            with np.errstate(all="ignore"):
                small = np.log(r0 + w * _array_ratio(zs, np.expm1))
                big = np.log(w / zb) + zb + np.log1p(r0 * zb / w * np.exp(-zb))
            return H * s + 2.0 * np.where(z <= _EXP_SAFE, small, big)

        def forcing(lam: float, Q: float, expo: float) -> Callable[[float], float]:
            q0 = r0 * r0  # the power is certificate.rpow's, without its check (Q q >= 0)

            def b_flat(t: float) -> float:
                if not 0.0 <= t <= end:
                    _check_time(t, end)
                r = r0 + c * t / a0
                q = q0 if t == 0.0 else a0 * r * r / a0
                return lam / (exp(expo * log(x)) if (x := Q * q) != 0.0 else 0.0)

            def b_steady(t: float) -> float:
                if not 0.0 <= t <= end:
                    _check_time(t, end)
                w = c * t / a0
                r = r0 + w * (expm1(z) / z) if (z := k * t) != 0.0 else r0 + w
                q = q0 if t == 0.0 else a0 * exp(H * t) * r * r / a0
                return lam / (exp(expo * log(x)) if (x := Q * q) != 0.0 else 0.0)

            def b_general(t: float) -> float:
                if not 0.0 <= t <= end:
                    _check_time(t, end)
                s = t * (log1p(x) / x) if (x := eH * t) != 0.0 else t
                w = c * s / a0
                r = r0 + w * (expm1(z) / z) if (z := k * s) != 0.0 else r0 + w
                q = q0 if t == 0.0 else a0 * exp(H * s) * r * r / a0
                return lam / (exp(expo * log(x)) if (x := Q * q) != 0.0 else 0.0)

            return {"flat": b_flat, "steady": b_steady, "general": b_general}[kind]

        self.r, self.log_q, self.log_q_array, self.forcing = r, log_q, log_q_array, forcing


class MassTag(enum.Enum):
    """Qualitative behavior of M^2(t) on [0, T0)."""

    CONSTANT_M2 = "ConstantM2"
    DE_SITTER_CONSTANT = "DeSitterConstant"
    INCREASING_BOUNDED = "IncreasingBounded"
    DECREASING_BOUNDED = "DecreasingBounded"
    DIVERGES_PLUS = "DivergesPlus"
    DIVERGES_MINUS = "DivergesMinus"


@dataclass(frozen=True)
class MassBehavior:
    """Classification row with its sharp bounds over the open interval.

    ``inf_m2``/``sup_m2`` are the exact infimum/supremum of M^2 on (0, T0);
    ``limit`` is the value approached as t -> T0.
    """

    tag: MassTag
    inf_m2: float
    sup_m2: float
    limit: float


def classify_mass_behavior(params: CosmologyParams) -> MassBehavior:
    """Sort the background into one of six monotonicity/boundedness rows."""
    m2, H, sigma = params.m_squared, params.H, params.sigma
    shift = m2 + params.mass_shift  # value of M^2 at t = 0

    if H == 0.0 or sigma == 0.0:
        return MassBehavior(MassTag.CONSTANT_M2, m2, m2, m2)
    if sigma == -1.0:
        return MassBehavior(MassTag.DE_SITTER_CONSTANT, shift, shift, shift)
    if H > 0.0 and sigma > 0.0:
        # decreasing from shift toward m^2
        return MassBehavior(MassTag.DECREASING_BOUNDED, m2, shift, m2)
    if sigma < 0.0 and _sign_of_e_H(sigma, H) > 0:
        # increasing from shift toward m^2
        return MassBehavior(MassTag.INCREASING_BOUNDED, shift, m2, m2)
    if H < 0.0 and sigma > 0.0:
        return MassBehavior(MassTag.DIVERGES_PLUS, shift, math.inf, math.inf)
    # (1+sigma)H < 0 with sigma < 0
    return MassBehavior(MassTag.DIVERGES_MINUS, -math.inf, shift, -math.inf)
