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
    "log_scale_time",
    "scale_eval",
    "mass_sq_function",
    "curved_mass_sq",
    "classify_mass_behavior",
]

# Two margins, because they guard different things.  HORIZON_MARGIN bounds
# the closed forms' domain: an evaluator raises DomainError at a time
# within it of a finite horizon (Big-Rip / Big-Crunch).  HORIZON_SHAVE is
# where runs stop: stop_time returns t_cap(t_end, T0), at most
# T0 (1 - HORIZON_SHAVE); a solver evaluates its background only up to
# that time (the first-step probe included; the last step's t + h may
# round one ulp past it), and the certificate's time grid ends at the same
# shave.  The shave is 1000 times the margin, so every time a run or the
# grid reaches lies inside the closed forms' domain.
HORIZON_MARGIN = 1e-12
HORIZON_SHAVE = 1e-9


@dataclass(frozen=True)
class CosmologyParams:
    """Background constants: dimension, light speed, scale family, mass.

    ``m_squared`` may be any real; negative values encode m in i*R.  Derived
    once: the exponent ``e`` = n(1+sigma)/2, the rates ``eH`` = e H and
    ``radius_rate`` = (e - 1) H, the horizon ``T0`` and the coefficient
    ``mass_shift`` = sigma (nH/2c)^2 of M^2.
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
        object.__setattr__(self, "T0", -1.0 / rate if rate < 0.0 else math.inf)
        shift = self.sigma * (self.n * self.H / (2.0 * self.c)) ** 2
        object.__setattr__(self, "mass_shift", shift)

    @property
    def excluded_region(self) -> bool:
        """(1+sigma)H < 0 with sigma < 0: curved mass unbounded below."""
        return (1.0 + self.sigma) * self.H < 0.0 and self.sigma < 0.0


def t_cap(t_end: float, T0: float) -> float:
    """t_end, held HORIZON_SHAVE short of a finite horizon T0."""
    return t_end if math.isinf(T0) else min(t_end, T0 * (1.0 - HORIZON_SHAVE))


def stop_time(params: CosmologyParams, t_end: float) -> float:
    """Where a solver run to t_end stops, t_cap(t_end, T0), on a background
    it may run on: the excluded region and a t_end past T0 raise."""
    if params.excluded_region:
        raise ExcludedRegionError("background has (1+sigma)H<0 with sigma<0; not integrated")
    if t_end > params.T0:
        raise DomainError(f"t_end={t_end} exceeds the horizon T0={params.T0}")
    return t_cap(t_end, params.T0)


def _check_time(t, end: float) -> None:
    """t (or every time in an array t) lies in [0, end) short of the margin."""
    if isinstance(t, np.ndarray):
        lo, hi = float(t.min()), float(t.max())
    else:
        lo = hi = t
    if lo < 0:
        raise DomainError(f"t={lo} is negative")
    if hi >= end * (1.0 - HORIZON_MARGIN) and math.isfinite(end):
        raise DomainError(f"t={hi} is at or beyond the horizon T0={end}")


def _array_ratio(x: np.ndarray, f) -> np.ndarray:
    """f(x)/x elementwise, with its limit 1 where x = 0."""
    if x.all():
        return f(x) / x
    return np.divide(f(x), x, out=np.ones_like(x), where=x != 0.0)


def _log1p_ratio(k: float, t):
    """L(k t) = log1p(k t)/(k t), L(0) = 1; 1.0 at once when k is 0."""
    if k == 0.0:
        return 1.0
    x = k * t
    if isinstance(x, np.ndarray):
        return _array_ratio(x, np.log1p)
    return math.log1p(x) / x if x != 0.0 else 1.0


def _expm1_ratio(k: float, t):
    """E(k t) = expm1(k t)/(k t), E(0) = 1; 1.0 at once when k is 0."""
    if k == 0.0:
        return 1.0
    x = k * t
    if isinstance(x, np.ndarray):
        return _array_ratio(x, np.expm1)
    return math.expm1(x) / x if x != 0.0 else 1.0


def log_scale_time(params: CosmologyParams, t):
    """s(t) = t L(e H t), the integral of 1/(1 + e H t'), so that
    log(a(t)/a0) = H s(t) on the whole family; t is not range-checked."""
    return t * _log1p_ratio(params.eH, t)


def scale_eval(params: CosmologyParams, t):
    """a(t) at one time, or at every time of an array, in [0, T0)."""
    _check_time(t, params.T0)
    exp = np.exp if isinstance(t, np.ndarray) else math.exp
    return params.a0 * exp(params.H * log_scale_time(params, t))


def mass_sq_function(params: CosmologyParams) -> Callable:
    """M^2 as a function of one time or an array of times, its constants
    bound once: M^2(t) = m^2 + sigma (nH/2c)^2 (1 + e H t)^-2.

    A float time costs one range compare; any other time, or a float out
    of range, goes through _check_time, which raises for the latter.
    """
    m2, shift, rate, end = params.m_squared, params.mass_shift, params.eH, params.T0
    hi = end * (1.0 - HORIZON_MARGIN)

    def mass_sq(t):
        if not (isinstance(t, float) and 0.0 <= t < hi):
            _check_time(t, end)
        g = 1.0 + rate * t
        return m2 + shift / (g * g)

    return mass_sq


def curved_mass_sq(params: CosmologyParams, t):
    """Closed-form M^2(t) at one time or an array of times."""
    return mass_sq_function(params)(t)


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
    if (1.0 + sigma) * H > 0.0 and sigma < 0.0:
        # increasing from shift toward m^2
        return MassBehavior(MassTag.INCREASING_BOUNDED, shift, m2, m2)
    if H < 0.0 and sigma > 0.0:
        return MassBehavior(MassTag.DIVERGES_PLUS, shift, math.inf, math.inf)
    # (1+sigma)H < 0 with sigma < 0
    return MassBehavior(MassTag.DIVERGES_MINUS, -math.inf, shift, -math.inf)
