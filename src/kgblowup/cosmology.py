"""FLRW background: scale factor family, horizon, and curved mass.

The closed-form family is parameterised by the Hubble constant H and an
equation-of-state exponent sigma:

    a(t) = a0 * (1 + n(1+sigma)H t / 2)^(2/(n(1+sigma)))   sigma != -1
    a(t) = a0 * exp(H t)                                   sigma == -1

defined on [0, T0) where T0 is finite exactly when (1+sigma)H < 0.  The
transformation u = v * a^(n/2) turns the damped wave operator into one with
the time-dependent "curved" squared mass

    M^2(t) = m^2 - n(n-2)/(4c^2) (adot/a)^2 - n/(2c^2) (addot/a),

which on the closed-form family collapses to

    M^2(t) = m^2 + sigma (nH/2c)^2 (1 + n(1+sigma)H t / 2)^(-2).

A negative ``m_squared`` encodes a purely imaginary mass; only M^2 ever
enters the formulas, so no square root is taken.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "CosmologyParams",
    "MassTag",
    "MassBehavior",
    "horizon_end",
    "scale_eval",
    "curved_mass_sq",
    "curved_mass_sq_array",
    "mass_sign_change_time",
    "classify_mass_behavior",
]

# Relative margin kept away from a finite horizon (Big-Rip / Big-Crunch).
HORIZON_MARGIN = 1e-12


@dataclass(frozen=True)
class CosmologyParams:
    """Background constants: dimension, light speed, scale family, mass.

    ``m_squared`` may be any real; negative values encode m in i*R.
    """

    n: int
    c: float
    a0: float
    H: float
    sigma: float
    m_squared: float

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("spatial dimension n must be a positive integer")
        if not self.c > 0:
            raise ValueError("speed of light c must be positive")
        if not self.a0 > 0:
            raise ValueError("initial scale factor a0 must be positive")

    @property
    def excluded_region(self) -> bool:
        """(1+sigma)H < 0 with sigma < 0: curved mass unbounded below."""
        return (1.0 + self.sigma) * self.H < 0.0 and self.sigma < 0.0


def horizon_end(params: CosmologyParams) -> float:
    """End of the spacetime: +inf, or -2/(n(1+sigma)H) when (1+sigma)H < 0."""
    rate = (1.0 + params.sigma) * params.H
    if rate >= 0.0:
        return math.inf
    return -2.0 / (params.n * (1.0 + params.sigma) * params.H)


def _check_time(t: float, end: float) -> None:
    if t < 0:
        raise DomainError(f"t={t} is negative")
    if math.isfinite(end) and t >= end * (1.0 - HORIZON_MARGIN):
        raise DomainError(f"t={t} is at or beyond the horizon T0={end}")


def scale_eval(params: CosmologyParams, t: float) -> Tuple[float, float, float]:
    """Return (a, adot, addot) at time t in [0, T0)."""
    _check_time(t, horizon_end(params))
    a0, H, sigma, n = params.a0, params.H, params.sigma, params.n
    if sigma == -1.0:
        a = a0 * math.exp(H * t)
        return a, H * a, H * H * a
    beta = 2.0 / (n * (1.0 + sigma))
    g = 1.0 + n * (1.0 + sigma) * H * t / 2.0
    a = a0 * g**beta
    adot = a0 * H * g ** (beta - 1.0)
    addot = a0 * H * H * (beta - 1.0) / beta * g ** (beta - 2.0)
    return a, adot, addot


def curved_mass_sq(params: CosmologyParams, t: float) -> float:
    """Closed-form M^2(t) = m^2 + sigma (nH/2c)^2 (1 + n(1+sigma)H t/2)^-2."""
    _check_time(t, horizon_end(params))
    n, c, H, sigma = params.n, params.c, params.H, params.sigma
    if sigma == -1.0:
        return params.m_squared - (n * H / (2.0 * c)) ** 2
    g = 1.0 + n * (1.0 + sigma) * H * t / 2.0
    return params.m_squared + sigma * (n * H / (2.0 * c)) ** 2 / (g * g)


def curved_mass_sq_array(params: CosmologyParams, t: np.ndarray) -> np.ndarray:
    """curved_mass_sq at every time in ``t``; the extreme times are range-checked."""
    end = horizon_end(params)
    _check_time(float(t.min()), end)
    _check_time(float(t.max()), end)
    n, c, H, sigma = params.n, params.c, params.H, params.sigma
    if sigma == -1.0:
        return np.full(t.shape, params.m_squared - (n * H / (2.0 * c)) ** 2)
    g = 1.0 + n * (1.0 + sigma) * H * t / 2.0
    return params.m_squared + sigma * (n * H / (2.0 * c)) ** 2 / (g * g)


def mass_sign_change_time(params: CosmologyParams) -> Optional[float]:
    """Zero crossing of M^2 in contracting-horizon regimes with real mass.

    Defined when (1+sigma)H < 0, sigma < 0 and m > sqrt(|sigma|) n|H| / 2c
    (which needs m_squared > 0); otherwise None.
    """
    n, c, H, sigma = params.n, params.c, params.H, params.sigma
    if not ((1.0 + sigma) * H < 0.0 and sigma < 0.0):
        return None
    if params.m_squared <= 0.0:
        return None
    m = math.sqrt(params.m_squared)
    gate = math.sqrt(-sigma) * n * abs(H) / (2.0 * c)
    if m <= gate:
        return None
    return -2.0 / (n * (1.0 + sigma) * H) * (1.0 - gate / m)


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
    m2, n, c, H, sigma = params.m_squared, params.n, params.c, params.H, params.sigma
    shift = m2 + sigma * (n * H / (2.0 * c)) ** 2  # value of M^2 at t = 0

    if H == 0.0 or sigma == 0.0:
        return MassBehavior(MassTag.CONSTANT_M2, m2, m2, m2)
    if sigma == -1.0:
        val = m2 - (n * H / (2.0 * c)) ** 2
        return MassBehavior(MassTag.DE_SITTER_CONSTANT, val, val, val)
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
