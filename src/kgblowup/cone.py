"""Forward light cone geometry: r(t), q(t) = a r^2 / a0, and monotonicity.

Data supported in |x| <= r0 at t = 0 stays inside |x| <= r(t) with

    r(t) = r0 + integral_0^t c / a(s) ds.

On the closed-form family the integral is one formula for every H and
sigma: with e = n(1+sigma)/2 and s(t) = t L(e H t) (so log(a/a0) = H s),

    r(t) - r0 = (c s / a0) E((e - 1) H s),   E(z) = expm1(z)/z, E(0) = 1,

continuous through H = 0, sigma = -1 and the coasting point e = 1.  The
quantity q(t) = a(t) r(t)^2 / a0 controls the Jensen-type comparison of
the spatial integral; classify_q decides its monotonicity, and q_order the
leading order of its monotone envelope q~ as t -> T0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cosmology import (
    HORIZON_MARGIN,
    CosmologyParams,
    _check_time,
    _array_ratio,
    _expm1_ratio,
    log_scale_time,
)
from .errors import DomainError

__all__ = [
    "Monotonicity",
    "QOrder",
    "ConeGeometry",
    "comoving_radius",
    "log_q_eval",
    "classify_q",
    "log_q_tilde_eval",
    "log_q_tilde_function",
    "q_order",
]

_EXP_SAFE = 600.0  # switch to log-asymptotic forms beyond this exponent


class Monotonicity(enum.Enum):
    NON_DECREASING = "NonDecreasing"
    NON_INCREASING = "NonIncreasing"
    NOT_MONOTONE = "NotMonotone"


@dataclass(frozen=True)
class ConeGeometry:
    """Forward cone for data supported in |x| <= r0 on a given background."""

    params: CosmologyParams
    r0: float

    def __post_init__(self):
        if not self.r0 > 0:
            raise ValueError("r0: support radius must be positive")

    @property
    def q0(self) -> float:
        return self.r0 * self.r0


def _a0_H(a0: float, H: float) -> float:
    """a0 * H for H != 0; a typed error, not a ZeroDivisionError, when the
    product of a small a0 and a subnormal H rounds to 0."""
    a0H = a0 * H
    if a0H == 0.0:
        raise DomainError(f"H={H} is too small: a0 H rounds to 0 at a0={a0}")
    return a0H


def _radius_terms(params: CosmologyParams, t):
    """(s, w, k) with r(t) - r0 = w E(k s): s = t L(e H t), w = c s / a0,
    and k = (e - 1) H, so that k s = (e - 1) log(a/a0)."""
    s = log_scale_time(params, t)
    return s, params.c * s / params.a0, params.radius_rate


def _log_radius(r0: float, s: np.ndarray, w: np.ndarray, k: float) -> np.ndarray:
    """log r at every time of an array, from the _radius_terms; past k s =
    _EXP_SAFE in log space, so e^(k s) never overflows."""
    if not (k > 0.0 and k * float(s.max()) > _EXP_SAFE):
        return np.log(r0 + w * _expm1_ratio(k, s))
    z = k * s
    zs, zb = np.minimum(z, _EXP_SAFE), np.maximum(z, _EXP_SAFE)
    # each form is evaluated at every time, and kept only where it applies
    with np.errstate(all="ignore"):
        small = np.log(r0 + w * _array_ratio(zs, np.expm1))
        big = np.log(w / zb) + zb + np.log1p(r0 * zb / w * np.exp(-zb))
    return np.where(z <= _EXP_SAFE, small, big)


def comoving_radius(geom: ConeGeometry, t):
    """r(t) = r0 + integral of c/a = r0 + (c s/a0) E((e-1) H s), s = t L(e H t)."""
    _check_time(t, geom.params.T0)
    s, w, k = _radius_terms(geom.params, t)
    return geom.r0 + w * _expm1_ratio(k, s)


def log_q_eval(geom: ConeGeometry, t):
    """log q(t) = log(a/a0) + 2 log r, valid far beyond exp overflow."""
    if not isinstance(t, np.ndarray):
        return log_q_tilde_function(geom, Monotonicity.NON_DECREASING)(t)
    _check_time(t, geom.params.T0)
    s, w, k = _radius_terms(geom.params, t)
    return geom.params.H * s + 2.0 * _log_radius(geom.r0, s, w, k)


def classify_q(geom: ConeGeometry) -> Monotonicity:
    """Monotonicity of q by the sufficient sign conditions.

    NonDecreasing for H >= 0, or for H < 0 with sigma <= -1 + 1/n and
    r0 <= -2c/(a0 H); NonIncreasing for H < 0 with sigma >= -1 + 1/n and
    r0 >= -2c/(a0 H); NotMonotone otherwise (the rows are silent there).
    Boundary parameter sets satisfying both rows report NonDecreasing.
    """
    params = geom.params
    n, c, a0, H, sigma = params.n, params.c, params.a0, params.H, params.sigma
    if H == 0.0:
        return Monotonicity.NON_DECREASING
    threshold = -2.0 * c / _a0_H(a0, H)
    if H > 0.0:
        return Monotonicity.NON_DECREASING
    sigma_gate = -1.0 + 1.0 / n
    if sigma <= sigma_gate and geom.r0 <= threshold:
        return Monotonicity.NON_DECREASING
    if sigma >= sigma_gate and geom.r0 >= threshold:
        return Monotonicity.NON_INCREASING
    return Monotonicity.NOT_MONOTONE


def log_q_tilde_function(geom: ConeGeometry, verdict: Monotonicity) -> Callable:
    """log q~ as a function of one time, its constants bound once;
    ``verdict`` is q's certified monotonicity.

    q~ = r0^2 when q is non-increasing, else q~ = q and log q = H s + 2 log r
    with the _radius_terms and _log_radius written out on floats: the same
    operations in the same order.  As in cosmology.mass_sq_function, a
    float time costs one range compare; any other time, or a float out of
    range, goes through _check_time, which raises for the latter.
    """
    params = geom.params
    end = params.T0
    hi = end * (1.0 - HORIZON_MARGIN)
    if verdict is Monotonicity.NON_INCREASING:
        log_q0 = 2.0 * math.log(geom.r0)

        def log_q_tilde(t):
            if not (isinstance(t, float) and 0.0 <= t < hi):
                _check_time(t, end)
            return log_q0

        return log_q_tilde

    H, c, a0, r0, rate, k = params.H, params.c, params.a0, geom.r0, params.eH, params.radius_rate
    log, log1p, expm1, exp = math.log, math.log1p, math.expm1, math.exp

    def log_q_tilde(t):
        if not (isinstance(t, float) and 0.0 <= t < hi):
            _check_time(t, end)
        if rate == 0.0:  # s = t L(e H t)
            s = t * 1.0
        else:
            x = rate * t
            s = t * (log1p(x) / x if x != 0.0 else 1.0)
        w = c * s / a0
        z = k * s
        if z <= _EXP_SAFE:  # r = r0 + w E(k s)
            log_r = log(r0 + w * (expm1(z) / z if k != 0.0 and z != 0.0 else 1.0))
        else:
            log_r = log(w / z) + z + log1p(r0 * z / w * exp(-z))
        return H * s + 2.0 * log_r

    return log_q_tilde


def log_q_tilde_eval(geom: ConeGeometry, t, verdict: Monotonicity):
    """log q~ at a time or at every time of an array; ``verdict`` is q's
    certified monotonicity."""
    if not isinstance(t, np.ndarray):
        return log_q_tilde_function(geom, verdict)(t)
    if verdict is Monotonicity.NON_INCREASING:
        _check_time(t, geom.params.T0)
        return np.full(t.shape, 2.0 * math.log(geom.r0))
    return log_q_eval(geom, t)


@dataclass(frozen=True)
class QOrder:
    """Leading order of log q~ as t -> T0; see q_order."""

    clock: int  # sign(e) sign(H): t grows like e^{eH s} (+1), t = s (0), t < T0 (-1)
    rho: float  # coefficient of s
    log_s: bool  # a 2 log s term, [k = 0]
    bounded: bool  # q~ = r0^2, or rho = 0 with no log term (e = 1/2, H < 0) and finite T0
    degree: float  # q~ ~ t^degree (log t)^(2 log_s) when clock = +1; inf elsewhere


def q_order(geom: ConeGeometry, verdict: Monotonicity) -> QOrder:
    """log q~ = rho s + 2 [k = 0] log s + O(1) as t -> T0, where s = t L(e H t)
    -> inf, k = (e - 1) H, rho = H + 2 max(0, k), and q~ = r0^2 if the
    certified ``verdict`` is non-increasing.  Every zero and sign comes from
    the exact factors e and H, never from a product that can underflow."""
    e, H, T0 = geom.params.e, geom.params.H, geom.params.T0
    clock = ((e > 0.0) - (e < 0.0)) * ((H > 0.0) - (H < 0.0))
    if verdict is Monotonicity.NON_INCREASING:
        return QOrder(clock, 0.0, False, True, math.inf)
    log_s = e == 1.0 or H == 0.0
    k_positive = (e < 1.0) == (H < 0.0) and not log_s  # k = (e - 1) H > 0
    rho = (2.0 * e - 1.0) * H if k_positive else H  # H + 2k, exactly |H| at e = 0
    degree = math.inf  # rho / (e H), written as 1/e and 2 - 1/e
    if clock > 0:
        degree = 1.0 if log_s else 2.0 - 1.0 / e if k_positive else 1.0 / e
    return QOrder(clock, rho, log_s, H < 0.0 and e == 0.5 and math.isfinite(T0), degree)
