"""Forward light cone geometry: r(t), q(t) = a r^2 / a0, and monotonicity.

Data supported in |x| <= r0 at t = 0 stays inside |x| <= r(t) with

    r(t) = r0 + integral_0^t c / a(s) ds.

On the closed-form family the integral is one formula for every H and
sigma: with e = n(1+sigma)/2 and s(t) = t L(e H t) (so log(a/a0) = H s),

    r(t) - r0 = (c s / a0) E((e - 1) H s),   E(z) = expm1(z)/z, E(0) = 1,

continuous through H = 0, sigma = -1 and the coasting point e = 1.  The
quantity q(t) = a(t) r(t)^2 / a0 controls the Jensen-type comparison of
the spatial integral, and its monotonicity is decided by the sign of H
together with the auxiliary function d = r + (2c / a0 H) (a/a0)^(e - 1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cosmology import (
    CosmologyParams,
    _check_time,
    _array_ratio,
    _expm1_ratio,
    log_scale_time,
)
from .errors import DomainError, PreconditionError

__all__ = [
    "Monotonicity",
    "QClassification",
    "ConeGeometry",
    "comoving_radius",
    "q_eval",
    "log_q_eval",
    "classify_q",
    "log_q_tilde_eval",
]

_EXP_SAFE = 600.0  # switch to log-asymptotic forms beyond this exponent


class Monotonicity(enum.Enum):
    NON_DECREASING = "NonDecreasing"
    NON_INCREASING = "NonIncreasing"
    NOT_MONOTONE = "NotMonotone"


@dataclass(frozen=True)
class QClassification:
    """Verdict plus the diagnostics used to reach it.

    ``d0`` is d(0) = r0 + 2c/(a0 H) for H != 0 (None when H == 0);
    ``qdot0`` is the initial slope (2 c r0 / a0 when H == 0);
    ``r0_threshold`` is -2c/(a0 H), the support-radius gate for H < 0.
    """

    monotonicity: Monotonicity
    d0: Optional[float]
    qdot0: float
    r0_threshold: Optional[float]


@dataclass(frozen=True)
class ConeGeometry:
    """Forward cone for data supported in |x| <= r0 on a given background."""

    params: CosmologyParams
    r0: float

    def __post_init__(self):
        if not self.r0 > 0:
            raise ValueError("initial support radius r0 must be positive")

    @property
    def end(self) -> float:
        return self.params.T0

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
    return s, params.c * s / params.a0, (params.e - 1.0) * params.H


def _log_radius(r0: float, s, w, k):
    """log r from the _radius_terms; past k s = _EXP_SAFE in log space, so
    e^(k s) never overflows."""
    if not isinstance(s, np.ndarray):
        z = k * s
        if z <= _EXP_SAFE:
            return math.log(r0 + w * _expm1_ratio(k, s))
        return math.log(w / z) + z + math.log1p(r0 * z / w * math.exp(-z))
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
    _check_time(t, geom.end)
    s, w, k = _radius_terms(geom.params, t)
    return geom.r0 + w * _expm1_ratio(k, s)


def q_eval(geom: ConeGeometry, t: float) -> float:
    """q(t) = a(t) r(t)^2 / a0 at one time; q(0) = r0^2 exactly."""
    _check_time(t, geom.end)
    if t == 0.0:
        return geom.q0
    params = geom.params
    s, w, k = _radius_terms(params, t)
    r = geom.r0 + w * _expm1_ratio(k, s)
    a = params.a0 * math.exp(params.H * s)
    return a * r * r / params.a0


def log_q_eval(geom: ConeGeometry, t):
    """log q(t) = log(a/a0) + 2 log r, valid far beyond exp overflow."""
    _check_time(t, geom.end)
    s, w, k = _radius_terms(geom.params, t)
    return geom.params.H * s + 2.0 * _log_radius(geom.r0, s, w, k)


def classify_q(geom: ConeGeometry) -> QClassification:
    """Monotonicity of q by the sufficient sign conditions.

    NonDecreasing for H >= 0, or for H < 0 with sigma <= -1 + 1/n and
    r0 <= -2c/(a0 H); NonIncreasing for H < 0 with sigma >= -1 + 1/n and
    r0 >= -2c/(a0 H); NotMonotone otherwise (the rows are silent there).
    Boundary parameter sets satisfying both rows report NonDecreasing.
    """
    params = geom.params
    n, c, a0, H, sigma = params.n, params.c, params.a0, params.H, params.sigma
    if H == 0.0:
        qdot0 = 2.0 * c * geom.r0 / a0
        return QClassification(Monotonicity.NON_DECREASING, None, qdot0, None)
    a0H = _a0_H(a0, H)
    d0 = geom.r0 + 2.0 * c / a0H
    qdot0 = H * geom.r0 * d0
    threshold = -2.0 * c / a0H if H < 0.0 else None
    if H > 0.0:
        return QClassification(Monotonicity.NON_DECREASING, d0, qdot0, threshold)
    sigma_gate = -1.0 + 1.0 / n
    if sigma <= sigma_gate and geom.r0 <= threshold:
        return QClassification(Monotonicity.NON_DECREASING, d0, qdot0, threshold)
    if sigma >= sigma_gate and geom.r0 >= threshold:
        return QClassification(Monotonicity.NON_INCREASING, d0, qdot0, threshold)
    return QClassification(Monotonicity.NOT_MONOTONE, d0, qdot0, threshold)


def _monotone_verdict(geom: ConeGeometry) -> Monotonicity:
    verdict = classify_q(geom).monotonicity
    if verdict is Monotonicity.NOT_MONOTONE:
        raise PreconditionError(
            "q is not certified monotone for these parameters; "
            "the monotonized envelope is undefined"
        )
    return verdict


def log_q_tilde_eval(geom: ConeGeometry, t, verdict: Optional[Monotonicity] = None):
    """log q~ at a time or at every time of an array; ``verdict`` is q's
    certified monotonicity if the caller has it."""
    if verdict is None:
        verdict = _monotone_verdict(geom)
    if verdict is Monotonicity.NON_INCREASING:
        _check_time(t, geom.end)
        log_q0 = 2.0 * math.log(geom.r0)
        return np.full(t.shape, log_q0) if isinstance(t, np.ndarray) else log_q0
    return log_q_eval(geom, t)
