"""Forward light cone geometry: r(t), q(t) = a r^2 / a0, and monotonicity.

Data supported in |x| <= r0 at t = 0 stays inside |x| <= r(t) with

    r(t) = r0 + integral_0^t c / a(s) ds.

On the closed-form family the integral has elementary antiderivatives
(linear, power-law, logarithmic, or saturating-exponential).  The quantity
q(t) = a(t) r(t)^2 / a0 controls the Jensen-type comparison of the spatial
integral, and its monotonicity is decided by the sign of H together with
the auxiliary function d = r + (2c / a0 H) (a/a0)^(n(1+sigma)/2 - 1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cosmology import CosmologyParams, _check_time, horizon_end, scale_eval
from .errors import DomainError, PreconditionError

__all__ = [
    "Monotonicity",
    "QClassification",
    "ConeGeometry",
    "comoving_radius",
    "q_eval",
    "log_q_eval",
    "classify_q",
    "q_tilde_eval",
    "log_q_tilde_eval",
    "log_q_tilde_array",
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
        return horizon_end(self.params)

    @property
    def q0(self) -> float:
        return self.r0 * self.r0


def _coasting(n: int, sigma: float) -> bool:
    """n(1+sigma) == 2, where a(t) grows linearly and r(t) is logarithmic.

    The second test catches spellings of -1 + 2/n that round differently
    (n = 3: -0.3333333333333333); the first keeps the exact special point
    at n where n(1+sigma) rounds away from 2 (n = 6).
    """
    return sigma == -1.0 + 2.0 / n or n * (1.0 + sigma) == 2.0


def _a0_H(a0: float, H: float) -> float:
    """a0 * H for H != 0; a typed error, not a ZeroDivisionError, when the
    product of a small a0 and a subnormal H rounds to 0."""
    a0H = a0 * H
    if a0H == 0.0:
        raise DomainError(f"H={H} is too small: a0 H rounds to 0 at a0={a0}")
    return a0H


def _power_law_coef(params: CosmologyParams) -> float:
    """2c / (a0 H (2 - n(1+sigma))), the scale of r(t) - r0 off the special points.

    A subnormal H can round the denominator to 0; that is a typed error,
    not a ZeroDivisionError.
    """
    n, c, a0, H, sigma = params.n, params.c, params.a0, params.H, params.sigma
    den = _a0_H(a0, H) * (2.0 - n * (1.0 + sigma))
    if den == 0.0:
        raise DomainError(f"H={H} is too small: a0 H (2 - n(1+sigma)) rounds to 0")
    return 2.0 * c / den


def _radius_closed_form(params: CosmologyParams, r0: float, t: float) -> float:
    n, c, a0, H, sigma = params.n, params.c, params.a0, params.H, params.sigma
    if H == 0.0:
        return r0 + c * t / a0
    if sigma == -1.0:
        return r0 + c / _a0_H(a0, H) * (1.0 - math.exp(-H * t))
    if _coasting(n, sigma):
        return r0 + c * math.log1p(H * t) / _a0_H(a0, H)
    k = n * (1.0 + sigma) * H / 2.0
    beta = 2.0 / (n * (1.0 + sigma))
    g = 1.0 + k * t
    coef = _power_law_coef(params)
    return r0 + coef * (1.0 - g ** (1.0 - beta))


def _log_radius_closed_form(params: CosmologyParams, r0: float, t: float) -> float:
    """log r(t), stable against exp/power overflow at large t."""
    n, c, a0, H, sigma = params.n, params.c, params.a0, params.H, params.sigma
    if H == 0.0:
        return math.log(r0 + c * t / a0)
    if sigma == -1.0:
        if H > 0.0:
            return math.log(r0 + c / _a0_H(a0, H) * (1.0 - math.exp(-H * t)))
        x = -H * t
        scale = c / _a0_H(a0, -H)
        if x <= _EXP_SAFE:
            return math.log(r0 + scale * (math.exp(x) - 1.0))
        return x + math.log(scale) + math.log1p((r0 - scale) / scale * math.exp(-x))
    if _coasting(n, sigma):
        return math.log(r0 + c * math.log1p(H * t) / _a0_H(a0, H))
    k = n * (1.0 + sigma) * H / 2.0
    beta = 2.0 / (n * (1.0 + sigma))
    g = 1.0 + k * t
    coef = _power_law_coef(params)
    y = (1.0 - beta) * math.log(g)
    if y <= _EXP_SAFE:
        return math.log(r0 + coef * (1.0 - math.exp(y)))
    # divergent branch: r ~ (-coef) * g^(1-beta), and -coef > 0 there
    return y + math.log(-coef) + math.log1p((r0 + coef) / (-coef) * math.exp(-y))


def _log_r0_plus_expm1(r0: float, s: float, y: np.ndarray) -> np.ndarray:
    """Elementwise log(r0 + s (e^y - 1)), with s > 0 wherever y > _EXP_SAFE."""
    out = np.empty_like(y)
    small = y <= _EXP_SAFE
    out[small] = np.log(r0 + s * (np.exp(y[small]) - 1.0))
    if not small.all():
        big = ~small
        out[big] = y[big] + math.log(s) + np.log1p((r0 - s) / s * np.exp(-y[big]))
    return out


def _log_radius_array(params: CosmologyParams, r0: float, t: np.ndarray) -> np.ndarray:
    """_log_radius_closed_form over an array of times, branch for branch."""
    n, c, a0, H, sigma = params.n, params.c, params.a0, params.H, params.sigma
    if H == 0.0:
        return np.log(r0 + c * t / a0)
    if sigma == -1.0:
        if H > 0.0:
            return np.log(r0 + c / _a0_H(a0, H) * (1.0 - np.exp(-H * t)))
        return _log_r0_plus_expm1(r0, c / _a0_H(a0, -H), -H * t)
    if _coasting(n, sigma):
        return np.log(r0 + c * np.log1p(H * t) / _a0_H(a0, H))
    k = n * (1.0 + sigma) * H / 2.0
    beta = 2.0 / (n * (1.0 + sigma))
    coef = _power_law_coef(params)
    return _log_r0_plus_expm1(r0, -coef, (1.0 - beta) * np.log(1.0 + k * t))


def comoving_radius(geom: ConeGeometry, t: float) -> float:
    """r(t) = r0 + integral of c/a, in closed form."""
    _check_time(t, geom.end)
    return _radius_closed_form(geom.params, geom.r0, t)


def q_eval(geom: ConeGeometry, t: float) -> float:
    """q(t) = a(t) r(t)^2 / a0; q(0) = r0^2 exactly."""
    _check_time(t, geom.end)
    if t == 0.0:
        return geom.q0
    r = comoving_radius(geom, t)
    a, _, _ = scale_eval(geom.params, t)
    return a * r * r / geom.params.a0


def log_q_eval(geom: ConeGeometry, t: float) -> float:
    """log q(t), valid far beyond exp overflow."""
    _check_time(t, geom.end)
    params = geom.params
    if params.sigma == -1.0:
        log_a_ratio = params.H * t
    else:
        k = params.n * (1.0 + params.sigma) * params.H / 2.0
        beta = 2.0 / (params.n * (1.0 + params.sigma))
        log_a_ratio = beta * math.log(1.0 + k * t)
    return log_a_ratio + 2.0 * _log_radius_closed_form(params, geom.r0, t)


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


def q_tilde_eval(geom: ConeGeometry, t: float) -> float:
    """Monotonized q: the constant q0 when q is non-increasing, else q(t)."""
    if _monotone_verdict(geom) is Monotonicity.NON_INCREASING:
        _check_time(t, geom.end)
        return geom.q0
    return q_eval(geom, t)


def log_q_tilde_eval(
    geom: ConeGeometry, t: float, verdict: Optional[Monotonicity] = None
) -> float:
    """log q~(t); ``verdict`` is q's certified monotonicity if the caller has it."""
    if verdict is None:
        verdict = _monotone_verdict(geom)
    if verdict is Monotonicity.NON_INCREASING:
        _check_time(t, geom.end)
        return 2.0 * math.log(geom.r0)
    return log_q_eval(geom, t)


def log_q_tilde_array(
    geom: ConeGeometry, t: np.ndarray, verdict: Optional[Monotonicity] = None
) -> np.ndarray:
    """log_q_tilde_eval at every time in ``t``.

    q is classified at most once and only the earliest and latest times are
    checked against the horizon, so a grid the scalar form rejects at any
    node raises the same error here.
    """
    if verdict is None:
        verdict = _monotone_verdict(geom)
    _check_time(float(t.min()), geom.end)
    _check_time(float(t.max()), geom.end)
    if verdict is Monotonicity.NON_INCREASING:
        return np.full(t.shape, 2.0 * math.log(geom.r0))
    params = geom.params
    if params.sigma == -1.0:
        log_a_ratio = params.H * t
    else:
        k = params.n * (1.0 + params.sigma) * params.H / 2.0
        beta = 2.0 / (params.n * (1.0 + params.sigma))
        log_a_ratio = beta * np.log(1.0 + k * t)
    return log_a_ratio + 2.0 * _log_radius_array(params, geom.r0, t)
