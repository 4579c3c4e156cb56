"""Reference formulas the tests check the package against.

Each one computes a quantity a second way, from its definition, so a test
can compare it with the package's closed form or solver.
"""

import math

import numpy as np

from kgblowup import (
    ConfigurationError,
    ConeGeometry,
    CosmologyParams,
    Monotonicity,
    PreconditionError,
    classify_q,
    scale_eval,
)
from kgblowup.certificate import TheoremInputs, cone_ball_factor, rpow
from kgblowup.cone import _expm1_ratio, _radius_terms
from kgblowup.cosmology import _check_time
from kgblowup.ode import OdeTrajectory
from kgblowup.pde import InitialData, PdeField, _volume_weights


def q_eval(geom: ConeGeometry, t: float) -> float:
    """q(t) = a(t) r(t)^2 / a0 at one time from the generic evaluators,
    every constant recomputed per call; q(0) = r0^2 exactly."""
    _check_time(t, geom.params.T0)
    if t == 0.0:
        return geom.q0
    params = geom.params
    s, w, k = _radius_terms(params, t)
    r = geom.r0 + w * _expm1_ratio(k, s)
    a = params.a0 * math.exp(params.H * s)
    return a * r * r / params.a0


def forcing_per_call(inputs: TheoremInputs, t: float) -> float:
    """b(t) = lambda / (Q q(t))^(n(p-1)/2), composed afresh at each call."""
    Q = cone_ball_factor(inputs.params)
    expo = inputs.params.n * (inputs.p - 1.0) / 2.0
    return inputs.lam / rpow(Q * q_eval(inputs.geom, t), expo)


def curved_mass_sq_per_call(params: CosmologyParams, t: float) -> float:
    """M^2(t) = m^2 + sigma (nH/2c)^2 (1 + e H t)^-2 with every constant
    recomputed per call."""
    _check_time(t, params.T0)
    n, c, H = params.n, params.c, params.H
    g = 1.0 + params.e * H * t
    return params.m_squared + params.sigma * (n * H / (2.0 * c)) ** 2 / (g * g)


def curved_mass_sq_from_scale(params: CosmologyParams, t: float) -> float:
    """M^2 from the defining combination of scale-factor derivatives."""
    a, adot, addot = scale_eval(params, t)
    n, c = params.n, params.c
    hub = adot / a
    return (
        params.m_squared
        - n * (n - 2) / (4.0 * c * c) * hub * hub
        - n / (2.0 * c * c) * (addot / a)
    )


def mass_sign_change_time(params: CosmologyParams):
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


def q_tilde_eval(geom: ConeGeometry, t: float) -> float:
    """Monotonized q by its definition: the constant q0 when q is
    non-increasing, else q(t)."""
    verdict = classify_q(geom)
    if verdict is Monotonicity.NOT_MONOTONE:
        raise PreconditionError("q is not certified monotone")
    if verdict is Monotonicity.NON_INCREASING:
        return geom.q0
    return q_eval(geom, t)


def energy_series(traj: OdeTrajectory, inputs: TheoremInputs) -> np.ndarray:
    """E(t) = w'^2 / 2c^2 - theta b~ w^{p+1} / (p+1), non-decreasing along
    certified trajectories."""
    Q = cone_ball_factor(inputs.params)
    expo = inputs.params.n * (inputs.p - 1.0) / 2.0
    bt = np.array(
        [inputs.lam / rpow(Q * q_tilde_eval(inputs.geom, x), expo) for x in traj.t]
    )
    c2 = inputs.params.c ** 2
    return traj.wdot**2 / (2.0 * c2) - inputs.theta * bt * np.abs(traj.w) ** (
        inputs.p + 1.0
    ) / (inputs.p + 1.0)


def forcing_integral(field: PdeField, inputs: TheoremInputs) -> float:
    """lambda a^{-n(p-1)/2} * integral of |u|^p, with the solver's volume
    weights."""
    a, _, _ = scale_eval(inputs.params, field.t)
    coef = inputs.lam * rpow(a, -inputs.params.n * (inputs.p - 1.0) / 2.0)
    return coef * float(np.sum(_volume_weights(field) * np.abs(field.u) ** inputs.p))


def profile_antiderivative(data: InitialData, x) -> np.ndarray:
    """Integral of the unit profile from 0 to x (odd in x), clamped at the
    support edge; closed form from the binomial expansion."""
    y = np.clip(np.asarray(x, dtype=float) / data.r0, -1.0, 1.0)
    k = data.exponent
    acc = np.zeros_like(y)
    for j in range(k + 1):
        acc += math.comb(k, j) * (-1.0) ** j * y ** (2 * j + 1) / (2 * j + 1)
    return data.r0 * acc


def dalembert_oracle(data: InitialData, inputs: TheoremInputs, t: float, x) -> np.ndarray:
    """Flat linear reference solution for n=1, H=0, m^2=0.

    u(t, x) = (u0(x-ct) + u0(x+ct)) / 2 + (1/2c) * integral of u1 over
    [x-ct, x+ct], with the effective speed c/a0.
    """
    params = inputs.params
    if params.n != 1 or params.H != 0.0 or params.m_squared != 0.0:
        raise ConfigurationError(
            "the traveling-wave oracle needs n=1, H=0, m_squared=0"
        )
    c_eff = params.c / params.a0
    x = np.asarray(x, dtype=float)
    left = x - c_eff * t
    right = x + c_eff * t
    halves = 0.5 * (data.u0(left) + data.u0(right))
    anti = profile_antiderivative(data, right) - profile_antiderivative(data, left)
    return halves + data.s1 / (2.0 * c_eff) * anti


def field_to_csv_per_element(path, field: PdeField) -> None:
    """The field snapshot CSV written one NumPy scalar at a time."""
    with open(path, "w") as fh:
        fh.write("r,re_u,im_u,re_ut,im_ut\n")
        for j in range(field.r.size):
            row = (
                field.r[j],
                field.u[j].real,
                field.u[j].imag,
                field.ut[j].real,
                field.ut[j].imag,
            )
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
