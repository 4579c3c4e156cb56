"""Reference formulas the tests check the package against.

Each one computes a quantity a second way, from its definition, so a test
can compare it with the package's closed form or solver.
"""

import math
from dataclasses import dataclass

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
from kgblowup.certificate import (
    TheoremInputs,
    _lifespan_D,
    _lifespan_of,
    _w0_threshold,
    _w1_threshold,
    cone_ball_factor,
    rpow,
    unit_ball_volume,
)
from kgblowup.cone import _EXP_SAFE, _expm1_ratio, _radius_terms
from kgblowup.cosmology import _check_time
from kgblowup.integrate import _A, _C, _ERR, _rms
from kgblowup.ode import OdeTrajectory
from kgblowup.pde import PdeField, grid_weights


def data_thresholds(inputs: TheoremInputs, A: float, B: float, Q: float):
    """(w0 threshold, w1 threshold) from the certified constants, as
    ``certify`` forms them; the first reads neither w0 nor w1."""
    return _w0_threshold(inputs, B, Q), _w1_threshold(inputs, Q)


@dataclass(frozen=True)
class LifespanResult:
    D: float
    T_star: float
    C_squared: float
    within_horizon: bool


def lifespan(inputs: TheoremInputs, A: float, Q: float) -> LifespanResult:
    """D, T* and C^2 from certified A, as ``certify`` forms them; D reads
    neither w0 nor w1."""
    if not A > 0.0:
        raise PreconditionError("lifespan needs A > 0")
    if not inputs.w0 > 0.0:
        raise PreconditionError("lifespan needs w0 > 0")
    D = _lifespan_D(inputs, A, Q)
    T_star, C_squared = _lifespan_of(inputs, D)
    return LifespanResult(D, T_star, C_squared, T_star <= inputs.params.T0)


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


def comprehension_float_trial(rhs, rel_tol: float, abs_tol: float):
    """The tuple trial step as one comprehension per tableau row: each
    stage sums ``((0.0 + a0 k0) + a1 k1) + ...`` over zipped components,
    the zero weights included.  ``integrate._float_trial`` generates the
    same arithmetic written out per component."""
    _, c1, c2, c3, c4, c5, c6 = _C
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _A[1:5]
    a50, a51, a52, a53, a54 = _A[5]
    a60, a61, a62, a63, a64, a65 = _A[6]
    e0, e1, e2, e3, e4, e5, e6 = _ERR

    def trial(t: float, h: float, y: tuple, k0: tuple):
        k1 = rhs(t + c1 * h, tuple([
            yc + h * (0.0 + a10 * p0) for yc, p0 in zip(y, k0)
        ]))
        k2 = rhs(t + c2 * h, tuple([
            yc + h * ((0.0 + a20 * p0) + a21 * p1) for yc, p0, p1 in zip(y, k0, k1)
        ]))
        k3 = rhs(t + c3 * h, tuple([
            yc + h * (((0.0 + a30 * p0) + a31 * p1) + a32 * p2)
            for yc, p0, p1, p2 in zip(y, k0, k1, k2)
        ]))
        k4 = rhs(t + c4 * h, tuple([
            yc + h * ((((0.0 + a40 * p0) + a41 * p1) + a42 * p2) + a43 * p3)
            for yc, p0, p1, p2, p3 in zip(y, k0, k1, k2, k3)
        ]))
        k5 = rhs(t + c5 * h, tuple([
            yc + h * (((((0.0 + a50 * p0) + a51 * p1) + a52 * p2) + a53 * p3) + a54 * p4)
            for yc, p0, p1, p2, p3, p4 in zip(y, k0, k1, k2, k3, k4)
        ]))
        y_new = tuple([
            yc + h * ((((((0.0 + a60 * p0) + a61 * p1) + a62 * p2) + a63 * p3)
                       + a64 * p4) + a65 * p5)
            for yc, p0, p1, p2, p3, p4, p5 in zip(y, k0, k1, k2, k3, k4, k5)
        ])
        k6 = rhs(t + c6 * h, y_new)
        errs = [
            h * (((((((0.0 + e0 * p0) + e1 * p1) + e2 * p2) + e3 * p3) + e4 * p4)
                  + e5 * p5) + e6 * p6)
            for p0, p1, p2, p3, p4, p5, p6 in zip(k0, k1, k2, k3, k4, k5, k6)
        ]
        # max() drops a NaN that np.maximum keeps, but a NaN in y_new comes
        # with a NaN or inf error term, so err is inf either way
        scales = [abs_tol + rel_tol * max(abs(yc), abs(nc)) for yc, nc in zip(y, y_new)]
        try:
            sq = 0.0
            for e, sc in zip(errs, scales):
                q = e / sc
                sq += q * q
            err = math.sqrt(sq / len(errs))
        except ZeroDivisionError:  # IEEE inf/NaN, as NumPy gives
            err = _rms(np.array(errs), np.array(scales))
        return y_new, k6, err

    return trial


def forcing_per_call(inputs: TheoremInputs, t: float) -> float:
    """b(t) = lambda / (Q q(t))^(n(p-1)/2), composed afresh at each call."""
    Q = cone_ball_factor(inputs.params)
    expo = inputs.params.n * (inputs.p - 1.0) / 2.0
    return inputs.lam / rpow(Q * q_eval(inputs.geom, t), expo)


def log_q_tilde_per_call(geom: ConeGeometry, t: float, verdict: Monotonicity) -> float:
    """log q~ at one time from the generic evaluators, every constant
    recomputed per call: r0^2 when ``verdict`` is non-increasing, else
    log q = H s + 2 log r, with log r in log space past k s = _EXP_SAFE."""
    _check_time(t, geom.params.T0)
    if verdict is Monotonicity.NON_INCREASING:
        return 2.0 * math.log(geom.r0)
    s, w, k = _radius_terms(geom.params, t)
    z = k * s
    if z <= _EXP_SAFE:
        log_r = math.log(geom.r0 + w * _expm1_ratio(k, s))
    else:
        log_r = math.log(w / z) + z + math.log1p(geom.r0 * z / w * math.exp(-z))
    return geom.params.H * s + 2.0 * log_r


def curved_mass_sq_per_call(params: CosmologyParams, t: float) -> float:
    """M^2(t) = m^2 + sigma (nH/2c)^2 (1 + e H t)^-2 with every constant
    recomputed per call."""
    _check_time(t, params.T0)
    n, c, H = params.n, params.c, params.H
    g = 1.0 + params.e * H * t
    return params.m_squared + params.sigma * (n * H / (2.0 * c)) ** 2 / (g * g)


def scale_derivatives(params: CosmologyParams, t):
    """(a, adot, addot) at time t in [0, T0): adot = H a/g and addot =
    H^2 (1 - e) a/g^2 on the closed-form family, g = 1 + e H t."""
    a = scale_eval(params, t)
    H = params.H
    g = 1.0 + params.eH * t
    return a, H * a / g, H * H * (1.0 - params.e) * a / (g * g)


def curved_mass_sq_from_scale(params: CosmologyParams, t: float) -> float:
    """M^2 from the defining combination of scale-factor derivatives."""
    a, adot, addot = scale_derivatives(params, t)
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
    a = scale_eval(inputs.params, field.t)
    coef = inputs.lam * rpow(a, -inputs.params.n * (inputs.p - 1.0) / 2.0)
    return coef * float(np.sum(grid_weights(field)[0] * np.abs(field.u) ** inputs.p))


def ball_integral(n: int, r0: float, exponent: int) -> float:
    """Exact integral of (1 - (r/r0)^2)^k over the ball |x| <= r0 in R^n."""
    omega = unit_ball_volume(n)
    return (
        n
        * omega
        * r0**n
        * math.gamma(n / 2.0)
        * math.gamma(exponent + 1.0)
        / (2.0 * math.gamma(n / 2.0 + exponent + 1.0))
    )


@dataclass(frozen=True)
class Bump:
    """Scaled compactly supported bump pair: u0 = s0 phi, u1 = s1 phi, with
    phi = (1 - (r/r0)^2)^exponent inside r0."""

    r0: float
    s0: float
    s1: float
    exponent: int = 3

    def profile(self, r: np.ndarray) -> np.ndarray:
        y = np.clip(np.abs(np.asarray(r, dtype=float)) / self.r0, 0.0, None)
        out = np.zeros_like(y)
        inside = y < 1.0
        out[inside] = (1.0 - y[inside] ** 2) ** self.exponent
        return out

    def u0(self, r: np.ndarray) -> np.ndarray:
        return self.s0 * self.profile(r)

    def u1(self, r: np.ndarray) -> np.ndarray:
        return self.s1 * self.profile(r)


def bump_data(n: int, r0: float, w0: float, w1: float, exponent: int = 3) -> Bump:
    """Bump pair whose ball integrals equal w0 and w1; exponent 3 is the
    data ``pde.make_field`` builds."""
    mass = ball_integral(n, r0, exponent)
    return Bump(r0=r0, s0=w0 / mass, s1=w1 / mass, exponent=exponent)


def smooth_data() -> Bump:
    """Exponent-6 data with W = 2 on the line: smooth enough for the
    centered stencil's second-order convergence to show."""
    return bump_data(1, 1.0, 2.0, 0.0, exponent=6)


def profile_antiderivative(data: Bump, x) -> np.ndarray:
    """Integral of the unit profile from 0 to x (odd in x), clamped at the
    support edge; closed form from the binomial expansion."""
    y = np.clip(np.asarray(x, dtype=float) / data.r0, -1.0, 1.0)
    k = data.exponent
    acc = np.zeros_like(y)
    for j in range(k + 1):
        acc += math.comb(k, j) * (-1.0) ** j * y ** (2 * j + 1) / (2 * j + 1)
    return data.r0 * acc


def dalembert_oracle(data: Bump, inputs: TheoremInputs, t: float, x) -> np.ndarray:
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
