"""Reference formulas the tests check the package against.

Each one computes a quantity a second way, from its definition, so a test
can compare it with the package's closed form or solver.
"""

import math

import numpy as np

from kgblowup import ConfigurationError, CosmologyParams, scale_eval
from kgblowup.certificate import TheoremInputs
from kgblowup.pde import InitialData


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
