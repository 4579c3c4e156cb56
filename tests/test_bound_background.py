"""The comparison ODE's bound background closures against the per-call forms.

``ode.forcing_coefficient`` and ``cosmology.mass_sq_function`` bind their
constants once per integration.  They must give, at every time, the same
bits as the composition they replaced, which recomputes every constant per
call: ``lambda / rpow(Q q_eval(geom, t), expo)`` and the closed-form M^2
(both kept in ``oracles.py``).  Out of range they must raise the same
``DomainError``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgblowup import DomainError
from kgblowup.cosmology import HORIZON_MARGIN, mass_sq_function
from kgblowup.ode import forcing_coefficient

from conftest import make_inputs
from oracles import curved_mass_sq_per_call, forcing_per_call


def _outcome(f, t):
    """The bits of f(t), or the type and message of what it raised."""
    try:
        return np.float64(f(t)).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def theorem_inputs(draw):
    n = draw(st.integers(1, 4))
    special = draw(st.sampled_from([-1.0, -1.0 + 2.0 / n, -0.3333333333333333]))
    near = special + draw(st.one_of(st.just(0.0), st.floats(-1e-14, 1e-14)))
    sigma = draw(st.one_of(st.just(near), st.floats(-3.0, 3.0)))
    size = draw(st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(1e-300, 4.0)))
    H = size * draw(st.sampled_from([1.0, -1.0]))
    return make_inputs(
        H, sigma,
        m2=draw(st.floats(-4.0, 4.0)),
        n=n,
        c=draw(st.floats(0.5, 2.0)),
        a0=draw(st.floats(0.5, 2.0)),
        r0=draw(st.floats(0.01, 10.0)),
        lam=draw(st.floats(0.1, 10.0)),
        p=draw(st.floats(1.05, 9.0)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=theorem_inputs(), frac=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=6))
def test_bound_closures_match_the_per_call_forms(inputs, frac):
    params = inputs.params
    T0 = params.T0
    span = 0.9 * T0 if math.isfinite(T0) else 20.0
    times = [0.0, -0.0] + [f / 0.9 * span for f in frac]
    forcing = forcing_coefficient(inputs)
    mass = mass_sq_function(params)
    for t in times:
        assert _outcome(forcing, t) == _outcome(lambda x: forcing_per_call(inputs, x), t), t
        assert _outcome(mass, t) == _outcome(lambda x: curved_mass_sq_per_call(params, x), t), t


@settings(max_examples=100, deadline=None, derandomize=True)
@given(inputs=theorem_inputs())
def test_bound_closures_raise_like_the_per_call_forms(inputs):
    params = inputs.params
    T0 = params.T0
    times = [-1e-300, -1.0, -math.inf]
    if math.isfinite(T0):
        edge = T0 * (1.0 - HORIZON_MARGIN)
        times += [edge, math.nextafter(edge, math.inf), T0, 2.0 * T0, math.inf]
    forcing = forcing_coefficient(inputs)
    mass = mass_sq_function(params)
    for t in times:
        expected = _outcome(lambda x: forcing_per_call(inputs, x), t)
        assert expected[0] == "DomainError", t
        assert _outcome(forcing, t) == expected
        assert _outcome(mass, t) == _outcome(lambda x: curved_mass_sq_per_call(params, x), t)


def test_mass_function_takes_arrays():
    """The bound M^2 evaluates a whole array, range-checked as one."""
    params = make_inputs(-1.0, 0.0).params
    times = np.linspace(0.0, 0.9 * params.T0, 7)
    expected = [curved_mass_sq_per_call(params, t) for t in times]
    assert mass_sq_function(params)(times).tobytes() == np.array(expected).tobytes()
    with pytest.raises(DomainError, match="at or beyond the horizon"):
        mass_sq_function(params)(np.array([0.0, params.T0]))
