"""The bound background closures against the per-call forms.

``ode.forcing_coefficient`` and ``cosmology.mass_sq_function`` bind their
constants once per integration, and ``cone.log_q_tilde_function`` once per
certificate background.  They must give, at every time, the same bits as
the composition they replaced, which recomputes every constant per call:
``lambda / rpow(Q q_eval(geom, t), expo)``, the closed-form M^2 and log q~
from ``cone._radius_terms`` (all kept in ``oracles.py``).  Out of range
they must raise the same ``DomainError``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgblowup import DomainError
from kgblowup.cone import _EXP_SAFE, Monotonicity, _radius_terms, classify_q, log_q_tilde_function
from kgblowup.cosmology import HORIZON_MARGIN, mass_sq_function
from kgblowup.ode import forcing_coefficient

from conftest import make_inputs
from oracles import curved_mass_sq_per_call, forcing_per_call, log_q_tilde_per_call


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


def _log_q_times(geom):
    """Times on both sides of the k s = _EXP_SAFE switch where the run
    reaches it, zeros of both signs, and the horizon's edge."""
    params = geom.params
    T0 = params.T0
    times = [0.0, -0.0, 1e-12, 0.5, 1.0]
    if math.isfinite(T0):
        times += [0.5 * T0, T0 * (1.0 - 1e-9), T0 * (1.0 - HORIZON_MARGIN), T0]
    else:
        times += [1e3, 1e6, 1e30, 1e300, math.inf]
    if params.radius_rate > 0.0 and params.eH == 0.0:  # s = t: the switch at t = _EXP_SAFE / k
        switch = _EXP_SAFE / params.radius_rate
        times += [math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)]
    return times + [-1e-300, -1.0, math.nan]


def _check_log_q(geom, verdict):
    bound = log_q_tilde_function(geom, verdict)
    branches = set()
    for t in _log_q_times(geom):
        expected = _outcome(lambda x: log_q_tilde_per_call(geom, x, verdict), t)
        assert _outcome(bound, t) == expected, t
        if not isinstance(expected, tuple) and verdict is not Monotonicity.NON_INCREASING:
            s, _, k = _radius_terms(geom.params, t)
            branches.add(k * s <= _EXP_SAFE)
    return branches


# (H, sigma, n, r0): k = 0 (e = 1), e = 1/2, signed zeros of H, finite and
# infinite T0, log space past k s = _EXP_SAFE, and a non-increasing q
# (whose T0 is always finite: H < 0 and e >= 1/2)
LOG_Q_BACKGROUNDS = {
    "flat": (0.0, 0.0, 1, 1.0),
    "flat_negative_zero": (-0.0, 0.0, 1, 1.0),
    "flat_negative_zero_sigma_below": (-0.0, -2.0, 3, 1.0),
    "coasting_e1": (0.5, -1.0 + 2.0 / 3, 3, 1.0),
    "coasting_e1_contracting": (-0.5, 0.0, 2, 0.1),
    "de_sitter_contracting_log_space": (-0.45, -1.0, 1, 1.0),
    "power_law_contracting_log_space": (-1.0, -2.0, 1, 0.5),
    "de_sitter_expanding": (1.0, -1.0, 2, 1.0),
    "big_crunch": (-1.0, 1.0, 1, 0.5),
    "e_half_contracting": (-0.45, 0.0, 1, 1.0),
    "non_increasing": (-1.0, 0.0, 1, 3.0),
    "non_increasing_n3": (-1.0, 1.0, 3, 2.5),
}


@pytest.mark.parametrize("name", sorted(LOG_Q_BACKGROUNDS))
def test_bound_log_q_tilde_matches_the_per_call_form(name):
    H, sigma, n, r0 = LOG_Q_BACKGROUNDS[name]
    geom = make_inputs(H, sigma, n=n, r0=r0).geom
    verdict = classify_q(geom)
    branches = _check_log_q(geom, verdict)
    for other in Monotonicity:
        _check_log_q(geom, other)
    if name.endswith("log_space"):
        assert branches == {True, False}
    assert (verdict is Monotonicity.NON_INCREASING) == name.startswith("non_increasing")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=theorem_inputs(), frac=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_bound_log_q_tilde_matches_on_sampled_backgrounds(inputs, frac):
    geom = inputs.geom
    T0 = geom.params.T0
    span = T0 if math.isfinite(T0) else 1e4
    bound = {v: log_q_tilde_function(geom, v) for v in Monotonicity}
    for t in [0.0, -0.0] + [f * span for f in frac]:
        for verdict, f in bound.items():
            expected = _outcome(lambda x: log_q_tilde_per_call(geom, x, verdict), t)
            assert _outcome(f, t) == expected, (t, verdict)
