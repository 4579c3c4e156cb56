"""The bound background closures against the per-call forms.

A background's forms (``ConeGeometry.forms``) bind their constants once:
``ode.forcing_coefficient``'s b, M^2, r and log q, and
``cone.log_q_tilde_function`` per certificate background.  They must
give, at every time, the same bits as the compositions in
``oracles.py``, which recompute every constant per call and write s, r
and the range check out with ``math``: ``lambda / rpow(Q q_eval(geom,
t), expo)``, the closed-form M^2, r and log q~.  Out of range they must
raise the same ``DomainError``.  Every form's domain ends at the
background's ``t_last``, where runs end too.
"""

import math
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgblowup import DomainError, ode, pde
from kgblowup.cone import (
    Monotonicity, classify_q, comoving_radius, log_q_tilde_eval, log_q_tilde_function,
)
from kgblowup.cosmology import _EXP_SAFE, curved_mass_sq, mass_sq_function, scale_eval
from kgblowup.integrate import TerminationReason
from kgblowup.ode import forcing_coefficient
from kgblowup.scenario import load_scenario

from conftest import make_inputs
from oracles import (
    curved_mass_sq_per_call, forcing_per_call, log_q_tilde_per_call, log_scale_time_per_call,
    radius_per_call, scale_per_call,
)


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


# backgrounds of each kind of forms, by the zeros of H and e H: (H, sigma, n, kind)
_FORCING_BODIES = [
    (0.0, 0.0, 1, "flat"),
    (-0.0, 0.0, 1, "flat"),
    (0.5, -1.0, 1, "steady"),
    (-0.5, -1.0, 1, "steady"),
    (5e-324, -0.5, 1, "steady"),  # e H underflows to 0, k = -5e-324 does not
    (5e-324, -0.5, 3, "general"),  # e H = 5e-324, k underflows to -0.0
    (0.5, 0.0, 2, "general"),  # coasting: k = 0 exactly
    (1.0, 0.0, 1, "general"),  # expanding
    (-1.0, 2.0, 1, "general"),  # contracting, T0 = 2/3
]


def _at_every_forcing_body(test):
    """An explicit example per background of _FORCING_BODIES, at 0.0,
    -0.0 and three times up to 0.9 T0 (or 20)."""
    for H, sigma, n, _ in _FORCING_BODIES:
        test = example(inputs=make_inputs(H, sigma, n=n), frac=[0.05, 0.5, 0.9])(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=theorem_inputs(), frac=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=6))
@_at_every_forcing_body
def test_bound_closures_match_the_per_call_forms(inputs, frac):
    params = inputs.params
    T0 = params.T0
    span = 0.9 * T0 if math.isfinite(T0) else 20.0
    times = [0.0, -0.0] + [f / 0.9 * span for f in frac]
    forms, geom = inputs.geom.forms, inputs.geom
    pairs = [
        (forcing_coefficient(inputs), lambda x: forcing_per_call(inputs, x)),
        (forms.mass_sq, lambda x: curved_mass_sq_per_call(params, x)),
        (forms.r, lambda x: radius_per_call(geom, x)),
        (forms.log_q, lambda x: log_q_tilde_per_call(geom, x, Monotonicity.NON_DECREASING)),
        (lambda x: scale_eval(params, x), lambda x: scale_per_call(params, x)),
    ]
    for t in times:
        for bound, per_call in pairs:
            assert _outcome(bound, t) == _outcome(per_call, t), t
        if forms.fixed_mass_sq is not None:
            assert _outcome(forms.mass_sq, t) == _outcome(lambda x: forms.fixed_mass_sq, t), t
        if forms.fixed_scale is not None:
            assert _outcome(lambda x: scale_eval(params, x), t) == _outcome(
                lambda x: forms.fixed_scale, t), t


@pytest.mark.parametrize("H, sigma, n, kind", _FORCING_BODIES)
def test_forcing_body_follows_the_zeros_of_the_background(H, sigma, n, kind):
    """The explicit examples above reach every kind of forms, and so every
    body of the forcing; the bound M^2 and a exist where the kind says."""
    inputs = make_inputs(H, sigma, n=n)
    forms, params = inputs.geom.forms, inputs.params
    assert (params.H == 0.0, params.eH == 0.0) == (kind == "flat", kind != "general")
    assert forms.kind == kind
    assert (forms.fixed_mass_sq is None, forms.fixed_scale is None) == (
        kind == "general", kind != "flat")


def test_a_pickled_geometry_leaves_its_forms_behind():
    """The forms hold closures, which do not pickle: a geometry whose forms
    are built (as a sweep's parent process may) pickles without them, and
    the copy builds its own."""
    geom = make_inputs(0.5, -1.0).geom
    r = geom.forms.r(0.5)
    copy = pickle.loads(pickle.dumps(geom))
    assert "forms" in vars(geom) and "forms" not in vars(copy)
    assert copy == geom and copy.forms is not geom.forms and copy.forms.r(0.5) == r


@settings(max_examples=100, deadline=None, derandomize=True)
@given(inputs=theorem_inputs())
def test_bound_closures_raise_like_the_per_call_forms(inputs):
    params = inputs.params
    T0 = params.T0
    times = [-1e-300, -1.0, -math.inf]
    if math.isfinite(T0):
        times += [math.nextafter(params.t_last, math.inf), T0, 2.0 * T0, math.inf]
    forcing = forcing_coefficient(inputs)
    mass = mass_sq_function(params)
    r, log_q = inputs.geom.forms.r, inputs.geom.forms.log_q
    for t in times:
        expected = _outcome(lambda x: forcing_per_call(inputs, x), t)
        assert expected[0] == "DomainError", t
        assert _outcome(forcing, t) == expected
        assert _outcome(mass, t) == _outcome(lambda x: curved_mass_sq_per_call(params, x), t)
        assert _outcome(r, t) == _outcome(lambda x: radius_per_call(inputs.geom, x), t)
        assert _outcome(log_q, t) == expected
        assert _outcome(lambda x: scale_eval(params, x), t) == expected


def test_mass_function_takes_arrays():
    """The bound M^2 evaluates a whole array, range-checked as one."""
    params = make_inputs(-1.0, 0.0).params
    times = np.linspace(0.0, 0.9 * params.T0, 7)
    expected = [curved_mass_sq_per_call(params, t) for t in times]
    assert mass_sq_function(params)(times).tobytes() == np.array(expected).tobytes()
    with pytest.raises(DomainError, match="the last time short of the horizon"):
        mass_sq_function(params)(np.array([0.0, params.T0]))


def _refuses(f, t):
    """Whether f(t) raises DomainError; any other outcome is acceptance."""
    try:
        f(t)
    except DomainError:
        return True
    except ArithmeticError:
        pass
    return False


@settings(max_examples=100, deadline=None, derandomize=True)
@given(inputs=theorem_inputs())
def test_every_form_accepts_t_last_and_refuses_the_next_float(inputs):
    """The closed forms' domain is [0, t_last], for one time and for an
    array, bound or per call: what runs and the certificate grid reach."""
    params, geom = inputs.params, inputs.geom
    last = params.t_last
    if math.isinf(last):
        return
    verdicts = (Monotonicity.NON_DECREASING, Monotonicity.NON_INCREASING)
    one_time = [forcing_coefficient(inputs), lambda t: forcing_per_call(inputs, t)]
    one_time += [log_q_tilde_function(geom, v) for v in verdicts]
    one_time += [lambda t, v=v: log_q_tilde_per_call(geom, t, v) for v in verdicts]
    either = [mass_sq_function(params), lambda t: curved_mass_sq(params, t),
              lambda t: curved_mass_sq_per_call(params, t), lambda t: scale_eval(params, t),
              lambda t: comoving_radius(geom, t)]
    either += [lambda t, v=v: log_q_tilde_eval(geom, t, v) for v in verdicts]
    after = math.nextafter(last, math.inf)
    with np.errstate(all="ignore"):
        for f in one_time + either:
            assert not _refuses(f, last) and _refuses(f, after)
        for f in either:
            assert not _refuses(f, np.array([0.0, last]))
            assert _refuses(f, np.array([0.0, after]))


def test_runs_to_the_horizon_end_at_t_last():
    """short_horizon (T0 = 0.002) run to T0 ends in ReachedHorizon at t_last,
    by the comparison ODE and by the PDE (on a grid of 27 nodes)."""
    sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "regress"
                       / "short_horizon.json")
    params = sc.inputs.params
    runs = [ode.integrate(sc.inputs, params.T0, sc.run).rk,
            pde.run_pde(sc.inputs, params.T0, replace(sc.run, grid_h=1e5)).rk]
    for rk in runs:
        assert rk.status is TerminationReason.REACHED_HORIZON and rk.t == params.t_last


def _log_q_times(geom):
    """Times on both sides of the k s = _EXP_SAFE switch where the run
    reaches it, zeros of both signs, and the horizon's edge."""
    params = geom.params
    T0 = params.T0
    times = [0.0, -0.0, 1e-12, 0.5, 1.0]
    if math.isfinite(T0):
        times += [0.5 * T0, params.t_last, math.nextafter(params.t_last, math.inf), T0]
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
            branches.add(geom.params.radius_rate * log_scale_time_per_call(geom.params, t)
                         <= _EXP_SAFE)
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
