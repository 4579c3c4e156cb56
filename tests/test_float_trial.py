"""The generated tuple trial against the comprehension trial it replaced.

``integrate._float_trial(size)`` compiles the Dormand-Prince trial for a
tuple state of ``size`` components as straight-line code.  It must give,
bit for bit, what ``oracles.comprehension_float_trial`` gives and, for two
or more components, what ``integrate._array_trial`` gives on the same
state as an ndarray: the stage states ``rhs`` sees, the new solution, the
last slope and the error norm.  ``ode.integrate``, whose phase-1 right-hand side writes ``b(t)``
and ``|w|^p`` out inline, must give the trajectory of the comprehension
trial driven by the per-call composition of ``b``, ``rpow`` and ``M^2``.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgblowup import integrate as integrate_mod
from kgblowup import ode
from kgblowup.certificate import certify, rpow
from kgblowup.cosmology import t_cap
from kgblowup.integrate import TerminationReason, _array_trial, _float_trial, dopri_integrate
from kgblowup.scenario import RunSettings, load_scenario

from conftest import make_inputs
from oracles import comprehension_float_trial, curved_mass_sq_per_call, forcing_per_call

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def _bits(x):
    """The bytes of x with every NaN made the same NaN.  IEEE 754 leaves open
    which NaN an operation passes on, and CPython does not pin it down
    either: the same Python expression gave NaNs of either sign from one
    call to the next.  So only NaN-ness is compared; zeros and infinities
    keep their sign."""
    v = np.array(x, dtype=float)
    v[np.isnan(v)] = math.nan
    return v.tobytes()


_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e308])
_value = st.one_of(_special, st.floats(-1e3, 1e3), st.floats(allow_nan=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 7),
    data=st.data(),
    t=st.floats(-10.0, 10.0),
    h=st.one_of(st.floats(1e-12, 2.0), st.just(0.5)),
    rel_tol=st.one_of(st.floats(1e-12, 1e-2), st.just(0.0)),
    abs_tol=st.floats(1e-14, 1e-2),
)
def test_generated_trial_matches_the_comprehension_and_array_trials(
    size, data, t, h, rel_tol, abs_tol
):
    """Signed zeros, inf, NaN in the state and the slopes, and a zero rel_tol."""
    y = tuple(data.draw(st.lists(_value, min_size=size, max_size=size)))
    slopes = data.draw(st.lists(_value, min_size=7 * size, max_size=7 * size))
    # a slope that also reads the stage state carries its bits into the next stage
    mix = data.draw(st.lists(st.booleans(), min_size=7 * size, max_size=7 * size))

    def make_rhs(wrap, seen):
        def rhs(s, v):
            seen.append((_bits(s), _bits(list(v))))
            i = len(seen) % 7
            out = [
                slopes[i * size + j] + float(v[j]) if mix[i * size + j] else slopes[i * size + j]
                for j in range(size)
            ]
            return wrap(out)

        return rhs

    k0 = tuple(slopes[:size])
    seen = ([], [], [])
    outs = [
        _float_trial(size)(make_rhs(tuple, seen[0]), rel_tol, abs_tol)(t, h, y, k0),
        comprehension_float_trial(make_rhs(tuple, seen[1]), rel_tol, abs_tol)(t, h, y, k0),
    ]
    array_formula = make_rhs(list, seen[2])

    def array_rhs(s, v, out):
        out[...] = array_formula(s, v)
        return out

    with np.errstate(all="ignore"):
        arr = np.array(y, dtype=float)
        trial, buffers = _array_trial(array_rhs, arr, rel_tol, abs_tol)
        buffers[0][...] = k0
        outs.append(trial(t, h, arr, buffers[0]))
    generated, comprehension, array = ([_bits(v) for v in out] for out in outs)
    assert seen[0] == seen[1] and generated == comprehension
    # einsum may reorder the stage sums of a one-element array (see integrate)
    if size > 1:
        assert seen[2] == seen[0] and array == generated


def test_each_size_compiles_once():
    assert _float_trial(3) is _float_trial(3)
    assert _float_trial(2) is not _float_trial(3)


def _p5_point():
    """A certified sweep_ode point with p near 5, where a stop rule that
    waits for the step to collapse ends in StepUnderflow."""
    inputs = make_inputs(0.5, -1.0, N=1.5, p=5.0, w0=60.0, w1=1e6)
    cert = certify(inputs)
    assert cert.valid
    t_end = t_cap(1.05 * cert.T_star, inputs.params)
    return inputs, RunSettings(), t_end, TerminationReason.BLOWUP_THRESHOLD


def _cubic_benchmark():
    """cubic_ode_benchmark: the forcing and mass overrides replace b and M^2."""
    sc = load_scenario(SCENARIOS / "cubic_ode_benchmark.json")
    return sc.inputs, sc.run, sc.run.t_end, TerminationReason.BLOWUP_THRESHOLD


def _de_sitter_blowup():
    inputs = make_inputs(1.0, -1.0, N=1.5, w0=40.0, w1=450.0)
    return inputs, RunSettings(), 0.5, TerminationReason.BLOWUP_THRESHOLD


def test_comparison_ode_matches_the_comprehension_trial(monkeypatch):
    """Whole trajectories, bit for bit, against the comprehension trial
    driven by the per-call right-hand side."""
    runs = [_p5_point(), _cubic_benchmark(), _de_sitter_blowup()]
    new = [ode.integrate(inputs, t_end, controls) for inputs, controls, t_end, _ in runs]

    old = []
    for inputs, controls, t_end, _ in runs:
        params, p, c2 = inputs.params, inputs.p, inputs.params.c ** 2

        def per_call_rhs(t, y, inputs=inputs, controls=controls, params=params, p=p, c2=c2):
            w, v = y
            b = controls.ode_forcing_const
            if b is None:
                b = forcing_per_call(inputs, t)
            m2 = controls.ode_mass_sq_const
            if m2 is None:
                m2 = curved_mass_sq_per_call(params, t)
            return v, c2 * (b * rpow(abs(w), p) - m2 * w)

        def via_oracles(rhs, t0, y0, t_stop, rhs_oracle=per_call_rhs, **kw):
            # phase 2's (t, l, rho) right-hand side reads b and M^2 through
            # the same closures as phase 1's, so it is kept
            return dopri_integrate(rhs_oracle if len(y0) == 2 else rhs, t0, y0, t_stop, **kw)

        with monkeypatch.context() as m:
            m.setattr(integrate_mod, "_float_trial", lambda size: comprehension_float_trial)
            m.setattr(ode, "dopri_integrate", via_oracles)
            old.append(ode.integrate(inputs, t_end, controls))

    for a, b, (_, _, _, status) in zip(new, old, runs):
        assert a.rk.status is status
        for field in ("t", "w", "wdot"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.rk.status, a.rk.n_steps, a.rk.n_rejected, a.rk.n_rhs) == (
            b.rk.status, b.rk.n_steps, b.rk.n_rejected, b.rk.n_rhs
        )
        assert _bytes(a.rk.y) == _bytes(b.rk.y)
        assert _bytes(a.rk.last_h) == _bytes(b.rk.last_h)
        assert a.rk.blowup_time == b.rk.blowup_time
