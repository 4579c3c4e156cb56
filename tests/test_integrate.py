"""dopri_integrate against the generator-sum stepper it replaced.

``reference_dopri`` below is the earlier stepper: every stage sum is a
Python ``sum`` over freshly allocated NumPy arrays, and the step controller
keeps the last trial's outcome in a record.  ``dopri_integrate`` must
reproduce it bit for bit in both of its arithmetics (tuple states on
Python floats, ndarray states with a stacked slope array) on states of
two or more components: every ``RkResult`` field and every ``on_step``
call, compared with ``tobytes()`` so signed zeros and the last bit count.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kgblowup
from kgblowup import ode, pde
from kgblowup import integrate
from kgblowup.certificate import certify
from kgblowup.cli import main
from kgblowup.cosmology import t_cap
from kgblowup.integrate import (
    RkResult, TerminationReason, _array_trial, _float_trial, _stage_sum, dopri_integrate,
)
from kgblowup.scenario import RunSettings, load_scenario, scenario_from_dict

from conftest import make_inputs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# --------------------------------------------------------------------------
# the oracle: the generator-sum stepper, unchanged
# --------------------------------------------------------------------------

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _reference_initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, t_span):
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_span)


def reference_dopri(
    rhs, t0, y0, t_end, rel_tol=1e-10, abs_tol=1e-12, *, max_steps=2_000_000, on_step=None,
    active=None,
):
    """The generator-sum Dormand-Prince stepper; ndarray states only.

    Its counters are kept apart from the stepping: every call of ``rhs`` is
    counted, and ``min_step`` is the least step handed to an acceptance.
    The step controller is written from its rule: Gustafsson's predictive
    factor when the last trial was accepted with a nonzero error, the
    plain ``0.9 err^-1/5`` otherwise, clamped to [0.2, 5], and to at most
    1 right after a rejection.
    ``active`` is accepted and ignored: every trial runs on the whole state.
    Each call ``rhs(t, y, out)`` gets a fresh zeroed ``out``.
    """
    calls = [0]
    accepted = []

    def counted(t, y):
        calls[0] += 1
        return f(t, y, np.zeros_like(y))

    f, rhs = rhs, counted

    def R(status, t, y, blowup_time, n_steps, n_rejected, h):
        min_step = min(accepted) if accepted else None
        return RkResult(status, t, y, blowup_time, n_steps, n_rejected, calls[0], min_step, h)

    y = np.array(y0, dtype=float, copy=True)
    t = float(t0)
    f0 = rhs(t, y)
    h = _reference_initial_step(rhs, t, y, f0, rel_tol, abs_tol, t_end - t0)
    k = [f0] + [np.empty_like(y) for _ in range(6)]
    n_steps = n_rejected = 0
    last = {"accepted": None, "h": None, "err": None}  # the last trial

    while t < t_end:
        if n_steps >= max_steps:
            return R(TerminationReason.MAX_STEPS, t, y, None, n_steps, n_rejected, h)
        h = min(h, t_end - t)
        if t + h == t:
            return R(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)
        step_floor = 1e-16 * max(1.0, abs(t))
        if h < step_floor:
            return R(TerminationReason.STEP_UNDERFLOW, t, y, None, n_steps, n_rejected, h)

        for i in range(1, 7):
            yi = y + h * sum(_A[i][j] * k[j] for j in range(i))
            k[i] = rhs(t + _C[i] * h, yi)
        y_new = y + h * sum(_B5[j] * k[j] for j in range(6))
        err_vec = h * sum(_ERR[j] * k[j] for j in range(7))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(invalid="ignore", over="ignore"):
            err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
        if not math.isfinite(err):
            err = math.inf

        if err <= 1.0:
            n_steps += 1
            accepted.append(h)
            t = t + h
            y = y_new
            k[0] = k[6].copy()
            if on_step is not None and on_step(t, y, h):
                return R(TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected, h)
            if err == 0.0:
                factor = 5.0
            elif last["accepted"] and last["err"] > 0.0:
                factor = 0.9 * (h / last["h"]) * (last["err"] / err / err) ** 0.2
            else:
                factor = 0.9 * err ** -0.2
            top = 1.0 if last["accepted"] is False else 5.0
            last.update(accepted=True, h=h, err=err)
            h *= min(top, max(0.2, factor))
        else:
            n_rejected += 1
            last.update(accepted=False, h=h, err=err)
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < step_floor:
                return R(TerminationReason.STEP_UNDERFLOW, t, y, None, n_steps, n_rejected, h)

    return R(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def _fingerprint(integrator, rhs, y0, t_end, stop=None, **kw):
    """Every RkResult field and every on_step call, as bytes; ``stop(t, y,
    h)``, when given, is the on_step return that ends the run."""
    calls = []

    def on_step(t, y, h):
        calls.append((_bytes(t), _bytes(y), _bytes(h)))
        return stop is not None and stop(t, y, h)

    res = integrator(rhs, 0.0, y0, t_end, on_step=on_step, **kw)
    assert isinstance(res.y, np.ndarray)
    blow = None if res.blowup_time is None else _bytes(res.blowup_time)
    min_step = None if res.min_step is None else _bytes(res.min_step)
    fields = (res.status, _bytes(res.t), _bytes(res.y), blow, res.n_steps,
              res.n_rejected, res.n_rhs, min_step, _bytes(res.last_h))
    return fields, calls


def _as_array_rhs(f):
    """An ndarray rhs ``rhs(t, y, out)`` from a per-component formula."""

    def rhs(t, y, out):
        out[...] = f(t, y)
        return out

    return rhs


def _all_three(f, y0, t_end, **kw):
    """Fingerprints of the reference, the ndarray and the tuple arithmetic."""
    ref = _fingerprint(reference_dopri, _as_array_rhs(f), np.array(y0, dtype=float), t_end, **kw)
    arr = _fingerprint(dopri_integrate, _as_array_rhs(f), np.array(y0, dtype=float), t_end, **kw)
    tup = _fingerprint(dopri_integrate, lambda t, y: tuple(f(t, y)), tuple(y0), t_end, **kw)
    return ref, arr, tup


def _collapsed(t, y, h):
    """A stop rule of the PDE's kind: |y[0]| above 1e8 after a step below
    1e-14 max(1, t - h)."""
    return abs(float(y[0])) > 1e8 and h < 1e-14 * max(1.0, t - h)


# (formula, y0, t_end, keyword arguments, expected status)
CASES = {
    # w'' = w^3 with w(0) = 1, w'(0) = 1/sqrt(2): blow-up at t = sqrt(2)
    "cubic_blowup": (
        lambda t, y: (y[1], y[0] ** 3), (1.0, 1.0 / math.sqrt(2.0)), 2.0,
        dict(stop=_collapsed), TerminationReason.BLOWUP_THRESHOLD,
    ),
    "oscillator_to_horizon": (
        lambda t, y: (y[1], -y[0]), (1.0, 0.0), 10.0, {}, TerminationReason.REACHED_HORIZON,
    ),
    "zero_data": (
        lambda t, y: (y[1], -y[0]), (0.0, 0.0), 1.0, {}, TerminationReason.REACHED_HORIZON,
    ),
    "signed_zeros": (
        lambda t, y: (-0.0 * y[0], -y[1]), (-0.0, 1.0), 2.0, {},
        TerminationReason.REACHED_HORIZON,
    ),
    "max_steps": (
        lambda t, y: (y[1], -y[0]), (1.0, 0.0), 10.0, dict(max_steps=5),
        TerminationReason.MAX_STEPS,
    ),
    # w' = w^2 blows up at t = 1; no stop rule, so the step underflows
    "step_underflow": (
        lambda t, y: (y[0] * y[0], 0.0), (1.0, 0.0), 2.0, {}, TerminationReason.STEP_UNDERFLOW,
    ),
    # a jump in the slope at t = 0.5 forces rejections
    "rejected_steps": (
        lambda t, y: (1e3 if t > 0.5 else 0.0, -y[1]), (0.0, 1.0), 1.0,
        dict(rel_tol=1e-6, abs_tol=1e-8), TerminationReason.REACHED_HORIZON,
    ),
    # the tuple trial is generic in the number of components
    "one_component": (
        lambda t, y: (math.cos(3.0 * t) - y[0] * abs(y[0]),), (-0.5,), 3.0, {},
        TerminationReason.REACHED_HORIZON,
    ),
    "three_components": (
        lambda t, y: (y[1] - 0.3 * y[2], -y[0] + y[2] * y[2], -0.5 * y[2] + math.sin(t)),
        (1.0, -0.0, 0.25), 4.0, dict(rel_tol=1e-8), TerminationReason.REACHED_HORIZON,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_arithmetics_match_the_reference(name):
    f, y0, t_end, kw, status = CASES[name]
    ref, arr, tup = _all_three(f, y0, t_end, **kw)
    assert ref[0][0] is status
    assert tup == ref
    if name == "one_component":
        # einsum may reorder a one-element stage sum (see integrate), which
        # moves last bits and the step sequence, but not the solution
        assert arr[0][0] is status
        y_ref, y_arr = (np.frombuffer(r[0][2]) for r in (ref, arr))
        np.testing.assert_allclose(y_arr, y_ref, rtol=1e-9, atol=0.0)
    else:
        assert arr == ref
    if name == "rejected_steps":
        assert ref[0][5] > 0
    if name == "max_steps":
        assert ref[0][4] == 5


def test_signed_zero_first_term_becomes_positive():
    """sum() starts at 0, so a stage sum of -0.0 terms is +0.0.  The rhs
    reads the sign of the stage state, which makes a -0.0 visible in y."""
    f = lambda t, y: (-0.0, math.copysign(1.0, y[0]))  # noqa: E731
    ref, arr, tup = _all_three(f, (-0.0, 0.0), 0.5, max_steps=3)
    assert np.frombuffer(ref[0][2], dtype=float)[1] > 0.0
    assert arr == ref and tup == ref


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 4),
    signs=st.lists(st.booleans(), min_size=28, max_size=28),
)
def test_signed_zero_stages_agree(size, signs):
    """Slopes of signed zeros from a -0.0 state: a stage state is -0.0 only
    if its sum lost the leading +0.0, so every stage the rhs sees, and the
    step's result, must have the same bits in both arithmetics."""
    zeros = [-0.0 if s else 0.0 for s in signs]

    def make_rhs(seen):
        def rhs(t, y):
            seen.append(_bytes(list(y)))
            i = len(seen) % 7
            return tuple(zeros[i * size:(i + 1) * size])

        return rhs

    y = (-0.0,) * size
    f_seen, a_seen = [], []
    f_out = _float_trial(size)(make_rhs(f_seen), 1e-8, 1e-9)(
        0.0, 0.5, y, tuple(zeros[:size])
    )
    trial, slopes = _array_trial(_as_array_rhs(make_rhs(a_seen)), np.array(y), 1e-8, 1e-9)
    slopes[0][...] = zeros[:size]
    a_out = trial(0.0, 0.5, np.array(y), slopes[0])
    assert f_seen == a_seen
    assert [_bytes(v) for v in f_out] == [_bytes(v) for v in a_out]


def test_zero_scale_gives_nan_not_an_exception():
    """With abs_tol = 0 a component that stays 0 divides 0 by 0; the float
    arithmetic then falls back to NumPy's IEEE result."""
    zero = lambda t, y: (0.0, 0.0)  # noqa: E731
    f_err = _float_trial(2)(zero, 1e-8, 0.0)(0.0, 0.1, (0.0, 1.0), (0.0, 0.0))[2]
    y = np.array([0.0, 1.0])
    trial, slopes = _array_trial(_as_array_rhs(zero), y, 1e-8, 0.0)
    a_err = trial(0.0, 0.1, y, slopes[0])[2]
    assert math.isnan(f_err) and _bytes(f_err) == _bytes(a_err)


def test_zero_scale_with_an_error_gives_inf_without_a_warning():
    """rel_tol = abs_tol = 0 makes every scale 0, so a nonzero error term
    divides by zero: both arithmetics give the inf norm, and no
    RuntimeWarning, which -W error would turn into an exception."""
    rhs = lambda t, y: (math.exp(t),)  # noqa: E731
    y = np.zeros(1)
    trial, slopes = _array_trial(_as_array_rhs(rhs), y, 0.0, 0.0)
    slopes[0][...] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f_err = _float_trial(1)(rhs, 0.0, 0.0)(0.0, 0.5, (0.0,), (1.0,))[2]
        a_err = trial(0.0, 0.5, y, slopes[0])[2]
    assert f_err == a_err == math.inf


@pytest.mark.parametrize("y0", [(), np.zeros(0), np.zeros((4, 0))], ids=["tuple", "1d", "2d"])
def test_empty_state_is_a_value_error(y0):
    with pytest.raises(ValueError, match="at least one component"):
        dopri_integrate(lambda t, y, *out: y, 0.0, y0, 1.0)


def test_slope_buffers_are_reused():
    """An ndarray rhs writes into a few buffers the stepper owns, never
    into the state it reads, however many steps the run takes."""
    buffers = {}  # keeps each buffer alive, so no id is reused

    def rhs(t, y, out):  # the rate jumps at t = 1, which forces rejections
        assert not np.shares_memory(out, y)
        buffers[id(out)] = out
        return np.multiply(y, -20.0 if t > 1.0 else -1.0, out=out)

    res = dopri_integrate(rhs, 0.0, np.ones(3), 5.0, rel_tol=1e-8, abs_tol=1e-10)
    assert res.n_steps > 50 and res.n_rejected > 0
    assert len(buffers) <= 8


NAN_STEP_CASES = {
    "abs_tol=0 with a zero component": (
        "dopri_integrate(lambda t, y, out: np.negative(y, out=out), 0.0, np.array([1.0, 0.0]), "
        "1.0, abs_tol=0.0)"
    ),
    "NaN slope at t0": (
        "dopri_integrate(lambda t, y, out: np.multiply(y, np.nan, out=out) if t == 0.0 "
        "else np.negative(y, out=out), 0.0, np.array([1.0, 0.0]), 1.0)"
    ),
    "NaN slope at t0, tuple state": (
        "dopri_integrate(lambda t, y: (math.nan, 0.0) if t == 0.0 else (-y[0], -y[1]), "
        "0.0, (1.0, 0.0), 1.0)"
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_STEP_CASES))
def test_nan_step_ends_in_step_underflow(name):
    """Both inputs make the initial step NaN, which no `h < floor` test
    catches and rejected steps do not count toward max_steps: the loop used
    to run forever.  The call runs in a child process with a timeout, so a
    regression fails this test instead of hanging the suite."""
    src = str(Path(kgblowup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import math, warnings\n"
        "import numpy as np\n"
        "from kgblowup.integrate import dopri_integrate\n"
        "warnings.simplefilter('ignore')\n"
        f"r = {NAN_STEP_CASES[name]}\n"
        "print(r.status.value, r.n_steps, r.last_h)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["StepUnderflow", "0", "nan"]


def test_identity_rhs_returning_its_argument():
    """An rhs that returns the stage state itself is not corrupted by reuse."""
    ref = _fingerprint(reference_dopri, lambda t, y, out: y, np.array([1.0, -2.0]), 1.0)
    arr = _fingerprint(dopri_integrate, lambda t, y, out: y, np.array([1.0, -2.0]), 1.0)
    assert arr == ref


def test_on_step_states_are_not_reused():
    """States handed to on_step keep their values after later steps."""
    kept = []
    dopri_integrate(
        lambda t, y, out: np.negative(y, out=out), 0.0, np.ones(3), 1.0,
        on_step=lambda t, y, h: kept.append((y, y.copy())),
    )
    assert len(kept) > 2
    assert all(np.array_equal(y, snap) for y, snap in kept)


def test_comparison_ode_matches_the_reference(monkeypatch):
    """ode.integrate on the benchmark cubic and a de Sitter background."""
    runs = [
        (make_inputs(0.0, 0.0, N=0.0, w0=2 ** 0.5, w1=2 ** 0.5),
         RunSettings(ode_mass_sq_const=0.0, ode_forcing_const=1.0), 1.2),
        (make_inputs(1.0, -1.0, N=1.5, w0=40.0, w1=450.0), RunSettings(), 0.5),
    ]

    def via_reference(rhs, t0, y0, t_end, **kw):
        return reference_dopri(_as_array_rhs(rhs), t0, np.array(y0, dtype=float), t_end, **kw)

    new = [ode.integrate(inputs, t_end, controls) for inputs, controls, t_end in runs]
    monkeypatch.setattr(ode, "dopri_integrate", via_reference)
    old = [ode.integrate(inputs, t_end, controls) for inputs, controls, t_end in runs]
    assert new[0].blowup_detected
    for a, b in zip(new, old):
        for field in ("t", "w", "wdot"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.rk.status, a.rk.n_steps) == (b.rk.status, b.rk.n_steps)
        assert _bytes(a.rk.last_h) == _bytes(b.rk.last_h)
        assert a.rk.blowup_time == b.rk.blowup_time


def _pde_case(name):
    """(field, inputs, t_end, controls) of one windowed-PDE case."""
    if name == "cubic_ode_benchmark":  # the window reaches every node
        scenario = load_scenario(SCENARIOS / "cubic_ode_benchmark.json")
        inputs, run = scenario.inputs, scenario.run
        t_end, controls = run.t_end, RunSettings(grid_h=run.grid_h, pde_rel_tol=run.pde_rel_tol)
    elif name == "curved_n4":  # cm[1] < 0 at n = 4, mass term on
        inputs, t_end = make_inputs(1.0, 1.0, m2=2.0, n=4, w0=1.0, w1=0.5), 0.1
        controls = RunSettings(grid_h=4e-3)
    else:
        sign = -1.0 if name == "negative" else 1.0  # negative data: a -0.0 tail
        inputs = make_inputs(0.0, 0.0, N=2.0, w0=16.0 * sign, w1=64.0 * sign)
        t_end, controls = (0.525, RunSettings(grid_h=4e-3)) if name == "blowup" else (
            0.2, RunSettings(grid_h=1e-2))
    return pde.make_field(inputs, t_end, controls), inputs, t_end, controls


@pytest.mark.parametrize("name", ["blowup", "curved_n4", "negative", "cubic_ode_benchmark"])
def test_windowed_pde_matches_the_reference(name, monkeypatch):
    """pde.evolve with its light-cone window against evolve driven by the
    whole-state reference stepper, byte for byte.  Under both steppers
    every RHS call gets a state that is zero from node w - 2 on, which is
    what makes the prefix kernel call equal the full one (see
    test_kernels.py); or w is the whole grid."""
    field, inputs, t_end, controls = _pde_case(name)
    J = field.r.size
    sizes = []
    kernel = pde.radial_accel

    def spy(u, *args, **kw):
        sizes.append(u.size)
        kernel(u, *args, **kw)

    def checked(stepper):
        def call(rhs, *args, **kw):
            def rhs_checked(t, y, out):
                out = rhs(t, y, out)
                w = sizes[-1]
                assert w == J or not y[:, w - 2:].any(), (t, w)
                assert not out[:, w:].view(np.uint64).any()  # a +0.0 tail
                return out

            return stepper(rhs_checked, *args, **kw)

        return call

    monkeypatch.setattr(pde, "radial_accel", spy)
    runs = []
    for stepper in (dopri_integrate, reference_dopri):
        monkeypatch.setattr(pde, "dopri_integrate", checked(stepper))
        runs.append(pde.evolve(field.copy(), inputs, t_end, controls))
    new, old = runs
    for key in ("times", "W", "support_radius", "cone_radius", "energy", "outside_mass"):
        assert getattr(new, key).tobytes() == getattr(old, key).tobytes(), key
    for key in ("u", "ut"):
        assert getattr(new.field_final, key).tobytes() == getattr(old.field_final, key).tobytes()
    assert {**vars(new.rk), "y": new.rk.y.tobytes()} == {**vars(old.rk), "y": old.rk.y.tobytes()}
    if name == "cubic_ode_benchmark":
        assert sizes[-1] == J
    else:
        assert sizes[0] < J
    if name == "negative":
        assert np.signbit(field.u[-1]) and np.signbit(field.ut[-1])
    if name == "blowup":
        assert new.rk.status is TerminationReason.BLOWUP_THRESHOLD


def test_pde_rhs_fills_the_buffer_it_is_given(monkeypatch):
    """pde.evolve's rhs returns the ``out`` it was handed, +0.0 past the
    window, and the stepper hands it at most 8 buffers over the run."""
    field, inputs, t_end, controls = _pde_case("blowup")
    sizes, buffers = [], {}
    kernel = pde.radial_accel

    def spy(u, *args, **kw):
        sizes.append(u.size)
        kernel(u, *args, **kw)

    def stepper(rhs, *args, **kw):
        def rhs_checked(t, y, out):
            buffers[id(out)] = out
            got = rhs(t, y, out)
            assert got is out
            assert sizes[-1] < out.shape[1]
            assert not out[:, sizes[-1]:].view(np.uint64).any()
            return got

        return dopri_integrate(rhs_checked, *args, **kw)

    monkeypatch.setattr(pde, "radial_accel", spy)
    monkeypatch.setattr(pde, "dopri_integrate", stepper)
    run = pde.evolve(field, inputs, t_end, controls)
    assert run.rk.n_steps > 50
    assert len(buffers) <= 8


# --------------------------------------------------------------------------
# the stacked stage sums and the step controller
# --------------------------------------------------------------------------

_SUM_SHAPES = {
    "(2,)": ((2,), (...,)),
    "(3,)": ((3,), (...,)),
    "(7,)": ((7,), (...,)),
    "(2, J) window": ((2, 50), (slice(None), slice(0, 17))),
    "(2, J) whole": ((2, 50), (slice(None), slice(None))),
}


@pytest.mark.parametrize("shape", sorted(_SUM_SHAPES))
def test_stage_sum_is_the_sequential_sum(shape):
    """One contraction over the slope stack gives, bit for bit, the sum
    ``((0.0 + a0 k0) + a1 k1) + ...`` for every tableau row and the error
    row, a -0.0 leading term included, on whole and windowed states.  A
    NumPy whose einsum sums in another order fails here, not in a digest."""
    full, ix = _SUM_SHAPES[shape]
    rng = np.random.default_rng(5)
    for draw in range(60):
        stack = rng.standard_normal((7,) + full) * np.exp(rng.uniform(-30.0, 30.0, (7,) + full))
        if draw % 3 == 0:
            stack[0] = -0.0
        if draw % 5 == 0:
            stack[:] = -0.0
        for weights in integrate._A[1:] + (integrate._ERR,):
            row = np.array(weights)
            window = stack[(slice(0, row.size),) + ix]
            expected = np.zeros(window.shape[1:])
            for a, k in zip(row, window):
                expected = expected + a * k
            out = np.zeros(full)
            _stage_sum(row, window, out[ix])
            assert out[ix].tobytes() == expected.tobytes(), (draw, row.size)
            if draw % 5 == 0:
                assert not np.signbit(out).any()


@pytest.mark.parametrize("scenario, t_blow", [
    ("minkowski_blowup", 0.09562307481803549),
    ("desitter_expanding", 0.03792884315590821),
])
def test_predictive_controller_on_the_shipped_pde_runs(scenario, t_blow, tmp_path):
    """At the shipped grid_h 2e-3 the blow-up tail is no longer rejected
    every other trial: the plain controller rejected 91 and 84 trials
    there.  The blow-up time stays within 1e-9 of the plain controller's."""
    assert main(["pde", "--scenario", str(SCENARIOS / f"{scenario}.json"), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pde_report.json").read_text())
    assert report["termination"] == "BlowupThreshold"
    assert report["n_rejected"] <= 10
    assert abs(report["blowup_time"] - t_blow) <= 1e-9


# p of a sweep_ode-shaped point: an upper bound on its accepted steps, about
# 1.1 times the 220-225, 157-159 and 265 of the two-phase integration.  The
# one-phase stepper, which waited for the step to collapse, took 1718, 1139
# and 929 and ended in StepUnderflow at p near 5.
_ODE_POINTS = {2.19: 245, 3.03: 175, 5.03: 290}


@pytest.mark.parametrize("p", sorted(_ODE_POINTS))
@pytest.mark.parametrize("H", [0.0, 0.5, 0.99])
def test_predictive_controller_on_the_comparison_ode(p, H):
    """Comparison ODE runs as a sweep with the ODE makes them: every one
    ends in BlowupThreshold, no later than T*, within its step bound."""
    inputs = scenario_from_dict({
        "cosmology": {"n": 1, "c": 1.0, "a0": 1.0, "H": H, "sigma": -1.0, "m_squared": 0.0},
        "cone": {"r0": 1.0},
        "theorem": {"N": 1.5, "epsilon": 0.5, "theta": 0.5, "lambda": 1.0, "p": p,
                    "w0": 45.5, "w1": 1e6},
    }).inputs
    cert = certify(inputs)
    traj = ode.integrate(inputs, t_cap(1.05 * cert.T_star, cert.T0))
    assert traj.rk.status is TerminationReason.BLOWUP_THRESHOLD
    assert traj.rk.n_steps <= _ODE_POINTS[p]
    assert traj.rk.blowup_time <= ode.detect_blowup_time(traj) <= cert.T_star


# --------------------------------------------------------------------------
# the window: trials on active(y) alone, the same bytes as whole-state trials
# --------------------------------------------------------------------------


def _stencil_system(c_lap, c_mass, c_nl):
    """A compactly supported system on a (2, J) state (u, v): u' = v + D2 u
    and v' = c_lap D2 u - c_mass u + c_nl u |u|, D2 the centred second
    difference with zero ends.  A node's slope reads only its neighbours,
    and both rows spread by one node per call, so data with last nonzero
    node L has stage i of a trial within L + i and every slope within
    L + 7: the bound is tight."""

    def rhs(t, y, out):
        u = y[0]
        lap = np.zeros_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1]) + u[:-2]
        out[0] = y[1] + lap
        out[1] = (c_lap * lap - c_mass * u) + c_nl * (u * np.abs(u))
        return out

    return rhs


def _window(J, margin):
    """Columns [:w] with w = last nonzero column + margin, never shrinking."""
    w = [0]

    def active(y):
        nonzero = np.flatnonzero(y.any(axis=0))
        last = int(nonzero[-1]) if nonzero.size else -1
        w[0] = max(w[0], min(J, last + margin))
        return slice(None), slice(0, w[0])

    return active, w


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    J=st.integers(10, 60),
    support=st.integers(0, 20),
    c_lap=st.sampled_from([1.0, 30.0, -0.5]),
    c_mass=st.sampled_from([0.0, 2.0, -2.0]),
    c_nl=st.sampled_from([0.0, 1.5, -1.5]),
    negative=st.booleans(),
    t_end=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_trials_match_the_reference(
    J, support, c_lap, c_mass, c_nl, negative, t_end, seed
):
    """dopri_integrate with ``active`` against the whole-state reference on
    a compactly supported stencil system.  Negative coefficients make
    -0.0 slopes outside the support, and negative data a -0.0 tail in y0."""
    rng = np.random.default_rng(seed)
    y0 = np.zeros((2, J))
    L = min(support, J - 1)
    y0[0, : L + 1] = rng.uniform(0.1, 1.0, L + 1)
    y0[1, : L + 1] = rng.standard_normal(L + 1)
    if negative:
        y0 = -y0
    rhs = _stencil_system(c_lap, c_mass, c_nl)
    active, w = _window(J, 8)
    kw = dict(rel_tol=1e-6, abs_tol=1e-9, max_steps=300)
    with np.errstate(all="ignore"):
        ref = _fingerprint(reference_dopri, rhs, y0, t_end, **kw)
        win = _fingerprint(dopri_integrate, rhs, y0, t_end, active=active, **kw)
    assert win == ref
    assert w[0] >= min(J, L + 8)


def test_window_that_reaches_the_whole_state():
    """A window that grows to every column, then keeps stepping there."""
    J = 24
    y0 = np.zeros((2, J))
    y0[0, :3] = [1.0, 0.5, 0.25]
    rhs = _stencil_system(40.0, 1.0, 0.0)
    active, w = _window(J, 8)
    ref = _fingerprint(reference_dopri, rhs, y0, 2.0, rel_tol=1e-6, abs_tol=1e-9)
    win = _fingerprint(dopri_integrate, rhs, y0, 2.0, rel_tol=1e-6, abs_tol=1e-9, active=active)
    assert w[0] == J and ref[0][4] > 20
    assert win == ref


# --------------------------------------------------------------------------
# property: tuple and ndarray states agree on random linear systems
# --------------------------------------------------------------------------

_entry = st.floats(-4.0, 4.0, allow_nan=False)
_start = st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.0, -0.0]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    m=st.tuples(_entry, _entry, _entry, _entry),
    y0=st.tuples(_start, _start),
    rel_tol=st.floats(1e-10, 1e-3),
    abs_tol=st.one_of(st.floats(1e-12, 1e-3), st.just(0.0)),
    t_end=st.floats(0.05, 2.0),
    # call 1 is f(t0): a NaN there makes the initial step NaN, on which the
    # reference stepper never ends (see test_nan_step_ends_in_step_underflow)
    bad_call=st.one_of(st.just(0), st.integers(2, 40)),
    bad_value=st.sampled_from([math.inf, -math.inf, math.nan]),
)
def test_tuple_and_array_states_agree(m, y0, rel_tol, abs_tol, t_end, bad_call, bad_value):
    """y' = M y, where call number ``bad_call`` (0: none) returns inf or NaN."""
    assume(abs_tol > 0.0 or min(abs(v) for v in y0) > 1e-3)
    m00, m01, m10, m11 = m

    def make_rhs():
        count = [0]

        def rhs(t, y):
            count[0] += 1
            first = m00 * y[0] + m01 * y[1]
            if count[0] == bad_call:
                first = bad_value
            return (first, m10 * y[0] + m11 * y[1])

        return rhs

    kw = dict(rel_tol=rel_tol, abs_tol=abs_tol, max_steps=400)
    with np.errstate(all="ignore"):
        ref = _fingerprint(reference_dopri, _as_array_rhs(make_rhs()), np.array(y0), t_end, **kw)
        arr = _fingerprint(dopri_integrate, _as_array_rhs(make_rhs()), np.array(y0), t_end, **kw)
        tup = _fingerprint(dopri_integrate, make_rhs(), tuple(y0), t_end, **kw)
    assert arr == ref
    assert tup == arr
