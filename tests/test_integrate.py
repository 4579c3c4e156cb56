"""dopri_integrate against the generator-sum stepper it replaced.

``reference_dopri`` below is the earlier stepper: every stage sum is a
Python ``sum`` over freshly allocated NumPy arrays.  ``dopri_integrate``
must reproduce it bit for bit in both of its arithmetics (tuple states on
Python floats, ndarray states in reused buffers): every ``RkResult`` field
and every ``on_step`` call, compared with ``tobytes()`` so signed zeros and
the last bit count.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kgblowup
from kgblowup import ode, pde
from kgblowup.integrate import (
    RkResult, TerminationReason, _array_trial, _float_trial, dopri_integrate,
)
from kgblowup.ode import OdeControls
from kgblowup.pde import PdeControls
from kgblowup.scenario import load_scenario

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
    rhs, t0, y0, t_end, rel_tol=1e-10, abs_tol=1e-12, *, magnitude=None,
    blow_magnitude=math.inf, blow_step_fraction=1e-14, min_step_fraction=1e-16,
    max_steps=2_000_000, max_step=math.inf, on_step=None, active=None,
):
    """The generator-sum Dormand-Prince stepper; ndarray states only.

    Its counters are kept apart from the stepping: every call of ``rhs`` is
    counted, and ``min_step`` is the least step handed to an acceptance.
    ``active`` is accepted and ignored: every trial runs on the whole state.
    """
    calls = [0]
    accepted = []

    def counted(t, y):
        calls[0] += 1
        return f(t, y)

    f, rhs = rhs, counted

    def R(status, t, y, blowup_time, n_steps, n_rejected, h):
        min_step = min(accepted) if accepted else None
        return RkResult(status, t, y, blowup_time, n_steps, n_rejected, calls[0], min_step, h)

    y = np.array(y0, dtype=float, copy=True)
    t = float(t0)
    f0 = rhs(t, y)
    h = _reference_initial_step(rhs, t, y, f0, rel_tol, abs_tol, t_end - t0)
    h = min(h, max_step)
    k = [f0] + [np.empty_like(y) for _ in range(6)]
    n_steps = n_rejected = 0

    while t < t_end:
        if n_steps >= max_steps:
            return R(TerminationReason.MAX_STEPS, t, y, None, n_steps, n_rejected, h)
        h = min(h, t_end - t)
        if t + h == t:
            return R(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)
        step_floor = min_step_fraction * max(1.0, abs(t))
        blow_floor = blow_step_fraction * max(1.0, abs(t))
        if h < step_floor:
            big = magnitude is not None and magnitude(y) > blow_magnitude
            reason = (
                TerminationReason.BLOWUP_THRESHOLD if big else TerminationReason.STEP_UNDERFLOW
            )
            return R(reason, t, y, t if big else None, n_steps, n_rejected, h)

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
            if on_step is not None:
                on_step(t, y, h)
            if magnitude is not None and h < blow_floor and magnitude(y) > blow_magnitude:
                return R(TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected, h)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = min(h * factor, max_step)
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < step_floor:
                if magnitude is not None and magnitude(y) > blow_magnitude:
                    return R(TerminationReason.BLOWUP_THRESHOLD, t, y, t, n_steps, n_rejected, h)
                return R(TerminationReason.STEP_UNDERFLOW, t, y, None, n_steps, n_rejected, h)

    return R(TerminationReason.REACHED_HORIZON, t, y, None, n_steps, n_rejected, h)


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def _fingerprint(integrator, rhs, y0, t_end, **kw):
    """Every RkResult field and every on_step call, as bytes."""
    calls = []

    def on_step(t, y, h):
        calls.append((_bytes(t), _bytes(y), _bytes(h)))

    res = integrator(rhs, 0.0, y0, t_end, on_step=on_step, **kw)
    assert isinstance(res.y, np.ndarray)
    blow = None if res.blowup_time is None else _bytes(res.blowup_time)
    min_step = None if res.min_step is None else _bytes(res.min_step)
    fields = (res.status, _bytes(res.t), _bytes(res.y), blow, res.n_steps,
              res.n_rejected, res.n_rhs, min_step, _bytes(res.last_h))
    return fields, calls


def _as_array_rhs(f):
    """An ndarray rhs from a per-component formula."""
    return lambda t, y: np.array(f(t, y), dtype=float)


def _all_three(f, y0, t_end, **kw):
    """Fingerprints of the reference, the ndarray and the tuple arithmetic."""
    ref = _fingerprint(reference_dopri, _as_array_rhs(f), np.array(y0, dtype=float), t_end, **kw)
    arr = _fingerprint(dopri_integrate, _as_array_rhs(f), np.array(y0, dtype=float), t_end, **kw)
    tup = _fingerprint(dopri_integrate, lambda t, y: tuple(f(t, y)), tuple(y0), t_end, **kw)
    return ref, arr, tup


def _magnitude(y):
    return abs(float(y[0]))


# (formula, y0, t_end, keyword arguments, expected status)
CASES = {
    # w'' = w^3 with w(0) = 1, w'(0) = 1/sqrt(2): blow-up at t = sqrt(2)
    "cubic_blowup": (
        lambda t, y: (y[1], y[0] ** 3), (1.0, 1.0 / math.sqrt(2.0)), 2.0,
        dict(magnitude=_magnitude, blow_magnitude=1e8), TerminationReason.BLOWUP_THRESHOLD,
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
    # w' = w^2 blows up at t = 1; no magnitude threshold, so the step underflows
    "step_underflow": (
        lambda t, y: (y[0] * y[0], 0.0), (1.0, 0.0), 2.0, {}, TerminationReason.STEP_UNDERFLOW,
    ),
    # a jump in the slope at t = 0.5 forces rejections
    "rejected_steps": (
        lambda t, y: (1e3 if t > 0.5 else 0.0, -y[1]), (0.0, 1.0), 1.0,
        dict(rel_tol=1e-6, abs_tol=1e-8), TerminationReason.REACHED_HORIZON,
    ),
    "max_step": (
        lambda t, y: (y[1], -y[0]), (1.0, 0.0), 1.0, dict(max_step=0.01),
        TerminationReason.REACHED_HORIZON,
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
    assert arr == ref
    assert tup == ref
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

    def make_rhs(wrap, seen):
        def rhs(t, y):
            seen.append(_bytes(list(y)))
            i = len(seen) % 7
            return wrap(zeros[i * size:(i + 1) * size])

        return rhs

    y = (-0.0,) * size
    f_seen, a_seen = [], []
    f_out = _float_trial(make_rhs(tuple, f_seen), 1e-8, 1e-9)(0.0, 0.5, y, tuple(zeros[:size]))
    a_out = _array_trial(make_rhs(np.array, a_seen), np.array(y), 1e-8, 1e-9)(
        0.0, 0.5, np.array(y), np.array(zeros[:size])
    )
    assert f_seen == a_seen
    assert [_bytes(v) for v in f_out] == [_bytes(v) for v in a_out]


def test_zero_scale_gives_nan_not_an_exception():
    """With abs_tol = 0 a component that stays 0 divides 0 by 0; the float
    arithmetic then falls back to NumPy's IEEE result."""
    zero = lambda t, y: (0.0, 0.0)  # noqa: E731
    f_err = _float_trial(zero, 1e-8, 0.0)(0.0, 0.1, (0.0, 1.0), (0.0, 0.0))[2]
    y = np.array([0.0, 1.0])
    a_err = _array_trial(lambda t, v: np.zeros(2), y, 1e-8, 0.0)(0.0, 0.1, y, np.zeros(2))[2]
    assert math.isnan(f_err) and _bytes(f_err) == _bytes(a_err)


NAN_STEP_CASES = {
    "abs_tol=0 with a zero component": (
        "dopri_integrate(lambda t, y: -y, 0.0, np.array([1.0, 0.0]), 1.0, abs_tol=0.0)"
    ),
    "NaN slope at t0": (
        "dopri_integrate(lambda t, y: y * np.nan if t == 0.0 else -y, "
        "0.0, np.array([1.0, 0.0]), 1.0)"
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
    ref = _fingerprint(reference_dopri, lambda t, y: y, np.array([1.0, -2.0]), 1.0)
    arr = _fingerprint(dopri_integrate, lambda t, y: y, np.array([1.0, -2.0]), 1.0)
    assert arr == ref


def test_on_step_states_are_not_reused():
    """States handed to on_step keep their values after later steps."""
    kept = []
    dopri_integrate(
        lambda t, y: -y, 0.0, np.ones(3), 1.0,
        on_step=lambda t, y, h: kept.append((y, y.copy())),
    )
    assert len(kept) > 2
    assert all(np.array_equal(y, snap) for y, snap in kept)


def test_comparison_ode_matches_the_reference(monkeypatch):
    """ode.integrate on the benchmark cubic and a de Sitter background."""
    runs = [
        (make_inputs(0.0, 0.0, N=0.0, w0=2 ** 0.5, w1=2 ** 0.5),
         OdeControls(mass_sq_const=0.0, forcing_const=1.0), 1.2),
        (make_inputs(1.0, -1.0, N=1.5, w0=40.0, w1=450.0), OdeControls(), 0.5),
    ]

    def via_reference(rhs, t0, y0, t_end, **kw):
        return reference_dopri(
            lambda t, y: np.array(rhs(t, y)), t0, np.array(y0, dtype=float), t_end, **kw
        )

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


def test_complex_pde_grid_matches_the_reference(monkeypatch):
    """pde.evolve on complex data with a non-zero imaginary part."""
    inputs = make_inputs(0.0, 0.0, N=2.0, w0=16.0, w1=64.0)
    controls = PdeControls(grid_h=2e-2)
    field = pde.make_field(inputs, 0.3, controls)
    field.u = field.u + 0.25j * field.u.real[::-1]
    field.ut = field.ut - 0.5j * field.u.real
    new = pde.evolve(field.copy(), inputs, 0.3, controls)
    monkeypatch.setattr(pde, "dopri_integrate", reference_dopri)
    old = pde.evolve(field.copy(), inputs, 0.3, controls)
    assert np.any(new.field_final.u.imag != 0.0)
    for name in ("times", "W", "support_radius", "cone_radius", "energy", "outside_mass"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
    for name in ("u", "ut"):
        assert getattr(new.field_final, name).tobytes() == getattr(old.field_final, name).tobytes()
    assert (new.rk.status, new.rk.n_steps, new.rk.blowup_time) == (
        old.rk.status, old.rk.n_steps, old.rk.blowup_time
    )


def _pde_case(name):
    """(field, inputs, t_end, controls) of one windowed-PDE case."""
    if name == "cubic_ode_benchmark":  # the window reaches every node
        scenario = load_scenario(SCENARIOS / "cubic_ode_benchmark.json")
        inputs, run = scenario.inputs(), scenario.run
        t_end, controls = run.t_end, PdeControls(grid_h=run.grid_h, rel_tol=run.pde_rel_tol)
    elif name == "curved_n4":  # cm[1] < 0 at n = 4, mass term on
        inputs, t_end = make_inputs(1.0, 1.0, m2=2.0, n=4, w0=1.0, w1=0.5), 0.1
        controls = PdeControls(grid_h=4e-3)
    else:
        sign = -1.0 if name == "negative" else 1.0  # negative data: a -0.0 tail
        inputs = make_inputs(0.0, 0.0, N=2.0, w0=16.0 * sign, w1=64.0 * sign)
        t_end, controls = (0.525, PdeControls(grid_h=4e-3)) if name == "blowup" else (
            0.2, PdeControls(grid_h=1e-2))
    field = pde.make_field(inputs, t_end, controls)
    if name == "complex":  # still compactly supported
        field.u = field.u + 0.25j * np.roll(field.u.real, 5)
        field.ut = field.ut - 0.5j * field.u.real
    return field, inputs, t_end, controls


@pytest.mark.parametrize("name", ["blowup", "curved_n4", "complex", "negative",
                                  "cubic_ode_benchmark"])
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

    def spy(u_re, *args, **kw):
        sizes.append(u_re.size)
        kernel(u_re, *args, **kw)

    def checked(stepper):
        def call(rhs, *args, **kw):
            def rhs_checked(t, y):
                out = rhs(t, y)
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
    if name == "complex":
        assert new.field_final.u.imag.any()
    if name == "negative":
        assert np.signbit(field.u.real[-1]) and np.signbit(field.ut.real[-1])
    if name == "blowup":
        assert new.rk.status is TerminationReason.BLOWUP_THRESHOLD


# --------------------------------------------------------------------------
# the window: trials on active(y) alone, the same bytes as whole-state trials
# --------------------------------------------------------------------------


def _stencil_system(J, rows, c_lap, c_mass, c_nl):
    """A compactly supported system on a (rows, J) state: u' = v + D2 u
    and v' = c_lap D2 u - c_mass u + c_nl u |u| per pair of rows (u, v) =
    (row i, row i + rows/2), D2 the centred second difference with zero
    ends.  A node's slope reads only its neighbours, and both rows spread
    by one node per call, so data with last nonzero node L has stage i of
    a trial within L + i and every slope within L + 7: the bound is tight."""
    half = rows // 2

    def rhs(t, y):
        out = np.empty_like(y)
        u = y[:half]
        lap = np.zeros_like(u)
        lap[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1]) + u[:, :-2]
        out[:half] = y[half:] + lap
        out[half:] = (c_lap * lap - c_mass * u) + c_nl * (u * np.abs(u))
        return out

    return rhs


def _window(J, rows, margin):
    """Columns [:w] with w = last nonzero column + margin, never shrinking."""
    w = [0]

    def active(y):
        nonzero = np.flatnonzero(y.any(axis=0))
        last = int(nonzero[-1]) if nonzero.size else -1
        w[0] = max(w[0], min(J, last + margin))
        return rows, slice(0, w[0])

    return active, w


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    J=st.integers(10, 60),
    support=st.integers(0, 20),
    four_rows=st.booleans(),
    c_lap=st.sampled_from([1.0, 30.0, -0.5]),
    c_mass=st.sampled_from([0.0, 2.0, -2.0]),
    c_nl=st.sampled_from([0.0, 1.5, -1.5]),
    negative=st.booleans(),
    t_end=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_trials_match_the_reference(
    J, support, four_rows, c_lap, c_mass, c_nl, negative, t_end, seed
):
    """dopri_integrate with ``active`` against the whole-state reference on
    a compactly supported stencil system.  Negative coefficients make
    -0.0 slopes outside the support, and negative data a -0.0 tail in y0.
    On four rows (u, u', and two rows that stay zero, like the PDE's
    imaginary rows on its real path) the window skips the zero rows too."""
    rng = np.random.default_rng(seed)
    rows = 4 if four_rows else 2
    y0 = np.zeros((rows, J))
    L = min(support, J - 1)
    y0[0, : L + 1] = rng.uniform(0.1, 1.0, L + 1)
    y0[rows // 2, : L + 1] = rng.standard_normal(L + 1)
    if negative:
        y0 = -y0
    rhs = _stencil_system(J, rows, c_lap, c_mass, c_nl)
    active, w = _window(J, slice(0, None, 2) if four_rows else slice(None), 8)
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
    rhs = _stencil_system(J, 2, 40.0, 1.0, 0.0)
    active, w = _window(J, slice(None), 8)
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

    def make_rhs(wrap):
        count = [0]

        def rhs(t, y):
            count[0] += 1
            first = m00 * y[0] + m01 * y[1]
            if count[0] == bad_call:
                first = bad_value
            return wrap((first, m10 * y[0] + m11 * y[1]))

        return rhs

    kw = dict(rel_tol=rel_tol, abs_tol=abs_tol, max_steps=400)
    with np.errstate(all="ignore"):
        ref = _fingerprint(reference_dopri, make_rhs(np.array), np.array(y0), t_end, **kw)
        arr = _fingerprint(dopri_integrate, make_rhs(np.array), np.array(y0), t_end, **kw)
        tup = _fingerprint(dopri_integrate, make_rhs(tuple), tuple(y0), t_end, **kw)
    assert arr == ref
    assert tup == arr
