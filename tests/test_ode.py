import json
import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgblowup import cosmology, ode
from kgblowup import (
    ExcludedRegionError,
    PoleError,
    PreconditionError,
    TerminationReason,
    check_lemma21,
    detect_blowup_time,
    envelope,
    envelope_pole,
    integrate_ode,
)
from kgblowup.ode import (
    forcing_coefficient,
    growth_bound,
    trajectory_to_csv,
)
from kgblowup.certificate import rpow
from kgblowup.cli import main
from kgblowup.cosmology import mass_sq_function
from kgblowup.scenario import RunSettings

from conftest import certified_inputs, make_inputs
from oracles import energy_series, forcing_per_call

SQRT2 = math.sqrt(2.0)


def cubic_inputs():
    """w'' = w^3 with w(0) = w'(0) = sqrt(2): exact solution sqrt(2)/(1-t)."""
    return make_inputs(0.0, 0.0, N=0.0, w0=SQRT2, w1=SQRT2)


CUBIC_CONTROLS = RunSettings(ode_mass_sq_const=0.0, ode_forcing_const=1.0)


class TestIntegrate:
    def test_cubic_blowup_at_one(self):
        traj = integrate_ode(cubic_inputs(), 1.5, CUBIC_CONTROLS)
        assert traj.rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert traj.blowup_detected
        t_blow = detect_blowup_time(traj)
        assert t_blow == pytest.approx(1.0, rel=0.01)
        # samples track the closed form sqrt(2)/(1-t)
        mid = traj.t[traj.t < 0.9]
        exact = SQRT2 / (1.0 - mid)
        got = traj.w[: mid.size]
        assert np.max(np.abs(got - exact) / exact) < 1e-7

    def test_linear_oscillator_closed_form(self):
        k = 3.0
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=0.7, w1=-0.4)
        controls = RunSettings(ode_mass_sq_const=k * k, ode_forcing_const=0.0)
        traj = integrate_ode(inputs, 5.0, controls)
        assert traj.rk.status is TerminationReason.REACHED_HORIZON
        assert not traj.blowup_detected
        exact = 0.7 * np.cos(k * traj.t) - 0.4 * np.sin(k * traj.t) / k
        assert np.max(np.abs(traj.w - exact)) < 1e-8

    @staticmethod
    def swing(b, w1, t_end):
        """w'' = w + b |w|^3 from w0 = -1: w runs out, accelerating, to
        about -sqrt(2/b), turns back, crosses 0 and blows up on the far side.
        Returns the run and its energy drift over 1/b, the size of the
        energy terms at the turn."""
        inputs = make_inputs(0.0, 0.0, N=0.0, p=3.0, w0=-1.0, w1=w1)
        traj = integrate_ode(inputs, t_end, RunSettings(ode_mass_sq_const=-1.0, ode_forcing_const=b))
        w, v = traj.w, traj.wdot
        energy = v * v / 2.0 - w * w / 2.0 - b * w * np.abs(w) ** 3 / 4.0
        return traj, np.max(np.abs(energy - energy[0])) * b

    def test_swing_past_the_hand_over_returns_to_phase_one(self):
        """|w| passes 100 max(1, |w0|) while w runs away, so phase 2 takes
        the swing; it hands back to phase 1 as |w| falls, with no blow-up."""
        traj, drift = self.swing(1e-8, -2.0, 24.0)
        assert traj.rk.status is TerminationReason.REACHED_HORIZON and traj.t[-1] == 24.0
        assert detect_blowup_time(traj) is None
        assert np.min(traj.w) < -1e4 and traj.w[-1] > 0.0 and drift < 1e-8

    def test_turn_back_past_the_threshold_is_no_blowup(self):
        """|w| passes 1e8 max(1, |w0|) and turns back: phase 1 takes over
        where |w| fell back and runs on through 0 to t_end."""
        traj, drift = self.swing(1e-20, -1e8, 14.0)
        assert traj.rk.status is TerminationReason.REACHED_HORIZON and traj.t[-1] == 14.0
        assert detect_blowup_time(traj) is None
        assert np.min(traj.w) < -1e8 and traj.w[-1] > 0.0 and drift < 1e-8

    def test_blowup_after_a_turn_back_past_the_threshold(self):
        """The same swing run on: the blow-up on the far side is still found.
        Stepping in t alone at rel_tol 1e-13 puts it at 19.0139393; the turn
        through 0 is ill-conditioned, hence the loose bound."""
        traj, _ = self.swing(1e-20, -1e8, 20.0)
        assert traj.rk.status is TerminationReason.BLOWUP_THRESHOLD and traj.w[-1] > 1e8
        assert detect_blowup_time(traj) == pytest.approx(19.0139393, abs=1e-3)

    def test_oscillation_past_the_threshold_is_no_blowup(self):
        """w = cos 2t + 1e9 sin 2t passes 1e8 max(1, |w0|) but never runs
        away (w w'' < 0): the run ends at t_end, with no blow-up and the
        closed form kept."""
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=1.0, w1=2e9)
        traj = integrate_ode(inputs, 10.0, RunSettings(ode_mass_sq_const=4.0, ode_forcing_const=0.0))
        assert traj.rk.status is TerminationReason.REACHED_HORIZON and traj.t[-1] == 10.0
        assert detect_blowup_time(traj) is None and np.max(np.abs(traj.w)) > 1e8
        exact = np.cos(2.0 * traj.t) + 1e9 * np.sin(2.0 * traj.t)
        assert np.max(np.abs(traj.w - exact)) < 1e-8 * 1e9

    def test_zero_forcing_with_a_large_power(self):
        """b = 0 and |w|^30 past the float range: w = cos 2t + (w1/2) sin 2t
        to t_end, where |w|^p used to raise OverflowError."""
        inputs = make_inputs(0.0, 0.0, N=0.0, p=30.0, w0=1.0, w1=1e14)
        traj = integrate_ode(inputs, 10.0, RunSettings(ode_mass_sq_const=4.0, ode_forcing_const=0.0))
        assert traj.rk.status is TerminationReason.REACHED_HORIZON and traj.t[-1] == 10.0
        exact = math.cos(20.0) + 0.5e14 * math.sin(20.0)
        assert abs(traj.w[-1] - exact) < 1e-9 * 0.5e14

    def test_tiny_forcing_with_a_large_power(self):
        """b = 1e-300 and |w|^30 past the float range, b |w|^30 not: phase 1
        and the hand-over take the product in log form, where |w|^p used to
        raise OverflowError.  T^ is the energy integral of
        w'' = b w^30 - 4 w from w = 1 to infinity (mpmath quad, 40 digits)."""
        inputs = make_inputs(0.0, 0.0, N=0.0, p=30.0, w0=1.0, w1=1e14)
        traj = integrate_ode(inputs, 1.0, RunSettings(ode_mass_sq_const=4.0, ode_forcing_const=1e-300))
        assert traj.rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert detect_blowup_time(traj) == pytest.approx(4.365040039464818e-4, rel=1e-9)

    def test_zero_forcing_runaway_with_a_large_power(self):
        """b = 0 and |w_s|^29 past the float range at the hand-over: the
        runaway w = 1e12 e^t reaches t_end with no blow-up, where forming
        the hand-over's b coefficient used to raise OverflowError."""
        inputs = make_inputs(0.0, 0.0, N=0.0, p=30.0, w0=1e12, w1=1e12)
        traj = integrate_ode(inputs, 10.0, RunSettings(ode_mass_sq_const=-1.0, ode_forcing_const=0.0))
        assert traj.rk.status is TerminationReason.REACHED_HORIZON and traj.t[-1] == 10.0
        assert detect_blowup_time(traj) is None
        assert traj.w[-1] == pytest.approx(1e12 * math.exp(10.0), rel=1e-5)

    def test_negative_forcing_crosses_zero_and_blows_up(self):
        """w'' = -|w|^3 from (200, 1e6): w rises, turns back, crosses 0 and
        runs away to -inf.  While w > 0, w w'' < 0, so phase 1 must not hand
        over; a hand-over test that dropped the sign of b did, and the run
        ended in StepUnderflow with no blow-up time.  T is the energy
        integral of w'^2/2 + w|w|^3/4, up to the turning point and back down
        to -inf (mpmath quad)."""
        with mp.workdps(30):
            w0, w1 = mp.mpf(200), mp.mpf(10) ** 6
            energy = w1 * w1 / 2 + w0**4 / 4
            top = (4 * energy) ** mp.mpf(0.25)
            # fabs: E - w|w|^3/4 rounds to a tiny negative next to the turning point
            dt = lambda w: 1 / mp.sqrt(2 * mp.fabs(energy - w * abs(w) ** 3 / 4))  # noqa: E731
            T = float(mp.quad(dt, [w0, top]) + mp.quad(dt, [-mp.inf, 0, top]))
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=200.0, w1=1e6)
        traj = integrate_ode(inputs, 1.0, RunSettings(ode_mass_sq_const=0.0, ode_forcing_const=-1.0))
        assert traj.rk.status is TerminationReason.BLOWUP_THRESHOLD and traj.w[-1] < -1e8
        assert detect_blowup_time(traj) == pytest.approx(T, rel=1e-8)

    def test_zero_data_equilibrium(self):
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=0.0, w1=0.0)
        traj = integrate_ode(inputs, 2.0)
        assert np.all(traj.w == 0.0) and np.all(traj.wdot == 0.0)

    def test_time_reversal_recovers_data(self):
        k = 2.0
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=1.1, w1=0.3)
        controls = RunSettings(ode_mass_sq_const=k * k, ode_forcing_const=0.0)
        fwd = integrate_ode(inputs, 3.0, controls)
        # constant coefficients: from the end state with the velocity
        # reversed, the same equation runs the trajectory backwards
        back = integrate_ode(
            replace(inputs, w0=fwd.w[-1], w1=-fwd.wdot[-1]), 3.0, controls
        )
        assert back.w[-1] == pytest.approx(1.1, abs=1e-8)
        assert -back.wdot[-1] == pytest.approx(0.3, abs=1e-8)

    def test_blowup_time_refinement_converges(self):
        tight = integrate_ode(cubic_inputs(), 1.5, CUBIC_CONTROLS)
        loose = integrate_ode(
            cubic_inputs(), 1.5, replace(CUBIC_CONTROLS, rel_tol=2e-10)
        )
        t1, t2 = detect_blowup_time(tight), detect_blowup_time(loose)
        assert abs(t1 - t2) / t1 < 1e-3

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=st.floats(1.05, 30.0), log_K=st.floats(-2.0, 2.0))
    def test_exact_family_blows_up_at_one(self, p, log_K):
        """w = K (1-t)^-beta, beta = 2/(p-1), solves w'' = beta (beta+1)
        K^(1-p) |w|^p: every p ends in BlowupThreshold with the refined
        time at 1, the large p where the step underflowed first included."""
        K = 10.0 ** log_K
        beta = 2.0 / (p - 1.0)
        inputs = make_inputs(0.0, 0.0, N=0.0, p=p, w0=K, w1=beta * K)
        controls = RunSettings(ode_mass_sq_const=0.0, ode_forcing_const=beta * (beta + 1.0) * K ** (1.0 - p))
        traj = integrate_ode(inputs, 1.5, controls)
        assert traj.rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert abs(traj.w[-1]) > 1e8 * max(1.0, K)
        assert abs(detect_blowup_time(traj) - 1.0) <= 1e-9

    def test_clock_hand_over_scales_with_t_past_one(self, monkeypatch):
        """w = (3-t)^-beta at p = 29.9, whose clock w/(k w') is 3 - t: phase
        1 hands over when the clock falls below 1e-6 max(1, t), about 3e-6
        here, long before |w| reaches 100 max(1, |w0|)."""
        p = 29.9
        beta = 2.0 / (p - 1.0)
        w0 = 3.0 ** -beta
        inputs = make_inputs(0.0, 0.0, N=0.0, p=p, w0=w0, w1=beta * w0 / 3.0)
        controls = RunSettings(ode_mass_sq_const=0.0, ode_forcing_const=beta * (beta + 1.0))
        legs = []
        stepper = ode.dopri_integrate

        def kept(*args, **kw):
            legs.append(stepper(*args, **kw))
            return legs[-1]

        monkeypatch.setattr(ode, "dopri_integrate", kept)
        traj = integrate_ode(inputs, 4.5, controls)
        assert abs(detect_blowup_time(traj) - 3.0) <= 1e-9
        t_s, (w_s, v_s) = legs[0].t, legs[0].y
        assert 1e-6 < w_s / ((p - 1.0) / 2.0 * v_s) < 1e-6 * t_s
        assert w_s < 100.0

    def test_horizon_before_blowup_ends_at_t_end(self):
        """|w| passes the hand-over magnitude before t_end, the blow-up
        comes after it: the run ends at exactly t_end, as the cubic's
        closed form sqrt(2)/(1-t) says."""
        t_end = 0.995  # w = 283 > 100 max(1, w0)
        traj = integrate_ode(cubic_inputs(), t_end, CUBIC_CONTROLS)
        assert traj.rk.status is TerminationReason.REACHED_HORIZON
        assert traj.t[-1] == t_end and detect_blowup_time(traj) is None
        assert traj.w[-1] == pytest.approx(SQRT2 / (1.0 - t_end), rel=1e-8)

    def test_detect_none_without_blowup(self):
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=1.0, w1=0.0)
        traj = integrate_ode(inputs, 1.0, RunSettings(ode_mass_sq_const=4.0, ode_forcing_const=0.0))
        assert detect_blowup_time(traj) is None

    def test_horizon_stop_before_finite_T0(self):
        inputs = make_inputs(-1.0, 0.0, N=0.5, w0=1.0, w1=0.0)  # T0 = 2
        traj = integrate_ode(inputs, 2.0)
        assert traj.rk.status is TerminationReason.REACHED_HORIZON
        assert traj.t[-1] <= 2.0 * (1.0 - 1e-10)

    def test_excluded_region_rejected(self):
        inputs = make_inputs(1.0, -2.0, N=1.0, w0=1.0, w1=1.0)
        with pytest.raises(ExcludedRegionError):
            integrate_ode(inputs, 1.0)


@pytest.fixture(scope="module")
def run(minkowski_inputs, minkowski_cert):
    traj = integrate_ode(minkowski_inputs, 0.5)
    return minkowski_inputs, minkowski_cert, traj


class TestCertifiedScenario:
    def test_blows_up_no_later_than_T_star(self, run):
        inputs, cert, traj = run
        assert traj.blowup_detected
        assert detect_blowup_time(traj) <= cert.T_star

    def test_w_dominates_envelope(self, run):
        inputs, cert, traj = run
        pole = envelope_pole(inputs, cert)
        assert pole == pytest.approx(cert.T_star, rel=1e-12)
        sel = traj.t <= 0.95 * pole
        env = np.array([envelope(inputs, cert, t) for t in traj.t[sel]])
        assert np.all(traj.w[sel] >= env * (1.0 - 1e-4))

    def test_envelope_pole_error(self, run):
        inputs, cert, _ = run
        pole = envelope_pole(inputs, cert)
        with pytest.raises(PoleError) as err:
            envelope(inputs, cert, pole * 1.01)
        assert err.value.pole_time == pytest.approx(pole)

    def test_envelope_at_zero_is_w0(self, run):
        inputs, cert, _ = run
        assert envelope(inputs, cert, 0.0) == pytest.approx(inputs.w0)

    def test_lemma21_properties_hold(self, run):
        inputs, cert, traj = run
        report = check_lemma21(traj, inputs, cert)
        assert report.all_hold, report

    def test_energy_monotone(self, run):
        inputs, _, traj = run
        E = energy_series(traj, inputs)
        drops = np.diff(E)
        assert np.all(drops >= -1e-6 * np.maximum(1.0, np.abs(E[:-1])))

    def test_velocity_dominates_power_law(self, run):
        inputs, cert, traj = run
        C = math.sqrt(cert.C_squared)
        rhs = C * np.array([rpow(w, cert.alpha) for w in traj.w])
        assert np.all(traj.wdot >= rhs * (1.0 - 1e-6))

    def test_undersized_w0_rejected(self, run):
        inputs, cert, traj = run
        small = replace(inputs, w0=1.0)
        with pytest.raises(PreconditionError) as err:
            check_lemma21(traj, small, cert)
        assert "w0" in str(err.value)

    def test_growth_bound_reduces_to_w0_when_N_zero(self):
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=3.0, w1=1.0)
        assert np.all(growth_bound(inputs, np.array([0.0, 1.0, 7.0])) == 3.0)


class TestLemmaAcrossCases:
    @pytest.mark.parametrize("case", ["i", "ii", "iii", "iv", "vi", "vii", "viii"])
    def test_growth_properties(self, case):
        inputs, cert = certified_inputs(case)
        t_end = 0.8 * min(cert.T_star, cert.T0)
        traj = integrate_ode(inputs, t_end)
        report = check_lemma21(traj, inputs, cert)
        assert report.all_hold, (case, report)


class TestExport:
    def test_csv_columns_and_roundtrip(self, tmp_path, minkowski_inputs, minkowski_cert):
        traj = integrate_ode(minkowski_inputs, 0.5)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(path, traj, minkowski_inputs, minkowski_cert)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,w,wdot,envelope,growth_bound"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 16.0 and first[2] == 64.0
        assert first[3] == pytest.approx(16.0)  # envelope(0) = w0
        assert first[4] == pytest.approx(16.0)  # w0 e^0

    def test_forcing_coefficient_matches_geometry(self, minkowski_inputs):
        b = forcing_coefficient(minkowski_inputs)
        # b = lambda / (Q q)^{n(p-1)/2} = 1 / (4 (1+t)^2)
        for t in (0.0, 0.5, 2.0):
            assert b(t) == pytest.approx(1.0 / (4.0 * (1.0 + t) ** 2), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    H=st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 0.7, -0.3]),
    sigma=st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 1.0]), st.floats(-3.0, 3.0)),
    m2=st.sampled_from([0.0, -0.0, 1.0, -2.5]),
    t=st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 5e-324, 1.0])),
)
def test_mass_sq_is_one_float_where_eH_is_zero(n, H, sigma, m2, t):
    """Where e H is +-0.0, on flat and de Sitter backgrounds and where e H
    underflows, 1 + e H t is exactly 1.0, so M^2 at every finite time has the
    bits of M^2(0), the float ode.integrate binds once."""
    params = make_inputs(H, sigma, m2=m2, n=n).params
    assume(params.eH == 0.0 and not params.excluded_region)
    mass = mass_sq_function(params)
    assert np.float64(mass(t)).tobytes() == np.float64(mass(0.0)).tobytes()


@pytest.mark.parametrize("H, sigma, calls", [(0.0, 0.0, 1), (0.5, -1.0, 1), (5e-324, -0.5, 1),
                                             (0.5, 1.0, None)])
def test_integrate_calls_the_mass_closure_once_where_eH_is_zero(monkeypatch, H, sigma, calls):
    """The comparison ODE reads M^2 from a bound float where e H = +-0.0, and
    from the closure at every RHS call elsewhere (``calls`` None)."""
    count = [0]

    def counting(params):
        mass = mass_sq_function(params)

        def counted(t):
            count[0] += 1
            return mass(t)

        return counted

    monkeypatch.setattr(cosmology, "mass_sq_function", counting)  # the forms bind it
    traj = integrate_ode(make_inputs(H, sigma, N=2.0, w0=16.0, w1=64.0), 1.0)
    assert traj.blowup_detected
    if calls is None:
        assert count[0] >= traj.rk.n_rhs
    else:
        assert count[0] == calls


def test_phase_one_evaluates_the_forcing_once_per_stage_time(monkeypatch, tmp_path):
    """A phase 1 trial's stages 5 and 6, and the stop rule's slope at the
    accepted t, are all at t + 1.0 h, and b is evaluated there once: five
    calls per trial, plus the start slope and the first-step probe.  With
    each call counted and composed afresh by the per-call form, ``kgblow
    ode`` on minkowski_blowup writes the ode_report.json and trajectory.csv
    that it writes with the bound b."""
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "minkowski_blowup.json"
    argv = ["ode", "--scenario", str(scenario), "--out"]
    assert main(argv + [str(tmp_path / "bound")]) == 0
    phase, times, phase_one = [None], [], []
    stepper = ode.dopri_integrate

    def counting(inputs):
        def counted(t):
            if phase[0] == 1:
                times.append(t)
            return forcing_per_call(inputs, t)

        return counted

    def tagged(rhs, t0, y0, *args, **kw):
        phase[0] = len(y0) - 1  # (w, w') in phase 1, (tau, l, r) in phase 2
        rk = stepper(rhs, t0, y0, *args, **kw)
        if phase[0] == 1:
            phase_one.append(rk)
        phase[0] = None
        return rk

    monkeypatch.setattr(ode, "forcing_coefficient", counting)
    monkeypatch.setattr(ode, "dopri_integrate", tagged)
    assert main(argv + [str(tmp_path / "counted")]) == 0
    for name in ("ode_report.json", "trajectory.csv"):
        assert (tmp_path / "counted" / name).read_bytes() == (tmp_path / "bound" / name).read_bytes()
    report = json.loads((tmp_path / "counted" / "ode_report.json").read_text())
    assert report["termination"] == "BlowupThreshold" and report["lemma_all_hold"]
    assert len(phase_one) == 1 and phase_one[0].n_steps > 0
    assert len(times) == sum(rk.n_rhs - rk.n_steps - rk.n_rejected for rk in phase_one)
    assert [a for a, b in zip(times, times[1:]) if a == b] == []
