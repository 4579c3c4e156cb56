import math
from dataclasses import replace

import numpy as np
import pytest

from kgblowup import (
    ConfigurationError,
    ExcludedRegionError,
    TerminationReason,
    make_field,
    make_initial_data,
    observable_w,
    run_pde,
    support_radius,
)
from kgblowup.pde import (
    InitialData,
    PdeField,
    bump_ball_integral,
    discrete_energy,
    evolve,
    field_to_csv,
    observables_to_csv,
    outside_cone_mass,
)
import kgblowup.pde as pde_mod
from kgblowup.integrate import dopri_integrate
from kgblowup.scenario import RunSettings

from conftest import make_inputs
from oracles import (
    dalembert_oracle,
    field_to_csv_per_element,
    forcing_integral,
    profile_antiderivative,
)


def flat_inputs(**kw):
    base = dict(H=0.0, sigma=0.0, m2=0.0, N=1.0, w0=2.0, w1=0.0)
    base.update(kw)
    return make_inputs(**base)


def run_with_data(inputs, t_end, controls, data, linear=False):
    """run_pde with the bump data replaced by ``data``'s."""
    field = make_field(inputs, t_end, controls)
    field = replace(field, u=data.u0(field.r), ut=data.u1(field.r))
    return evolve(field, inputs, t_end, controls, linear=linear)


class TestInitialData:
    def test_line_normalization(self):
        # integral of (1-x^2)^3 over [-1, 1] is 32/35
        data = make_initial_data(1, 1.0, 1.0, 0.0)
        assert data.s0 == pytest.approx(35.0 / 32.0, rel=1e-14)

    def test_ball_integral_3d(self):
        assert bump_ball_integral(3, 1.0) == pytest.approx(64.0 * math.pi / 315.0, rel=1e-14)

    def test_zero_target_zero_field(self):
        data = make_initial_data(1, 1.0, 0.0, 0.0)
        assert np.all(data.u0(np.linspace(0, 2, 50)) == 0.0)

    def test_support_strictly_inside(self):
        data = make_initial_data(2, 1.5, 3.0, 1.0)
        r = np.array([1.5, 1.6, 10.0])
        assert np.all(data.u0(r) == 0.0) and np.all(data.u1(r) == 0.0)

    def test_antiderivative_matches_quadrature(self):
        data = make_initial_data(1, 1.3, 1.0, 1.0)
        xs = np.linspace(-2.0, 2.0, 9)
        grid = np.linspace(0.0, 2.0, 40001)
        prof = data.profile(grid)
        for x in xs:
            direct = np.trapezoid(
                prof[grid <= abs(x)], grid[grid <= abs(x)]
            ) * math.copysign(1.0, x)
            assert profile_antiderivative(data, x) == pytest.approx(direct, abs=1e-8)


class TestObservables:
    def test_w_matches_target_on_fine_grid(self):
        inputs = flat_inputs(w0=2.0)
        field = make_field(inputs, 0.1, RunSettings(grid_h=1e-4))
        assert observable_w(field) == pytest.approx(2.0, abs=1e-8)

    def test_constant_field_ball_volume(self):
        inputs = flat_inputs(n=3, w0=1.0)
        h = 1e-3
        R = 2.0
        r = np.arange(int(R / h) + 1) * h
        field = PdeField(r, np.ones_like(r), np.zeros_like(r), 0.0, h, 3)
        assert observable_w(field) == pytest.approx(4.0 * math.pi / 3.0 * R**3, rel=1e-5)

    def test_zero_field(self):
        inputs = flat_inputs(w0=0.0, w1=0.0)
        field = make_field(inputs, 0.1, RunSettings(grid_h=1e-2))
        assert observable_w(field) == 0.0
        assert support_radius(field) == 0.0

    def test_support_radius_of_initial_data(self):
        inputs = flat_inputs()
        h = 1e-3
        field = make_field(inputs, 0.1, RunSettings(grid_h=h))
        assert support_radius(field) == pytest.approx(1.0, abs=2 * h)


class TestDalembertOracle:
    def test_initial_time_identity(self):
        data = make_initial_data(1, 1.0, 2.0, 0.0)
        inputs = flat_inputs()
        x = np.linspace(-2, 2, 101)
        assert np.allclose(dalembert_oracle(data, inputs, 0.0, x), data.u0(x))

    def test_two_half_bumps(self):
        data = make_initial_data(1, 1.0, 2.0, 0.0)
        inputs = flat_inputs()
        t = 5.0
        val_at_peak = dalembert_oracle(data, inputs, t, np.array([t]))[0]
        assert val_at_peak == pytest.approx(0.5 * data.s0, rel=1e-12)
        assert dalembert_oracle(data, inputs, t, np.array([0.0]))[0] == 0.0

    def test_mass_conserved_without_velocity(self):
        data = make_initial_data(1, 1.0, 2.0, 0.0)
        inputs = flat_inputs()
        x = np.linspace(-8, 8, 160001)
        for t in (0.3, 1.7, 4.0):
            vals = dalembert_oracle(data, inputs, t, x)
            assert np.trapezoid(vals, x) == pytest.approx(2.0, rel=1e-8)

    def test_rejects_curved_or_massive(self):
        data = make_initial_data(1, 1.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            dalembert_oracle(data, make_inputs(1.0, 0.0), 1.0, np.zeros(1))
        with pytest.raises(ConfigurationError):
            dalembert_oracle(data, make_inputs(0.0, 0.0, m2=1.0), 1.0, np.zeros(1))


@pytest.fixture(scope="module")
def smooth_data():
    mass = bump_ball_integral(1, 1.0, 6)
    return InitialData(n=1, r0=1.0, s0=2.0 / mass, s1=0.0, exponent=6)


class TestLinearEvolution:
    def errors_at(self, h, data):
        inputs = flat_inputs()
        controls = RunSettings(grid_h=h, pde_rel_tol=1e-10, r_max_factor=1.6)
        run = run_with_data(inputs, 0.5, controls, data, linear=True)
        f = run.field_final
        oracle = dalembert_oracle(data, inputs, f.t, f.r)
        return float(np.max(np.abs(f.u.real - oracle)))

    def test_second_order_convergence(self, smooth_data):
        e_coarse = self.errors_at(4e-3, smooth_data)
        e_fine = self.errors_at(2e-3, smooth_data)
        ratio = e_coarse / e_fine
        assert 3.6 <= ratio <= 4.4

    def test_energy_conserved_flat_massive(self):
        inputs = flat_inputs(m2=4.0, w0=2.0, w1=1.0)
        controls = RunSettings(grid_h=2e-3, pde_rel_tol=1e-10, r_max_factor=1.6)
        run = run_pde(inputs, 1.0, controls, linear=True)
        drift = np.abs(run.energy / run.energy[0] - 1.0)
        assert float(drift.max()) < 1e-6

    def test_realness_preserved(self):
        # the field stays float64 on a (2, J) state of u and u_t
        inputs = flat_inputs(w0=2.0, w1=1.0)
        run = run_pde(inputs, 0.5, RunSettings(grid_h=5e-3), linear=True)
        assert run.field_final.u.dtype == run.field_final.ut.dtype == np.float64
        assert np.any(run.field_final.u) and np.any(run.field_final.ut)
        assert run.rk.y.shape == (2, run.field_final.u.size)

    def test_finite_speed_all_case_backgrounds(self):
        # one background per corollary sign region, nonlinearity off
        cases = [
            (0.0, 0.0),
            (1.0, 1.0),
            (1.0, -0.5),
            (1.0, -1.0),
            (-1.0, 1.0),
            (-1.0, 0.0),
            (-1.0, -1.0),
            (-1.0, -2.0),
        ]
        for H, sigma in cases:
            inputs = make_inputs(H, sigma, N=1.0, w0=2.0, w1=1.0)
            T0 = inputs.params.T0
            t_end = 1.0 if math.isinf(T0) else 0.5 * T0
            controls = RunSettings(grid_h=2e-3, pde_rel_tol=1e-10, r_max_factor=1.6)
            run = run_pde(inputs, t_end, controls, linear=True)
            assert float(run.outside_mass.max()) < 1e-8, (H, sigma)
            assert run.contained.all(), (H, sigma)

    def test_widened_support_flagged_at_t0(self):
        inputs = flat_inputs()
        wide = make_initial_data(1, 1.6, 2.0, 0.0)  # support beyond r0 = 1
        controls = RunSettings(grid_h=5e-3, r_max_factor=2.2)
        run = run_with_data(inputs, 0.2, controls, wide, linear=True)
        assert not run.contained[0]
        assert not run.contained.all()


@pytest.fixture(scope="module")
def blowup_run(minkowski_inputs):
    controls = RunSettings(grid_h=2e-3, pde_rel_tol=1e-8)
    return run_pde(minkowski_inputs, 0.525, controls)


class TestNonlinearBlowup:
    def test_detects_blowup_before_lifespan_bound(self, blowup_run, minkowski_cert):
        assert blowup_run.rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert blowup_run.rk.blowup_time <= 1.05 * minkowski_cert.T_star

    def test_spatial_integral_respects_growth_bound(self, blowup_run, minkowski_inputs):
        c, N = minkowski_inputs.params.c, minkowski_inputs.N
        bound = minkowski_inputs.w0 * np.exp(c * N * blowup_run.times)
        assert np.all(blowup_run.W >= bound * (1.0 - 5e-3))

    def test_w_dynamics_consistency(self, minkowski_inputs, monkeypatch):
        # c^-2 W'' + M^2 W = (forcing integral) >= b |W|^p along the run;
        # integrating in segments of the output interval makes the recorded
        # times uniform, so the centered second difference is second-order
        # accurate
        states = {}

        def capped(rhs, t0, y0, t_end, *, on_step, **kw):
            states[t0] = y0.copy()

            def keep(t, y, h_used):
                states[t] = y.copy()
                return on_step(t, y, h_used)

            res = dopri_integrate(rhs, t0, y0, min(t0 + 4e-4, t_end), on_step=keep, **kw)
            while (res.status is TerminationReason.REACHED_HORIZON and res.t < t_end
                   and res.n_steps):  # no step: t_end is within one ulp
                t1 = min(res.t + 4e-4, t_end)
                res = dopri_integrate(rhs, res.t, res.y, t1, on_step=keep, **kw)
            return res

        monkeypatch.setattr(pde_mod, "dopri_integrate", capped)
        controls = RunSettings(grid_h=2e-3, pde_rel_tol=1e-10, output_interval=4e-4)
        run = run_pde(minkowski_inputs, 0.06, controls)

        def forcing_at(x):
            u = states[x][0]
            return forcing_integral(replace(run.field0, u=u, t=x), minkowski_inputs)

        t, W = run.times, run.W
        F = np.array([forcing_at(x) for x in t])
        from kgblowup.ode import forcing_coefficient

        b = forcing_coefficient(minkowski_inputs)
        c2 = minkowski_inputs.params.c ** 2
        p = minkowski_inputs.p
        bad = 0
        for i in range(1, t.size - 1):
            dt0, dt1 = t[i] - t[i - 1], t[i + 1] - t[i]
            wdd = 2.0 * (
                W[i - 1] / (dt0 * (dt0 + dt1))
                - W[i] / (dt0 * dt1)
                + W[i + 1] / (dt1 * (dt0 + dt1))
            )
            resid = wdd / c2 + 0.0 * W[i] - F[i]  # M^2 = 0 here
            scale = max(abs(wdd) / c2, abs(F[i]), 1.0)
            if abs(resid) > 1e-3 * scale:
                bad += 1
            assert F[i] >= b(t[i]) * abs(W[i]) ** p * (1.0 - 1e-3)
        assert bad == 0

    def test_forcing_integral_observable(self, minkowski_inputs):
        field = make_field(minkowski_inputs, 0.1, RunSettings(grid_h=1e-3))
        # at t=0: lambda * integral of |u0|^p with u0 = s0 (1-r^2)^3
        data = make_initial_data(1, 1.0, 16.0, 64.0)
        grid = np.linspace(-1, 1, 200001)
        ref = np.trapezoid(np.abs(data.u0(grid)) ** 3, grid)
        assert forcing_integral(field, minkowski_inputs) == pytest.approx(ref, rel=1e-6)


def _blowup_exit(inputs, monkeypatch, nan_level=None):
    """evolve on the flat blow-up at grid_h 4e-3, with (t, h, max|u| /
    scale0) of every accepted step and max|u| / scale0 at the end.  With a
    ``nan_level``, the kernel writes NaN from the first call that sees
    max|u| above nan_level scale0 on, so every later trial is rejected
    until the step falls below the stepper's floor."""
    controls = RunSettings(grid_h=4e-3)
    field = make_field(inputs, 0.525, controls)
    scale0 = max(1.0, float(np.max(np.abs(field.u))), float(np.max(np.abs(field.ut))))
    steps, tripped, kernel = [], [], pde_mod.radial_accel

    def nan_kernel(u, out, *args):
        kernel(u, out, *args)
        if tripped or (nan_level is not None and np.max(np.abs(u)) > nan_level * scale0):
            tripped.append(True)
            out[...] = np.nan

    def spy(rhs, t0, y0, t_end, *, on_step, **kw):
        def keep(t, y, h_used):
            steps.append((t, h_used, float(np.max(np.abs(y[0]))) / scale0))
            return on_step(t, y, h_used)

        return dopri_integrate(rhs, t0, y0, t_end, on_step=keep, **kw)

    monkeypatch.setattr(pde_mod, "radial_accel", nan_kernel)
    monkeypatch.setattr(pde_mod, "dopri_integrate", spy)
    run = evolve(field, inputs, 0.525, controls)
    return run.rk, steps, float(np.max(np.abs(run.rk.y[0]))) / scale0


class TestBlowupExits:
    """evolve's blow-up rule: max|u| above 1e8 scale0 together with a
    collapsed step, accepted or pushed below the stepper's floor."""

    def test_accepted_collapsed_step(self, minkowski_inputs, monkeypatch):
        rk, steps, mag = _blowup_exit(minkowski_inputs, monkeypatch)
        t_prev = [0.0] + [t for t, _, _ in steps[:-1]]
        hits = [i for i, ((t, h, m), tp) in enumerate(zip(steps, t_prev))
                if m > 1e8 and h < 1e-14 * max(1.0, tp)]
        assert rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert hits == [len(steps) - 1]  # the first step that meets the rule ends the run
        assert rk.blowup_time == rk.t == steps[-1][0] and mag > 1e8
        assert any(m > 1e8 for _, _, m in steps[:-1])  # a large field alone is no blow-up

    @pytest.mark.parametrize("nan_level, status", [
        (1e9, TerminationReason.BLOWUP_THRESHOLD),
        (1e7, TerminationReason.STEP_UNDERFLOW),
    ])
    def test_step_below_the_floor(self, nan_level, status, minkowski_inputs, monkeypatch):
        rk, steps, mag = _blowup_exit(minkowski_inputs, monkeypatch, nan_level)
        assert rk.status is status and rk.n_rejected > 0
        assert rk.t == steps[-1][0] and rk.last_h < 1e-16 * max(1.0, rk.t)
        assert min(h for _, h, _ in steps) > 1e-14  # no accepted step collapsed
        if status is TerminationReason.BLOWUP_THRESHOLD:
            assert rk.blowup_time == rk.t and mag > 1e8
        else:
            assert rk.blowup_time is None and mag < 1e8


class TestRealPath:
    def test_observables_same_bits_on_real_views(self, blowup_run, minkowski_inputs):
        """A complex field with a +0.0 imaginary part and its real part give
        the observables the same bits."""
        rng = np.random.default_rng(8)
        r = np.arange(200) * 0.01
        noise = [
            PdeField(r, rng.standard_normal(r.size) + 0j, rng.standard_normal(r.size) + 0j,
                     0.0, 0.01, 1)
            for _ in range(20)
        ]
        for f in (blowup_run.field0, blowup_run.field_final, *noise):
            assert not f.u.imag.any() and not f.ut.imag.any()
            real = PdeField(f.r, f.u.real.copy(), f.ut.real.copy(), f.t, f.h, f.n)
            values = [
                [observable_w(s), support_radius(s), discrete_energy(s, minkowski_inputs),
                 outside_cone_mass(s, 0.7, 2.0 * s.h)]
                for s in (f, real)
            ]
            assert np.array(values[0]).tobytes() == np.array(values[1]).tobytes()

    @pytest.mark.parametrize("name", ["u", "ut"])
    def test_complex_field_is_a_value_error(self, name, minkowski_inputs):
        """evolve refuses a complex u or ut, even with a zero imaginary
        part, rather than drop the imaginary part."""
        controls = RunSettings(grid_h=4e-3)
        field = make_field(minkowski_inputs, 0.1, controls)
        values = getattr(field, name)
        for bad in (values + 1e-300j, values.astype(complex)):
            with pytest.raises(ValueError, match="real field"):
                evolve(replace(field, **{name: bad}), minkowski_inputs, 0.1, controls)


class TestGuards:
    def test_domain_too_small(self):
        inputs = flat_inputs()
        field = make_field(inputs, 0.1, RunSettings(grid_h=5e-3))
        with pytest.raises(ConfigurationError):
            evolve(field, inputs, 5.0, RunSettings(grid_h=5e-3))

    def test_excluded_region_rejected(self):
        inputs = make_inputs(1.0, -2.0, N=1.0, w0=1.0, w1=0.0)
        with pytest.raises(ExcludedRegionError):
            run_pde(inputs, 0.1, RunSettings(grid_h=5e-3), linear=True)


class TestCsvExport:
    def test_field_and_observables(self, tmp_path):
        inputs = flat_inputs()
        run = run_pde(inputs, 0.2, RunSettings(grid_h=5e-3), linear=True)
        fp, op = tmp_path / "field.csv", tmp_path / "obs.csv"
        field_to_csv(fp, run.field_final)
        observables_to_csv(op, run)
        assert fp.read_text().splitlines()[0] == "r,re_u,im_u,re_ut,im_ut"
        header = op.read_text().splitlines()[0]
        assert header == "t,W,support_radius,cone_radius,energy"

    @pytest.mark.parametrize("kind", ["real", "signed_zero", "inf_nan"])
    def test_field_bytes_match_the_per_element_writer(self, kind, tmp_path):
        rng = np.random.default_rng(5)
        J = 64
        r = np.arange(J) * 0.1
        u = rng.standard_normal(J) * 10.0 ** rng.integers(-300, 300, J)
        ut = rng.standard_normal(J)
        if kind == "signed_zero":
            u, ut = np.where(np.arange(J) % 3 == 0, 0.0, -0.0), np.full(J, -0.0)
        elif kind == "inf_nan":
            u = np.array([np.inf, -np.inf, np.nan, -np.nan] * (J // 4))
            ut = np.array([np.nan, 5e-324, -np.inf, 1e308] * (J // 4))
        field = PdeField(r, u, ut, 0.0, 0.1, 1)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        field_to_csv(new, field)
        field_to_csv_per_element(old, field)
        assert new.read_bytes() == old.read_bytes()


class TestDiscreteEnergyDefinition:
    def test_matches_continuum_on_smooth_field(self):
        # against a closed-form integrand on a fine grid
        inputs = flat_inputs(m2=9.0)
        h = 2e-4
        r = np.arange(int(2.0 / h) + 1) * h
        u = np.exp(-(r**2)) * (1.0 - r**2)
        ut = np.sin(r) * np.exp(-(r**2))
        field = PdeField(r, u, ut, 0.0, h, 1)
        grid = np.linspace(0, 2.0, 400001)
        uu = np.exp(-(grid**2)) * (1.0 - grid**2)
        uut = np.sin(grid) * np.exp(-(grid**2))
        du = np.gradient(uu, grid)
        ref = 2.0 * np.trapezoid(uut**2 + du**2 + 9.0 * uu**2, grid)
        assert discrete_energy(field, inputs) == pytest.approx(ref, rel=1e-3)
