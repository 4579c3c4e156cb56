import math
from dataclasses import replace

import numpy as np
import pytest

from kgblowup import (
    ConfigurationError,
    ExcludedRegionError,
    TerminationReason,
    make_field,
    observable_w,
    run_pde,
    support_radius,
)
from kgblowup.pde import (
    PdeField,
    bump_ball_integral,
    discrete_energy,
    evolve,
    field_to_csv,
    grid_weights,
    observables_to_csv,
)
import kgblowup.pde as pde_mod
from kgblowup.certificate import rpow
from kgblowup.cosmology import mass_sq_function, scale_eval
from kgblowup.integrate import dopri_integrate
from kgblowup.scenario import PDE_REL_TOL_MAX, RunSettings

from conftest import make_inputs
from oracles import (
    ball_integral,
    bump_data,
    dalembert_oracle,
    field_to_csv_per_element,
    forcing_integral,
    profile_antiderivative,
    smooth_data,
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
    """make_field's bump data, u = (w0 / M) phi and ut = (w1 / M) phi."""

    def test_line_normalization(self):
        # integral of (1-x^2)^3 over [-1, 1] is 32/35; phi(0) = 1
        field = make_field(flat_inputs(w0=1.0, w1=0.0), 0.1, RunSettings(grid_h=1e-2))
        assert field.u[0] == pytest.approx(35.0 / 32.0, rel=1e-14)

    def test_ball_integral_3d(self):
        assert bump_ball_integral(3, 1.0) == pytest.approx(64.0 * math.pi / 315.0, rel=1e-14)
        assert bump_ball_integral(3, 1.0) == ball_integral(3, 1.0, 3)

    @pytest.mark.parametrize("n, r0, w0, w1", [
        (1, 1.0, 2.0, 0.0), (2, 1.5, 3.0, 1.0), (3, 0.7, 16.0, 64.0), (4, 1.3, 1e-3, 7.0),
    ])
    def test_ball_integrals_are_w0_and_w1(self, n, r0, w0, w1):
        inputs = make_inputs(0.0, 0.0, N=1.0, n=n, r0=r0, w0=w0, w1=w1)
        field = make_field(inputs, 0.1, RunSettings(grid_h=1e-2))
        data = bump_data(n, r0, w0, w1)
        assert field.u.tobytes() == data.u0(field.r).tobytes()
        assert field.ut.tobytes() == data.u1(field.r).tobytes()
        mass = ball_integral(n, r0, 3)
        assert data.s0 * mass == pytest.approx(w0, rel=1e-15)
        assert data.s1 * mass == pytest.approx(w1, rel=1e-15)

    def test_zero_target_zero_field(self):
        field = make_field(flat_inputs(w0=0.0, w1=0.0), 0.1, RunSettings(grid_h=1e-2))
        assert not field.u.any() and not field.ut.any()

    def test_support_strictly_inside(self):
        inputs = make_inputs(0.0, 0.0, N=1.0, n=2, r0=1.5, w0=3.0, w1=1.0)
        field = make_field(inputs, 0.1, RunSettings(grid_h=1e-2))
        outside = field.r >= 1.5
        assert outside.any() and field.u[~outside].all() and field.ut[~outside].all()
        assert not field.u[outside].any() and not field.ut[outside].any()

    def test_antiderivative_matches_quadrature(self):
        data = bump_data(1, 1.3, 1.0, 1.0)
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
        assert observable_w(field, grid_weights(field)) == pytest.approx(2.0, abs=1e-8)

    def test_constant_field_ball_volume(self):
        inputs = flat_inputs(n=3, w0=1.0)
        h = 1e-3
        R = 2.0
        r = np.arange(int(R / h) + 1) * h
        field = PdeField(r, np.ones_like(r), np.zeros_like(r), 0.0, h, 3)
        weights = grid_weights(field)
        assert observable_w(field, weights) == pytest.approx(4.0 * math.pi / 3.0 * R**3, rel=1e-5)

    def test_zero_field(self):
        inputs = flat_inputs(w0=0.0, w1=0.0)
        field = make_field(inputs, 0.1, RunSettings(grid_h=1e-2))
        assert observable_w(field, grid_weights(field)) == 0.0
        assert support_radius(field) == 0.0

    def test_support_radius_of_initial_data(self):
        inputs = flat_inputs()
        h = 1e-3
        field = make_field(inputs, 0.1, RunSettings(grid_h=h))
        assert support_radius(field) == pytest.approx(1.0, abs=2 * h)


class TestDalembertOracle:
    def test_initial_time_identity(self):
        data = bump_data(1, 1.0, 2.0, 0.0)
        inputs = flat_inputs()
        x = np.linspace(-2, 2, 101)
        assert np.allclose(dalembert_oracle(data, inputs, 0.0, x), data.u0(x))

    def test_two_half_bumps(self):
        data = bump_data(1, 1.0, 2.0, 0.0)
        inputs = flat_inputs()
        t = 5.0
        val_at_peak = dalembert_oracle(data, inputs, t, np.array([t]))[0]
        assert val_at_peak == pytest.approx(0.5 * data.s0, rel=1e-12)
        assert dalembert_oracle(data, inputs, t, np.array([0.0]))[0] == 0.0

    def test_mass_conserved_without_velocity(self):
        data = bump_data(1, 1.0, 2.0, 0.0)
        inputs = flat_inputs()
        x = np.linspace(-8, 8, 160001)
        for t in (0.3, 1.7, 4.0):
            vals = dalembert_oracle(data, inputs, t, x)
            assert np.trapezoid(vals, x) == pytest.approx(2.0, rel=1e-8)

    def test_rejects_curved_or_massive(self):
        data = bump_data(1, 1.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            dalembert_oracle(data, make_inputs(1.0, 0.0), 1.0, np.zeros(1))
        with pytest.raises(ConfigurationError):
            dalembert_oracle(data, make_inputs(0.0, 0.0, m2=1.0), 1.0, np.zeros(1))


class TestLinearEvolution:
    def errors_at(self, h, data):
        inputs = flat_inputs()
        controls = RunSettings(grid_h=h, pde_rel_tol=1e-10, r_max_factor=1.6)
        run = run_with_data(inputs, 0.5, controls, data, linear=True)
        f = run.field_final
        oracle = dalembert_oracle(data, inputs, f.t, f.r)
        return float(np.max(np.abs(f.u - oracle)))

    def test_second_order_convergence(self):
        e_coarse = self.errors_at(4e-3, smooth_data())
        e_fine = self.errors_at(2e-3, smooth_data())
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
        wide = bump_data(1, 1.6, 2.0, 0.0)  # support beyond r0 = 1
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

    def test_evolve_leaves_the_callers_field_alone(self, minkowski_inputs):
        """field0 is the field evolve was given, with its bytes unchanged
        by the run."""
        controls = RunSettings(grid_h=4e-3)
        field = make_field(minkowski_inputs, 0.525, controls)
        u, ut = field.u.tobytes(), field.ut.tobytes()
        run = evolve(field, minkowski_inputs, 0.525, controls)
        assert run.rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert run.field0 is field
        assert field.u.tobytes() == u and field.ut.tobytes() == ut
        assert not np.shares_memory(run.field_final.u, field.u)

    def test_forcing_integral_observable(self, minkowski_inputs):
        field = make_field(minkowski_inputs, 0.1, RunSettings(grid_h=1e-3))
        # at t=0: lambda * integral of |u0|^p with u0 = s0 (1-r^2)^3
        data = bump_data(1, 1.0, 16.0, 64.0)
        grid = np.linspace(-1, 1, 200001)
        ref = np.trapezoid(np.abs(data.u0(grid)) ** 3, grid)
        assert forcing_integral(field, minkowski_inputs) == pytest.approx(ref, rel=1e-6)


def _blowup_exit(inputs, monkeypatch, nan_level=None):
    """evolve on the flat blow-up at grid_h 4e-3, with (t, h, max|u| /
    scale0, T^) of every accepted step and max|u| / scale0 at the end; T^
    = t + u_i / (k u_t,i) at the node i of max|u|, k = (p - 1) / 2.  With a
    ``nan_level``, the kernel writes NaN from the first call that sees
    max|u| above nan_level scale0 on, so every later trial is rejected
    until the step falls below the stepper's floor."""
    controls = RunSettings(grid_h=4e-3)
    field = make_field(inputs, 0.525, controls)
    scale0 = max(1.0, float(np.max(np.abs(field.u))), float(np.max(np.abs(field.ut))))
    k = (inputs.p - 1.0) / 2.0
    steps, tripped, kernel = [], [], pde_mod.radial_accel

    def nan_kernel(u, out, *args):
        kernel(u, out, *args)
        if tripped or (nan_level is not None and np.max(np.abs(u)) > nan_level * scale0):
            tripped.append(True)
            out[...] = np.nan

    def spy(rhs, t0, y0, t_end, *, on_step, **kw):
        def keep(t, y, h_used):
            i = int(np.argmax(np.abs(y[0])))
            t_hat = t + float(y[0, i]) / (k * float(y[1, i]))
            steps.append((t, h_used, abs(float(y[0, i])) / scale0, t_hat))
            return on_step(t, y, h_used)

        return dopri_integrate(rhs, t0, y0, t_end, on_step=keep, **kw)

    monkeypatch.setattr(pde_mod, "radial_accel", nan_kernel)
    monkeypatch.setattr(pde_mod, "dopri_integrate", spy)
    run = evolve(field, inputs, 0.525, controls)
    return run, steps, float(np.max(np.abs(run.rk.y[0]))) / scale0


def _settled(steps):
    """Indices of the steps past the regime gate whose T^ is within 1e-12
    relative of the T^ of the gated step before."""
    gated = [(j, step[3]) for j, step in enumerate(steps) if step[2] > 1e3]
    return [j for (_, a), (j, b) in zip(gated, gated[1:]) if abs(b - a) <= 1e-12 * abs(b)]


class TestBlowupExits:
    """evolve's blow-up rule: past the regime gate, max|u| above 1e3
    scale0, the first step whose T^ settles ends the run; a run whose T^
    never settles is no blow-up."""

    def test_first_settled_t_hat_ends_the_run(self, minkowski_inputs, monkeypatch):
        run, steps, mag = _blowup_exit(minkowski_inputs, monkeypatch)
        rk = run.rk
        assert rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert _settled(steps) == [len(steps) - 1]  # the first settled T^ ends the run
        assert rk.blowup_time == steps[-1][3] > rk.t == steps[-1][0]
        assert run.blowup_evidence["T_hat"] == [step[3] for step in steps[-3:]]
        assert run.blowup_evidence["max_u_over_scale0"] == mag
        assert 1e3 < mag < 1e8
        # a large field whose T^ does not settle is no blow-up
        assert sum(m > 1e3 for _, _, m, _ in steps[:-1]) >= 2

    @pytest.mark.parametrize("nan_level, status", [
        (1e9, TerminationReason.STEP_UNDERFLOW),
        (1e7, TerminationReason.STEP_UNDERFLOW),
    ])
    def test_step_below_the_floor(self, nan_level, status, minkowski_inputs, monkeypatch):
        """With no T^ settling, the run ends where the stepper ends it, at
        its step floor, with no blow-up time, whether max|u| got past 1e8
        scale0 (nan_level 1e9) or not (1e7)."""
        monkeypatch.setattr(pde_mod, "SETTLE_REL", -1.0)  # no T^ settles
        run, steps, mag = _blowup_exit(minkowski_inputs, monkeypatch, nan_level)
        rk = run.rk
        assert rk.status is status and rk.n_rejected > 0
        assert rk.t == steps[-1][0] and rk.last_h < 1e-16 * max(1.0, rk.t)
        assert min(h for _, h, _, _ in steps) > 1e-14  # no accepted step collapsed
        assert rk.blowup_time is None and (mag > 1e8) == (nan_level > 1e8)

    @pytest.mark.parametrize("p, w0, w1, t_end", [
        (2.0, 16.0, 64.0, 2.0),
        (3.0, 16.0, 64.0, 0.525),
        (5.0, 2.0, 2.0, 2.0),
        (9.0, 2.0, 2.0, 2.0),
        (15.0, 2.0, 2.0, 2.0),
        (30.0, 2.0, 2.0, 2.0),
    ])
    def test_every_exponent_ends_in_a_settled_t_hat(self, p, w0, w1, t_end, minkowski_inputs):
        """At p = 5 and 9 the step reaches its floor with max|u| still under
        1e8 scale0, so only the settled T^ catches these blow-ups.  At p =
        15 and 30 it reaches its floor below 1e3 scale0 (at 57.8 and 4.6
        scale0), so only a regime gate that falls with p catches them."""
        inputs = replace(minkowski_inputs, p=p, w0=w0, w1=w1)
        run = run_pde(inputs, t_end, RunSettings(grid_h=4e-3))
        evidence = run.blowup_evidence
        last, before = evidence["T_hat"][-1], evidence["T_hat"][-2]
        assert run.rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert run.rk.blowup_time == last > run.rk.t
        assert abs(last - before) <= 1e-12 * last
        assert evidence["peak_node"] == 0

    # the n = 1, p = 5 bump's blow-up time at grid_h 2.5e-4, pde_rel_tol 1e-10
    BUMP_P5_T_REF = 0.23586518498368086

    @pytest.mark.parametrize("n, p", [(1, 3.0), (1, 5.0), (3, 3.0)])
    def test_loosest_tolerance_finds_no_false_blow_up(self, n, p):
        """The reduced scan: the flat w0 = w1 = 2 bump at the loosest
        pde_rel_tol the schema takes.  The p = 3 runs reach the horizon, as
        tight tolerances do; at 1e-2 the n = 1 run reported a blow-up near
        t = 0.233 at the bump's edge (grid_h 5e-4), and at 1e-3 the n = 3
        run one near t = 0.369 on the axis.  The p = 5 run blows up on the
        axis."""
        inputs = make_inputs(0.0, 0.0, N=2.0, n=n, p=p, w0=2.0, w1=2.0)
        run = run_pde(inputs, 1.0, RunSettings(grid_h=1e-3, pde_rel_tol=PDE_REL_TOL_MAX))
        if p == 3.0:
            assert run.rk.status is TerminationReason.REACHED_HORIZON
            assert run.rk.t == 1.0 and run.blowup_evidence is None
        else:
            assert run.rk.status is TerminationReason.BLOWUP_THRESHOLD
            t_ref = self.BUMP_P5_T_REF
            assert abs(run.rk.blowup_time - t_ref) <= 1e-4 * t_ref
            assert run.blowup_evidence["peak_node"] == 0


class TestRealPath:
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


# (H, sigma, m2, n): flat at both zeros of H, de Sitter at both signs, a
# subnormal H whose e H underflows, and e H != 0 both ways
BACKGROUNDS = {
    "flat +0.0, n = 1": (0.0, 0.0, 1.0, 1),
    "flat -0.0, n = 1": (-0.0, 0.0, 1.0, 1),
    "flat +0.0, n = 3": (0.0, 2.0, 1.0, 3),
    "flat -0.0, n = 3": (-0.0, 2.0, 1.0, 3),
    "de Sitter +0.5": (0.5, -1.0, 0.5, 1),
    "de Sitter -0.5": (-0.5, -1.0, 0.5, 1),
    "subnormal H": (5e-324, -0.5, 0.5, 1),
    "expanding": (0.5, 1.0, 0.5, 1),
    "contracting": (-0.5, 1.0, 0.5, 1),
}


class TestBoundCoefficients:
    """evolve binds the kernel's coefficients where the background's exact
    zeros fix them; every call must still get the per-call bits."""

    @staticmethod
    def _calls(inputs, t_end, monkeypatch, grid_h=1e-2):
        """(stage time, (a_lap, a_mass, a_nl)) of every kernel call."""
        times, calls, kernel = [], [], pde_mod.radial_accel

        def spy(u, acc, tmp, cp, cm, a_lap, a_mass, a_nl, p, n):
            calls.append((times[-1], (a_lap, a_mass, a_nl)))
            kernel(u, acc, tmp, cp, cm, a_lap, a_mass, a_nl, p, n)

        def stepper(rhs, *args, **kw):
            def timed(t, y, out):
                times.append(t)
                return rhs(t, y, out)

            return dopri_integrate(timed, *args, **kw)

        monkeypatch.setattr(pde_mod, "radial_accel", spy)
        monkeypatch.setattr(pde_mod, "dopri_integrate", stepper)
        controls = RunSettings(grid_h=grid_h)
        evolve(make_field(inputs, t_end, controls), inputs, t_end, controls)
        return calls

    @pytest.mark.parametrize("name", sorted(BACKGROUNDS))
    def test_each_call_gets_the_per_call_bits(self, name, monkeypatch):
        H, sigma, m2, n = BACKGROUNDS[name]
        inputs = make_inputs(H, sigma, m2=m2, n=n, N=2.0, w0=16.0, w1=64.0)
        calls = self._calls(inputs, 0.05, monkeypatch)
        params, h, p = inputs.params, 1e-2, inputs.p
        c2, mass_sq = params.c**2, mass_sq_function(params)
        assert len(calls) > 50
        for t, got in calls:
            a = scale_eval(params, t)
            want = (c2 / (a * a * h * h), c2 * mass_sq(t),
                    c2 * inputs.lam * rpow(a, -n * (p - 1.0) / 2.0))
            assert [x.hex() for x in got] == [x.hex() for x in want], (t, got, want)

    def test_flat_rhs_evaluates_no_scale_function(self, minkowski_inputs, monkeypatch):
        """The flat blow-up's RHS calls scale_eval and M^2 nowhere: evolve
        binds a = a0 and M^2 from the background's forms, and the energy
        calls scale_eval once per record."""
        calls, in_rhs, evaluate = [], [False], pde_mod.scale_eval
        forms = minkowski_inputs.geom.forms
        mass_calls, mass_sq = [], forms.mass_sq

        def counted(params, t):
            calls.append(in_rhs[0])
            return evaluate(params, t)

        def counted_mass(t):
            mass_calls.append(in_rhs[0])
            return mass_sq(t)

        def stepper(rhs, *args, **kw):
            def flagged(t, y, out):
                in_rhs[0] = True
                out = rhs(t, y, out)
                in_rhs[0] = False
                return out

            return dopri_integrate(flagged, *args, **kw)

        monkeypatch.setattr(pde_mod, "scale_eval", counted)
        monkeypatch.setattr(forms, "mass_sq", counted_mass)
        monkeypatch.setattr(pde_mod, "dopri_integrate", stepper)
        controls = RunSettings(grid_h=4e-3)
        run = run_pde(minkowski_inputs, 0.525, controls)
        assert run.rk.status is TerminationReason.BLOWUP_THRESHOLD and run.rk.n_rhs > 500
        assert not any(calls) and len(calls) == run.times.size
        assert not any(mass_calls)


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
        assert discrete_energy(field, inputs, grid_weights(field)) == pytest.approx(ref, rel=1e-3)
