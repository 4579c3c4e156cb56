"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one line of the form
``acceptance 04 [exact-ode-blowup]: PASS in 0.12s (budget 1s)``;
run with ``pytest -s tests/test_acceptance.py`` to see them live.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from kgblowup import (
    CosmologyParams,
    ConeGeometry,
    ExcludedRegionError,
    Monotonicity,
    TerminationReason,
    certify,
    check_lemma21,
    classify_q,
    compute_A,
    compute_B,
    corollary_case_check,
    curved_mass_sq,
    detect_blowup_time,
    envelope,
    envelope_pole,
    integrate_ode,
)
from kgblowup import certificate
from kgblowup.pde import run_pde
from kgblowup.scenario import RunSettings

from conftest import CASE_REGIONS, CASE_SEEDS, certified_inputs, make_inputs, region_samples
from oracles import (
    curved_mass_sq_from_scale,
    dalembert_oracle,
    q_eval,
    scale_derivatives,
    smooth_data,
)


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.perf_counter() - t0
        verdict = "FAIL" if failed else "PASS"
        print(
            f"acceptance {num:02d} [{name}]: {verdict} in {dt:.2f}s (budget {budget_s}s)",
            flush=True,
        )
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.2f}s)"


def _random_cosmologies(seed, per_case):
    rng = np.random.default_rng(seed)
    out = []
    for case in CASE_REGIONS:
        for H, sigma in region_samples(rng, case, per_case):
            out.append(
                CosmologyParams(
                    n=int(rng.integers(1, 5)),
                    c=float(rng.uniform(0.5, 2.0)),
                    a0=float(rng.uniform(0.5, 2.0)),
                    H=H,
                    sigma=sigma,
                    m_squared=float(rng.uniform(-2.0, 4.0)),
                )
            )
    return out


def test_criterion_01_curved_mass_identity():
    with criterion(1, "curved-mass-identity", 1.0):
        rng = np.random.default_rng(100)
        params_list = _random_cosmologies(101, 25)
        assert len(params_list) >= 200
        for p in params_list:
            T0 = p.T0
            hi = 10.0 if math.isinf(T0) else 0.99 * T0
            for t in rng.uniform(0.0, hi, 100):
                a = curved_mass_sq_from_scale(p, t)
                b = curved_mass_sq(p, t)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_criterion_02_hubble_identity():
    with criterion(2, "hubble-identity", 1.0):
        rng = np.random.default_rng(200)
        for p in _random_cosmologies(201, 25):
            T0 = p.T0
            hi = 10.0 if math.isinf(T0) else 0.99 * T0
            for t in rng.uniform(0.0, hi, 100):
                a, adot, _ = scale_derivatives(p, t)
                lhs = adot / a
                rhs = p.H * (a / p.a0) ** (-p.n * (1.0 + p.sigma) / 2.0)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def _row_parameter_sets():
    # row 1: H = 0; row 2: expanding, or contracting below the radius gate;
    # row 3: contracting above the radius gate
    sets = []
    for sigma in (-2.0, -1.0, 0.0, 1.5):
        sets.append((1, 0.0, sigma, 1.0))
    for n, H, sigma, r0 in (
        (1, 1.0, 0.5, 1.0),
        (2, 0.7, -1.0, 2.0),
        (3, 1.3, 2.0, 0.5),
        (1, -1.0, -1.0, 1.5),   # r0 <= 2c/(a0|H|) = 2
        (2, -0.5, -2.0, 3.0),   # r0 <= 4
        (1, -1.0, 0.0, 1.0),    # n=1 boundary row: sigma = -1 + 1/n
    ):
        sets.append((n, H, sigma, r0))
    for n, H, sigma, r0 in (
        (2, -1.0, 0.0, 3.0),
        (3, -0.8, 1.0, 4.0),
        (1, -1.0, 0.5, 2.5),
    ):
        sets.append((n, H, sigma, r0))
    return sets


def test_criterion_03_monotonicity_rows():
    with criterion(3, "q-monotonicity-rows", 5.0):
        for n, H, sigma, r0 in _row_parameter_sets():
            params = CosmologyParams(n=n, c=1.0, a0=1.0, H=H, sigma=sigma, m_squared=0.0)
            geom = ConeGeometry(params, r0)
            verdict = classify_q(geom)
            assert verdict is not Monotonicity.NOT_MONOTONE, (n, H, sigma, r0)
            T0 = params.T0
            hi = 5.0 if math.isinf(T0) else 0.95 * T0
            for t in np.linspace(1e-4, hi, 500):
                h = 1e-6 * max(1.0, t)
                if t - h < 0:
                    qdot = (q_eval(geom, t + h) - q_eval(geom, t)) / h
                else:
                    qdot = (q_eval(geom, t + h) - q_eval(geom, t - h)) / (2.0 * h)
                if abs(qdot) < 1e-8:
                    continue
                if verdict is Monotonicity.NON_DECREASING:
                    assert qdot > 0, (n, H, sigma, r0, t, qdot)
                else:
                    assert qdot < 0, (n, H, sigma, r0, t, qdot)


def test_criterion_04_exact_ode_blowup():
    with criterion(4, "exact-ode-blowup", 1.0):
        inputs = make_inputs(0.0, 0.0, N=0.0, w0=math.sqrt(2.0), w1=math.sqrt(2.0))
        traj = integrate_ode(inputs, 1.5, RunSettings(ode_mass_sq_const=0.0, ode_forcing_const=1.0))
        assert traj.rk.status is TerminationReason.BLOWUP_THRESHOLD
        t_blow = detect_blowup_time(traj)
        assert abs(t_blow - 1.0) <= 0.01


def test_criterion_05_growth_property_suite():
    with criterion(5, "growth-property-suite", 10.0):
        cases = list(CASE_SEEDS)
        assert len(cases) >= 5
        for case in cases:
            inputs, cert = certified_inputs(case)
            t_end = 0.8 * min(cert.T_star, cert.T0)
            traj = integrate_ode(inputs, t_end)
            report = check_lemma21(traj, inputs, cert, tol=1e-6)
            assert report.all_hold, (case, report)


def test_criterion_06_lifespan_bound(minkowski_inputs, minkowski_cert):
    with criterion(6, "lifespan-bound", 2.0):
        cert = minkowski_cert
        assert cert.T_star == pytest.approx(0.5, rel=1e-9)
        traj = integrate_ode(minkowski_inputs, 0.5)
        assert traj.blowup_detected
        assert detect_blowup_time(traj) <= cert.T_star
        pole = envelope_pole(minkowski_inputs, cert)
        sel = traj.t <= 0.95 * pole
        env = np.array([envelope(minkowski_inputs, cert, t) for t in traj.t[sel]])
        assert np.all(traj.w[sel] >= env * (1.0 - 1e-4))


def test_criterion_07_pde_linear_oracle():
    with criterion(7, "pde-linear-oracle", 30.0):
        from kgblowup.pde import evolve, make_field

        smooth = smooth_data()
        inputs = make_inputs(0.0, 0.0, N=1.0, w0=2.0, w1=0.0)
        errs = []
        for h in (4e-3, 2e-3):
            controls = RunSettings(grid_h=h, pde_rel_tol=1e-10, r_max_factor=1.6)
            field = make_field(inputs, 0.5, controls)
            field = replace(field, u=smooth.u0(field.r), ut=smooth.u1(field.r))
            run = evolve(field, inputs, 0.5, controls, linear=True)
            f = run.field_final
            oracle = dalembert_oracle(smooth, inputs, f.t, f.r)
            errs.append(float(np.max(np.abs(f.u - oracle))))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9, errs


def test_criterion_08_finite_speed():
    with criterion(8, "finite-speed", 60.0):
        backgrounds = [
            (0.0, 0.0),    # flat
            (1.0, -1.0),   # exponential expansion
            (-1.0, -1.0),  # exponential contraction
            (1.0, 1.0),    # power law
        ]
        for H, sigma in backgrounds:
            inputs = make_inputs(H, sigma, N=1.0, w0=2.0, w1=1.0)
            controls = RunSettings(grid_h=2e-3, pde_rel_tol=1e-10, r_max_factor=1.6)
            run = run_pde(inputs, 1.0, controls, linear=True)
            assert float(run.outside_mass.max()) < 1e-8, (H, sigma)


def test_criterion_09_pde_blowup_consistency(minkowski_inputs, minkowski_cert):
    with criterion(9, "pde-blowup-consistency", 120.0):
        controls = RunSettings(grid_h=1e-3, pde_rel_tol=1e-8)
        run = run_pde(minkowski_inputs, 0.525, controls)
        assert run.rk.status is TerminationReason.BLOWUP_THRESHOLD
        assert run.rk.blowup_time <= 1.05 * minkowski_cert.T_star
        c, N = minkowski_inputs.params.c, minkowski_inputs.N
        bound = minkowski_inputs.w0 * np.exp(c * N * run.times)
        assert np.all(run.W >= bound * (1.0 - 5e-3))


def test_criterion_10_threshold_sharpness(minkowski_inputs, monkeypatch):
    with criterion(10, "threshold-sharpness", 10.0):
        cert = certify(minkowski_inputs)
        thr = cert.w0_threshold
        grid = np.linspace(0.9 * thr, 1.1 * thr, 41)
        verdicts = [
            certify(replace(minkowski_inputs, w0=w0, w1=1e6)).verdicts[
                "w0_above_threshold"
            ]
            for w0 in grid
        ]
        flips = [i for i in range(1, len(grid)) if verdicts[i] != verdicts[i - 1]]
        assert len(flips) == 1
        i = flips[0]
        assert grid[i - 1] <= thr < grid[i] + (grid[1] - grid[0])
        for case in ("i", "ii", "iv", "vii", "viii"):
            seed = CASE_SEEDS[case]
            inputs = make_inputs(seed["H"], seed["sigma"], m2=seed["m2"], N=seed["N"])
            coarse = compute_A(inputs).value, compute_B(inputs).value
            with monkeypatch.context() as m:
                m.setattr(certificate, "GRID_NODES", 40960)
                fine = compute_A(inputs).value, compute_B(inputs).value
            assert coarse[0] == pytest.approx(fine[0], rel=1e-6)
            assert coarse[1] == pytest.approx(fine[1], rel=1e-6)


def test_criterion_11_excluded_region_gate():
    with criterion(11, "excluded-region-gate", 1.0):
        rng = np.random.default_rng(1100)
        pairs = [(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-3.0, -1.05))) for _ in range(10)]
        pairs += [(float(rng.uniform(-2.0, -0.2)), float(rng.uniform(-0.95, -0.05))) for _ in range(10)]
        for H, sigma in pairs:
            assert (1.0 + sigma) * H < 0.0 and sigma < 0.0
            inputs = make_inputs(H, sigma, N=1.0, w0=4.0, w1=4.0)
            res = corollary_case_check(inputs)
            assert res.case is None and res.excluded
            assert "excluded region" in res.reason
            with pytest.raises(ExcludedRegionError):
                integrate_ode(inputs, 0.1)
            with pytest.raises(ExcludedRegionError):
                run_pde(inputs, 0.05, RunSettings(grid_h=2e-2), linear=True)
