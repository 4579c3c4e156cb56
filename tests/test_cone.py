import math

import mpmath
import numpy as np
import pytest

from kgblowup import (
    ConeGeometry,
    CosmologyParams,
    DomainError,
    Monotonicity,
    PreconditionError,
    TheoremInputs,
    classify_q,
    comoving_radius,
    compute_A,
    compute_B,
)
from kgblowup.cone import log_q_tilde_eval

from conftest import CASE_REGIONS, region_samples
from oracles import q_eval, q_tilde_eval


def geom(H=0.0, sigma=0.0, n=1, c=1.0, a0=1.0, r0=1.0, m2=0.0):
    params = CosmologyParams(n=n, c=c, a0=a0, H=H, sigma=sigma, m_squared=m2)
    return ConeGeometry(params, r0)


def numeric_qdot(g, t):
    h = 1e-6 * max(1.0, t)
    end = g.params.T0
    if math.isfinite(end):
        h = min(h, 0.4 * (end * (1 - 1e-12) - t), 0.4 * t if t > 0 else h)
    if t - h < 0:
        return (q_eval(g, t + h) - q_eval(g, t)) / h
    return (q_eval(g, t + h) - q_eval(g, t - h)) / (2 * h)


class TestRadius:
    def test_flat_linear(self):
        assert comoving_radius(geom(), 2.0) == pytest.approx(3.0)

    def test_zero_time(self):
        for g in (geom(H=1.0, sigma=0.3, r0=0.7), geom(H=-0.5, sigma=-1.0, r0=2.0)):
            assert comoving_radius(g, 0.0) == g.r0

    def test_exponential_saturates(self):
        g = geom(H=1.0, sigma=-1.0)
        values = [comoving_radius(g, t) for t in (1.0, 5.0, 30.0)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(2.0, rel=1e-12)

    def test_log_branch(self):
        # sigma = -1 + 2/n makes the integrand 1/(1+Ht)
        g = geom(H=2.0, sigma=1.0, n=1)
        assert comoving_radius(g, 3.0) == pytest.approx(1.0 + math.log(7.0) / 2.0)

    @pytest.mark.parametrize("n, sigma", [(3, -0.3333333333333333), (6, -1.0 + 2.0 / 6)])
    def test_log_branch_from_rounded_sigma(self, n, sigma):
        # either n(1+sigma) rounds to 2 without sigma == -1 + 2/n (n = 3 as
        # JSON writes it), or the reverse (n = 6); both are a = a0 (1 + Ht)
        g = geom(H=0.45, sigma=sigma, n=n)
        expected = 1.0 + math.log1p(0.45 * 2.0) / 0.45
        assert comoving_radius(g, 2.0) == expected
        log_q = log_q_tilde_eval(g, 2.0, Monotonicity.NON_DECREASING)
        assert log_q == pytest.approx(math.log(1.9) + 2.0 * math.log(expected))

    def test_strictly_increasing(self):
        rng = np.random.default_rng(10)
        for case in CASE_REGIONS:
            H, sigma = region_samples(rng, case, 1)[0]
            g = geom(H=H, sigma=sigma, n=int(rng.integers(1, 4)))
            T0 = g.params.T0
            hi = 8.0 if math.isinf(T0) else 0.98 * T0
            ts = np.linspace(0.0, hi, 50)
            rs = [comoving_radius(g, t) for t in ts]
            assert np.all(np.diff(rs) > 0)

    def test_against_quadrature_closed_form(self):
        # r0 + integral of c/a(s) by 30-digit quadrature of the scale family
        rng = np.random.default_rng(11)
        for case in ("ii", "v", "viii"):
            H, sigma = region_samples(rng, case, 1)[0]
            g = geom(H=H, sigma=sigma, n=2, r0=0.5)
            T0 = g.params.T0
            hi = 3.0 if math.isinf(T0) else 0.9 * T0
            with mpmath.workdps(30):
                k = g.params.n * (1 + mpmath.mpf(sigma)) * H / 2  # a = a0 (1 + k s)^(H/k)
                for t in np.linspace(0.1, hi, 7):
                    quad = g.r0 + mpmath.quad(
                        lambda s: g.params.c / (g.params.a0 * (1 + k * s) ** (H / k)), [0, t]
                    )
                    assert comoving_radius(g, t) == pytest.approx(float(quad), rel=1e-12)

    def test_domain_error(self):
        g = geom(H=-1.0, sigma=0.0)  # T0 = 2
        with pytest.raises(DomainError):
            comoving_radius(g, 2.0)


class TestQ:
    def test_initial_value_exact(self):
        assert q_eval(geom(r0=3.0, H=1.0, sigma=0.5), 0.0) == 9.0

    def test_flat(self):
        assert q_eval(geom(), 1.0) == pytest.approx(4.0)

    def test_contracting_exponential_asymptotics(self):
        # q ~ (c/a0 H)^2 e^{-Ht} for H < 0, sigma = -1
        g = geom(H=-1.0, sigma=-1.0, r0=1.0)
        t = 30.0
        assert q_eval(g, t) * math.exp(-t) == pytest.approx(1.0, rel=1e-10)

    def test_log_matches_direct(self):
        rng = np.random.default_rng(12)
        for case in CASE_REGIONS:
            H, sigma = region_samples(rng, case, 1)[0]
            g = geom(H=H, sigma=sigma, n=2, r0=1.3)
            T0 = g.params.T0
            hi = 5.0 if math.isinf(T0) else 0.9 * T0
            for t in np.linspace(0.1, hi, 9):
                assert log_q_tilde_eval(g, t, Monotonicity.NON_DECREASING) == pytest.approx(
                    math.log(q_eval(g, t)), rel=1e-10, abs=1e-10
                )

    def test_log_stable_far_out(self):
        g = geom(H=-1.0, sigma=-1.0, r0=1.0)
        val = log_q_tilde_eval(g, 4000.0, Monotonicity.NON_DECREASING)
        assert math.isfinite(val)
        assert val == pytest.approx(4000.0, rel=1e-3)


class TestClassification:
    def test_expanding_always_nondecreasing(self):
        assert classify_q(geom(H=1.0, sigma=-5.0, r0=0.1)) is Monotonicity.NON_DECREASING

    def test_contracting_nonincreasing(self):
        # r0 = 3 above the gate -2c/(a0 H) = 2; r0 = 1 below it
        assert classify_q(geom(n=2, H=-1.0, sigma=0.0, r0=3.0)) is Monotonicity.NON_INCREASING
        assert classify_q(geom(n=2, H=-1.0, sigma=0.0, r0=1.0)) is Monotonicity.NOT_MONOTONE

    def test_between_rows_is_not_monotone(self):
        assert classify_q(geom(n=2, H=-1.0, sigma=-0.9, r0=5.0)) is Monotonicity.NOT_MONOTONE

    def test_boundary_prefers_nondecreasing(self):
        # both rows apply only at sigma = -1 + 1/n with r0 at the threshold
        assert classify_q(geom(n=2, H=-1.0, sigma=-0.5, r0=2.0)) is Monotonicity.NON_DECREASING

    def test_classified_sign_matches_numeric_qdot(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(1, 4))
            H = rng.uniform(-2, 2)
            sigma = rng.uniform(-3, 3)
            r0 = rng.uniform(0.2, 4.0)
            g = geom(n=n, H=H, sigma=sigma, r0=r0)
            if g.params.excluded_region:
                # q overflows the float range near the Big-Rip horizon; every
                # consumer rejects this region before evaluating q
                continue
            verdict = classify_q(g)
            if verdict is Monotonicity.NOT_MONOTONE:
                continue
            checked += 1
            T0 = g.params.T0
            hi = 5.0 if math.isinf(T0) else 0.95 * T0
            for t in np.linspace(1e-4, hi, 100):
                qd = numeric_qdot(g, t)
                if verdict is Monotonicity.NON_DECREASING:
                    assert qd >= -1e-8 * max(1.0, abs(qd))
                else:
                    assert qd <= 1e-8 * max(1.0, abs(qd))
        assert checked >= 10


class TestQTilde:
    def test_nonincreasing_returns_q0(self):
        g = geom(n=2, H=-1.0, sigma=0.0, r0=2.0)  # horizon at t = 1
        verdict = classify_q(g)
        assert verdict is Monotonicity.NON_INCREASING
        for t in (0.0, 0.5, 0.95):
            assert log_q_tilde_eval(g, t, verdict) == 2.0 * math.log(2.0)
        with pytest.raises(DomainError):
            log_q_tilde_eval(g, 1.0, verdict)

    def test_nondecreasing_tracks_q(self):
        verdict = Monotonicity.NON_DECREASING
        assert log_q_tilde_eval(geom(), 1.0, verdict) == pytest.approx(math.log(4.0))
        assert log_q_tilde_eval(geom(), 1.0, verdict) == geom().forms.log_q(1.0)

    def test_not_monotone_rejected(self):
        # q~ is undefined, so neither extremum is computed
        inputs = TheoremInputs(
            geom(n=2, H=-1.0, sigma=-0.9, r0=5.0),
            N=1.0, epsilon=0.5, theta=0.5, lam=1.0, p=3.0, w0=1.0, w1=1.0,
        )
        for extremum in (compute_A, compute_B):
            with pytest.raises(PreconditionError):
                extremum(inputs)

    def test_dominated_by_envelope(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            g = geom(
                n=int(rng.integers(1, 4)),
                H=rng.uniform(-2, 2),
                sigma=rng.uniform(-3, 3),
                r0=rng.uniform(0.2, 4.0),
            )
            if g.params.excluded_region:
                continue
            verdict = classify_q(g)
            if verdict is Monotonicity.NOT_MONOTONE:
                continue
            T0 = g.params.T0
            hi = 5.0 if math.isinf(T0) else 0.95 * T0
            for t in np.linspace(0.0, hi, 40):
                log_qt = log_q_tilde_eval(g, t, verdict)
                direct = math.log(q_tilde_eval(g, t))
                assert log_qt == pytest.approx(direct, rel=1e-12, abs=1e-12)
                assert log_qt <= math.log(max(g.r0 * g.r0, q_eval(g, t))) + 1e-12
