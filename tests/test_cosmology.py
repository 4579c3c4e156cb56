import math

import numpy as np
import pytest

from kgblowup import (
    CosmologyParams,
    DomainError,
    MassTag,
    classify_mass_behavior,
    curved_mass_sq,
    scale_eval,
)

from conftest import CASE_REGIONS, region_samples
from oracles import curved_mass_sq_from_scale, mass_sign_change_time, scale_derivatives


def params(n=1, c=1.0, a0=1.0, H=0.0, sigma=0.0, m2=0.0):
    return CosmologyParams(n=n, c=c, a0=a0, H=H, sigma=sigma, m_squared=m2)


def sample_times(rng, T0, count):
    hi = 10.0 if math.isinf(T0) else 0.99 * T0
    return rng.uniform(1e-6, hi, count)


def random_params(rng, case):
    (H, sigma) = region_samples(rng, case, 1)[0]
    return params(
        n=int(rng.integers(1, 5)),
        c=rng.uniform(0.5, 2.0),
        a0=rng.uniform(0.5, 2.0),
        H=H,
        sigma=sigma,
        m2=rng.uniform(-2.0, 4.0),
    )


class TestHorizon:
    def test_zero_rate_is_infinite(self):
        assert params(n=3, H=0.0, sigma=7.0).T0 == math.inf

    def test_contracting(self):
        assert params(n=3, H=-1.0, sigma=0.0).T0 == pytest.approx(2.0 / 3.0)

    def test_big_rip(self):
        assert params(n=1, H=1.0, sigma=-2.0).T0 == pytest.approx(2.0)

    def test_flat_rates_are_the_signed_zeros_of_a_finite_e(self):
        # e < 0, e = 0, 0 < e < 1, e = 1 (n = 2), e > 1, then e overflowing at n >= 2
        for n in (1, 2, 3):
            for H in (0.0, -0.0):
                for sigma in (-1e300, -2.5, -1.0, -0.5, -0.0, 0.0, 1.0, 1e300):
                    p = params(n=n, H=H, sigma=sigma)
                    assert repr((p.eH, p.radius_rate)) == repr((p.e * H, (p.e - 1.0) * H))
                for sigma in (1.7e308, -1.7e308):
                    p = params(n=n, H=H, sigma=sigma)
                    finite = params(n=n, H=H, sigma=math.copysign(1e300, sigma))
                    assert repr((p.eH, p.radius_rate, p.T0)) == repr(
                        (finite.eH, finite.radius_rate, math.inf))


class TestScaleEval:
    def test_constant_scale(self):
        a, adot, addot = scale_derivatives(params(a0=2.0, sigma=3.0), 5.0)
        assert (a, adot, addot) == (2.0, 0.0, 0.0)

    def test_radiation_like(self):
        # exponent 2/(n(1+sigma)) = 1/2, inner factor 4 at t = 1.5
        a = scale_eval(params(n=3, sigma=1 / 3, H=1.0), 1.5)
        assert a == pytest.approx(2.0, rel=1e-14)

    def test_exponential(self):
        a, adot, addot = scale_derivatives(params(sigma=-1.0, H=2.0), 1.0)
        assert a == pytest.approx(math.e**2, rel=1e-14)
        assert adot == pytest.approx(2 * math.e**2, rel=1e-14)
        assert addot == pytest.approx(4 * math.e**2, rel=1e-14)

    def test_initial_values_exact(self):
        rng = np.random.default_rng(1)
        for case in CASE_REGIONS:
            p = random_params(rng, case)
            a, adot, _ = scale_derivatives(p, 0.0)
            assert a == p.a0
            assert adot / a == pytest.approx(p.H, rel=1e-12, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for case in CASE_REGIONS:
            p = random_params(rng, case)
            T0 = p.T0
            for t in sample_times(rng, T0, 5):
                # h = 1e-4 balances truncation against cancellation in the
                # second difference
                h = 1e-4 * max(1.0, t)
                if math.isfinite(T0):
                    h = min(h, 0.001 * (T0 - t))
                am = scale_eval(p, t - h)
                a0_, adot, addot = scale_derivatives(p, t)
                ap = scale_eval(p, t + h)
                assert adot == pytest.approx((ap - am) / (2 * h), rel=1e-6, abs=1e-7)
                assert addot == pytest.approx(
                    (ap - 2 * a0_ + am) / h**2, rel=1e-5, abs=1e-6
                )

    def test_domain_errors(self):
        p = params(H=-1.0, sigma=0.0)  # T0 = 2
        with pytest.raises(DomainError):
            scale_eval(p, -0.5)
        with pytest.raises(DomainError):
            scale_eval(p, 2.0)

    def test_hubble_identity(self):
        # adot/a = H (a/a0)^(-n(1+sigma)/2), 100 times per parameter set
        rng = np.random.default_rng(3)
        for case in CASE_REGIONS:
            for _ in range(3):
                p = random_params(rng, case)
                for t in sample_times(rng, p.T0, 100):
                    a, adot, _ = scale_derivatives(p, t)
                    expected = p.H * (a / p.a0) ** (-p.n * (1 + p.sigma) / 2)
                    assert adot / a == pytest.approx(
                        expected, rel=1e-10, abs=1e-10 * max(1.0, abs(p.H))
                    )


class TestCurvedMass:
    def test_sigma_zero_is_flat_mass(self):
        assert curved_mass_sq(params(H=3.0, sigma=0.0, m2=4.0), 1.7) == pytest.approx(4.0)

    def test_exponential_constant(self):
        p = params(n=3, sigma=-1.0, H=2.0, m2=10.0)
        for t in (0.0, 1.0, 5.0):
            assert curved_mass_sq(p, t) == pytest.approx(1.0)

    def test_initial_shift(self):
        assert curved_mass_sq(params(n=1, sigma=1.0, H=2.0, m2=0.0), 0.0) == pytest.approx(1.0)

    def test_from_scale_constant(self):
        p = params(m2=9.0)
        for t in (0.0, 2.0, 11.0):
            assert curved_mass_sq_from_scale(p, t) == pytest.approx(9.0)

    def test_from_scale_exponential_n2(self):
        p = params(n=2, sigma=-1.0, H=1.0, m2=2.0)
        assert curved_mass_sq_from_scale(p, 0.3) == pytest.approx(1.0)

    def test_identity_all_cases(self):
        rng = np.random.default_rng(4)
        for case in CASE_REGIONS:
            for _ in range(3):
                p = random_params(rng, case)
                for t in sample_times(rng, p.T0, 20):
                    lhs = curved_mass_sq_from_scale(p, t)
                    rhs = curved_mass_sq(p, t)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestMassSignChange:
    def test_none_outside_regime(self):
        assert mass_sign_change_time(params(sigma=0.0, H=-1.0, m2=4.0)) is None

    def test_value(self):
        p = params(n=1, sigma=-2.0, H=1.0, m2=4.0)
        t1 = mass_sign_change_time(p)
        assert t1 == pytest.approx(2.0 * (1.0 - math.sqrt(2.0) / 4.0), rel=1e-12)
        assert curved_mass_sq(p, t1) == pytest.approx(0.0, abs=1e-9)

    def test_none_below_mass_gate(self):
        assert mass_sign_change_time(params(n=1, sigma=-2.0, H=1.0, m2=0.1)) is None

    def test_zero_crossing_everywhere_defined(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(200):
            p = params(
                n=int(rng.integers(1, 4)),
                c=rng.uniform(0.5, 2.0),
                H=rng.uniform(-2, 2),
                sigma=rng.uniform(-3, 3),
                m2=rng.uniform(0.1, 9.0),
            )
            t1 = mass_sign_change_time(p)
            if t1 is not None:
                found += 1
                assert curved_mass_sq(p, t1) == pytest.approx(0.0, abs=1e-9)
        assert found > 0


class TestClassification:
    def test_flat(self):
        b = classify_mass_behavior(params(H=0.0, m2=5.0))
        assert b.tag is MassTag.CONSTANT_M2 and b.inf_m2 == 5.0

    def test_diverges_plus_lower_bound(self):
        p = params(H=-1.0, sigma=1.0, m2=0.5)
        b = classify_mass_behavior(p)
        assert b.tag is MassTag.DIVERGES_PLUS
        assert b.inf_m2 == pytest.approx(0.5 + (p.n * p.H / (2 * p.c)) ** 2)

    def test_diverges_minus(self):
        assert (
            classify_mass_behavior(params(H=1.0, sigma=-2.0)).tag
            is MassTag.DIVERGES_MINUS
        )

    def test_bounds_respected_on_samples(self):
        rng = np.random.default_rng(6)
        for case in CASE_REGIONS:
            p = random_params(rng, case)
            b = classify_mass_behavior(p)
            T0 = p.T0
            ts = np.linspace(1e-9, 10.0 if math.isinf(T0) else 0.999 * T0, 1000)
            vals = np.array([curved_mass_sq(p, t) for t in ts])
            slack = 1e-9 * np.maximum(1.0, np.abs(vals))
            if math.isfinite(b.inf_m2):
                assert np.all(vals >= b.inf_m2 - slack)
            if math.isfinite(b.sup_m2):
                assert np.all(vals <= b.sup_m2 + slack)
