"""The leading-order table ``cone.q_order`` against 50-digit mpmath.

On the background ``CosmologyParams`` defines (its rounded e and H), the
time s = t L(e H t) gives log(a/a0) = H s and r = r0 + (c/a0) int_0^s
e^{k u} du with k = (e - 1) H, so log q = H s + 2 log r can be evaluated
in s directly at any s, however close t is to a finite horizon.  Far
enough out that the O(1) remainder has settled, log q(2S) - log q(S) must
be rho S, plus 2 log 2 where the table has a log s term.
"""

import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgblowup import ConeGeometry, CosmologyParams, Monotonicity, classify_q, compute_A
from kgblowup.cone import q_order

from conftest import make_inputs


@st.composite
def backgrounds(draw):
    n = draw(st.integers(1, 4))
    special = draw(st.sampled_from([-1.0, -1.0 + 1.0 / n, -1.0 + 2.0 / n]))
    near = special + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6]))
    sigma = draw(st.one_of(st.just(near), st.floats(-3.0, 3.0)))
    size = draw(st.one_of(st.just(0.0), st.sampled_from([1e-300, 0.45]), st.floats(1e-3, 2.0)))
    H = size * draw(st.sampled_from([1.0, -1.0]))
    r0 = draw(st.floats(0.01, 10.0))
    return ConeGeometry(CosmologyParams(n, 1.0, 1.0, H, sigma, 0.0), r0)


def log_q(geom, s, k):
    """50-digit log q at the time where s(t) = s."""
    p = geom.params
    c, a0, H, r0 = (mp.mpf(v) for v in (p.c, p.a0, p.H, geom.r0))
    w = c / a0 * (s if k == 0 else mp.expm1(k * s) / k)
    return H * s + 2 * mp.log(r0 + w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(geom=backgrounds())
def test_table_matches_the_slope_of_log_q(geom):
    verdict = classify_q(geom)
    assume(verdict is not Monotonicity.NOT_MONOTONE)
    order = q_order(geom, verdict)
    p = geom.params
    with mp.workdps(50):
        e, H = mp.mpf(p.e), mp.mpf(p.H)
        assert order.clock == mp.sign(e) * mp.sign(H)
        if verdict is Monotonicity.NON_INCREASING:
            assert (order.rho, order.log_s, order.bounded) == (0.0, False, True)
            return
        k = (e - 1) * H
        rho = H + 2 * max(0, k)
        assert order.log_s == (k == 0)
        assert abs(mp.mpf(order.rho) - rho) <= 2.0**-50 * abs(rho)
        # e^{-|k| s} or r0 a0 / (c s) is what is left of the remainder
        S = 70 / abs(k) if k != 0 else mp.mpf(10) ** 9 * max(1, geom.r0)
        step = log_q(geom, 2 * S, k) - log_q(geom, S, k)
        expected = rho * S + (2 * mp.log(2) if order.log_s else 0)
        assert abs(step - expected) <= mp.mpf(1e-6), (step, expected)
        assert order.bounded == (rho == 0 and not order.log_s and math.isfinite(p.T0))
        if order.clock > 0:
            assert abs(mp.mpf(order.degree) - rho / (e * H)) <= 1e-12 * abs(rho / (e * H))
        else:
            assert order.degree == math.inf


def test_bounded_q_at_half_e_gives_positive_A():
    """n = 2, H = -0.5, sigma = -1/2: e = 1/2, so q rises to 16 at T0 = 4
    and A > 0, against an mpmath brute-force infimum of the objective."""
    inputs = make_inputs(-0.5, -0.5, n=2, r0=1.0, N=2.0, epsilon=0.5)
    res = compute_A(inputs)
    assert res.ok and res.reason == "positive infimum"
    p = inputs.params
    with mp.workdps(30):
        c, a0, H, r0 = (mp.mpf(v) for v in (p.c, p.a0, p.H, inputs.geom.r0))
        growth = c * inputs.N * (1 - mp.mpf(inputs.epsilon))
        e = p.n * (1 + mp.mpf(p.sigma)) / 2
        T0 = -1 / (e * H)

        def a(t):
            return a0 * (1 + e * H * t) ** (1 / e)

        def objective(t):
            r = r0 + mp.quad(lambda u: c / a(u), [0, t])
            return mp.exp(growth * t) / (a(t) * r**2 / a0) ** (p.n / 2)

        grid = [T0 * i / 200 for i in range(1, 200)]
        i = min(range(len(grid)), key=lambda j: objective(grid[j]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        invphi = (mp.sqrt(5) - 1) / 2
        for _ in range(80):
            m1, m2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
            if objective(m1) <= objective(m2):
                hi = m2
            else:
                lo = m1
        brute = objective((lo + hi) / 2)
    assert res.value == pytest.approx(float(brute), rel=1e-6)
    assert res.arg_t == pytest.approx(2.0 / 3.0, abs=1e-4)
