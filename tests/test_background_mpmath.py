"""The closed-form background against 50-digit mpmath, near its special points.

sigma = -1 (exponential a), the coasting point n(1+sigma) = 2 (linear a)
and H = 0 are removable singularities of a(t) = a0 (1 + e H t)^(1/e),
e = n(1+sigma)/2.  The reference below evaluates the textbook form of each
branch (exponential, logarithmic, power law) at 50 digits, with expm1 and
log1p so that tiny |H| does not cancel; the float and the array forms of
a(t), r(t) and log q(t) must match it on both sides of each special point.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgblowup import ConeGeometry, CosmologyParams, compute_A, comoving_radius, scale_eval
from kgblowup.cone import Monotonicity, log_q_tilde_eval

from conftest import make_inputs

SMALLEST_NORMAL = 2.2250738585072014e-308


@st.composite
def backgrounds(draw):
    n = draw(st.integers(1, 4))
    special = draw(st.sampled_from([-1.0, -1.0 + 2.0 / n, -0.3333333333333333]))
    near = special + draw(st.one_of(st.just(0.0), st.floats(-1e-14, 1e-14)))
    sigma = draw(st.one_of(st.just(near), st.floats(-3.0, 3.0)))
    size = draw(st.one_of(st.just(0.0), st.floats(1e-300, 4.0)))
    H = size * draw(st.sampled_from([1.0, -1.0]))
    r0 = draw(st.floats(0.01, 10.0))
    return ConeGeometry(CosmologyParams(n, 1.0, 1.0, H, sigma, 0.0), r0)


def reference(geom, t):
    """(a, r, log q) at time t, each branch in its own closed form."""
    p = geom.params
    with mp.workdps(50):
        c, a0, H, t, r0 = (mp.mpf(v) for v in (p.c, p.a0, p.H, t, geom.r0))
        e = p.n * (1 + mp.mpf(p.sigma)) / 2
        if H == 0:
            log_a, r = mp.mpf(0), r0 + c * t / a0
        elif e == 0:
            log_a = H * t
            r = r0 - c / (a0 * H) * mp.expm1(-H * t)
        elif e == 1:
            log_a = mp.log1p(H * t)
            r = r0 + c / (a0 * H) * mp.log1p(H * t)
        else:
            log_a = mp.log1p(e * H * t) / e
            r = r0 + c / (a0 * H * (e - 1)) * mp.expm1((e - 1) / e * mp.log1p(e * H * t))
        return a0 * mp.exp(log_a), r, log_a + 2 * mp.log(r)


def assert_close(got, want, rel):
    assert abs(mp.mpf(float(got)) - want) <= rel * abs(want), (float(got), want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(geom=backgrounds(), frac=st.floats(0.0, 1.0))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # a beyond 1e308
def test_background_matches_mpmath(geom, frac):
    T0 = geom.params.T0
    t = frac * min(0.9 * T0, 4095.0)
    times = np.array([t, 0.5 * t, 0.0])
    a_arr, r_arr, logq_arr = (
        scale_eval(geom.params, times),
        comoving_radius(geom, times),
        log_q_tilde_eval(geom, times, Monotonicity.NON_DECREASING),
    )
    for i, ti in enumerate(times):
        ti = float(ti)
        a_ref, r_ref, logq_ref = reference(geom, ti)
        logq_tol = 1e-12 * max(1.0, abs(float(logq_ref)))
        for got in (log_q_tilde_eval(geom, ti, Monotonicity.NON_DECREASING), logq_arr[i]):
            assert abs(float(got) - float(logq_ref)) <= logq_tol, (got, logq_ref)
        if not SMALLEST_NORMAL <= a_ref <= mp.mpf(np.finfo(float).max):
            continue
        for got in (scale_eval(geom.params, ti), a_arr[i]):
            assert_close(got, a_ref, 1e-12)
        if r_ref < mp.mpf(np.finfo(float).max):
            for got in (comoving_radius(geom, ti), r_arr[i]):
                assert_close(got, r_ref, 1e-12)


def test_tiny_H_certificate_is_the_flat_limit():
    """A at H = 1e-300 is A at H = 0, not the optimistic value 1."""
    A = [compute_A(make_inputs(H, -1.0, N=0.1)).value for H in (1e-300, 0.0)]
    assert A[1] == pytest.approx(0.1292854829657923, rel=1e-12)
    assert A[0] == pytest.approx(A[1], rel=1e-12)
