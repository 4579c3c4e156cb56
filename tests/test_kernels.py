"""The stencil kernel against a plain per-node loop of the same formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgblowup
from kgblowup._kernels import radial_accel

A_LAP, A_MASS, P = 3.1, 0.4, 2.6


def weights(J, n):
    idx = np.arange(J, dtype=float)
    idx[0] = 1.0
    return 1.0 + (n - 1) / (2.0 * idx), 1.0 - (n - 1) / (2.0 * idx)


def call(u_re, u_im, n, a_nl=0.7, p=P):
    J = u_re.size
    acc_re, acc_im = np.empty(J), np.empty(J)
    cp, cm = weights(J, n)
    radial_accel(u_re, u_im, acc_re, acc_im, cp, cm, A_LAP, A_MASS, a_nl, p, n)
    return acc_re, acc_im


def loop_accel(u_re, u_im, n, a_nl, p=P):
    """One node at a time: stencil and mass inside, the axis at node 0, a
    Dirichlet node at the end, |u|^p on the real part."""
    J = u_re.size
    cp, cm = weights(J, n)
    out = []
    for u in (u_re, u_im):
        acc = [0.0] * J
        for j in range(1, J - 1):
            acc[j] = A_LAP * (cp[j] * u[j + 1] - 2.0 * u[j] + cm[j] * u[j - 1]) - A_MASS * u[j]
        acc[0] = A_LAP * 2.0 * n * (u[1] - u[0]) - A_MASS * u[0]
        out.append(acc)
    if a_nl != 0.0:
        for j in range(J - 1):
            out[0][j] += a_nl * math.hypot(u_re[j], u_im[j]) ** p
    return np.array(out[0]), np.array(out[1])


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 3])
def test_matches_per_node_loop(n, a_nl):
    rng = np.random.default_rng(42)
    u_re = rng.standard_normal(257)
    u_im = rng.standard_normal(257)
    got_re, got_im = call(u_re, u_im, n, a_nl)
    ref_re, ref_im = loop_accel(u_re, u_im, n, a_nl)
    # the stencil and mass terms add in the same order: equal bits
    assert np.array_equal(got_im, ref_im)
    if a_nl == 0.0:
        assert np.array_equal(got_re, ref_re)
    else:
        # np.hypot and math.hypot may round differently by an ulp, which
        # |u|^p scales by p; allow a few ulps of the largest term
        scale = np.abs(ref_re).max() + a_nl * np.hypot(u_re, u_im).max() ** P
        np.testing.assert_allclose(got_re, ref_re, rtol=0, atol=8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
@pytest.mark.parametrize("a_mass", [A_MASS, -A_MASS])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_flag_matches_full_path_on_zero_imaginary_part(n, a_mass, a_nl):
    """The real path gives the full path's bits on u_im = +0.0, signed zeros
    included: cm[1] < 0 at n >= 4 and a negative a_mass each make a -0.0
    term, which must not reach acc_im."""
    J = 257
    rng = np.random.default_rng(11)
    u_re = rng.standard_normal(J)
    cp, cm = weights(J, n)
    out = []
    # the real path must not read u_im: hand it NaNs
    for u_im, real in ((np.zeros(J), False), (np.full(J, np.nan), True)):
        acc_re, acc_im = np.full(J, np.nan), np.full(J, np.nan)
        radial_accel(u_re, u_im, acc_re, acc_im, cp, cm, A_LAP, a_mass, a_nl, P, n, real=real)
        out.append((acc_re, acc_im))
    (full_re, full_im), (real_re, real_im) = out
    assert real_re.tobytes() == full_re.tobytes()
    assert real_im.tobytes() == full_im.tobytes()
    assert not np.any(real_im) and not np.any(np.signbit(real_im))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    J=st.integers(3, 60),
    support=st.integers(0, 60),
    w_extra=st.integers(0, 60),
    a_mass=st.sampled_from([A_MASS, -A_MASS, 0.0]),
    a_nl=st.sampled_from([0.7, -0.7, 0.0]),
    p=st.sampled_from([P, 2.0, 3.0, 5.0]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_with_zero_tail_matches_the_full_call(
    n, J, support, w_extra, a_mass, a_nl, p, real, seed
):
    """The light-cone window's kernel call: on a field that is +0.0 from
    node w - 2 on, the call on the prefix [:w] with +0.0 written to the
    tail gives the full-length call's bytes, signed zeros included (cm[1]
    < 0 at n >= 4, a negative a_mass or a_nl each make -0.0 terms)."""
    w = min(J, 2 + support + w_extra)  # at least 2 nodes in the prefix
    L = min(support, w - 3)  # last node that may be nonzero; -1: none
    rng = np.random.default_rng(seed)
    u_re, u_im = np.zeros(J), np.zeros(J)
    u_re[: L + 1] = rng.standard_normal(L + 1)
    if not real:
        u_im[: L + 1] = rng.standard_normal(L + 1)
    u_re[rng.random(J) < 0.2] = 0.0  # zeros inside the support too
    cp, cm = weights(J, n)
    full_re, full_im = np.full(J, np.nan), np.full(J, np.nan)
    radial_accel(u_re, u_im, full_re, full_im, cp, cm, A_LAP, a_mass, a_nl, p, n, real=real)
    pre_re, pre_im = np.full(J, np.nan), np.full(J, np.nan)
    pre_re[w:] = pre_im[w:] = 0.0
    radial_accel(u_re[:w], u_im[:w], pre_re[:w], pre_im[:w], cp[:w], cm[:w],
                 A_LAP, a_mass, a_nl, p, n, real=real)
    assert pre_re.tobytes() == full_re.tobytes()
    assert pre_im.tobytes() == full_im.tobytes()


def test_zero_field_zero_acceleration():
    z = np.zeros(64)
    acc_re, acc_im = call(z, z, 2)
    assert np.all(acc_re == 0.0) and np.all(acc_im == 0.0)


def test_dirichlet_nodes_pinned():
    rng = np.random.default_rng(3)
    u_re = rng.standard_normal(100)
    u_im = rng.standard_normal(100)
    acc_re, acc_im = call(u_re, u_im, 1)
    assert acc_re[-1] == 0.0 and acc_im[-1] == 0.0


def test_backend_name_reported():
    # benchmark reports record this name; one NumPy kernel is all there is
    assert kgblowup.kernel_backend == "python"
