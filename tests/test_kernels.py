"""The stencil kernel against a plain per-node loop of the same formula."""

import math

import numpy as np
import pytest

import kgblowup
from kgblowup._kernels import radial_accel

A_LAP, A_MASS, P = 3.1, 0.4, 2.6


def weights(J, n):
    idx = np.arange(J, dtype=float)
    idx[0] = 1.0
    return 1.0 + (n - 1) / (2.0 * idx), 1.0 - (n - 1) / (2.0 * idx)


def call(u_re, u_im, n, axis, a_nl=0.7, p=P):
    J = u_re.size
    acc_re, acc_im = np.empty(J), np.empty(J)
    cp, cm = weights(J, n)
    radial_accel(u_re, u_im, acc_re, acc_im, cp, cm, A_LAP, A_MASS, a_nl, p, n, axis)
    return acc_re, acc_im


def loop_accel(u_re, u_im, n, axis, a_nl, p=P):
    """One node at a time: stencil and mass inside, the axis or a Dirichlet
    node at 0, a Dirichlet node at the end, |u|^p on the real part."""
    J = u_re.size
    cp, cm = weights(J, n)
    out = []
    for u in (u_re, u_im):
        acc = [0.0] * J
        for j in range(1, J - 1):
            acc[j] = A_LAP * (cp[j] * u[j + 1] - 2.0 * u[j] + cm[j] * u[j - 1]) - A_MASS * u[j]
        if axis:
            acc[0] = A_LAP * 2.0 * n * (u[1] - u[0]) - A_MASS * u[0]
        out.append(acc)
    if a_nl != 0.0:
        for j in range(0 if axis else 1, J - 1):
            out[0][j] += a_nl * math.hypot(u_re[j], u_im[j]) ** p
    return np.array(out[0]), np.array(out[1])


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
@pytest.mark.parametrize("axis", [True, False])
@pytest.mark.parametrize("n", [1, 3])
def test_matches_per_node_loop(n, axis, a_nl):
    rng = np.random.default_rng(42)
    u_re = rng.standard_normal(257)
    u_im = rng.standard_normal(257)
    got_re, got_im = call(u_re, u_im, n, axis, a_nl)
    ref_re, ref_im = loop_accel(u_re, u_im, n, axis, a_nl)
    # the stencil and mass terms add in the same order: equal bits
    assert np.array_equal(got_im, ref_im)
    if a_nl == 0.0:
        assert np.array_equal(got_re, ref_re)
    else:
        # np.hypot and math.hypot may round differently by an ulp, which
        # |u|^p scales by p; allow a few ulps of the largest term
        scale = np.abs(ref_re).max() + a_nl * np.hypot(u_re, u_im).max() ** P
        np.testing.assert_allclose(got_re, ref_re, rtol=0, atol=8 * np.finfo(float).eps * scale)


def test_zero_field_zero_acceleration():
    z = np.zeros(64)
    acc_re, acc_im = call(z, z, 2, True)
    assert np.all(acc_re == 0.0) and np.all(acc_im == 0.0)


def test_dirichlet_nodes_pinned():
    rng = np.random.default_rng(3)
    u_re = rng.standard_normal(100)
    u_im = rng.standard_normal(100)
    for axis in (True, False):
        acc_re, acc_im = call(u_re, u_im, 1, axis)
        assert acc_re[-1] == 0.0 and acc_im[-1] == 0.0
        if not axis:
            assert acc_re[0] == 0.0 and acc_im[0] == 0.0


def test_backend_name_reported():
    # benchmark reports record this name; one NumPy kernel is all there is
    assert kgblowup.kernel_backend == "python"
