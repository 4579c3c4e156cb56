"""The stencil kernel against a plain per-node loop of the same formula."""

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


def call(u, n, a_nl=0.7, a_mass=A_MASS, p=P):
    J = u.size
    acc, tmp = np.empty(J), np.empty(J)
    cp, cm = weights(J, n)
    radial_accel(u, acc, tmp, cp, cm, A_LAP, a_mass, a_nl, p, n)
    return acc


def loop_accel(u_re, u_im, n, a_nl, a_mass=A_MASS, p=P):
    """One node at a time: stencil and mass inside, the axis at node 0, a
    Dirichlet node at the end, on both parts of u = u_re + i u_im, and
    a_nl |u|^p added to the real part.  |u|^p is one array power, as in
    the kernel: NumPy's pow and the libm pow of Python floats may differ
    by an ulp."""
    J = u_re.size
    cp, cm = weights(J, n)
    mag_p = np.hypot(u_re, u_im) ** p
    out = []
    for u in (u_re, u_im):
        acc = [0.0] * J
        for j in range(1, J - 1):
            acc[j] = A_LAP * (cp[j] * u[j + 1] - 2.0 * u[j] + cm[j] * u[j - 1]) - a_mass * u[j]
        acc[0] = A_LAP * 2.0 * n * (u[1] - u[0]) - a_mass * u[0]
        out.append(acc)
    if a_nl != 0.0:
        for j in range(J - 1):
            out[0][j] += a_nl * mag_p[j]
    return np.array(out[0]), np.array(out[1])


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 3])
def test_matches_per_node_loop(n, a_nl):
    u = np.random.default_rng(42).standard_normal(257)
    ref, _ = loop_accel(u, np.zeros(u.size), n, a_nl)
    # the terms add in the same order: equal bits
    assert call(u, n, a_nl).tobytes() == ref.tobytes()


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
@pytest.mark.parametrize("a_mass", [A_MASS, -A_MASS])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_flag_matches_full_path_on_zero_imaginary_part(n, a_mass, a_nl):
    """The real kernel gives the bits of the complex field's acceleration
    on u_im = +0.0, signed zeros included, and that acceleration's
    imaginary part is all +0.0: cm[1] < 0 at n >= 4 and a negative a_mass
    each make a -0.0 term, which the +0.0 sums absorb, and hypot(x, +0.0)
    is |x|.  So a real field loses nothing to the complex one.  (Named for
    the flag that once chose between a real and a complex kernel path.)"""
    J = 257
    rng = np.random.default_rng(11)
    u = rng.standard_normal(J)
    u[rng.random(J) < 0.2] = 0.0
    u[rng.random(J) < 0.2] = -0.0
    full_re, full_im = loop_accel(u, np.zeros(J), n, a_nl, a_mass)
    assert call(u, n, a_nl, a_mass).tobytes() == full_re.tobytes()
    assert not full_im.view(np.uint64).any()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    J=st.integers(3, 60),
    support=st.integers(0, 60),
    w_extra=st.integers(0, 60),
    a_mass=st.sampled_from([A_MASS, -A_MASS, 0.0]),
    a_nl=st.sampled_from([0.7, -0.7, 0.0]),
    p=st.sampled_from([P, 2.0, 3.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_with_zero_tail_matches_the_full_call(n, J, support, w_extra, a_mass, a_nl, p, seed):
    """The light-cone window's kernel call: on a field that is +0.0 from
    node w - 2 on, the call on the prefix [:w] with +0.0 written to the
    tail gives the full-length call's bytes, signed zeros included (cm[1]
    < 0 at n >= 4, a negative a_mass or a_nl each make -0.0 terms)."""
    w = min(J, 2 + support + w_extra)  # at least 2 nodes in the prefix
    L = min(support, w - 3)  # last node that may be nonzero; -1: none
    rng = np.random.default_rng(seed)
    u = np.zeros(J)
    u[: L + 1] = rng.standard_normal(L + 1)
    u[rng.random(J) < 0.2] = 0.0  # zeros inside the support too
    cp, cm = weights(J, n)
    full, tmp = np.full(J, np.nan), np.full(J, np.nan)
    radial_accel(u, full, tmp, cp, cm, A_LAP, a_mass, a_nl, p, n)
    pre = np.full(J, np.nan)
    pre[w:] = 0.0
    radial_accel(u[:w], pre[:w], tmp[:w], cp[:w], cm[:w], A_LAP, a_mass, a_nl, p, n)
    assert pre.tobytes() == full.tobytes()


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
def test_scratch_is_written_before_it_is_read(a_nl):
    """``evolve`` hands every call the same scratch array, holding what the
    last call left there: its contents must not reach ``acc``."""
    J = 129
    u = np.random.default_rng(5).standard_normal(J)
    cp, cm = weights(J, 3)
    accs = []
    for fill in (0.0, np.nan, np.inf):
        acc, tmp = np.empty(J), np.full(J, fill)
        radial_accel(u, acc, tmp, cp, cm, A_LAP, A_MASS, a_nl, P, 3)
        accs.append(acc.tobytes())
    assert accs[0] == accs[1] == accs[2]


def test_zero_field_zero_acceleration():
    assert np.all(call(np.zeros(64), 2) == 0.0)


def test_dirichlet_nodes_pinned():
    u = np.random.default_rng(3).standard_normal(100)
    assert call(u, 1)[-1] == 0.0


def test_backend_name_reported():
    # benchmark reports record this name; one NumPy kernel is all there is
    assert kgblowup.kernel_backend == "python"
