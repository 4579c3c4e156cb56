"""The stencil kernel against a plain per-node loop of the same formula,
and its semilinear term against the plain array formula."""

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


def call(u, n, a_nl=0.7, a_mass=A_MASS, p=P, a_lap=A_LAP):
    J = u.size
    acc, tmp = np.empty(J), np.empty(J)
    cp, cm = weights(J, n)
    radial_accel(u, acc, tmp, cp, cm, a_lap, a_mass, a_nl, p, n)
    return acc


def loop_accel(u, n, a_nl, a_mass=A_MASS, p=P, a_lap=A_LAP):
    """One node at a time: stencil and mass inside, the axis at node 0, a
    Dirichlet node at the end, and a_nl |u|^p added.  |u|^p is one array
    power, as in the kernel: NumPy's pow and the libm pow of Python floats
    may differ by an ulp."""
    J = u.size
    cp, cm = weights(J, n)
    mag_p = np.abs(u) ** p
    acc = [0.0] * J
    for j in range(1, J - 1):
        acc[j] = a_lap * (cp[j] * u[j + 1] - 2.0 * u[j] + cm[j] * u[j - 1]) - a_mass * u[j]
    acc[0] = a_lap * 2.0 * n * (u[1] - u[0]) - a_mass * u[0]
    if a_nl != 0.0:
        for j in range(J - 1):
            acc[j] += a_nl * mag_p[j]
    return np.array(acc)


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 3])
def test_matches_per_node_loop(n, a_nl):
    u = np.random.default_rng(42).standard_normal(257)
    # the terms add in the same order: equal bits
    assert call(u, n, a_nl).tobytes() == loop_accel(u, n, a_nl).tobytes()


@pytest.mark.parametrize("a_nl", [0.0, 0.7])
@pytest.mark.parametrize("a_mass", [A_MASS, -A_MASS])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_flag_matches_full_path_on_zero_imaginary_part(n, a_mass, a_nl):
    """Signed zeros: the kernel gives the per-node loop's bits on a field
    with +0.0 and -0.0 nodes, and the acceleration of the all +0.0 field
    is +0.0 at every node.  cm[1] < 0 at n >= 4 and a negative a_mass
    each make a -0.0 term, which the +0.0 sums absorb.  (The name is that
    of a flag the kernel no longer has; the test is kept under it.)"""
    J = 257
    rng = np.random.default_rng(11)
    u = rng.standard_normal(J)
    u[rng.random(J) < 0.2] = 0.0
    u[rng.random(J) < 0.2] = -0.0
    assert call(u, n, a_nl, a_mass).tobytes() == loop_accel(u, n, a_nl, a_mass).tobytes()
    assert not loop_accel(np.zeros(J), n, 0.0, a_mass).view(np.uint64).any()


def signed_tiny_field(J=401, seed=7):
    """Standard normal nodes, then a run of signed zeros and subnormals of
    1-3 ulps of both signs, where the stencil sums are subnormal or zero."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(J)
    u[rng.random(J) < 0.15] = 0.0
    u[rng.random(J) < 0.15] = -0.0
    tail = u[J // 3:]
    tail[:] = rng.integers(-3, 4, tail.size) * 5e-324
    tail[rng.random(tail.size) < 0.3] = -0.0
    return u


@pytest.mark.parametrize("a_lap", [A_LAP, 1.0, 0.3])
@pytest.mark.parametrize("a_nl", [0.0, 1.0, 0.7, -0.7])
@pytest.mark.parametrize("a_mass", [0.0, -0.0, A_MASS, -A_MASS])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_skipped_products_keep_the_per_node_bits(n, a_mass, a_nl, a_lap):
    """Each product the kernel skips (the unit weights at n = 1, a +0.0
    mass with a_lap >= 1, a unit a_nl) gives the per-node loop's bits on a
    field of signed zeros and subnormals.  At a_lap 0.3 a sum of -1 ulp
    rounds to -0.0 at nodes with u <= -0.0, where -(+0.0 * u) turns it to
    +0.0: the field holds such nodes, so the mass pass must stay there."""
    u = signed_tiny_field()
    got = call(u, n, a_nl, a_mass, a_lap=a_lap)
    assert got.tobytes() == loop_accel(u, n, a_nl, a_mass, a_lap=a_lap).tobytes()
    if a_lap < 1.0 and n == 1:
        linear = a_lap * ((u[2:] - 2.0 * u[1:-1]) + u[:-2])
        assert ((linear == 0.0) & np.signbit(linear) & np.signbit(u[1:-1])).any()


@pytest.mark.parametrize("p", [2.0, 3.0, 30.0])
@pytest.mark.parametrize("n", [1, 3])
def test_skipped_mass_differs_only_by_nan_against_inf(n, p):
    """On a field with inf and NaN, a +0.0 a_mass skips +0.0 * inf: the
    kernel differs from the plain formula only where u is not finite, and
    there only by inf where the formula has NaN.  At -0.0 the pass stays
    and every bit is the formula's."""
    u = wide_field(p)
    with np.errstate(all="ignore"):
        got = call(u, n, 1.0, 0.0, p)
        plain = loop_accel(u, n, 1.0, 0.0, p)
        assert call(u, n, 1.0, -0.0, p).tobytes() == loop_accel(u, n, 1.0, -0.0, p).tobytes()
    differ = got.view(np.uint64) != plain.view(np.uint64)
    assert differ.any()
    assert not np.isfinite(u[differ]).any()
    assert np.isinf(got[differ]).all() and np.isnan(plain[differ]).all()


# exponents from just above 1, where 2^(-1080/p) is 0.0 and pow sees every
# node, to 1000, where pow sees only |u| above 0.47
EXPONENTS = [1 + 1e-6, 1.5, 2.0, 2.6, 3.0, 5.0, 9.0, 15.0, 30.0, 100.0, 1000.0]


def wide_field(p, size=600, seed=0):
    """|u| log-uniform over 1e-320 .. 1e3 with both signs, subnormals, the
    floats on both sides of the cutoff 2^(-1080/p), |u| whose p-th power
    is near the smallest subnormal, signed zeros, inf and NaN, shuffled."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-320.0, 3.0, size)
    cut = 2.0 ** (-1080.0 / p)
    near = [cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf), 0.5 * cut, 2.0 * cut]
    near += [2.0 ** (e / p) for e in (-1076.0, -1075.0, -1074.0, -1072.0, -1060.0)]
    special = [0.0, 5e-324, 1e-310, 2.2e-308, np.inf, np.nan] + near
    u = np.concatenate([mag, special * 3]) * rng.choice([-1.0, 1.0], size + 3 * len(special))
    u[rng.random(u.size) < 0.05] = -0.0
    return rng.permutation(u)


@pytest.mark.parametrize("a_nl", [0.7, -0.7])
@pytest.mark.parametrize("p", EXPONENTS)
def test_semilinear_term_is_the_plain_formula(p, a_nl):
    """The kernel's a_nl |u|^p, which sends no |u| below 2^(-1080/p)
    through pow, gives the bits of the plain a_nl * np.abs(u) ** p, over
    |u| from 1e-320 to 1e3, signed zeros, inf and NaN.  With a_lap =
    a_mass = 0 the linear part is a signed zero (NaN next to inf or NaN),
    so no bit of the semilinear term is absorbed by it."""
    u = wide_field(p)
    J = u.size
    cp, cm = weights(J, 3)
    got, linear, tmp = np.empty(J), np.empty(J), np.empty(J)
    with np.errstate(all="ignore"):
        radial_accel(u, got, tmp, cp, cm, 0.0, 0.0, a_nl, p, 3)
        radial_accel(u, linear, tmp, cp, cm, 0.0, 0.0, 0.0, p, 3)
        linear[:-1] = linear[:-1] + a_nl * np.abs(u[:-1]) ** p
    assert got.tobytes() == linear.tobytes()
    mag = np.abs(got)
    assert np.count_nonzero((mag > 0.0) & (mag < np.finfo(float).tiny)) >= 6  # subnormal terms


@pytest.mark.parametrize("p", [q for q in EXPONENTS if 2.0 ** (-1080.0 / q) > 0.0])
def test_pow_below_the_cutoff_is_plus_zero(p):
    """What makes the skip exact: pow returns +0.0 for every input below
    2^(-1080/p), from the float just below it down to a thousandth of it.
    (At p = 1 + 1e-6 the cutoff is 0.0 and pow sees every node.)"""
    cut = 2.0 ** (-1080.0 / p)
    below = [np.nextafter(cut, 0.0)]
    for _ in range(8):
        below.append(np.nextafter(below[-1], 0.0))
    x = np.concatenate([below, cut * np.random.default_rng(1).uniform(1e-3, 1.0, 200)])
    assert (x < cut).all()
    assert not np.power(x, p).view(np.uint64).any()


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
