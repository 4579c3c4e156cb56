"""Stencil kernel for the method-of-lines right-hand side."""

import numpy as np


def _stencil(u, acc, tmp, cp, cm, a_lap, a_mass, n):
    """acc = a_lap * stencil(u) - a_mass * u in place; ``tmp``, of
    ``acc[1:-1]``'s size, aliases neither."""
    mid = acc[1:-1]
    np.multiply(cp[1:-1], u[2:], out=mid)
    np.multiply(2.0, u[1:-1], out=tmp)
    np.subtract(mid, tmp, out=mid)
    np.multiply(cm[1:-1], u[:-2], out=tmp)
    np.add(mid, tmp, out=mid)
    np.multiply(a_lap, mid, out=mid)
    np.multiply(a_mass, u[1:-1], out=tmp)
    np.subtract(mid, tmp, out=mid)
    acc[0] = a_lap * 2.0 * n * (u[1] - u[0]) - a_mass * u[0]
    acc[-1] = 0.0


def radial_accel(u_re, u_im, acc_re, acc_im, cp, cm, a_lap, a_mass, a_nl, p, n, real=False):
    """acc = a_lap * stencil(u) - a_mass * u + a_nl * |u|^p (real part only).

    ``cp``/``cm`` are the off-diagonal stencil weights 1 +- (n-1)/(2j).
    Node 0 is always the symmetry axis (laplacian 2n(u1-u0)); the last node
    is Dirichlet (acceleration pinned to 0).  The formula's ufuncs run in its
    order, in place (scratch: ``acc_im`` on the real path), for its bits.

    ``real=True`` promises that ``u_im`` is all +0.0.  ``u_im`` is then not
    read: ``acc_im`` is filled with +0.0 and |u| is ``np.abs(u_re)``.  With
    finite coefficients and ``a_lap > 0`` this is the full path's result bit
    for bit: every imaginary entry starts from a difference of two +0.0
    terms, which is +0.0, and adding signed zeros to +0.0 stays +0.0 (a
    negative ``cm[1]`` at n >= 4 or a negative ``a_mass`` only makes a -0.0
    term); and IEEE hypot(x, 0) is |x|.
    """
    tmp = acc_im if real else np.empty_like(acc_re)
    _stencil(u_re, acc_re, tmp[1:-1], cp, cm, a_lap, a_mass, n)
    if not real:
        _stencil(u_im, acc_im, tmp[1:-1], cp, cm, a_lap, a_mass, n)
    if a_nl != 0.0:
        mag = np.abs(u_re[:-1], out=tmp[:-1]) if real else np.hypot(
            u_re[:-1], u_im[:-1], out=tmp[:-1])
        mag **= p
        np.multiply(a_nl, mag, out=mag)
        np.add(acc_re[:-1], mag, out=acc_re[:-1])
    if real:
        acc_im.fill(0.0)
