"""Stencil kernel for the method-of-lines right-hand side."""

import numpy as np


def radial_accel(u_re, u_im, acc_re, acc_im, cp, cm, a_lap, a_mass, a_nl, p, n, real=False):
    """acc = a_lap * stencil(u) - a_mass * u + a_nl * |u|^p (real part only).

    ``cp``/``cm`` are the off-diagonal stencil weights 1 +- (n-1)/(2j).
    Node 0 is always the symmetry axis (laplacian 2n(u1-u0)); the last node
    is Dirichlet (acceleration pinned to 0).

    ``real=True`` promises that ``u_im`` is all +0.0.  ``u_im`` is then not
    read: ``acc_im`` is filled with +0.0 and |u| is ``np.abs(u_re)``.  With
    finite coefficients and ``a_lap > 0`` this is the full path's result bit
    for bit: every imaginary entry starts from a difference of two +0.0
    terms, which is +0.0, and adding signed zeros to +0.0 stays +0.0 (a
    negative ``cm[1]`` at n >= 4 or a negative ``a_mass`` only makes a -0.0
    term); and IEEE hypot(x, 0) is |x|.
    """
    acc_re[1:-1] = (
        a_lap * (cp[1:-1] * u_re[2:] - 2.0 * u_re[1:-1] + cm[1:-1] * u_re[:-2])
        - a_mass * u_re[1:-1]
    )
    acc_re[0] = a_lap * 2.0 * n * (u_re[1] - u_re[0]) - a_mass * u_re[0]
    acc_re[-1] = 0.0
    if real:
        acc_im.fill(0.0)
    else:
        acc_im[1:-1] = (
            a_lap * (cp[1:-1] * u_im[2:] - 2.0 * u_im[1:-1] + cm[1:-1] * u_im[:-2])
            - a_mass * u_im[1:-1]
        )
        acc_im[0] = a_lap * 2.0 * n * (u_im[1] - u_im[0]) - a_mass * u_im[0]
        acc_im[-1] = 0.0
    if a_nl != 0.0:
        mag = np.abs(u_re[:-1]) if real else np.hypot(u_re[:-1], u_im[:-1])
        acc_re[:-1] += a_nl * mag**p
