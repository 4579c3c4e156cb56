"""Stencil kernel for the method-of-lines right-hand side."""

import numpy as np


def radial_accel(u_re, u_im, acc_re, acc_im, cp, cm, a_lap, a_mass, a_nl, p, n, axis):
    """acc = a_lap * stencil(u) - a_mass * u + a_nl * |u|^p (real part only).

    ``cp``/``cm`` are the off-diagonal stencil weights 1 +- (n-1)/(2j);
    node 0 is either the symmetry axis (laplacian 2n(u1-u0)) or a Dirichlet
    node, and the last node is always Dirichlet (acceleration pinned to 0).
    """
    acc_re[1:-1] = (
        a_lap * (cp[1:-1] * u_re[2:] - 2.0 * u_re[1:-1] + cm[1:-1] * u_re[:-2])
        - a_mass * u_re[1:-1]
    )
    acc_im[1:-1] = (
        a_lap * (cp[1:-1] * u_im[2:] - 2.0 * u_im[1:-1] + cm[1:-1] * u_im[:-2])
        - a_mass * u_im[1:-1]
    )
    if axis:
        acc_re[0] = a_lap * 2.0 * n * (u_re[1] - u_re[0]) - a_mass * u_re[0]
        acc_im[0] = a_lap * 2.0 * n * (u_im[1] - u_im[0]) - a_mass * u_im[0]
    else:
        acc_re[0] = 0.0
        acc_im[0] = 0.0
    acc_re[-1] = 0.0
    acc_im[-1] = 0.0
    if a_nl != 0.0:
        lo = 0 if axis else 1
        mag = np.hypot(u_re[lo:-1], u_im[lo:-1])
        acc_re[lo:-1] += a_nl * mag**p
