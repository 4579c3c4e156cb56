"""Stencil kernel for the method-of-lines right-hand side."""

import numpy as np


def radial_accel(u, acc, tmp, cp, cm, a_lap, a_mass, a_nl, p, n):
    """acc = a_lap * stencil(u) - a_mass * u + a_nl * |u|^p, in place.

    ``cp``/``cm`` are the off-diagonal stencil weights 1 +- (n-1)/(2j).
    Node 0 is always the symmetry axis (laplacian 2n(u1-u0)); the last node
    is Dirichlet (acceleration pinned to 0).  ``tmp`` is scratch of ``u``'s
    size that aliases neither ``u`` nor ``acc``.  The formula's ufuncs run
    in its order, in place, for its bits.

    |u| below 2^(-1080/p) does not go through pow; +0.0 is written for
    its |u|^p.  The exact power is below 2^-1080, 1/64 of the smallest
    subnormal, so pow, rounding to nearest with an error far inside that
    margin, returns +0.0 for it too: the bits are the same.  Such |u| are
    the precursor ahead of the light cone, where pow takes its slow
    underflow path, tens of times the cost of a normal input.  NaN and
    inf are not below the cutoff and go through pow.
    """
    mid, scratch = acc[1:-1], tmp[1:-1]
    np.multiply(cp[1:-1], u[2:], out=mid)
    np.multiply(2.0, u[1:-1], out=scratch)
    np.subtract(mid, scratch, out=mid)
    np.multiply(cm[1:-1], u[:-2], out=scratch)
    np.add(mid, scratch, out=mid)
    np.multiply(a_lap, mid, out=mid)
    np.multiply(a_mass, u[1:-1], out=scratch)
    np.subtract(mid, scratch, out=mid)
    acc[0] = a_lap * 2.0 * n * (u[1] - u[0]) - a_mass * u[0]
    acc[-1] = 0.0
    if a_nl != 0.0:
        mag = np.abs(u[:-1], out=tmp[:-1])
        small = mag < 2.0 ** (-1080.0 / p)
        # where= rather than zeros first: pow(+0.0, p) is slow as well
        np.power(mag, p, out=mag, where=~small)
        np.copyto(mag, 0.0, where=small)
        np.multiply(a_nl, mag, out=mag)
        np.add(acc[:-1], mag, out=acc[:-1])
