"""Radially symmetric method-of-lines solver for the semilinear field.

The radial reduction keeps exactly the quantities the blow-up statement is
about: the spatial integral W(t), the support radius, and the forward-cone
containment.  The grid is r_j = j h on [0, r_max]: node 0 is the symmetry
axis, where the second-order centered Laplacian u_rr + (n-1)/r u_r gets the
removable-singularity treatment n u_rr, and the last node is a homogeneous
Dirichlet boundary on a domain sized past the forward cone.  The semilinear
term adds the real scalar lambda a^{-n(p-1)/2} |u|^p, so real data stays
real.  Every kgblow command starts from real bump data, so the field is
real: ``PdeField`` holds float64 ``u`` and ``ut``, and ``evolve`` rejects
a complex one.

The stepper state is a C-contiguous (2, J) array whose rows are u and
u_t; each record hands the observables views of the two rows.

Light-cone window.  The stencil couples only neighbouring nodes, so the
field spreads by at most one node per RHS evaluation, and compactly
supported data leaves the nodes ahead of it at exactly +0.0.  ``evolve``
keeps a window ``w``: only columns ``[:w]`` can be nonzero.  The RHS and
the kernel write that prefix of the stepper's ``out`` in place, whose tail
keeps its +0.0; the stepper's ``active`` is the column count ``w``, and
the blow-up test reads columns ``[:w]`` of row 0 (see ``integrate`` for
the stepper's side).

* Margin.  A trial that starts with last nonzero node L has stage i within
  L + i, the new solution within L + 6 and its slope within L + 7.  The
  prefix kernel pins node w - 1 (its Dirichlet node) and reads nodes up to
  w - 1, so it equals the full kernel when the state is zero from node
  w - 2 on: w >= L + 9 is required.
* Growth.  ``w`` starts at min(J, L0 + 9) for the initial state's last
  nonzero node L0 and is updated from every accepted state ``on_step``
  sees: when one of its last 8 columns holds a nonzero, ``w`` becomes
  min(J, that node + 9).  It never shrinks, so stale stage values never
  lie outside it.  The window lives in the RHS, not in the stepper, so
  a stepper that ignores ``active`` still gets a correct RHS.
* Signed zeros.  Stage sums start from +0.0 (see ``integrate``), so the
  sign of a zero slope outside the window reaches no stage state, step
  size or output: the bits are those of the full computation as long as
  the kernel's coefficients are finite.

Bound inputs.  The kernel's coefficients a_lap = c^2 / (a h)^2, a_mass =
c^2 M^2 and a_nl = c^2 lambda a^(-n(p-1)/2) change only with a(t) and
M^2(t).  At eH = +-0.0 (flat, de Sitter, or a subnormal H whose eH
underflows) M^2 is one float, g = 1 + eH t being exactly 1.0, and at H =
+-0.0 a is a0: ``evolve`` reads them from the forms (``fixed_mass_sq``,
``fixed_scale``) without the range check, which the stepper's times in
[0, t_stop <= t_last] pass.  The kernel's prefix views of its scratch
and the stencil weights are made again only when w grows.
The observables run over all J nodes once per record.

Blow-up.  ``evolve`` owns the PDE's stop rule.  It reads max|u| over the
window and the node i where it sits, against scale0 = max(1, max|u0|,
max|ut0|), with k = (p-1)/2.  The regime gate is max|u| > 1e3^min(1, 1/k)
scale0: 1e3 scale0 up to p = 3, lower for larger p.  Near a blow-up
u ~ C (T(r) - t)^(-1/k), so a growth by a factor G leaves G^-k of the
time, and the peak narrows with it; the gate leaves every p the 1e-3 of
its time that p = 3 has at 1e3.  A gate fixed at 1e3 asks a large p for
a time left below float resolution.

* Settled T^.  Past the regime gate, each accepted step estimates the
  blow-up time as T^ = t + u_i / (k u_t,i): the time at which u_i,
  growing like (T - t)^(-1/k), would be infinite (``ode.py`` ends its
  runs on the same estimate).  The run ends in BlowupThreshold at the
  first step whose T^ is within SETTLE_REL |T^| of the previous one, and
  ``blowup_time`` is that T^, which lies ahead of the last step.  The
  ODE waits for two equal floats, which on the PDE costs steps for a
  change in T^ far inside the grid's error.  A run whose T^ never settles
  is no blow-up, however large max|u| grows: the stepper ends it.  A
  one-node spike that a loose ``pde_rel_tol`` grows settles too, so the
  schema bounds it (``scenario.PDE_REL_TOL_MAX``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ._kernels import radial_accel
from .certificate import TheoremInputs, rpow, unit_ball_volume
from .cone import comoving_radius
from .cosmology import curved_mass_sq, scale_eval, stop_time, t_cap
from .errors import ConfigurationError
from .integrate import RkResult, TerminationReason, dopri_integrate
from .scenario import RunSettings

__all__ = [
    "PdeField",
    "PdeRun",
    "bump_ball_integral",
    "make_field",
    "evolve",
    "run_pde",
    "grid_weights",
    "observable_w",
    "support_radius",
    "discrete_energy",
    "outside_cone_mass",
    "field_to_csv",
    "observables_to_csv",
]


@dataclass
class PdeField:
    r: np.ndarray  # j h, j = 0..J-1; node 0 is the axis
    u: np.ndarray  # float64
    ut: np.ndarray  # float64
    t: float
    h: float
    n: int


def bump_ball_integral(n: int, r0: float) -> float:
    """Exact integral of the bump (1 - (r/r0)^2)^3 over the ball |x| <= r0 in R^n."""
    omega = unit_ball_volume(n)
    return (
        n
        * omega
        * r0**n
        * math.gamma(n / 2.0)
        * math.gamma(4.0)
        / (2.0 * math.gamma(n / 2.0 + 4.0))
    )


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def grid_weights(field: PdeField) -> Tuple[np.ndarray, np.ndarray]:
    """Trapezoid node weights and cell-face weights against the volume
    element n omega_n r^(n-1) dr: the observables' ``weights``."""
    shell = field.n * unit_ball_volume(field.n)
    w = np.full(field.r.size, field.h)
    w[0] = w[-1] = 0.5 * field.h
    r_face = 0.5 * (field.r[:-1] + field.r[1:])
    return shell * w * field.r ** (field.n - 1), shell * field.h * r_face ** (field.n - 1)


def observable_w(field: PdeField, weights) -> float:
    """W = integral of u over space (trapezoid against the volume element)."""
    w, _ = weights
    return float(np.sum(w * field.u))


def support_radius(field: PdeField) -> float:
    """Largest r whose node carries |u| or |ut| above 1e-10 of their peak."""
    mag = np.maximum(np.abs(field.u), np.abs(field.ut))
    top = float(mag.max()) if mag.size else 0.0
    if top == 0.0:
        return 0.0
    hit = mag > 1e-10 * top
    if not np.any(hit):
        return 0.0
    return float(np.max(field.r[hit]))


def discrete_energy(field: PdeField, inputs: TheoremInputs, weights) -> float:
    """c^-2 ut^2 + a^-2 u_r^2 + M^2 u^2 integrated on the grid.

    The gradient term lives on cell faces, which makes the value an exact
    invariant of the semi-discrete flow in the flat autonomous case (n=1).
    """
    params = inputs.params
    a = scale_eval(params, field.t)
    m2 = curved_mass_sq(params, field.t)
    w, face_w = weights
    u, ut = field.u, field.ut
    kin = float(np.sum(w * (ut * ut))) / params.c**2
    pot = m2 * float(np.sum(w * (u * u)))
    # times the reciprocal, not / h: the two can round differently, and
    # the energy outputs are pinned to the reciprocal's bits
    du = np.diff(u) * (1.0 / field.h)
    grad = float(np.sum(face_w * (du * du))) / a**2
    return kin + grad + pot


def outside_cone_mass(field: PdeField, cone_r: float, pad: float, weights) -> float:
    """Relative L1 mass of |u| strictly beyond cone_r + pad."""
    w, _ = weights
    total = float(np.sum(w * np.abs(field.u)))
    if total == 0.0:
        return 0.0
    outside = field.r > cone_r + pad
    return float(np.sum(w[outside] * np.abs(field.u[outside]))) / total


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

# Largest grid make_field builds: evolve holds about 37 float64 arrays of
# J nodes (24 of them the stepper's), about 300 bytes a node, 0.31 GB here.
MAX_GRID_NODES = 1 << 20

# the blow-up rule's bound: two successive T^ agree to SETTLE_REL |T^|
SETTLE_REL = 1e-12


def make_field(inputs: TheoremInputs, t_end: float, run: RunSettings) -> PdeField:
    """Grid sized past the forward cone at t_end, filled with the bump data
    u = (w0 / M) phi, ut = (w1 / M) phi: phi = (1 - (r/r0)^2)^3 inside r0
    and 0 outside, M its ball integral, so u and ut integrate to w0, w1."""
    params = inputs.params
    h = run.grid_h
    r0 = inputs.geom.r0
    r_cone = comoving_radius(inputs.geom, t_cap(t_end, params))
    r_max = run.r_max_factor * r_cone
    mass = bump_ball_integral(params.n, r0)
    cells = r_max / h
    if not math.isfinite(cells):
        raise ConfigurationError(f"grid: r_max / h = {r_max!r} / {h!r} is not finite")
    J = int(math.ceil(cells)) + 1
    if J > MAX_GRID_NODES:
        raise ConfigurationError(
            f"grid: r_max / h = {r_max!r} / {h!r} needs {J:.4g} nodes,"
            f" more than the {MAX_GRID_NODES} allowed"
        )
    r = np.arange(J, dtype=float) * h
    y = r / r0
    phi = np.zeros_like(y)
    inside = y < 1.0
    phi[inside] = (1.0 - y[inside] ** 2) ** 3
    return PdeField(r, inputs.w0 / mass * phi, inputs.w1 / mass * phi, 0.0, h, params.n)


@dataclass
class PdeRun:
    """One run: the six record arrays are the columns of the records
    ``(t, W, support radius, cone radius, energy, outside mass)``."""

    times: np.ndarray
    W: np.ndarray
    support_radius: np.ndarray
    cone_radius: np.ndarray
    energy: np.ndarray
    outside_mass: np.ndarray
    field0: PdeField  # the field evolve was given
    field_final: PdeField
    rk: RkResult  # where and why the integration stopped, and its counters
    # what the blow-up verdict rests on (see evolve), None if max|u| never
    # passed the regime gate
    blowup_evidence: Optional[dict]

    @property
    def contained(self) -> np.ndarray:
        """Cone containment verdict per recorded time.

        A time passes when the relative L1 mass of |u| beyond cone_radius + 2h
        stays at or below 1e-6: the centered stencil's evanescent precursor
        (front amplitude O(h^2), geometric decay per cell) passes, and a
        violation of the cone, at O(1) mass, does not.
        """
        return self.outside_mass <= 1e-6


def evolve(
    field: PdeField,
    inputs: TheoremInputs,
    t_end: float,
    run: RunSettings,
    *,
    linear: bool = False,
) -> PdeRun:
    """Advance the real field to t_end (or blow-up), recording observables;
    ``linear`` drops the semilinear term (propagation tests, cone-check).

    The run stops early in BlowupThreshold, with ``blowup_time`` the
    settled T^ (the module docstring has the rule).  ``blowup_evidence``
    holds the last three T^, max|u| / scale0 and the peak's node and r at
    the stop.
    """
    if np.iscomplexobj(field.u) or np.iscomplexobj(field.ut):
        raise ValueError("evolve takes a real field; u and ut must be float arrays")
    params = inputs.params
    t_stop = stop_time(params, t_end)

    J = field.r.size
    h = field.h
    cone_end = comoving_radius(inputs.geom, t_stop)
    span = float(field.r[-1])
    if cone_end > span - 2.0 * h:
        raise ConfigurationError(
            f"domain too small: cone radius {cone_end} reaches the boundary {span}"
        )

    # stencil weights 1 +- (n-1)/(2j); entry 0 unused (the axis)
    idx = np.arange(J, dtype=float)
    idx[0] = 1.0
    cp = np.ascontiguousarray(1.0 + (field.n - 1) / (2.0 * idx))
    cm = np.ascontiguousarray(1.0 - (field.n - 1) / (2.0 * idx))

    c2 = params.c**2
    n = field.n
    p = inputs.p
    lam = 0.0 if linear else inputs.lam
    nl_expo = -n * (inputs.p - 1.0) / 2.0
    forms = inputs.geom.forms
    a0, m2 = forms.fixed_scale, forms.fixed_mass_sq  # None where they vary (module docstring)

    def coefficients(t: float) -> Tuple[float, float, float]:
        a = scale_eval(params, t) if a0 is None else a0
        a_nl = c2 * lam * rpow(a, nl_expo) if lam != 0.0 else 0.0
        return c2 / (a * a * h * h), c2 * (forms.mass_sq(t) if m2 is None else m2), a_nl

    fixed = None if a0 is None else coefficients(0.0)

    y0 = np.stack([field.u, field.ut])
    tmp = np.empty(J)  # the kernel's scratch, and on_step's

    # the light-cone window: columns [:w] can be nonzero (module docstring);
    # on_step widens it and makes the kernel's prefix views again
    nonzero = np.flatnonzero(y0.any(axis=0))
    w = min(J, (int(nonzero[-1]) if nonzero.size else -1) + 9)
    prefix = (tmp[:w], cp[:w], cm[:w])

    def rhs(t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        a_lap, a_mass, a_nl = fixed or coefficients(t)
        out[0, :w] = y[1, :w]
        radial_accel(y[0, :w], out[1, :w], *prefix, a_lap, a_mass, a_nl, p, n)
        return out

    # the blow-up rule's levels of max|u| (module docstring)
    scale0 = max(1.0, float(np.max(np.abs(y0))))
    k = (p - 1.0) / 2.0
    regime_gate = scale0 * 1e3 ** min(1.0, 1.0 / k)
    t_hats: List[float] = []  # T^ at each accepted step past the regime gate

    rows: List[Tuple[float, ...]] = []  # one per record, PdeRun's columns
    geom = inputs.geom
    weights = grid_weights(field)

    def record(t: float, y: np.ndarray) -> None:
        snap = PdeField(field.r, y[0], y[1], t, h, n)
        cone_r = comoving_radius(geom, t)
        rows.append((
            t,
            observable_w(snap, weights),
            support_radius(snap),
            cone_r,
            discrete_energy(snap, inputs, weights),
            outside_cone_mass(snap, cone_r, 2.0 * h, weights),
        ))

    out_dt = run.output_interval
    if out_dt is None:
        out_dt = t_stop / 200.0 if t_stop > 0 else 1.0
    next_out = out_dt  # the time of the next record past the one at t = 0

    def on_step(t: float, y: np.ndarray, h_used: float) -> bool:
        nonlocal w, prefix, next_out
        if w < J:
            edge = np.flatnonzero(y[:, w - 8 : w].any(axis=0))
            if edge.size:  # node w - 8 + e needs a window of w + e + 1
                w = min(J, w + int(edge[-1]) + 1)
                prefix = (tmp[:w], cp[:w], cm[:w])
        u = y[0, :w]
        i = int(np.abs(u, out=prefix[0]).argmax())  # the node of max|u|
        mag = abs(float(u[i]))
        # switch to per-step (geometric near a pole) output in the blow-up regime
        if t >= next_out or mag > regime_gate:
            record(t, y)
            next_out = t + out_dt
        if not mag > regime_gate:
            return False
        rate = k * float(y[1, i])
        t_hats.append(t + float(u[i]) / rate if rate != 0.0 else math.inf)
        return len(t_hats) > 1 and abs(t_hats[-1] - t_hats[-2]) <= SETTLE_REL * abs(t_hats[-1])

    record(0.0, y0)

    res: RkResult = dopri_integrate(
        rhs,
        0.0,
        y0,
        t_stop,
        rel_tol=run.pde_rel_tol,
        abs_tol=1e-10 * scale0,
        max_steps=5_000_000,
        on_step=on_step,
        active=lambda y: w,
    )
    i = int(np.abs(res.y[0], out=tmp).argmax())
    mag = abs(float(res.y[0, i]))
    if res.status is TerminationReason.BLOWUP_THRESHOLD:  # T^ settled
        res = replace(res, blowup_time=t_hats[-1])
    if res.t - rows[-1][0] > 1e-12 * max(1.0, res.t):
        record(res.t, res.y)
    evidence = None if not t_hats else {
        "T_hat": t_hats[-3:],
        "max_u_over_scale0": mag / scale0,
        "peak_node": i,
        "peak_r": float(field.r[i]),
    }

    # + 0.0 makes the -0.0 of negative data that no step has touched
    # (a run stopped before its first step) +0.0, as stepped nodes are
    final = PdeField(field.r, res.y[0] + 0.0, res.y[1] + 0.0, res.t, h, n)
    # y0 is a copy (np.stack), so the caller's field is field0 unchanged
    return PdeRun(*np.array(rows).T, field0=field, field_final=final, rk=res,
                  blowup_evidence=evidence)


def run_pde(
    inputs: TheoremInputs,
    t_end: float,
    run: RunSettings,
    *,
    linear: bool = False,
) -> PdeRun:
    field = make_field(inputs, t_end, run)
    return evolve(field, inputs, t_end, run, linear=linear)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def field_to_csv(path, field: PdeField) -> None:
    """The snapshot; the field is real, so ``im_u`` and ``im_ut`` are 0.0."""
    with open(path, "w") as fh:
        fh.write("r,re_u,im_u,re_ut,im_ut\n")
        for r, u, ut in zip(field.r.tolist(), field.u.tolist(), field.ut.tolist()):
            fh.write(f"{r!r},{u!r},0.0,{ut!r},0.0\n")


def observables_to_csv(path, run: PdeRun) -> None:
    with open(path, "w") as fh:
        fh.write("t,W,support_radius,cone_radius,energy\n")
        for row in zip(run.times, run.W, run.support_radius, run.cone_radius, run.energy):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
