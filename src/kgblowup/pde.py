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
keeps its +0.0; the stepper's ``active`` index is columns ``[:w]`` of
both rows, and the blow-up test reads columns ``[:w]`` of row 0 (see
``integrate`` for the stepper's side).

* Margin.  A trial that starts with last nonzero node L has stage i within
  L + i, the new solution within L + 6 and its slope within L + 7.  The
  prefix kernel pins node w - 1 (its Dirichlet node) and reads nodes up to
  w - 1, so it equals the full kernel when the state is zero from node
  w - 2 on: w >= L + 9 is required.  (The bounds are loose: u_t is
  copied, not differenced, so the field spreads one node per two calls.)
* Growth.  ``w`` starts at min(J, L0 + 9) for the initial state's last
  nonzero node L0 and is updated from every accepted state ``on_step``
  sees: when one of its last 8 columns holds a nonzero, ``w`` becomes
  min(J, that node + 9).  It never shrinks, so stale stage values never
  lie outside it.  The window lives in the RHS, not in the stepper, so
  a stepper that ignores ``active`` still gets a correct RHS.
* Signed zeros.  Each stage sum starts from +0.0, so ``0.0 + a (+-0.0)`` is
  +0.0 and a stage state is never -0.0 where the field is zero; the zero
  sign of a slope outside the window never reaches a stage state, the
  step size or an output.  The bits are those of
  the full computation as long as the kernel's coefficients are finite.

The observables (W, support radius, energy, outside mass) still run over
all J nodes once per record, with weights built once per run.

Blow-up.  ``evolve`` owns the PDE's stop rule.  With scale0 = max(1,
max|u0|, max|ut0|), the run ends in BlowupThreshold at ``t`` when max|u| >
1e8 scale0 after an accepted step shorter than 1e-14 max(1, t'), t' the
time before the step; or when the stepper stops in StepUnderflow (a step
below 1e-16 max(1, t)) with max|u| above that level.  A large field whose
step has not collapsed is stiffness, not a singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from ._kernels import radial_accel
from .certificate import TheoremInputs, rpow, unit_ball_volume
from .cone import comoving_radius
from .cosmology import curved_mass_sq, mass_sq_function, scale_eval, scale_function, t_cap
from .errors import ConfigurationError, DomainError, ExcludedRegionError
from .integrate import RkResult, TerminationReason, dopri_integrate
from .scenario import RunSettings

__all__ = [
    "PdeField",
    "InitialData",
    "PdeRun",
    "make_initial_data",
    "bump_ball_integral",
    "make_field",
    "evolve",
    "run_pde",
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

    def copy(self) -> "PdeField":
        return PdeField(self.r.copy(), self.u.copy(), self.ut.copy(), self.t, self.h, self.n)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def bump_ball_integral(n: int, r0: float, exponent: int = 3) -> float:
    """Exact integral of (1 - (r/r0)^2)^k over the ball |x| <= r0 in R^n."""
    omega = unit_ball_volume(n)
    return (
        n
        * omega
        * r0**n
        * math.gamma(n / 2.0)
        * math.gamma(exponent + 1.0)
        / (2.0 * math.gamma(n / 2.0 + exponent + 1.0))
    )


@dataclass(frozen=True)
class InitialData:
    """Scaled compactly supported bump pair: u0 = s0 phi, u1 = s1 phi."""

    n: int
    r0: float
    s0: float
    s1: float
    exponent: int = 3

    def profile(self, r: np.ndarray) -> np.ndarray:
        y = np.clip(np.abs(np.asarray(r, dtype=float)) / self.r0, 0.0, None)
        out = np.zeros_like(y)
        inside = y < 1.0
        out[inside] = (1.0 - y[inside] ** 2) ** self.exponent
        return out

    def u0(self, r: np.ndarray) -> np.ndarray:
        return self.s0 * self.profile(r)

    def u1(self, r: np.ndarray) -> np.ndarray:
        return self.s1 * self.profile(r)


def make_initial_data(n: int, r0: float, w0: float, w1: float) -> InitialData:
    """Bump pair whose ball integrals equal w0 and w1 exactly."""
    mass = bump_ball_integral(n, r0, 3)
    return InitialData(n=n, r0=r0, s0=w0 / mass, s1=w1 / mass)


# ---------------------------------------------------------------------------
# grid construction and observables
# ---------------------------------------------------------------------------


def _volume_weights(field: PdeField) -> np.ndarray:
    """Trapezoid weights for integration against the volume element."""
    w = np.full(field.r.size, field.h)
    w[0] = w[-1] = 0.5 * field.h
    return field.n * unit_ball_volume(field.n) * w * np.abs(field.r) ** (field.n - 1)


def _grid_weights(field: PdeField) -> Tuple[np.ndarray, np.ndarray]:
    """Node and cell-face weights: the observables' ``weights`` (None: these)."""
    r_face = 0.5 * (field.r[:-1] + field.r[1:])
    face_w = field.n * unit_ball_volume(field.n) * field.h * np.abs(r_face) ** (field.n - 1)
    return _volume_weights(field), face_w


def observable_w(field: PdeField, weights=None) -> float:
    """W = Re integral of u over space (trapezoid against the volume element)."""
    w, _ = _grid_weights(field) if weights is None else weights
    return float(np.sum(w * field.u.real))


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


def discrete_energy(field: PdeField, inputs: TheoremInputs, weights=None) -> float:
    """c^-2 |ut|^2 + a^-2 |u_r|^2 + M^2 |u|^2 integrated on the grid.

    The gradient term lives on cell faces, which makes the value an exact
    invariant of the semi-discrete flow in the flat autonomous case (n=1).
    """
    params = inputs.params
    a = scale_eval(params, field.t)
    m2 = curved_mass_sq(params, field.t)
    w, face_w = _grid_weights(field) if weights is None else weights
    kin = float(np.sum(w * np.abs(field.ut) ** 2)) / params.c**2
    pot = m2 * float(np.sum(w * np.abs(field.u) ** 2))
    # times the reciprocal, not / h: the two can round differently, and
    # the energy outputs are pinned to the reciprocal's bits
    du = np.diff(field.u) * (1.0 / field.h)
    grad = float(np.sum(face_w * np.abs(du) ** 2)) / a**2
    return kin + grad + pot


def outside_cone_mass(field: PdeField, cone_r: float, pad: float, weights=None) -> float:
    """Relative L1 mass of |u| strictly beyond cone_r + pad."""
    w, _ = _grid_weights(field) if weights is None else weights
    total = float(np.sum(w * np.abs(field.u)))
    if total == 0.0:
        return 0.0
    outside = field.r > cone_r + pad
    return float(np.sum(w[outside] * np.abs(field.u[outside]))) / total


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

# Largest grid make_field builds.  evolve holds about 37 float64 arrays of
# J nodes: 24 in the stepper (the (7, 2, J) slope stack, its three (2, J)
# buffers, y and the new solution) and the rest for the field, its copies
# and the stencil and observable weights.  That is about 300 bytes a node
# (tracemalloc: 293), some 0.31 GB at this size.
MAX_GRID_NODES = 1 << 20


def make_field(inputs: TheoremInputs, t_end: float, run: RunSettings = RunSettings()) -> PdeField:
    """Grid sized past the forward cone at t_end, filled with bump data."""
    params = inputs.params
    h = run.grid_h
    r_cone = comoving_radius(inputs.geom, t_cap(t_end, params.T0))
    r_max = run.r_max_factor * r_cone
    data = make_initial_data(params.n, inputs.geom.r0, inputs.w0, inputs.w1)
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
    return PdeField(r, data.u0(r), data.u1(r), 0.0, h, params.n)


@dataclass
class PdeRun:
    times: np.ndarray
    W: np.ndarray
    support_radius: np.ndarray
    cone_radius: np.ndarray
    energy: np.ndarray
    outside_mass: np.ndarray
    field0: PdeField
    field_final: PdeField
    rk: RkResult  # where and why the integration stopped, and its counters

    @property
    def contained(self) -> np.ndarray:
        """Cone containment verdict per recorded time.

        A time passes when the relative L1 mass of |u| beyond cone_radius + 2h
        stays at or below 1e-6.  The centered stencil carries an evanescent
        precursor (front amplitude O(h^2), geometric decay per cell), so a
        radius-at-floor comparison would flag that numerical tail instead of a
        genuine propagation violation; violations of the cone enter at O(1)
        mass and trip any tolerance here.
        """
        return self.outside_mass <= 1e-6


def evolve(
    field: PdeField,
    inputs: TheoremInputs,
    t_end: float,
    run: RunSettings = RunSettings(),
    *,
    linear: bool = False,
) -> PdeRun:
    """Advance the real field to t_end (or blow-up), recording observables;
    ``linear`` drops the semilinear term (propagation tests, cone-check)."""
    if np.iscomplexobj(field.u) or np.iscomplexobj(field.ut):
        raise ValueError("evolve takes a real field; u and ut must be float arrays")
    params = inputs.params
    if params.excluded_region:
        raise ExcludedRegionError(
            "background has (1+sigma)H<0 with sigma<0; not simulated"
        )
    T0 = params.T0
    if t_end > T0:
        raise DomainError(f"t_end={t_end} exceeds the horizon T0={T0}")
    t_stop = t_cap(t_end, T0)

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
    scale_at = scale_function(params)
    mass_sq = mass_sq_function(params)

    y0 = np.stack([field.u, field.ut])
    tmp = np.empty(J)  # the kernel's scratch

    # the light-cone window: columns [:w] can be nonzero (module docstring)
    nonzero = np.flatnonzero(y0.any(axis=0))
    last = int(nonzero[-1]) if nonzero.size else -1
    state = {"next_out": 0.0, "w": min(J, last + 9), "t": 0.0}  # t: the last accepted time

    def grow(y: np.ndarray) -> None:
        w = state["w"]
        if w < J:
            edge = np.flatnonzero(y[:, w - 8 : w].any(axis=0))
            if edge.size:  # node w - 8 + e needs a window of w + e + 1
                state["w"] = min(J, w + int(edge[-1]) + 1)

    def rhs(t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        w = state["w"]
        a = scale_at(t)
        a_lap = c2 / (a * a * h * h)
        a_mass = c2 * mass_sq(t)
        a_nl = c2 * lam * rpow(a, nl_expo) if lam != 0.0 else 0.0
        out[0, :w] = y[1, :w]
        radial_accel(y[0, :w], out[1, :w], tmp[:w], cp[:w], cm[:w], a_lap, a_mass, a_nl, p, n)
        return out

    scale0 = max(1.0, float(np.max(np.abs(y0))))
    regime_gate, blow_gate = 1e3 * scale0, 1e8 * scale0

    times: List[float] = []
    Ws: List[float] = []
    supports: List[float] = []
    cones: List[float] = []
    energies: List[float] = []
    outsides: List[float] = []

    geom = inputs.geom
    weights = _grid_weights(field)

    def record(t: float, y: np.ndarray) -> None:
        snap = PdeField(field.r, y[0], y[1], t, h, n)
        cone_r = comoving_radius(geom, t)
        times.append(t)
        Ws.append(observable_w(snap, weights))
        supports.append(support_radius(snap))
        cones.append(cone_r)
        energies.append(discrete_energy(snap, inputs, weights))
        outsides.append(outside_cone_mass(snap, cone_r, 2.0 * h, weights))

    out_dt = run.output_interval
    if out_dt is None:
        out_dt = t_stop / 200.0 if t_stop > 0 else 1.0

    def on_step(t: float, y: np.ndarray, h_used: float) -> bool:
        grow(y)
        mag = magnitude(y)
        # switch to per-step (geometric near a pole) output in the blow-up regime
        if t >= state["next_out"] or mag > regime_gate:
            record(t, y)
            state["next_out"] = t + out_dt
        t_prev, state["t"] = state["t"], t
        return mag > blow_gate and h_used < 1e-14 * max(1.0, t_prev)  # the step collapsed

    magnitude = lambda y: float(np.max(np.abs(y[0, : state["w"]])))  # noqa: E731
    record(0.0, y0)
    state["next_out"] = out_dt

    res: RkResult = dopri_integrate(
        rhs,
        0.0,
        y0,
        t_stop,
        rel_tol=run.pde_rel_tol,
        abs_tol=1e-10 * scale0,
        max_steps=5_000_000,
        on_step=on_step,
        active=lambda y: (slice(None), slice(0, state["w"])),
    )
    if res.status is TerminationReason.STEP_UNDERFLOW and magnitude(res.y) > blow_gate:
        res = replace(res, status=TerminationReason.BLOWUP_THRESHOLD, blowup_time=res.t)
    if not times or res.t - times[-1] > 1e-12 * max(1.0, res.t):
        record(res.t, res.y)

    # + 0.0 makes the -0.0 of negative data that no step has touched
    # (a run stopped before its first step) +0.0, as stepped nodes are
    final = PdeField(field.r, res.y[0] + 0.0, res.y[1] + 0.0, res.t, h, n)
    return PdeRun(
        times=np.array(times),
        W=np.array(Ws),
        support_radius=np.array(supports),
        cone_radius=np.array(cones),
        energy=np.array(energies),
        outside_mass=np.array(outsides),
        field0=field.copy(),
        field_final=final,
        rk=res,
    )


def run_pde(
    inputs: TheoremInputs,
    t_end: float,
    run: RunSettings = RunSettings(),
    *,
    linear: bool = False,
) -> PdeRun:
    field = make_field(inputs, t_end, run)
    return evolve(field, inputs, t_end, run, linear=linear)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def field_to_csv(path, field: PdeField) -> None:
    columns = (field.r, field.u.real, field.u.imag, field.ut.real, field.ut.imag)
    with open(path, "w") as fh:
        fh.write("r,re_u,im_u,re_ut,im_ut\n")
        for row in zip(*(c.tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def observables_to_csv(path, run: PdeRun) -> None:
    with open(path, "w") as fh:
        fh.write("t,W,support_radius,cone_radius,energy\n")
        for i in range(run.times.size):
            row = (
                run.times[i],
                run.W[i],
                run.support_radius[i],
                run.cone_radius[i],
                run.energy[i],
            )
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
