"""Radially symmetric method-of-lines solver for the semilinear field.

The radial reduction keeps exactly the quantities the blow-up statement is
about: the spatial integral W(t), the support radius, and the forward-cone
containment.  The second-order centered Laplacian u_rr + (n-1)/r u_r gets
the removable-singularity treatment n u_rr at the axis; the outer boundary
is homogeneous Dirichlet on a domain sized past the forward cone.  The
semilinear term adds the real scalar lambda a^{-n(p-1)/2} |u|^p, so real
data stays real but the flow is not complex-analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._kernels import radial_accel
from .certificate import TheoremInputs, rpow, unit_ball_volume
from .cone import ConeGeometry, comoving_radius
from .cosmology import curved_mass_sq, horizon_end, scale_eval
from .errors import ConfigurationError, DomainError, ExcludedRegionError
from .integrate import RkResult, TerminationReason, dopri_integrate

__all__ = [
    "PdeControls",
    "PdeField",
    "InitialData",
    "PdeRun",
    "ConeReport",
    "make_initial_data",
    "bump_ball_integral",
    "make_field",
    "evolve",
    "run_pde",
    "observable_w",
    "forcing_integral",
    "support_radius",
    "discrete_energy",
    "outside_cone_mass",
    "cone_containment_check",
    "field_to_csv",
    "observables_to_csv",
]


@dataclass(frozen=True)
class PdeControls:
    grid_h: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: Optional[float] = None
    r_max_factor: float = 1.25
    output_interval: Optional[float] = None
    blow_magnitude_factor: float = 1e8
    blow_step_fraction: float = 1e-14
    max_steps: int = 5_000_000
    linear: bool = False  # drop the semilinear term (propagation tests)
    full_line: bool = False  # n = 1 only: grid spans both sides of the apex
    apex: float = 0.0
    fixed_step: Optional[float] = None


@dataclass
class PdeField:
    r: np.ndarray
    u: np.ndarray  # complex128
    ut: np.ndarray  # complex128
    t: float
    h: float
    n: int
    axis: bool  # True: node 0 is the symmetry axis; False: full line
    apex: float = 0.0

    def copy(self) -> "PdeField":
        return PdeField(
            self.r.copy(), self.u.copy(), self.ut.copy(), self.t, self.h, self.n,
            self.axis, self.apex,
        )


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
    target_w0: float
    target_w1: float
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
    if not r0 > 0:
        raise ValueError("r0 must be positive")
    mass = bump_ball_integral(n, r0, 3)
    return InitialData(n=n, r0=r0, s0=w0 / mass, s1=w1 / mass, target_w0=w0, target_w1=w1)


# ---------------------------------------------------------------------------
# grid construction and observables
# ---------------------------------------------------------------------------


def _volume_weights(field: PdeField) -> np.ndarray:
    """Trapezoid weights for integration against the volume element."""
    w = np.full(field.r.size, field.h)
    w[0] = w[-1] = 0.5 * field.h
    if field.axis:
        return field.n * unit_ball_volume(field.n) * w * np.abs(field.r) ** (field.n - 1)
    return w


def observable_w(field: PdeField) -> float:
    """W = Re integral of u over space (trapezoid against the volume element)."""
    return float(np.sum(_volume_weights(field) * field.u.real))


def forcing_integral(field: PdeField, inputs: TheoremInputs) -> float:
    """lambda a^{-n(p-1)/2} * integral of |u|^p."""
    a, _, _ = scale_eval(inputs.params, field.t)
    coef = inputs.lam * rpow(a, -inputs.params.n * (inputs.p - 1.0) / 2.0)
    return coef * float(np.sum(_volume_weights(field) * np.abs(field.u) ** inputs.p))


def support_radius(field: PdeField, floor: Optional[float] = None) -> float:
    """Largest |r - apex| whose node carries |u| or |ut| above the floor."""
    mag = np.maximum(np.abs(field.u), np.abs(field.ut))
    top = float(mag.max()) if mag.size else 0.0
    if top == 0.0:
        return 0.0
    if floor is None:
        floor = 1e-10 * top
    hit = mag > floor
    if not np.any(hit):
        return 0.0
    return float(np.max(np.abs(field.r[hit] - (field.apex if not field.axis else 0.0))))


def discrete_energy(field: PdeField, inputs: TheoremInputs) -> float:
    """c^-2 |ut|^2 + a^-2 |u_r|^2 + M^2 |u|^2 integrated on the grid.

    The gradient term lives on cell faces, which makes the value an exact
    invariant of the semi-discrete flow in the flat autonomous case (n=1).
    """
    params = inputs.params
    a, _, _ = scale_eval(params, field.t)
    m2 = curved_mass_sq(params, field.t)
    w = _volume_weights(field)
    kin = float(np.sum(w * np.abs(field.ut) ** 2)) / params.c**2
    pot = m2 * float(np.sum(w * np.abs(field.u) ** 2))
    du = np.diff(field.u) / field.h
    if field.axis:
        r_face = 0.5 * (field.r[:-1] + field.r[1:])
        face_w = field.n * unit_ball_volume(field.n) * field.h * np.abs(r_face) ** (
            field.n - 1
        )
    else:
        face_w = np.full(field.r.size - 1, field.h)
    grad = float(np.sum(face_w * np.abs(du) ** 2)) / a**2
    return kin + grad + pot


def outside_cone_mass(field: PdeField, cone_r: float, pad: float) -> float:
    """Relative L1 mass of |u| strictly beyond cone_r + pad."""
    w = _volume_weights(field)
    dist = np.abs(field.r - (field.apex if not field.axis else 0.0))
    total = float(np.sum(w * np.abs(field.u)))
    if total == 0.0:
        return 0.0
    outside = dist > cone_r + pad
    return float(np.sum(w[outside] * np.abs(field.u[outside]))) / total


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def make_field(
    inputs: TheoremInputs,
    t_end: float,
    controls: PdeControls = PdeControls(),
    data: Optional[InitialData] = None,
) -> PdeField:
    """Grid sized past the forward cone at t_end, filled with bump data."""
    params = inputs.params
    h = controls.grid_h
    T0 = horizon_end(params)
    t_cap = t_end if math.isinf(T0) else min(t_end, T0 * (1.0 - 1e-9))
    r_cone = comoving_radius(inputs.geom, t_cap)
    r_max = controls.r_max_factor * r_cone
    if data is None:
        data = make_initial_data(params.n, inputs.geom.r0, inputs.w0, inputs.w1)
    if controls.full_line:
        if params.n != 1:
            raise ConfigurationError("full-line mode is defined for n = 1 only")
        half = int(math.ceil((r_max + abs(controls.apex)) / h))
        r = np.arange(-half, half + 1, dtype=float) * h
        offset = r - controls.apex
        u = data.u0(offset).astype(complex)
        ut = data.u1(offset).astype(complex)
        return PdeField(r, u, ut, 0.0, h, params.n, axis=False, apex=controls.apex)
    J = int(math.ceil(r_max / h)) + 1
    r = np.arange(J, dtype=float) * h
    u = data.u0(r).astype(complex)
    ut = data.u1(r).astype(complex)
    return PdeField(r, u, ut, 0.0, h, params.n, axis=True)


@dataclass
class PdeRun:
    times: np.ndarray
    W: np.ndarray
    support_radius: np.ndarray
    cone_radius: np.ndarray
    energy: np.ndarray
    forcing: np.ndarray
    outside_mass: np.ndarray
    max_abs_u: np.ndarray
    field0: PdeField
    field_final: PdeField
    termination: TerminationReason
    blowup_time: Optional[float]
    n_steps: int


def evolve(
    field: PdeField,
    inputs: TheoremInputs,
    t_end: float,
    controls: PdeControls = PdeControls(),
) -> PdeRun:
    """Advance the field to t_end (or blow-up), recording observables."""
    params = inputs.params
    if params.excluded_region:
        raise ExcludedRegionError(
            "background has (1+sigma)H<0 with sigma<0; not simulated"
        )
    T0 = horizon_end(params)
    if t_end > T0:
        raise DomainError(f"t_end={t_end} exceeds the horizon T0={T0}")
    t_cap = t_end if math.isinf(T0) else min(t_end, T0 * (1.0 - 1e-9))

    J = field.r.size
    h = field.h
    cone_end = comoving_radius(inputs.geom, t_cap)
    span = float(np.max(np.abs(field.r - (field.apex if not field.axis else 0.0))))
    if cone_end > span - 2.0 * h:
        raise ConfigurationError(
            f"domain too small: cone radius {cone_end} reaches the boundary {span}"
        )

    if controls.fixed_step is not None:
        a_min = min(
            scale_eval(params, t)[0]
            for t in np.linspace(0.0, t_cap, 64)
        )
        cfl = h * a_min / params.c
        if controls.fixed_step > cfl:
            raise ConfigurationError(
                f"fixed step {controls.fixed_step} violates the CFL bound {cfl}"
            )

    # stencil weights 1 +- (n-1)/(2j); entry 0 unused (axis or Dirichlet)
    idx = np.arange(J, dtype=float)
    idx[0] = 1.0
    cp = np.ascontiguousarray(1.0 + (field.n - 1) / (2.0 * idx))
    cm = np.ascontiguousarray(1.0 - (field.n - 1) / (2.0 * idx))

    c2 = params.c**2
    n = field.n
    axis = field.axis
    p = inputs.p
    lam = 0.0 if controls.linear else inputs.lam
    nl_expo = -n * (inputs.p - 1.0) / 2.0

    y0 = np.concatenate([field.u.real, field.u.imag, field.ut.real, field.ut.imag])

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a, _, _ = scale_eval(params, t)
        a_lap = c2 / (a * a * h * h)
        a_mass = c2 * curved_mass_sq(params, t)
        a_nl = c2 * lam * rpow(a, nl_expo) if lam != 0.0 else 0.0
        res = np.empty_like(y)
        res[: 2 * J] = y[2 * J :]
        radial_accel(
            y[0:J], y[J : 2 * J], res[2 * J : 3 * J], res[3 * J :],
            cp, cm, a_lap, a_mass, a_nl, p, n, axis,
        )
        return res

    scale0 = max(1.0, float(np.max(np.abs(y0))))
    blow_mag = controls.blow_magnitude_factor * scale0
    regime_gate = 1e3 * scale0

    times: List[float] = []
    Ws: List[float] = []
    supports: List[float] = []
    cones: List[float] = []
    energies: List[float] = []
    forcings: List[float] = []
    outsides: List[float] = []
    maxes: List[float] = []

    geom = inputs.geom

    def record(t: float, y: np.ndarray) -> None:
        snap = PdeField(
            field.r,
            y[0:J] + 1j * y[J : 2 * J],
            y[2 * J : 3 * J] + 1j * y[3 * J :],
            t, h, n, axis, field.apex,
        )
        cone_r = comoving_radius(geom, t)
        times.append(t)
        Ws.append(observable_w(snap))
        supports.append(support_radius(snap))
        cones.append(cone_r)
        energies.append(discrete_energy(snap, inputs))
        forcings.append(forcing_integral(snap, inputs))
        outsides.append(outside_cone_mass(snap, cone_r, 2.0 * h))
        maxes.append(float(np.max(np.abs(y[: 2 * J]))))

    out_dt = controls.output_interval
    if out_dt is None:
        out_dt = t_cap / 200.0 if t_cap > 0 else 1.0
    state = {"next_out": 0.0}

    def on_step(t: float, y: np.ndarray, h_used: float) -> None:
        mag = float(np.max(np.abs(y[: 2 * J])))
        # switch to per-step (geometric near a pole) output in the blow-up regime
        if t >= state["next_out"] or mag > regime_gate:
            record(t, y)
            state["next_out"] = t + out_dt

    record(0.0, y0)
    state["next_out"] = out_dt

    abs_tol = controls.abs_tol if controls.abs_tol is not None else 1e-10 * scale0
    res: RkResult = dopri_integrate(
        rhs,
        0.0,
        y0,
        t_cap,
        rel_tol=controls.rel_tol,
        abs_tol=abs_tol,
        magnitude=lambda y: float(np.max(np.abs(y[: 2 * J]))),
        blow_magnitude=blow_mag,
        blow_step_fraction=controls.blow_step_fraction,
        max_steps=controls.max_steps,
        max_step=controls.fixed_step if controls.fixed_step is not None else math.inf,
        on_step=on_step,
    )
    if not times or res.t - times[-1] > 1e-12 * max(1.0, res.t):
        record(res.t, res.y)

    final = PdeField(
        field.r,
        res.y[0:J] + 1j * res.y[J : 2 * J],
        res.y[2 * J : 3 * J] + 1j * res.y[3 * J :],
        res.t, h, n, axis, field.apex,
    )
    return PdeRun(
        times=np.array(times),
        W=np.array(Ws),
        support_radius=np.array(supports),
        cone_radius=np.array(cones),
        energy=np.array(energies),
        forcing=np.array(forcings),
        outside_mass=np.array(outsides),
        max_abs_u=np.array(maxes),
        field0=field.copy(),
        field_final=final,
        termination=res.status,
        blowup_time=res.blowup_time,
        n_steps=res.n_steps,
    )


def run_pde(
    inputs: TheoremInputs,
    t_end: float,
    controls: PdeControls = PdeControls(),
    data: Optional[InitialData] = None,
) -> PdeRun:
    field = make_field(inputs, t_end, controls, data)
    return evolve(field, inputs, t_end, controls)


# ---------------------------------------------------------------------------
# cone containment
# ---------------------------------------------------------------------------


@dataclass
class ConeReport:
    times: np.ndarray
    support: np.ndarray
    cone: np.ndarray
    outside_mass: np.ndarray
    ok: np.ndarray
    all_ok: bool


def cone_containment_check(
    run: PdeRun, geom: ConeGeometry, mass_tol: float = 1e-6
) -> ConeReport:
    """Containment verdict per recorded time, aggregated with AND.

    A time passes when the relative L1 mass of |u| beyond cone_radius + 2h
    stays below ``mass_tol``.  The centered stencil carries an evanescent
    precursor (front amplitude O(h^2), geometric decay per cell), so a
    radius-at-floor comparison would flag that numerical tail instead of a
    genuine propagation violation; violations of the cone enter at O(1)
    mass and trip any tolerance here.  The raw support radii are included
    for inspection.
    """
    ok = run.outside_mass <= mass_tol
    return ConeReport(
        times=run.times,
        support=run.support_radius,
        cone=run.cone_radius,
        outside_mass=run.outside_mass,
        ok=ok,
        all_ok=bool(np.all(ok)),
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def field_to_csv(path, field: PdeField) -> None:
    with open(path, "w") as fh:
        fh.write("r,re_u,im_u,re_ut,im_ut\n")
        for j in range(field.r.size):
            row = (
                field.r[j],
                field.u[j].real,
                field.u[j].imag,
                field.ut[j].real,
                field.ut[j].imag,
            )
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


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
