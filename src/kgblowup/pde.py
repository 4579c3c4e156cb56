"""Radially symmetric method-of-lines solver for the semilinear field.

The radial reduction keeps exactly the quantities the blow-up statement is
about: the spatial integral W(t), the support radius, and the forward-cone
containment.  The grid is r_j = j h on [0, r_max]: node 0 is the symmetry
axis, where the second-order centered Laplacian u_rr + (n-1)/r u_r gets the
removable-singularity treatment n u_rr, and the last node is a homogeneous
Dirichlet boundary on a domain sized past the forward cone.  The semilinear
term adds the real scalar lambda a^{-n(p-1)/2} |u|^p, so real data stays
real but the flow is not complex-analytic.

The state is a C-contiguous (4, J) array whose rows are Re u, Im u,
Re u_t and Im u_t.  When both imaginary rows of the initial state are all
+0.0, as for the bump data every kgblow command starts from, ``evolve``
takes the real path: the kernel skips the imaginary stencil (see
``radial_accel``), the stepper skips the imaginary rows, and each record
hands the observables real views of the state.  The imaginary rows then
stay exactly +0.0, as they would on the full path, so the step sequence
and every output byte are the same; only the cost changes.

Light-cone window.  The stencil couples only neighbouring nodes, so the
field spreads by at most one node per RHS evaluation, and compactly
supported data leaves the nodes ahead of it at exactly +0.0.  ``evolve``
keeps a window ``w``: only columns ``[:w]`` can be nonzero.  The kernel
runs on that prefix and the RHS writes +0.0 to the tail; the stepper's
``active`` index is columns ``[:w]`` of rows 0 and 2 on the real path and
of all four rows otherwise (see ``integrate`` for the stepper's side).

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
all J nodes once per record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ._kernels import radial_accel
from .certificate import TheoremInputs, rpow, unit_ball_volume
from .cone import comoving_radius
from .cosmology import curved_mass_sq, mass_sq_function, scale_eval, scale_function, t_cap
from .errors import ConfigurationError, DomainError, ExcludedRegionError
from .integrate import RkResult, dopri_integrate

__all__ = [
    "PdeControls",
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


@dataclass(frozen=True)
class PdeControls:
    grid_h: float = 1e-2  # radial spacing h
    rel_tol: float = 1e-8  # Dormand-Prince relative tolerance
    r_max_factor: float = 1.25  # domain radius over the cone radius at t_end
    output_interval: Optional[float] = None  # recording step; None: 1/200 of the run
    linear: bool = False  # drop the semilinear term (propagation tests)


@dataclass
class PdeField:
    r: np.ndarray  # j h, j = 0..J-1; node 0 is the axis
    u: np.ndarray  # complex128; float64 views of the state on the real path
    ut: np.ndarray  # complex128; float64 views of the state on the real path
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
    return field.n * unit_ball_volume(field.n) * w * np.abs(field.r) ** (field.n - 1)


def observable_w(field: PdeField) -> float:
    """W = Re integral of u over space (trapezoid against the volume element)."""
    return float(np.sum(_volume_weights(field) * field.u.real))


def support_radius(field: PdeField, floor: Optional[float] = None) -> float:
    """Largest r whose node carries |u| or |ut| above the floor."""
    mag = np.maximum(np.abs(field.u), np.abs(field.ut))
    top = float(mag.max()) if mag.size else 0.0
    if top == 0.0:
        return 0.0
    if floor is None:
        floor = 1e-10 * top
    hit = mag > floor
    if not np.any(hit):
        return 0.0
    return float(np.max(field.r[hit]))


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
    # NumPy divides a complex array by a float as x * (1/h) (Smith's
    # algorithm); multiplying keeps real fields on the same bits
    du = np.diff(field.u) * (1.0 / field.h)
    r_face = 0.5 * (field.r[:-1] + field.r[1:])
    face_w = field.n * unit_ball_volume(field.n) * field.h * np.abs(r_face) ** (field.n - 1)
    grad = float(np.sum(face_w * np.abs(du) ** 2)) / a**2
    return kin + grad + pot


def outside_cone_mass(field: PdeField, cone_r: float, pad: float) -> float:
    """Relative L1 mass of |u| strictly beyond cone_r + pad."""
    w = _volume_weights(field)
    total = float(np.sum(w * np.abs(field.u)))
    if total == 0.0:
        return 0.0
    outside = field.r > cone_r + pad
    return float(np.sum(w[outside] * np.abs(field.u[outside]))) / total


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

# Largest grid make_field builds.  The stepper holds about 17 arrays of the
# 4-block state (stages, stage sums, RHS results), about 550 bytes a node:
# some 0.6 GB at this size.
MAX_GRID_NODES = 1 << 20


def make_field(
    inputs: TheoremInputs,
    t_end: float,
    controls: PdeControls = PdeControls(),
    data: Optional[InitialData] = None,
) -> PdeField:
    """Grid sized past the forward cone at t_end, filled with bump data."""
    params = inputs.params
    h = controls.grid_h
    r_cone = comoving_radius(inputs.geom, t_cap(t_end, params.T0))
    r_max = controls.r_max_factor * r_cone
    if data is None:
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
    u = data.u0(r).astype(complex)
    ut = data.u1(r).astype(complex)
    return PdeField(r, u, ut, 0.0, h, params.n)


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
    controls: PdeControls = PdeControls(),
) -> PdeRun:
    """Advance the field to t_end (or blow-up), recording observables.

    Real initial data (both imaginary blocks all +0.0) takes the real path
    of the kernel and of ``record``; see the module docstring.
    """
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
    lam = 0.0 if controls.linear else inputs.lam
    nl_expo = -n * (inputs.p - 1.0) / 2.0
    scale_at = scale_function(params)
    mass_sq = mass_sq_function(params)

    y0 = np.stack([field.u.real, field.u.imag, field.ut.real, field.ut.imag])
    # real path iff Im u and Im u_t are all +0.0, the one float whose bits
    # are all zero (-0.0 would let the full path make -0.0 entries)
    real = not (y0[1].view(np.uint64).any() or y0[3].view(np.uint64).any())
    rows = slice(0, None, 2) if real else slice(None)

    # the light-cone window: columns [:w] can be nonzero (module docstring)
    nonzero = np.flatnonzero(y0.any(axis=0))
    last = int(nonzero[-1]) if nonzero.size else -1
    state = {"next_out": 0.0, "w": min(J, last + 9)}

    def grow(y: np.ndarray) -> None:
        w = state["w"]
        if w < J:
            edge = np.flatnonzero(y[:, w - 8 : w].any(axis=0))
            if edge.size:  # node w - 8 + e needs a window of w + e + 1
                state["w"] = min(J, w + int(edge[-1]) + 1)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        w = state["w"]
        a = scale_at(t)
        a_lap = c2 / (a * a * h * h)
        a_mass = c2 * mass_sq(t)
        a_nl = c2 * lam * rpow(a, nl_expo) if lam != 0.0 else 0.0
        res = np.empty_like(y)
        res[:, w:] = 0.0
        res[:2, :w] = y[2:, :w]
        radial_accel(
            y[0, :w], y[1, :w], res[2, :w], res[3, :w],
            cp[:w], cm[:w], a_lap, a_mass, a_nl, p, n, real=real,
        )
        return res

    scale0 = max(1.0, float(np.max(np.abs(y0))))
    regime_gate = 1e3 * scale0

    times: List[float] = []
    Ws: List[float] = []
    supports: List[float] = []
    cones: List[float] = []
    energies: List[float] = []
    outsides: List[float] = []

    geom = inputs.geom

    def record(t: float, y: np.ndarray) -> None:
        if real:
            snap = PdeField(field.r, y[0], y[2], t, h, n)
        else:
            snap = PdeField(field.r, y[0] + 1j * y[1], y[2] + 1j * y[3], t, h, n)
        cone_r = comoving_radius(geom, t)
        times.append(t)
        Ws.append(observable_w(snap))
        supports.append(support_radius(snap))
        cones.append(cone_r)
        energies.append(discrete_energy(snap, inputs))
        outsides.append(outside_cone_mass(snap, cone_r, 2.0 * h))

    out_dt = controls.output_interval
    if out_dt is None:
        out_dt = t_stop / 200.0 if t_stop > 0 else 1.0

    def on_step(t: float, y: np.ndarray, h_used: float) -> None:
        grow(y)
        mag = float(np.max(np.abs(y[:2])))
        # switch to per-step (geometric near a pole) output in the blow-up regime
        if t >= state["next_out"] or mag > regime_gate:
            record(t, y)
            state["next_out"] = t + out_dt

    record(0.0, y0)
    state["next_out"] = out_dt

    # blow-up: some |Re u| or |Im u| above 1e8 scale0 with the step below
    # the default blow_step_fraction (1e-14) of max(1, t)
    res: RkResult = dopri_integrate(
        rhs,
        0.0,
        y0,
        t_stop,
        rel_tol=controls.rel_tol,
        abs_tol=1e-10 * scale0,
        magnitude=lambda y: float(np.max(np.abs(y[:2]))),
        blow_magnitude=1e8 * scale0,
        max_steps=5_000_000,
        on_step=on_step,
        active=lambda y: (rows, slice(0, state["w"])),
    )
    if not times or res.t - times[-1] > 1e-12 * max(1.0, res.t):
        record(res.t, res.y)

    final = PdeField(field.r, res.y[0] + 1j * res.y[1], res.y[2] + 1j * res.y[3], res.t, h, n)
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
    controls: PdeControls = PdeControls(),
    data: Optional[InitialData] = None,
) -> PdeRun:
    field = make_field(inputs, t_end, controls, data)
    return evolve(field, inputs, t_end, controls)


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
