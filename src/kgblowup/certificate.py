"""Blow-up certificate: hypothesis checks, constants, and lifespan bound.

Given background parameters, a support radius, and data functionals
(w0, w1), this module evaluates every hypothesis needed to guarantee that
the spatial integral of the solution diverges in finite time:

  * admissibility of the shift N (N >= 0 and N^2 + inf M^2 >= 0),
  * monotonicity of q,
  * A = inf e^{cN(1-eps)t} / q~^{n/2}  > 0,
  * B = sup q~^{n/2} (N^2+M^2)^{1/(p-1)} e^{-cNt}  < infinity,
  * the data thresholds on w0 and w1,
  * the lifespan bound T* <= T0.

Positivity of A and finiteness of B are decided analytically first: each
log-objective is compared, as t -> T0, against the leading order of log q~
from ``cone.q_order`` and the limit of N^2 + M^2 from
``classify_mass_behavior``, so the numeric optimizer never chases a
divergent objective.  The optimizer works on log-objectives over a
compactified grid plus golden-section refinement.

The grid is evaluated as arrays and only ranks the nodes; the value at the
best node and the golden-section refinement around it are evaluated on
floats, by the geometry's forms.  Everything an extremum reads of the
background alone (params and r0) is a ``Background``: the monotonicity
verdict, q_order, the mass classification and the grid with log q~ and
M^2 on it.  Each part is built at its first use and kept only if it was
built without raising.

A and B read neither the data (w0, w1) nor theta and lambda, and of the
rest only the w1 threshold, T*, C^2 and the verdicts on w0, w1 and T* read
the data, so the ``Background`` also keeps each distinct A, B and ``Stem``
(what the data do not change) of the certificates made on it.  A caller
that certifies many related inputs (a sweep) passes one ``Background`` per
background to ``certify``, so each is computed once at any axis order; a
background is its ``background_key``, which leaves sigma out where H = 0.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cone import (
    ConeGeometry,
    Monotonicity,
    QOrder,
    _a0_H,
    classify_q,
    log_q_tilde_eval,
    log_q_tilde_function,
    q_order,
)
from .cosmology import (
    CosmologyParams,
    MassBehavior,
    MassTag,
    classify_mass_behavior,
)
from .errors import DomainError, PreconditionError

__all__ = [
    "TheoremInputs",
    "BlowupCertificate",
    "ExtremumResult",
    "CorollaryCaseResult",
    "unit_ball_volume",
    "cone_ball_factor",
    "rpow",
    "check_N",
    "compute_A",
    "compute_B",
    "corollary_case_check",
    "certify",
    "Background",
    "background_key",
    "VERDICT_NAMES",
]

GRID_NODES = 4096
NEAR_ZERO_TIME = 1e-12

VERDICT_NAMES = (
    "support_radius_positive",
    "admissible_N",
    "q_monotone",
    "A_positive",
    "B_finite",
    "w0_above_threshold",
    "w1_above_threshold",
    "lifespan_within_horizon",
)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def cone_ball_factor(params: CosmologyParams) -> float:
    """Q = omega_n^{2/n} * a0, the geometric factor in b and the thresholds."""
    return unit_ball_volume(params.n) ** (2.0 / params.n) * params.a0


def rpow(x: float, y: float) -> float:
    """x**y for x >= 0 and arbitrary real y, as exp(y log x); 0 maps to 0."""
    if x < 0.0:
        raise ValueError(f"rpow domain: x={x} < 0")
    if x == 0.0:
        return 0.0
    return math.exp(y * math.log(x))


@dataclass(frozen=True)
class TheoremInputs:
    """Everything the blow-up hypotheses quantify over."""

    geom: ConeGeometry
    N: float
    epsilon: float
    theta: float
    lam: float
    p: float
    w0: float
    w1: float

    def __post_init__(self):
        # "<key>: <rule>", the scenario key the rule is about; NaN fails every rule
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon: must lie in (0, 1)")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta: must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lambda: must be positive")
        if not 1.0 < self.p < math.inf:
            raise ValueError("p: must lie in (1, infinity)")
        if not self.N >= 0.0:
            raise ValueError("N: must be nonnegative")

    @property
    def params(self) -> CosmologyParams:
        return self.geom.params


@dataclass(frozen=True)
class ExtremumResult:
    """Outcome of one inf/sup evaluation.

    ``value`` is 0.0 (failed A) or inf (failed B) when the analytic gate
    rejects; ``arg_t`` is the grid/golden location of the extremum.
    """

    value: float
    ok: bool
    arg_t: Optional[float]
    reason: str


@dataclass(frozen=True)
class CorollaryCaseResult:
    case: Optional[str]
    excluded: bool
    reason: str
    clauses: Dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class BlowupCertificate:
    A: Optional[float]
    B: Optional[float]
    Q: float
    omega_n: float
    D: Optional[float]
    C_squared: Optional[float]
    alpha: float
    w0_threshold: Optional[float]
    w1_threshold: Optional[float]
    T_star: Optional[float]
    T0: float
    verdicts: Dict[str, bool]
    reasons: List[str]
    corollary_case: Optional[str]
    excluded_region: bool
    valid: bool
    inconclusive: bool

    @classmethod
    def _assemble(cls, **fields) -> "BlowupCertificate":
        """The certificate of ``fields``, all given, in one ``__dict__``
        update instead of one ``object.__setattr__`` per field."""
        cert = object.__new__(cls)
        cert.__dict__.update(fields)
        return cert


# ---------------------------------------------------------------------------
# hypothesis (Cond-NM): admissibility of N
# ---------------------------------------------------------------------------


# the classification rows whose infimum of M^2 is M^2(0) = m^2 + sigma (nH/2c)^2
_INF_AT_START = (MassTag.INCREASING_BOUNDED, MassTag.DE_SITTER_CONSTANT, MassTag.DIVERGES_PLUS)


def _exact_start_sum(inputs: TheoremInputs) -> Fraction:
    """N^2 + M^2(0) = N^2 + m^2 + sigma (nH/2c)^2, exact in the float inputs."""
    params = inputs.params
    N, H, c = Fraction(inputs.N), Fraction(params.H), Fraction(params.c)
    shift = Fraction(params.sigma) * (params.n * H / (2 * c)) ** 2
    return N * N + Fraction(params.m_squared) + shift


def _start_sum_nonnegative(total: float, inputs: TheoremInputs) -> bool:
    """total >= 0, for total = N^2 + M^2(0) summed in floats.

    A nonzero sum is a plain compare.  A zero sum can hide a negative
    value: sigma (nH/2c)^2 underflows to -0.0 at tiny H.  Its sign then
    comes from the exact rational value of the float inputs.
    """
    if total != 0.0:
        return total > 0.0
    return _exact_start_sum(inputs) >= 0


def check_N(inputs: TheoremInputs, behavior: Optional[MassBehavior] = None) -> Tuple[bool, str]:
    """N >= 0 and N^2 + inf M^2 >= 0, with the infimum taken from the
    exact classification bounds (``behavior``, classified here if not
    given)."""
    if behavior is None:
        behavior = classify_mass_behavior(inputs.params)
    if behavior.tag is MassTag.DIVERGES_MINUS:
        return False, "excluded region: curved mass unbounded below"
    total = inputs.N**2 + behavior.inf_m2
    if total < 0.0:
        return False, f"N^2 + inf M^2 = {total} < 0"
    if behavior.tag in _INF_AT_START and not _start_sum_nonnegative(total, inputs):
        return False, "N^2 + inf M^2 < 0 exactly, though it rounds to 0.0"
    return True, "admissible"


# ---------------------------------------------------------------------------
# A and B: analytic gate + log-space optimization
# ---------------------------------------------------------------------------


def _time_grid(t_last: float, nodes: int) -> np.ndarray:
    if math.isinf(t_last):
        s = np.linspace(0.0, 1.0, nodes, endpoint=False)
        t = s / (1.0 - s)
    else:
        t = np.linspace(0.0, t_last, nodes)
    t[0] = NEAR_ZERO_TIME
    return t


@cache
def _infinite_grid(nodes: int) -> np.ndarray:
    """``_time_grid(inf, nodes)``, a constant of the node count, built once."""
    return _time_grid(math.inf, nodes)


def _golden_minimize(f: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """Golden-section search; returns (t_min, f_min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    tol = 1e-10 * max(1.0, abs(hi))
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


# the background_key's n, c, a0, H, m^2, r0, sigma; the N and epsilon (A) or
# p (B) of an extremum; the N, epsilon, p, theta, lambda of a Stem
_BACKGROUND_KEY, _EXTREMUM_BITS, _STEM_BITS = (struct.Struct(f"<{k}d") for k in (7, 2, 5))


def background_key(geom: ConeGeometry) -> bytes:
    """The binary64 bits of n, c, a0, H, m^2, r0 and sigma, sigma as 0.0
    where H = +-0.0.  There sigma enters only eH, radius_rate and
    mass_shift, each +-0.0, which every branch treats alike, and
    classify_q, classify_mass_behavior, q_order and the corollary case
    decide on H = 0 first: certificate and comparison ODE are the same at
    every sigma.  +0.0 and -0.0 stay two H."""
    p = geom.params
    sigma = 0.0 if p.H == 0.0 else p.sigma
    return _BACKGROUND_KEY.pack(p.n, p.c, p.a0, p.H, p.m_squared, geom.r0, sigma)


class Background:
    """What every certificate on one background (params and r0) shares.

    Each part is computed at its first use and kept for later ones; a part
    whose computation raises is not kept, so every use raises afresh, as a
    fresh computation would.  The grid is read-only, with ``GRID_NODES``
    nodes, read when it is built: the background's own, gone with it, or
    on T0 = inf the one grid of that node count, kept for the process.

    It keeps, the same way, each compute_A result by (N, epsilon), compute_B
    result by (N, p) and ``Stem`` by (N, epsilon, p, theta, lambda), keyed
    by the binary64 bits of those inputs (-0.0 is not 0.0); none is
    evicted.
    """

    def __init__(self, geom: ConeGeometry) -> None:
        self.geom = geom
        self.a_results: Dict[bytes, ExtremumResult] = {}
        self.b_results: Dict[bytes, ExtremumResult] = {}
        self.stems: Dict[bytes, Stem] = {}

    @cached_property
    def behavior(self) -> MassBehavior:
        return classify_mass_behavior(self.geom.params)

    @cached_property
    def verdict(self) -> Monotonicity:
        return classify_q(self.geom)

    @cached_property
    def order(self) -> QOrder:
        return q_order(self.geom, self.verdict)

    @cached_property
    def grid(self) -> np.ndarray:
        t_last = self.geom.params.t_last
        grid = _infinite_grid(GRID_NODES) if math.isinf(t_last) else _time_grid(t_last, GRID_NODES)
        grid.flags.writeable = False
        return grid

    @cached_property
    def grid_log_q(self) -> np.ndarray:
        return log_q_tilde_eval(self.geom, self.grid, self.verdict)

    @cached_property
    def grid_mass_sq(self) -> np.ndarray:
        return self.geom.forms.mass_sq(self.grid)

    def A(self, inputs: TheoremInputs) -> ExtremumResult:
        """compute_A of ``inputs``, computed once per (N, epsilon)."""
        key = _EXTREMUM_BITS.pack(inputs.N, inputs.epsilon)
        if key not in self.a_results:
            self.a_results[key] = compute_A(inputs, self)
        return self.a_results[key]

    def B(self, inputs: TheoremInputs) -> ExtremumResult:
        """compute_B of ``inputs``, computed once per (N, p)."""
        key = _EXTREMUM_BITS.pack(inputs.N, inputs.p)
        if key not in self.b_results:
            self.b_results[key] = compute_B(inputs, self)
        return self.b_results[key]

    def stem(self, inputs: TheoremInputs) -> Stem:
        """The ``Stem`` of ``inputs``, made once per (N, epsilon, p, theta, lambda)."""
        key = _STEM_BITS.pack(inputs.N, inputs.epsilon, inputs.p, inputs.theta, inputs.lam)
        if key not in self.stems:
            self.stems[key] = Stem(inputs, self)
        return self.stems[key]


def _background_of(inputs: TheoremInputs, background: Optional[Background]) -> Background:
    """``background``, checked to have the key of inputs.geom (a ValueError
    if not), or a new ``Background`` of inputs.geom if None."""
    if background is None:
        return Background(inputs.geom)
    if (background.geom is not inputs.geom
            and background_key(background.geom) != background_key(inputs.geom)):
        raise ValueError("background: its key differs from that of inputs.geom")
    return background


def _optimize_log(f: Callable[[float], float], grid: np.ndarray,
                  values: np.ndarray) -> Tuple[float, float]:
    """Minimize a log-objective over the span of ``grid``; returns (t_min, f_min).

    ``values`` is the objective on ``grid``, which picks the best node;
    ``f`` takes one time and gives the value there and the refinement.
    The node is ``np.nanargmin``'s: argmin stops at the first NaN, so only
    values that hold one are scanned for NaN, which then ranks as +inf.
    """
    i = int(values.argmin())
    if math.isnan(values[i]):
        nan = np.isnan(values)
        if nan.all():
            raise DomainError(
                "the objective is NaN at every grid node: the closed forms overflow "
                "at these parameters"
            )
        i = int(np.where(nan, math.inf, values).argmin())
    best_t = float(grid[i])
    best_v = f(best_t)
    if not math.isfinite(best_v):
        return best_t, best_v
    lo = float(grid[i - 1]) if i > 0 else float(grid[i])
    hi = float(grid[i + 1]) if i < grid.size - 1 else float(grid[i])
    if hi > lo:
        t_ref, v_ref = _golden_minimize(f, lo, hi)
        if v_ref < best_v:
            best_t, best_v = t_ref, v_ref
    return best_t, best_v


def compute_A(inputs: TheoremInputs, background: Optional[Background] = None) -> ExtremumResult:
    """A = inf over (0, T0) of e^{cN(1-eps)t} / q~^{n/2}(t); ``background``
    is the ``Background`` of inputs.geom (a ValueError if its key is not),
    built here if not given."""
    params = inputs.params
    bg = _background_of(inputs, background)
    if bg.verdict is Monotonicity.NOT_MONOTONE:
        raise PreconditionError("q is not certified monotone; A is undefined")

    # log of the objective: growth t - n/2 (rho s + 2 [log_s] log s) + O(1)
    growth = params.c * inputs.N * (1.0 - inputs.epsilon)
    n_half = params.n / 2.0
    order = bg.order
    if order.clock == 0:  # t = s
        rate = growth - n_half * order.rho
        if rate < 0.0:
            return ExtremumResult(
                0.0,
                False,
                None,
                f"decay rate {rate}: exponential growth of q~ outruns e^(cN(1-eps)t)",
            )
    # e^(cN(1-eps)t) compensates an unbounded q~ unless it is constant or t
    # stays below a finite horizon; at clock 0 q~ is never bounded
    if not order.bounded and (growth == 0.0 or order.clock < 0):
        return ExtremumResult(
            0.0, False, None, "q~ diverges with no exponential compensation"
        )

    log_q = log_q_tilde_function(bg.geom, bg.verdict)

    def f_log(t):
        return growth * t - n_half * log_q(t)

    t_min, f_min = _optimize_log(f_log, bg.grid, growth * bg.grid - n_half * bg.grid_log_q)
    A = math.exp(f_min)
    if A == 0.0:
        return ExtremumResult(0.0, False, t_min, f"A underflows to 0: log A = {f_min}")
    return ExtremumResult(A, True, t_min, "positive infimum")


def compute_B(inputs: TheoremInputs, background: Optional[Background] = None) -> ExtremumResult:
    """B = sup over (0, T0) of q~^{n/2} (N^2 + M^2)^{1/(p-1)} e^{-cNt};
    ``background`` is the ``Background`` of inputs.geom (a ValueError if its
    key is not), built here if not given."""
    bg = _background_of(inputs, background)
    ok, reason = check_N(inputs, bg.behavior)
    if not ok:
        raise PreconditionError(f"B needs admissible N: {reason}")
    if bg.verdict is Monotonicity.NOT_MONOTONE:
        raise PreconditionError("q is not certified monotone; B is undefined")

    params = inputs.params
    behavior = bg.behavior
    if behavior.tag is MassTag.DIVERGES_PLUS:
        return ExtremumResult(
            math.inf,
            False,
            None,
            "curved mass diverges to +infinity at the finite horizon",
        )

    # log of the objective: n/2 (rho s + 2 [log_s] log s) + log(N^2 + M^2)/(p-1)
    # - decay t + O(1)
    decay = params.c * inputs.N
    n_half = params.n / 2.0
    order = bg.order
    if order.clock == 0:  # t = s
        rate = n_half * order.rho - decay
        if rate > 0.0:
            return ExtremumResult(
                math.inf,
                False,
                None,
                f"growth rate {rate}: q~^(n/2) outruns e^(cNt)",
            )
    if not order.bounded and (decay == 0.0 or order.clock < 0):
        # e^(-cNt) cannot cancel q~, so B is finite only if N^2 + M^2
        # vanishes in the limit, where it decays like t^-2 unless constant
        if inputs.N**2 + behavior.limit > 0.0:
            return ExtremumResult(
                math.inf, False, None, "q~ unbounded and N^2 + M^2 has a positive limit"
            )
        if behavior.tag is MassTag.CONSTANT_M2 and _exact_start_sum(inputs) == 0:
            # M^2 constant and equal to -N^2: the objective vanishes
            return ExtremumResult(0.0, True, None, "N^2 + M^2 vanishes identically")
        deg = n_half * order.degree - 2.0 / (inputs.p - 1.0)
        if deg > 0.0 or (deg == 0.0 and order.log_s):
            return ExtremumResult(
                math.inf, False, None, "polynomial degree comparison diverges"
            )

    inv_pm1 = 1.0 / (inputs.p - 1.0)
    n2 = inputs.N**2
    mass_sq, log_q = bg.geom.forms.mass_sq, log_q_tilde_function(bg.geom, bg.verdict)

    def neg_log(t):
        mass = n2 + mass_sq(t)
        if not mass > 0.0:
            return math.inf  # objective 0 there
        log_mass = math.log(mass)
        return -(n_half * log_q(t) + inv_pm1 * log_mass - decay * t)

    grid = bg.grid
    mass = n2 + bg.grid_mass_sq
    # the objective is 0, so -log is inf, wherever N^2 + M^2 <= 0
    log_mass = np.log(mass, out=np.full(grid.shape, -math.inf), where=mass > 0.0)
    values = -(n_half * bg.grid_log_q + inv_pm1 * log_mass - decay * grid)
    t_max, neg_min = _optimize_log(neg_log, grid, values)
    if math.isinf(neg_min):  # exactly 0 only if M^2 = -N^2 is constant
        constant = behavior.tag in (MassTag.CONSTANT_M2, MassTag.DE_SITTER_CONSTANT)
        if constant and _exact_start_sum(inputs) == 0:
            return ExtremumResult(0.0, True, None, "objective vanishes identically")
        return ExtremumResult(math.inf, False, None, "objective underflows to 0 but is not 0")
    return ExtremumResult(math.exp(-neg_min), True, t_max, "finite supremum")


# ---------------------------------------------------------------------------
# data thresholds and lifespan
# ---------------------------------------------------------------------------


def _w0_threshold(inputs: TheoremInputs, B: float, Q: float) -> float:
    p, theta, lam, n = inputs.p, inputs.theta, inputs.lam, inputs.params.n
    return rpow(Q, n / 2.0) * B / rpow((1.0 - theta) * lam, 1.0 / (p - 1.0))


def _w1_threshold(inputs: TheoremInputs, Q: float) -> float:
    p, theta, lam, c = inputs.p, inputs.theta, inputs.lam, inputs.params.c
    n, r0, w0 = inputs.params.n, inputs.geom.r0, inputs.w0
    second = 0.0
    if w0 > 0.0:
        second = (
            math.sqrt(2.0 * lam * c * c * theta / (p + 1.0))
            * rpow(w0, (p + 1.0) / 2.0)
            / rpow(r0 * r0 * Q, n * (p - 1.0) / 4.0)
        )
    return max(c * inputs.N * w0, second)


def _lifespan_D(inputs: TheoremInputs, A: float, Q: float) -> float:
    p, c, n = inputs.p, inputs.params.c, inputs.params.n
    return (2.0 * c * c * inputs.theta * inputs.lam * rpow(A, p - 1.0)
            / ((p + 1.0) * rpow(Q, n * (p - 1.0) / 2.0)))


def _lifespan_of(inputs: TheoremInputs, D: float) -> Tuple[float, float]:
    """(T*, C^2) from D, for w0 > 0."""
    p, eps, w0 = inputs.p, inputs.epsilon, inputs.w0
    T_star = 2.0 / (eps * (p - 1.0) * math.sqrt(D) * rpow(w0, (p - 1.0) / 2.0))
    # inf( b~ e^{cN(1-eps)(p-1)t} ) = lambda Q^{-n(p-1)/2} A^{p-1}, so
    # C^2 = D * w0^{(1-eps)(p-1)}
    return T_star, D * rpow(w0, (1.0 - eps) * (p - 1.0))


# ---------------------------------------------------------------------------
# corollary case table
# ---------------------------------------------------------------------------


def corollary_case_check(inputs: TheoremInputs) -> CorollaryCaseResult:
    """Match (H, sigma, N, r0, mass) against the eight closed-form cases.

    The case patterns partition the (H, sigma) plane outside the excluded
    region, so at most one candidate is tested; its remaining clauses are
    reported individually.
    """
    params = inputs.params
    n, c, a0, H, sigma = params.n, params.c, params.a0, params.H, params.sigma
    m2, N, eps, r0 = params.m_squared, inputs.N, inputs.epsilon, inputs.geom.r0

    if params.excluded_region:
        return CorollaryCaseResult(
            None, True, "excluded region (1+sigma)H<0, sigma<0", {}
        )
    if not N > 0.0:
        return CorollaryCaseResult(None, False, "corollary path requires N > 0", {})

    shift = params.mass_shift  # sigma (nH/2c)^2, so -(nH/2c)^2 at sigma = -1
    start_ok = _start_sum_nonnegative(N**2 + m2 + shift, inputs)  # N^2 + M^2(0) >= 0
    contracting_gate = -2.0 * c / _a0_H(a0, H) if H < 0.0 else None

    if H == 0.0:
        case, clauses = "i", {"N^2+m^2>=0": N**2 + m2 >= 0.0}
    elif H > 0.0 and sigma >= 0.0:
        case, clauses = "ii", {"N^2+m^2>=0": N**2 + m2 >= 0.0}
    elif H > 0.0 and -1.0 < sigma < 0.0:
        case = "iii"
        clauses = {"N^2+m^2+sigma(nH/2c)^2>=0": start_ok}
    elif H > 0.0 and sigma == -1.0:
        case = "iv"
        clauses = {
            "N^2+m^2-(nH/2c)^2>=0": start_ok,
            "N>nH/(2c(1-eps))": N > n * H / (2.0 * c * (1.0 - eps)),
        }
    elif H < 0.0 and sigma > 0.0:
        case = "v"
        clauses = {
            "N^2+m^2+sigma(nH/2c)^2>=0": start_ok,
            "r0>=-2c/(a0H)": r0 >= contracting_gate,
        }
    elif H < 0.0 and sigma == 0.0:
        case = "vi"
        clauses = {"N^2+m^2>=0": N**2 + m2 >= 0.0}
        if n >= 2:
            clauses["r0>=-2c/(a0H)"] = r0 >= contracting_gate
    elif H < 0.0 and sigma == -1.0:
        case = "vii"
        clauses = {
            "N^2+m^2-(nH/2c)^2>=0": start_ok,
            "r0<=2c/(a0|H|)": r0 <= 2.0 * c / _a0_H(a0, abs(H)),
            "N>n|H|/(2c(1-eps))": N > n * abs(H) / (2.0 * c * (1.0 - eps)),
        }
    else:  # H < 0 and sigma < -1
        case = "viii"
        clauses = {
            "N^2+m^2+sigma(nH/2c)^2>=0": start_ok,
            "r0<=2c/(a0|H|)": r0 <= 2.0 * c / _a0_H(a0, abs(H)),
        }

    if all(clauses.values()):
        return CorollaryCaseResult(case, False, f"case ({case})", clauses)
    failed = ", ".join(k for k, v in clauses.items() if not v)
    return CorollaryCaseResult(
        None, False, f"candidate case ({case}) fails: {failed}", clauses
    )


# ---------------------------------------------------------------------------
# full certificate
# ---------------------------------------------------------------------------


class Stem:
    """The part of a certificate w0 and w1 do not change, in ``certify``'s
    order: omega_n, Q, alpha, the verdicts to B_finite and their reasons, A,
    B, the w0 threshold.  D and the corollary case are made at their first
    read and kept only if they did not raise, so each raises where a fresh
    certificate would.  A, B and the rest of the background come from
    ``bg``, the ``Background`` of inputs.geom.
    """

    def __init__(self, inputs: TheoremInputs, bg: Background) -> None:
        params = inputs.params
        self.inputs = inputs
        self.omega_n = unit_ball_volume(params.n)
        self.Q = cone_ball_factor(params)
        self.alpha = 1.0 + inputs.epsilon * (inputs.p - 1.0) / 2.0
        self.reasons = reasons = []
        self.verdicts = verdicts = {name: False for name in VERDICT_NAMES}

        verdicts["support_radius_positive"] = True  # ConeGeometry rejects r0 <= 0

        n_ok, n_reason = check_N(inputs, bg.behavior)
        verdicts["admissible_N"] = n_ok
        if not n_ok:
            reasons.append(f"admissible_N: {n_reason}")

        monotone = bg.verdict is not Monotonicity.NOT_MONOTONE
        verdicts["q_monotone"] = monotone
        if not monotone:
            reasons.append("q_monotone: parameters fall outside the monotonicity rows")

        A = B = None
        if monotone:
            a_res = bg.A(inputs)
            A = a_res.value
            verdicts["A_positive"] = a_res.ok
            if not a_res.ok:
                reasons.append(f"A_positive: {a_res.reason}")
            if n_ok:
                b_res = bg.B(inputs)
                B = b_res.value
                verdicts["B_finite"] = b_res.ok
                if not b_res.ok:
                    reasons.append(f"B_finite: {b_res.reason}")
            else:
                reasons.append("B_finite: not computed, N is not admissible")
        else:
            reasons.append("A_positive: not computed, q is not certified monotone")
            reasons.append("B_finite: not computed, q is not certified monotone")
        self.A, self.B, self.w0_threshold = A, B, None

        if B is not None and math.isfinite(B):
            self.w0_threshold = _w0_threshold(inputs, B, self.Q)
        else:
            reasons.append("w0_above_threshold: no threshold without a finite B")
            reasons.append("w1_above_threshold: no threshold without a finite B")

    @cached_property
    def D(self) -> float:
        return _lifespan_D(self.inputs, self.A, self.Q)

    @cached_property
    def corollary(self) -> CorollaryCaseResult:
        return corollary_case_check(self.inputs)


def certify(inputs: TheoremInputs, background: Optional[Background] = None) -> BlowupCertificate:
    """Run every hypothesis check and assemble the certificate.

    ``background`` must have the key of inputs.geom (a ValueError if not),
    and is a new ``Background`` if not given.  Its ``Stem`` of ``inputs``
    holds all that w0 and w1 do not change; the rest is computed here, on
    copies of its verdicts and reasons.  The certificate is the same on
    every such background.
    """
    stem = _background_of(inputs, background).stem(inputs)
    verdicts, reasons = dict(stem.verdicts), list(stem.reasons)
    T0 = inputs.params.T0

    w0_thr, w1_thr = stem.w0_threshold, None
    if w0_thr is not None:
        w1_thr = _w1_threshold(inputs, stem.Q)
        verdicts["w0_above_threshold"] = inputs.w0 > w0_thr
        if not verdicts["w0_above_threshold"]:
            reasons.append(f"w0_above_threshold: w0={inputs.w0} <= threshold {w0_thr}")
        verdicts["w1_above_threshold"] = inputs.w1 >= w1_thr
        if not verdicts["w1_above_threshold"]:
            reasons.append(f"w1_above_threshold: w1={inputs.w1} < threshold {w1_thr}")

    D = C_squared = T_star = None
    if stem.A is not None and stem.A > 0.0 and inputs.w0 > 0.0:
        D = stem.D
        T_star, C_squared = _lifespan_of(inputs, D)
        verdicts["lifespan_within_horizon"] = T_star <= T0
        if not verdicts["lifespan_within_horizon"]:
            reasons.append(
                f"lifespan_within_horizon: T*={T_star} exceeds T0={T0} (inconclusive)"
            )
    else:
        reasons.append("lifespan_within_horizon: not computed, it needs A > 0 and w0 > 0")

    valid = all(verdicts.values())
    inconclusive = not verdicts["lifespan_within_horizon"] and all(
        v for k, v in verdicts.items() if k != "lifespan_within_horizon")

    return BlowupCertificate._assemble(
        A=stem.A, B=stem.B, Q=stem.Q, omega_n=stem.omega_n, D=D, C_squared=C_squared,
        alpha=stem.alpha, w0_threshold=w0_thr, w1_threshold=w1_thr, T_star=T_star, T0=T0,
        verdicts=verdicts, reasons=reasons, corollary_case=stem.corollary.case,
        excluded_region=inputs.params.excluded_region, valid=valid, inconclusive=inconclusive,
    )
