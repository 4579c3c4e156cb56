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

Each objective takes one time or an array of times.  The grid is evaluated
as one array and only ranks the nodes; the value at the best node and the
golden-section refinement around it are evaluated on floats.

A and B read neither the data (w0, w1) nor theta and lambda, so a caller
that certifies many related inputs (a sweep) passes one ``ExtremaMemo`` to
``certify`` and each distinct extremum is computed once.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cone import ConeGeometry, Monotonicity, _a0_H, classify_q, log_q_tilde_eval, q_order
from .cosmology import (
    HORIZON_SHAVE,
    CosmologyParams,
    MassTag,
    classify_mass_behavior,
    mass_sq_function,
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
    "data_thresholds",
    "lifespan",
    "corollary_case_check",
    "certify",
    "ExtremaMemo",
    "MEMO_CAP",
    "VERDICT_NAMES",
]

GRID_NODES = 4096
NEAR_ZERO_TIME = 1e-12
MEMO_CAP = 1024  # results an ExtremaMemo holds; about 0.4 MB when full

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


def check_N(inputs: TheoremInputs) -> Tuple[bool, str]:
    """N >= 0 and N^2 + inf M^2 >= 0, with the infimum taken from the
    exact classification bounds."""
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


def _time_grid(t_end: float, nodes: int) -> np.ndarray:
    if math.isinf(t_end):
        s = np.linspace(0.0, 1.0, nodes, endpoint=False)
        t = s / (1.0 - s)
    else:
        t = np.linspace(0.0, t_end * (1.0 - HORIZON_SHAVE), nodes)
    t[0] = NEAR_ZERO_TIME
    return t


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


def _optimize_log(f: Callable, t_end: float) -> Tuple[float, float]:
    """Minimize a log-objective on (0, t_end); returns (t_min, f_min).

    ``f`` takes an array of times, which picks the best grid node, or one
    time, which gives the value there and the refinement.  The grid has
    ``GRID_NODES`` nodes, read at each call.
    """
    grid = _time_grid(t_end, GRID_NODES)
    values = f(grid)
    if np.isnan(values).all():
        raise DomainError(
            "the objective is NaN at every grid node: the closed forms overflow "
            "at these parameters"
        )
    i = int(np.nanargmin(values))
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


def compute_A(inputs: TheoremInputs) -> ExtremumResult:
    """A = inf over (0, T0) of e^{cN(1-eps)t} / q~^{n/2}(t)."""
    params = inputs.params
    verdict = classify_q(inputs.geom)
    if verdict is Monotonicity.NOT_MONOTONE:
        raise PreconditionError("q is not certified monotone; A is undefined")

    # log of the objective: growth t - n/2 (rho s + 2 [log_s] log s) + O(1)
    growth = params.c * inputs.N * (1.0 - inputs.epsilon)
    n_half = params.n / 2.0
    order = q_order(inputs.geom, verdict)
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

    geom = inputs.geom

    def f_log(t):
        return growth * t - n_half * log_q_tilde_eval(geom, t, verdict)

    t_min, f_min = _optimize_log(f_log, params.T0)
    A = math.exp(f_min)
    if A == 0.0:
        return ExtremumResult(0.0, False, t_min, f"A underflows to 0: log A = {f_min}")
    return ExtremumResult(A, True, t_min, "positive infimum")


def compute_B(inputs: TheoremInputs) -> ExtremumResult:
    """B = sup over (0, T0) of q~^{n/2} (N^2 + M^2)^{1/(p-1)} e^{-cNt}."""
    params = inputs.params
    ok, reason = check_N(inputs)
    if not ok:
        raise PreconditionError(f"B needs admissible N: {reason}")
    verdict = classify_q(inputs.geom)
    if verdict is Monotonicity.NOT_MONOTONE:
        raise PreconditionError("q is not certified monotone; B is undefined")

    behavior = classify_mass_behavior(params)
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
    order = q_order(inputs.geom, verdict)
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

    geom = inputs.geom
    inv_pm1 = 1.0 / (inputs.p - 1.0)
    n2 = inputs.N**2
    mass_sq = mass_sq_function(params)

    def neg_log(t):
        mass = n2 + mass_sq(t)
        if isinstance(t, np.ndarray):
            # the objective is 0, so -log is inf, wherever N^2 + M^2 <= 0
            log_mass = np.log(mass, out=np.full(t.shape, -math.inf), where=mass > 0.0)
        elif mass > 0.0:
            log_mass = math.log(mass)
        else:
            return math.inf  # objective 0 there
        return -(n_half * log_q_tilde_eval(geom, t, verdict) + inv_pm1 * log_mass - decay * t)

    t_max, neg_min = _optimize_log(neg_log, params.T0)
    if math.isinf(neg_min):  # exactly 0 only if M^2 = -N^2 is constant
        constant = behavior.tag in (MassTag.CONSTANT_M2, MassTag.DE_SITTER_CONSTANT)
        if constant and _exact_start_sum(inputs) == 0:
            return ExtremumResult(0.0, True, None, "objective vanishes identically")
        return ExtremumResult(math.inf, False, None, "objective underflows to 0 but is not 0")
    return ExtremumResult(math.exp(-neg_min), True, t_max, "finite supremum")


# ---------------------------------------------------------------------------
# data thresholds and lifespan
# ---------------------------------------------------------------------------


def data_thresholds(inputs: TheoremInputs, A: float, B: float, Q: float) -> Tuple[float, float]:
    """(w0 threshold, w1 threshold) from the certified constants."""
    p, theta, lam, c = inputs.p, inputs.theta, inputs.lam, inputs.params.c
    n = inputs.params.n
    w0_thr = rpow(Q, n / 2.0) * B / rpow((1.0 - theta) * lam, 1.0 / (p - 1.0))
    r0 = inputs.geom.r0
    w0 = inputs.w0
    second = 0.0
    if w0 > 0.0:
        second = (
            math.sqrt(2.0 * lam * c * c * theta / (p + 1.0))
            * rpow(w0, (p + 1.0) / 2.0)
            / rpow(r0 * r0 * Q, n * (p - 1.0) / 4.0)
        )
    w1_thr = max(c * inputs.N * w0, second)
    return w0_thr, w1_thr


@dataclass(frozen=True)
class LifespanResult:
    D: float
    T_star: float
    C_squared: float
    within_horizon: bool


def lifespan(inputs: TheoremInputs, A: float, Q: float) -> LifespanResult:
    """D, T* and C^2 from certified A."""
    if not A > 0.0:
        raise PreconditionError("lifespan needs A > 0")
    if not inputs.w0 > 0.0:
        raise PreconditionError("lifespan needs w0 > 0")
    p, theta, lam, eps = inputs.p, inputs.theta, inputs.lam, inputs.epsilon
    c = inputs.params.c
    n = inputs.params.n
    D = (
        2.0
        * c
        * c
        * theta
        * lam
        * rpow(A, p - 1.0)
        / ((p + 1.0) * rpow(Q, n * (p - 1.0) / 2.0))
    )
    T_star = 2.0 / (eps * (p - 1.0) * math.sqrt(D) * rpow(inputs.w0, (p - 1.0) / 2.0))
    # inf( b~ e^{cN(1-eps)(p-1)t} ) = lambda Q^{-n(p-1)/2} A^{p-1}, so
    # C^2 = D * w0^{(1-eps)(p-1)}
    C_squared = D * rpow(inputs.w0, (1.0 - eps) * (p - 1.0))
    return LifespanResult(D, T_star, C_squared, T_star <= inputs.params.T0)


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
# shared extrema
# ---------------------------------------------------------------------------

# n, c, a0, H, sigma, m^2, r0, N, epsilon (A) or p (B)
_MEMO_KEY = struct.Struct("<9d")


class ExtremaMemo:
    """compute_A and compute_B results kept for later ``certify`` calls.

    compute_A reads only (geom, N, epsilon) and compute_B only
    (geom, N, p), so inputs that differ in w0, w1, theta or lambda
    share both.  Keys are the binary64 bits of those inputs, which keeps
    -0.0 apart from 0.0, so a hit returns what a fresh call would.  Raised
    errors are not kept.  At most ``MEMO_CAP`` results are held, the oldest
    dropped first, so memory stays bounded however many keys a caller has.
    """

    def __init__(self) -> None:
        self._results: Dict[Tuple[str, bytes], ExtremumResult] = {}

    def __len__(self) -> int:
        return len(self._results)

    def get(self, which: str, inputs: TheoremInputs) -> ExtremumResult:
        """compute_A (``which == "A"``) or compute_B (``"B"``) of ``inputs``."""
        p = inputs.params
        key = (which, _MEMO_KEY.pack(
            p.n, p.c, p.a0, p.H, p.sigma, p.m_squared, inputs.geom.r0, inputs.N,
            inputs.epsilon if which == "A" else inputs.p,
        ))
        result = self._results.get(key)
        if result is None:
            result = (compute_A if which == "A" else compute_B)(inputs)
            if len(self._results) >= MEMO_CAP:
                del self._results[next(iter(self._results))]
            self._results[key] = result
        return result


# ---------------------------------------------------------------------------
# full certificate
# ---------------------------------------------------------------------------


def certify(inputs: TheoremInputs, memo: Optional[ExtremaMemo] = None) -> BlowupCertificate:
    """Run every hypothesis check and assemble the certificate.

    With a ``memo``, A and B come from it (computed there on a miss); the
    certificate is the same either way.
    """
    params = inputs.params
    omega_n = unit_ball_volume(params.n)
    Q = cone_ball_factor(params)
    T0 = params.T0
    alpha = 1.0 + inputs.epsilon * (inputs.p - 1.0) / 2.0
    reasons: List[str] = []
    verdicts: Dict[str, bool] = {name: False for name in VERDICT_NAMES}

    verdicts["support_radius_positive"] = True  # ConeGeometry rejects r0 <= 0

    n_ok, n_reason = check_N(inputs)
    verdicts["admissible_N"] = n_ok
    if not n_ok:
        reasons.append(f"admissible_N: {n_reason}")

    monotone = classify_q(inputs.geom) is not Monotonicity.NOT_MONOTONE
    verdicts["q_monotone"] = monotone
    if not monotone:
        reasons.append("q_monotone: parameters fall outside the monotonicity rows")

    A = B = None
    if monotone:
        a_res = compute_A(inputs) if memo is None else memo.get("A", inputs)
        A = a_res.value
        verdicts["A_positive"] = a_res.ok
        if not a_res.ok:
            reasons.append(f"A_positive: {a_res.reason}")
        if n_ok:
            b_res = compute_B(inputs) if memo is None else memo.get("B", inputs)
            B = b_res.value
            verdicts["B_finite"] = b_res.ok
            if not b_res.ok:
                reasons.append(f"B_finite: {b_res.reason}")
        else:
            reasons.append("B_finite: not computed, N is not admissible")
    else:
        reasons.append("A_positive: not computed, q is not certified monotone")
        reasons.append("B_finite: not computed, q is not certified monotone")

    w0_thr = w1_thr = None
    if B is not None and math.isfinite(B):
        w0_thr, w1_thr = data_thresholds(inputs, A, B, Q)
        verdicts["w0_above_threshold"] = inputs.w0 > w0_thr
        if not verdicts["w0_above_threshold"]:
            reasons.append(
                f"w0_above_threshold: w0={inputs.w0} <= threshold {w0_thr}"
            )
        verdicts["w1_above_threshold"] = inputs.w1 >= w1_thr
        if not verdicts["w1_above_threshold"]:
            reasons.append(
                f"w1_above_threshold: w1={inputs.w1} < threshold {w1_thr}"
            )
    else:
        reasons.append("w0_above_threshold: no threshold without a finite B")
        reasons.append("w1_above_threshold: no threshold without a finite B")

    D = C_squared = T_star = None
    if A is not None and A > 0.0 and inputs.w0 > 0.0:
        life = lifespan(inputs, A, Q)
        D, T_star, C_squared = life.D, life.T_star, life.C_squared
        verdicts["lifespan_within_horizon"] = life.within_horizon
        if not life.within_horizon:
            reasons.append(
                f"lifespan_within_horizon: T*={T_star} exceeds T0={T0} (inconclusive)"
            )
    else:
        reasons.append("lifespan_within_horizon: not computed, it needs A > 0 and w0 > 0")

    corollary = corollary_case_check(inputs)
    others = [v for k, v in verdicts.items() if k != "lifespan_within_horizon"]
    valid = all(verdicts.values())
    inconclusive = all(others) and not verdicts["lifespan_within_horizon"]

    return BlowupCertificate(
        A=A,
        B=B,
        Q=Q,
        omega_n=omega_n,
        D=D,
        C_squared=C_squared,
        alpha=alpha,
        w0_threshold=w0_thr,
        w1_threshold=w1_thr,
        T_star=T_star,
        T0=T0,
        verdicts=verdicts,
        reasons=reasons,
        corollary_case=corollary.case,
        excluded_region=params.excluded_region,
        valid=valid,
        inconclusive=inconclusive,
    )
