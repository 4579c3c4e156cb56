"""Scenario files: strict JSON schema for runs and parameter sweeps.

A scenario carries four blocks: ``cosmology`` (n, c, a0, H, sigma,
m_squared), ``cone`` (r0), ``theorem`` (N, epsilon, theta, lambda, p, w0,
w1) and an optional ``run`` block with solver settings.  Unknown keys are
rejected so machine-generated sweeps fail loudly instead of silently
ignoring a typo.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from .certificate import TheoremInputs
from .cone import ConeGeometry
from .cosmology import CosmologyParams

__all__ = [
    "ScenarioError",
    "RunSettings",
    "Scenario",
    "SweepSpec",
    "scenario_from_dict",
    "geometry_from_dict",
    "load_scenario",
    "load_sweep_spec",
    "set_by_path",
]


class ScenarioError(ValueError):
    """Scenario file violates the schema or a parameter constraint."""


@dataclass(frozen=True)
class RunSettings:
    """The run block; ``ode.integrate`` and ``pde.run_pde`` read it as it is."""

    t_end: Optional[float] = None  # None: 1.05 T* when certified, else 1
    rel_tol: float = 1e-10  # comparison ODE relative tolerance
    pde_rel_tol: float = 1e-8  # PDE Dormand-Prince relative tolerance
    grid_h: float = 1e-2  # PDE radial spacing h
    r_max_factor: float = 1.25  # PDE domain radius over the cone radius at t_end
    output_interval: Optional[float] = None  # PDE recording step; None: 1/200 of the run
    out: Optional[str] = None  # output directory when --out is not given
    # constant M^2 and b in place of the background's, for benchmark ODEs
    ode_mass_sq_const: Optional[float] = None
    ode_forcing_const: Optional[float] = None


_RUN_DEFAULTS: Dict[str, Any] = asdict(RunSettings())


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: the tuple the theorem quantifies over, and the run block."""

    inputs: TheoremInputs
    run: RunSettings


def _require_mapping(obj: Any, where: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected a JSON object")
    return obj


def _reject_unknown(block: Dict[str, Any], allowed, where: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")


def _finite(val: Any, where: str) -> float:
    """A JSON number that is not a boolean and is finite, as a float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {val!r}")
    try:
        out = float(val)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ScenarioError(f"{where}: must be finite")
    return out


def _number(block: Dict[str, Any], key: str, where: str, optional: bool = False):
    if key not in block:
        if optional:
            return None
        raise ScenarioError(f"{where}.{key}: missing required key")
    val = block[key]
    if val is None and optional:
        return None
    return _finite(val, f"{where}.{key}")


def _positive_int(block: Dict[str, Any], key: str, where: str, default: int) -> int:
    if key not in block:
        return default
    val = _finite(block[key], f"{where}.{key}")
    if val != int(val) or val < 1:
        raise ScenarioError(f"{where}.{key}: must be a positive integer")
    return int(val)


def scenario_from_dict(
    data: Dict[str, Any], where: str = "scenario", geom: Optional[ConeGeometry] = None
) -> Scenario:
    """The scenario of ``data``, each block checked in turn; ``geom``, when
    given, is what its cosmology and cone blocks give, and they are not
    read again."""
    data = _require_mapping(data, where)
    _reject_unknown(data, {"cosmology", "cone", "theorem", "run"}, where)
    for block in ("cosmology", "cone", "theorem"):
        if block not in data:
            raise ScenarioError(f"{where}.{block}: missing required block")
    if geom is None:
        geom = geometry_from_dict(data, where)

    thm = _require_mapping(data["theorem"], f"{where}.theorem")
    _reject_unknown(
        thm, {"N", "epsilon", "theta", "lambda", "p", "w0", "w1"}, f"{where}.theorem"
    )
    pieces = {
        "N": _number(thm, "N", f"{where}.theorem"),
        "epsilon": _number(thm, "epsilon", f"{where}.theorem"),
        "theta": _number(thm, "theta", f"{where}.theorem"),
        "lam": _number(thm, "lambda", f"{where}.theorem"),
        "p": _number(thm, "p", f"{where}.theorem"),
        "w0": _number(thm, "w0", f"{where}.theorem"),
        "w1": _number(thm, "w1", f"{where}.theorem"),
    }
    try:
        inputs = TheoremInputs(geom=geom, **pieces)
    except ValueError as exc:
        raise ScenarioError(f"{where}.theorem.{exc}") from exc

    run_block = data.get("run", {})
    run_block = _require_mapping(run_block, f"{where}.run")
    _reject_unknown(run_block, set(_RUN_DEFAULTS), f"{where}.run")
    merged = dict(_RUN_DEFAULTS)
    for key in run_block:
        if key == "out":
            if run_block[key] is not None and not isinstance(run_block[key], str):
                raise ScenarioError(f"{where}.run.out: expected a string path")
            merged[key] = run_block[key]
        else:
            merged[key] = _number(run_block, key, f"{where}.run", optional=True)
    for key in ("rel_tol", "pde_rel_tol", "grid_h", "r_max_factor"):
        if merged[key] is None or not merged[key] > 0:
            raise ScenarioError(f"{where}.run.{key}: must be positive")
    for key in ("t_end", "output_interval"):
        if merged[key] is not None and not merged[key] > 0:
            raise ScenarioError(f"{where}.run.{key}: must be positive")
    run = RunSettings(**merged)

    return Scenario(inputs, run)


def geometry_from_dict(data: Dict[str, Any], where: str = "scenario") -> ConeGeometry:
    """The cone geometry of a scenario's cosmology and cone blocks, checked
    as ``scenario_from_dict`` checks them."""
    cosmo = _require_mapping(data["cosmology"], f"{where}.cosmology")
    _reject_unknown(
        cosmo, {"n", "c", "a0", "H", "sigma", "m_squared"}, f"{where}.cosmology"
    )
    n = _number(cosmo, "n", f"{where}.cosmology")
    if n != int(n) or n < 1:
        raise ScenarioError(
            f"{where}.cosmology.n: spatial dimension must be a positive integer"
        )
    try:
        params = CosmologyParams(
            n=int(n),
            c=_number(cosmo, "c", f"{where}.cosmology"),
            a0=_number(cosmo, "a0", f"{where}.cosmology"),
            H=_number(cosmo, "H", f"{where}.cosmology"),
            sigma=_number(cosmo, "sigma", f"{where}.cosmology"),
            m_squared=_number(cosmo, "m_squared", f"{where}.cosmology"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}.cosmology: {exc}") from exc

    cone = _require_mapping(data["cone"], f"{where}.cone")
    _reject_unknown(cone, {"r0"}, f"{where}.cone")
    r0 = _number(cone, "r0", f"{where}.cone")
    try:
        geom = ConeGeometry(params, r0)
    except ValueError as exc:
        raise ScenarioError(f"{where}.cone.{exc}") from exc
    return geom


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data, where=str(path))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_AXIS_PREFIXES = ("cosmology.", "cone.", "theorem.", "run.")


@dataclass(frozen=True)
class SweepSpec:
    base: Dict[str, Any]
    axes: List[Tuple[str, List[float]]]
    parallelism: int = 1
    with_ode: bool = False
    max_points: int = 1_000_000

    @property
    def n_points(self) -> int:
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total


def set_by_path(data: Dict[str, Any], path: str, value: Any) -> None:
    """Assign base[block][key] = value for a dotted parameter path."""
    block, _, key = path.partition(".")
    if not key or "." in key:
        raise ScenarioError(f"axis path '{path}' must be '<block>.<key>'")
    data.setdefault(block, {})[key] = value


def load_sweep_spec(path) -> SweepSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    data = _require_mapping(data, str(path))
    _reject_unknown(
        data, {"base", "axes", "parallelism", "with_ode", "max_points"}, str(path)
    )
    if "base" not in data or "axes" not in data:
        raise ScenarioError(f"{path}: sweep spec needs 'base' and 'axes'")
    base = _require_mapping(data["base"], f"{path}.base")
    scenario_from_dict(base, where=f"{path}.base")  # validate now; it never writes to base

    axes_raw = data["axes"]
    if not isinstance(axes_raw, list) or not axes_raw:
        raise ScenarioError(f"{path}.axes: must be a non-empty list")
    axes: List[Tuple[str, List[float]]] = []
    first: Dict[str, int] = {}  # axis index of each path
    for i, axis in enumerate(axes_raw):
        axis = _require_mapping(axis, f"{path}.axes[{i}]")
        _reject_unknown(axis, {"path", "values"}, f"{path}.axes[{i}]")
        p = axis.get("path")
        if not isinstance(p, str) or not p.startswith(_AXIS_PREFIXES):
            raise ScenarioError(
                f"{path}.axes[{i}].path: must start with one of {_AXIS_PREFIXES}"
            )
        if p in first:
            # the later axis would overwrite the earlier one at every point
            raise ScenarioError(
                f"{path}.axes[{i}].path: '{p}' repeats axes[{first[p]}].path"
            )
        first[p] = i
        values = axis.get("values")
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"{path}.axes[{i}].values: must be a non-empty list")
        where = f"{path}.axes[{i}].values"
        axes.append((p, [_finite(v, f"{where}[{k}]") for k, v in enumerate(values)]))

    parallelism = _positive_int(data, "parallelism", str(path), 1)
    max_points = _positive_int(data, "max_points", str(path), 1_000_000)
    with_ode = data.get("with_ode", False)
    if not isinstance(with_ode, bool):
        raise ScenarioError(f"{path}.with_ode: expected true or false, got {with_ode!r}")
    spec = SweepSpec(
        base=base, axes=axes, parallelism=parallelism, with_ode=with_ode,
        max_points=max_points,
    )
    if spec.n_points > spec.max_points:
        raise ScenarioError(
            f"{path}: sweep has {spec.n_points} points, above the cap {spec.max_points}"
        )
    return spec
