"""Command-line front end: analyze, ode, pde, cone-check, and sweep.

Every command takes ``--scenario`` and ``--out`` and, on top of those, only
the flags it reads (``COMMANDS``): ``ode`` takes ``--t-end``, ``pde`` and
``cone-check`` take ``--grid-h`` and ``--t-end``, ``sweep`` takes
``--workers``.  Any other flag is a usage error.  The four scenario
commands share one prologue: load the scenario, create the output
directory, certify.  The run reports take the integrator counters from the
``RkResult`` each run keeps.

Exit codes: 0 on success (``pde`` whichever way its run ends; the report
names it), 2 when a theorem hypothesis or containment check fails or the
arithmetic leaves the float range (machine-distinguishable from crashes),
1 on I/O, scenario (a ``run.pde_rel_tol`` above the schema's bound among
them) and command-line usage errors.
All floats are serialized as shortest round-trip decimals so outputs are
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import ode as ode_mod
from . import pde as pde_mod
from .certificate import Background, BlowupCertificate, background_key, certify
from .cosmology import t_cap
from .errors import ConfigurationError, DomainError, ExcludedRegionError, PreconditionError
from .integrate import RkResult, TerminationReason
from .scenario import (
    Scenario,
    ScenarioError,
    SweepSpec,
    _finite,
    geometry_from_dict,
    load_scenario,
    load_sweep_spec,
    point_builder,
    point_data,
)

__all__ = ["main"]

POOL_CHUNK = 8  # background groups per message to a pool worker; each group is one task


def _jsonify(obj: Any) -> Any:
    """Recursively convert results to JSON-safe values; non-finite floats
    become the strings "inf"/"-inf"/"nan" to keep strict-JSON consumers happy."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(asdict(obj))
    if isinstance(obj, TerminationReason):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonify(obj.tolist())
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _write_json(path: Path, payload: Any) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(payload), fh, indent=2)
        fh.write("\n")


def _out_dir(out: Optional[str]) -> Path:
    path = Path(out) if out is not None else Path(".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _prologue(args) -> Tuple[Scenario, Path, BlowupCertificate]:
    """Load the scenario, create the output directory, then certify."""
    scenario = load_scenario(args.scenario)
    out = _out_dir(args.out if args.out is not None else scenario.run.out)
    return scenario, out, certify(scenario.inputs)


def _resolve_t_end(scenario: Scenario, cert: BlowupCertificate, cli_t_end) -> float:
    if cli_t_end is not None:
        t = float(cli_t_end)
    elif scenario.run.t_end is not None:
        t = scenario.run.t_end
    elif cert.valid and cert.T_star is not None:
        t = 1.05 * cert.T_star
    else:
        t = 1.0
    return t_cap(t, cert.T0)


def _counters(rk: RkResult) -> Dict[str, Any]:
    """The integrator counters both run reports carry, in report order."""
    return {
        "n_steps": rk.n_steps,
        "n_rejected": rk.n_rejected,
        "n_rhs": rk.n_rhs,
        "min_step": rk.min_step,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    _, out, cert = _prologue(args)
    _write_json(out / "certificate.json", cert)
    status = "valid" if cert.valid else ("inconclusive" if cert.inconclusive else "invalid")
    print(f"certificate: {status}")
    if cert.T_star is not None:
        print(f"T_star = {cert.T_star!r}")
    for reason in cert.reasons:
        print(f"  - {reason}")
    return 0 if cert.valid else 2


def cmd_ode(args) -> int:
    scenario, out, cert = _prologue(args)
    inputs, run = scenario.inputs, scenario.run
    traj = ode_mod.integrate(inputs, _resolve_t_end(scenario, cert, args.t_end), run)
    benchmark_mode = (
        run.ode_mass_sq_const is not None or run.ode_forcing_const is not None
    )
    csv_cert = None if benchmark_mode else cert
    ode_mod.trajectory_to_csv(out / "trajectory.csv", traj, inputs, csv_cert)

    report: Dict[str, Any] = {
        "certificate_valid": cert.valid,
        "certificate_reasons": cert.reasons,
        "T_star": cert.T_star,
        "termination": traj.rk.status,
        "blowup_detected": traj.blowup_detected,
        "blowup_time": traj.rk.blowup_time,
        "blowup_time_refined": ode_mod.detect_blowup_time(traj),
        "n_samples": int(traj.t.size),
        **_counters(traj.rk),
        "benchmark_overrides": benchmark_mode,
    }
    if cert.valid and not benchmark_mode:
        lemma = ode_mod.check_lemma21(traj, inputs, cert)
        report["lemma_properties"] = lemma
        report["lemma_all_hold"] = lemma.all_hold
    _write_json(out / "ode_report.json", report)
    last_t = float(traj.t[-1])
    print(f"ode: {traj.rk.status.value} at t={last_t!r}")
    if traj.blowup_detected:
        print(f"blow-up detected at t={traj.rk.blowup_time!r}")
    return 0


def _pde_run(args, linear: bool) -> Tuple[Path, BlowupCertificate, pde_mod.PdeRun]:
    """The prologue, then the PDE run that ``pde`` and ``cone-check`` share;
    ``linear`` drops the semilinear term."""
    scenario, out, cert = _prologue(args)
    t_end = _resolve_t_end(scenario, cert, args.t_end)
    run = scenario.run
    if args.grid_h is not None:
        run = replace(run, grid_h=args.grid_h)
    return out, cert, pde_mod.run_pde(scenario.inputs, t_end, run, linear=linear)


def cmd_pde(args) -> int:
    out, cert, result = _pde_run(args, linear=False)
    pde_mod.observables_to_csv(out / "observables.csv", result)
    pde_mod.field_to_csv(out / "field_initial.csv", result.field0)
    pde_mod.field_to_csv(out / "field_final.csv", result.field_final)
    _write_json(
        out / "pde_report.json",
        {
            "certificate_valid": cert.valid,
            "T_star": cert.T_star,
            "termination": result.rk.status,
            "blowup_time": result.rk.blowup_time,
            **_counters(result.rk),
            "cone_contained": bool(result.contained.all()),
            "final_W": float(result.W[-1]),
            "blowup_evidence": result.blowup_evidence,
        },
    )
    print(f"pde: {result.rk.status.value} at t={float(result.times[-1])!r}")
    return 0


def cmd_cone_check(args) -> int:
    out, _, result = _pde_run(args, linear=True)
    contained = result.contained
    all_ok = bool(contained.all())
    _write_json(
        out / "cone_report.json",
        {
            "all_contained": all_ok,
            "times": result.times,
            "support_radius": result.support_radius,
            "cone_radius": result.cone_radius,
            "contained": contained,
            "max_outside_mass": float(result.outside_mass.max()),
        },
    )
    print(f"cone-check: {'contained' if all_ok else 'violated'}")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


_BACKGROUND = ("cosmology.", "cone.")
_BITS = struct.Struct("<d")


def _groups(base, axes) -> List[tuple]:
    """The numbers of the points, grouped by background, each group where
    its first point comes in axis order, with the geometry of that point.
    A background is the ``background_key`` of its geometry, so a flat
    background's points form one group whatever their sigma; where the
    cosmology.* and cone.* values break a rule, it is their bits (so -0.0
    and 0.0 differ) and the geometry None."""
    paths = [path for path, _ in axes]
    # per point, the bits of its cosmology.* and cone.* values and b"" elsewhere
    bits_of = itertools.product(*([_BITS.pack(v) for v in values] if path.startswith(_BACKGROUND)
                                  else [b""] * len(values) for path, values in axes))
    geoms: Dict[tuple, tuple] = {}  # the key and geometry of each background's values
    groups: Dict[Any, tuple] = {}  # the geometry and the points of each key
    for k, (bits, values) in enumerate(zip(bits_of, itertools.product(*(v for _, v in axes)))):
        if bits not in geoms:
            try:
                geom = geometry_from_dict(point_data(base, paths, values))
                geoms[bits] = background_key(geom), geom
            except Exception:  # never shared: each point raises it in scenario_from_dict
                geoms[bits] = bits, None
        key, geom = geoms[bits]
        groups.setdefault(key, (geom, []))[1].append(k)
    return list(groups.values())


def _sweep_point(build, values, geom, with_ode, background) -> List[str]:
    """The result cells of one point, its scenario ``build(values, geom)``
    certified on ``background``: corollary_case, valid, T_star,
    blowup_time with the ODE, error_class and error."""
    cells: List[str] = []
    try:
        scenario = build(values, geom)
        cert = certify(scenario.inputs, background)
        cells += [cert.corollary_case or "none", _format_cell(cert.valid),
                  _format_cell(cert.T_star)]
        if with_ode:
            blow = None
            if cert.valid:
                t_end = _resolve_t_end(scenario, cert, None)
                traj = ode_mod.integrate(scenario.inputs, t_end, scenario.run)
                blow = ode_mod.detect_blowup_time(traj)
            cells.append(_format_cell(blow))
        cells += ["", ""]
    except Exception as exc:  # recorded per-row, never aborts the sweep
        cells += [""] * (3 + with_ode - len(cells))
        cells += [type(exc).__name__, f"{type(exc).__name__}: {exc}"]
    return cells


def _sweep_task(job) -> List[List[str]]:
    """The result cells of the points of background groups, in the order
    given.  A group's points are built on its geometry and certified on one
    Background, which keeps each A, B and Stem they share until the next
    group; the task's backgrounds share one time grid per T0, kept to its end."""
    base, paths, with_ode, groups = job
    build = point_builder(base, paths)
    grids: Dict[float, Any] = {}
    rows = []
    for geom, points in groups:
        background = None if geom is None else Background(geom, grids)
        rows += [_sweep_point(build, values, geom, with_ode, background) for values in points]
    return rows


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(args) -> int:
    spec: SweepSpec = load_sweep_spec(args.scenario)
    out = _out_dir(args.out)
    workers = args.workers if args.workers is not None else spec.parallelism
    # the pool forks every worker at its first map: never more than the CPUs
    workers = min(workers, os.cpu_count() or 1)

    axes = spec.axes
    paths = [p for p, _ in axes]
    points = list(itertools.product(*(values for _, values in axes)))
    numbers = _groups(spec.base, axes)
    groups = [(geom, [points[k] for k in ks]) for geom, ks in numbers]
    if workers == 1:
        cells = _sweep_task((spec.base, paths, spec.with_ode, groups))
    else:
        jobs = [(spec.base, paths, spec.with_ode, [group]) for group in groups]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(_sweep_task, jobs, chunksize=POOL_CHUNK)
            cells = [row for chunk in chunks for row in chunk]
    rows: List[List[str]] = [[]] * len(points)
    visited = (k for _, ks in numbers for k in ks)
    for k, row in zip(visited, cells):
        rows[k] = row

    columns = ["index"] + paths + ["corollary_case", "valid", "T_star"]
    if spec.with_ode:
        columns.append("blowup_time")
    columns += ["error_class", "error"]
    text = [[_format_cell(v) for v in values] for _, values in axes]  # each value once
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(
            [str(i), *point, *row]
            for i, (point, row) in enumerate(zip(itertools.product(*text), rows))
        )

    cases: Dict[str, int] = {}
    n_valid = 0
    for row in rows:
        tag = row[0] or "none"
        cases[tag] = cases.get(tag, 0) + 1
        n_valid += row[1] == "true"
    _write_json(
        out / "sweep_summary.json",
        {"points": len(rows), "valid": n_valid, "cases": dict(sorted(cases.items()))},
    )
    print(f"sweep: {len(rows)} points, {n_valid} valid")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# each command takes --scenario and --out, plus the flags it reads; argparse
# rejects any other flag (exit 1, nothing written)
COMMANDS = (
    ("analyze", cmd_analyze, ()),
    ("ode", cmd_ode, ("--t-end",)),
    ("pde", cmd_pde, ("--grid-h", "--t-end")),
    ("cone-check", cmd_cone_check, ("--grid-h", "--t-end")),
    ("sweep", cmd_sweep, ("--workers",)),
)
_FLAG_TYPES = {"--t-end": float, "--grid-h": float, "--workers": int}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 means a failed hypothesis."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgblow",
        description=(
            "Blow-up certificates and numerics for semilinear Klein-Gordon "
            "equations on FLRW backgrounds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario (or sweep spec) JSON")
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            p.add_argument(flag, type=_FLAG_TYPES[flag], default=None)
        p.set_defaults(func=fn)
    return parser


def _check_flags(args) -> None:
    """The flags obey the rules of the scenario keys they override; a
    command that does not take a flag has no attribute for it."""
    grid_h, t_end = getattr(args, "grid_h", None), getattr(args, "t_end", None)
    workers = getattr(args, "workers", None)
    if grid_h is not None and not _finite(grid_h, "--grid-h") > 0:
        raise ScenarioError("--grid-h: must be positive")
    if t_end is not None and not _finite(t_end, "--t-end") > 0:
        raise ScenarioError("--t-end: must be positive")
    if workers is not None and workers < 1:
        raise ScenarioError("--workers: must be a positive integer")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ExcludedRegionError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ConfigurationError, DomainError) as exc:
        print(f"hypothesis/configuration failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"arithmetic failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
