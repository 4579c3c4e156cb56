"""Command-line front end: analyze, ode, pde, cone-check, and sweep.

Exit codes: 0 on success, 2 when a theorem hypothesis or containment check
fails or the arithmetic leaves the float range (machine-distinguishable
from crashes), 1 on I/O, scenario and command-line usage errors.
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
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import ode as ode_mod
from . import pde as pde_mod
from .certificate import BlowupCertificate, ExtremaMemo, certify
from .cosmology import t_cap
from .errors import ConfigurationError, DomainError, ExcludedRegionError, PreconditionError
from .integrate import TerminationReason
from .scenario import (
    Scenario,
    ScenarioError,
    SweepSpec,
    _finite,
    load_scenario,
    load_sweep_spec,
    scenario_from_dict,
    set_by_path,
)

__all__ = ["main"]

POOL_CHUNK = 8  # consecutive sweep points per pool task, each task with its own memo


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


def _out_dir(args, scenario: Optional[Scenario]) -> Path:
    out = args.out
    if out is None and scenario is not None and scenario.run.out is not None:
        out = scenario.run.out
    path = Path(out) if out is not None else Path(".")
    path.mkdir(parents=True, exist_ok=True)
    return path


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args, scenario)
    cert = certify(scenario.inputs())
    _write_json(out / "certificate.json", cert)
    status = "valid" if cert.valid else ("inconclusive" if cert.inconclusive else "invalid")
    print(f"certificate: {status}")
    if cert.T_star is not None:
        print(f"T_star = {cert.T_star!r}")
    for reason in cert.reasons:
        print(f"  - {reason}")
    return 0 if cert.valid else 2


def cmd_ode(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args, scenario)
    inputs = scenario.inputs()
    cert = certify(inputs)
    t_end = _resolve_t_end(scenario, cert, args.t_end)
    run = scenario.run
    controls = ode_mod.OdeControls(
        rel_tol=run.rel_tol,
        mass_sq_const=run.ode_mass_sq_const,
        forcing_const=run.ode_forcing_const,
    )
    traj = ode_mod.integrate(inputs, t_end, controls)
    benchmark_mode = (
        run.ode_mass_sq_const is not None or run.ode_forcing_const is not None
    )
    csv_cert = None if benchmark_mode else cert
    ode_mod.trajectory_to_csv(out / "trajectory.csv", traj, inputs, csv_cert)

    report: Dict[str, Any] = {
        "certificate_valid": cert.valid,
        "certificate_reasons": cert.reasons,
        "T_star": cert.T_star,
        "termination": traj.termination,
        "blowup_detected": traj.blowup_detected,
        "blowup_time": traj.blowup_time,
        "blowup_time_refined": ode_mod.detect_blowup_time(traj),
        "n_samples": int(traj.t.size),
        "benchmark_overrides": benchmark_mode,
    }
    if cert.valid and not benchmark_mode:
        lemma = ode_mod.check_lemma21(traj, inputs, cert)
        report["lemma_properties"] = lemma
        report["lemma_all_hold"] = lemma.all_hold
    _write_json(out / "ode_report.json", report)
    last_t = float(traj.t[-1])
    print(f"ode: {traj.termination.value} at t={last_t!r}")
    if traj.blowup_detected:
        print(f"blow-up detected at t={traj.blowup_time!r}")
    return 0


def cmd_pde(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args, scenario)
    inputs = scenario.inputs()
    cert = certify(inputs)
    t_end = _resolve_t_end(scenario, cert, args.t_end)
    run = scenario.run
    controls = pde_mod.PdeControls(
        grid_h=args.grid_h if args.grid_h is not None else run.grid_h,
        rel_tol=run.pde_rel_tol,
        r_max_factor=run.r_max_factor,
        output_interval=run.output_interval,
    )
    result = pde_mod.run_pde(inputs, t_end, controls)
    pde_mod.observables_to_csv(out / "observables.csv", result)
    pde_mod.field_to_csv(out / "field_initial.csv", result.field0)
    pde_mod.field_to_csv(out / "field_final.csv", result.field_final)
    cone = pde_mod.cone_containment_check(result, inputs.geom)
    _write_json(
        out / "pde_report.json",
        {
            "certificate_valid": cert.valid,
            "T_star": cert.T_star,
            "termination": result.termination,
            "blowup_time": result.blowup_time,
            "n_steps": result.n_steps,
            "cone_contained": cone.all_ok,
            "final_W": float(result.W[-1]),
        },
    )
    print(f"pde: {result.termination.value} at t={float(result.times[-1])!r}")
    return 0


def cmd_cone_check(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args, scenario)
    inputs = scenario.inputs()
    cert = certify(inputs)
    t_end = _resolve_t_end(scenario, cert, args.t_end)
    run = scenario.run
    controls = pde_mod.PdeControls(
        grid_h=args.grid_h if args.grid_h is not None else run.grid_h,
        rel_tol=run.pde_rel_tol,
        r_max_factor=run.r_max_factor,
        output_interval=run.output_interval,
        linear=True,
    )
    result = pde_mod.run_pde(inputs, t_end, controls)
    report = pde_mod.cone_containment_check(result, inputs.geom)
    _write_json(
        out / "cone_report.json",
        {
            "all_contained": report.all_ok,
            "times": report.times,
            "support_radius": report.support,
            "cone_radius": report.cone,
            "contained": [bool(v) for v in report.ok],
            "max_outside_mass": float(result.outside_mass.max()),
        },
    )
    print(f"cone-check: {'contained' if report.all_ok else 'violated'}")
    return 0 if report.all_ok else 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_point(base, overrides, with_ode, memo: ExtremaMemo) -> Dict[str, Any]:
    # base holds only blocks of scalars (load_sweep_spec validated it), so
    # copying each block is a full copy
    data = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for path, value in overrides:
        set_by_path(data, path, value)
    row: Dict[str, Any] = {path: value for path, value in overrides}
    try:
        scenario = scenario_from_dict(data)
        inputs = scenario.inputs()
        cert = certify(inputs, memo=memo)
        row["corollary_case"] = cert.corollary_case or "none"
        row["valid"] = cert.valid
        row["T_star"] = cert.T_star
        if with_ode:
            blow = None
            if cert.valid:
                traj = ode_mod.integrate(inputs, t_cap(1.05 * cert.T_star, cert.T0))
                blow = ode_mod.detect_blowup_time(traj)
            row["blowup_time"] = blow
        row["error"] = ""
    except Exception as exc:  # recorded per-row, never aborts the sweep
        row.setdefault("corollary_case", "")
        row.setdefault("valid", "")
        row.setdefault("T_star", "")
        if with_ode:
            row.setdefault("blowup_time", "")
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _sweep_chunk(job) -> List[Dict[str, Any]]:
    """Rows of consecutive sweep points; they share one ExtremaMemo."""
    base, points, with_ode = job
    memo = ExtremaMemo()
    return [_sweep_point(base, overrides, with_ode, memo) for overrides in points]


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
    out = _out_dir(args, None)
    workers = args.workers if args.workers is not None else spec.parallelism
    # the pool forks every worker at its first map: never more than the CPUs
    workers = min(workers, os.cpu_count() or 1)

    paths = [p for p, _ in spec.axes]
    combos = list(itertools.product(*(vals for _, vals in spec.axes)))
    points = [list(zip(paths, combo)) for combo in combos]
    if workers == 1:
        rows = _sweep_chunk((spec.base, points, spec.with_ode))
    else:
        chunks = [
            (spec.base, points[i : i + POOL_CHUNK], spec.with_ode)
            for i in range(0, len(points), POOL_CHUNK)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for chunk in pool.map(_sweep_chunk, chunks) for row in chunk]

    columns = ["index"] + paths + ["corollary_case", "valid", "T_star"]
    if spec.with_ode:
        columns.append("blowup_time")
    columns.append("error")
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for i, row in enumerate(rows):
            writer.writerow([_format_cell(i)] + [_format_cell(row.get(c)) for c in columns[1:]])

    cases: Dict[str, int] = {}
    n_valid = 0
    for row in rows:
        tag = row.get("corollary_case") or "none"
        cases[tag] = cases.get(tag, 0) + 1
        if row.get("valid") is True:
            n_valid += 1
    _write_json(
        out / "sweep_summary.json",
        {"points": len(rows), "valid": n_valid, "cases": dict(sorted(cases.items()))},
    )
    print(f"sweep: {len(rows)} points, {n_valid} valid")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


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
    for name, fn in (
        ("analyze", cmd_analyze),
        ("ode", cmd_ode),
        ("pde", cmd_pde),
        ("cone-check", cmd_cone_check),
        ("sweep", cmd_sweep),
    ):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario (or sweep spec) JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--grid-h", dest="grid_h", type=float, default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.set_defaults(func=fn)
    return parser


def _check_flags(args) -> None:
    """The flags obey the rules of the scenario keys they override."""
    if args.grid_h is not None and not _finite(args.grid_h, "--grid-h") > 0:
        raise ScenarioError("--grid-h: must be positive")
    if args.t_end is not None and not _finite(args.t_end, "--t-end") > 0:
        raise ScenarioError("--t-end: must be positive")
    if args.workers is not None and args.workers < 1:
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
