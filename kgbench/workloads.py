"""The benchmark's workloads: seeded inputs, ``kgblow`` argv, output checks.

Each workload runs one ``kgblow`` subcommand over and over on the same
inputs.  The seed only draws values inside fixed bands, so every seed
takes the same code paths and the same amount of work; what the seed
changes is which numbers the program sees.  The checks read only the
files a command wrote and recompute what they compare against (horizon
ends, row counts) without calling into ``kgblowup``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

DEFAULT_SEED = 1
BENCH_DIR = Path(__file__).resolve().parent
# |blowup_time - t_ref| allowed at grid_h 5e-4: when the tolerance was set
# the solver was off by 3.7e-10 there and by 1.6e-9 at grid_h 1e-3 (see
# t_ref.json), so it admits rounding-level changes but not a grid twice
# as coarse
BLOWUP_T_TOL = 1e-9


@dataclass
class Outcome:
    """What one command did, as read back from its output files."""

    items: int  # PDE runs or sweep points attempted
    failed: int  # items counted as failures (known defects included)
    problems: List[str] = field(default_factory=list)  # failed output checks
    counts: Dict[str, float] = field(default_factory=dict)  # work counts


def file_digests(out: Path) -> Dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


class Workload:
    name = ""
    item = ""
    why = ""
    items = 1  # items one command attempts

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.out = work / "out"
        self.warm_out = work / "warm"

    def prepare(self, seed: int) -> None:
        """Write the seeded inputs; called once per set-up repetition."""
        self.work.mkdir(parents=True, exist_ok=True)

    def warmup_argv(self) -> List[str]:
        raise NotImplementedError

    def argv(self) -> List[str]:
        raise NotImplementedError

    def check(self, rc) -> Outcome:
        """Read back one command's outputs; raises OSError, ValueError,
        KeyError or TypeError when they are missing or malformed."""
        raise NotImplementedError


class PdeBlowupFine(Workload):
    """``kgblow pde`` on the shipped flat blow-up scenario at grid_h 5e-4."""

    name = "pde_blowup_fine"
    item = "PDE run"
    why = (
        "RHS kernel, Dormand-Prince step overhead and observable recording do "
        "most of the work; the seed does not change it"
    )

    def __init__(self, root: Path, work: Path):
        super().__init__(root, work)
        self.scenario = root / "scenarios" / "minkowski_blowup.json"
        self.t_ref = json.loads((BENCH_DIR / "t_ref.json").read_text())["t_ref"]

    def warmup_argv(self) -> List[str]:
        return ["pde", "--scenario", str(self.scenario), "--out", str(self.warm_out),
                "--grid-h", "2e-3"]

    def argv(self) -> List[str]:
        return ["pde", "--scenario", str(self.scenario), "--out", str(self.out),
                "--grid-h", "5e-4"]

    def check(self, rc) -> Outcome:
        res = Outcome(items=1, failed=0)
        report = json.loads((self.out / "pde_report.json").read_text())
        t_blow, t_star = report.get("blowup_time"), report.get("T_star")
        if rc != 0:
            res.problems.append(f"exit status {rc}")
        if report.get("termination") != "BlowupThreshold":
            res.problems.append(f"termination {report.get('termination')!r}")
        if not isinstance(t_blow, float) or not isinstance(t_star, float):
            res.problems.append(f"blowup_time {t_blow!r}, T_star {t_star!r}")
        else:
            err = abs(t_blow - self.t_ref)
            res.counts["blowup_t_err"] = err
            if not t_blow < t_star:
                res.problems.append(f"blowup_time {t_blow!r} >= T_star {t_star!r}")
            if not err <= BLOWUP_T_TOL:
                res.problems.append(f"|blowup_time - t_ref| = {err!r} > {BLOWUP_T_TOL}")
        if report.get("cone_contained") is not True:
            res.problems.append("cone_contained is not true")
        res.counts.update(
            n_steps=report.get("n_steps"),
            grid_nodes=data_rows(self.out / "field_final.csv"),
            records=data_rows(self.out / "observables.csv"),
            output_bytes=output_bytes(self.out),
        )
        res.failed = 1 if res.problems else 0
        return res


def horizon_end(n: float, H: float, sigma: float) -> float:
    """T0 of the closed-form FLRW family, recomputed independently."""
    rate = (1.0 + sigma) * H
    return math.inf if rate >= 0.0 else -2.0 / (n * rate)


class Sweep(Workload):
    """``kgblow sweep --workers 1`` on a spec generated from the seed."""

    with_ode = False

    def spec(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.spec_data = self.spec(seed)
        self.spec_path = self.work / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec_data, indent=1) + "\n")
        warm = dict(self.spec_data)
        warm["axes"] = [{"path": a["path"], "values": a["values"][:1]} for a in warm["axes"]]
        self.warm_path = self.work / "warm_spec.json"
        self.warm_path.write_text(json.dumps(warm, indent=1) + "\n")
        self.items = math.prod(len(a["values"]) for a in self.spec_data["axes"])

    def warmup_argv(self) -> List[str]:
        return ["sweep", "--scenario", str(self.warm_path), "--out", str(self.warm_out),
                "--workers", "1"]

    def argv(self) -> List[str]:
        return ["sweep", "--scenario", str(self.spec_path), "--out", str(self.out),
                "--workers", "1"]

    def _param(self, row: Dict[str, str], path: str) -> float:
        if path in row:
            return float(row[path])
        block, key = path.split(".")
        return float(self.spec_data["base"][block][key])

    def check(self, rc) -> Outcome:
        res = Outcome(items=self.items, failed=0)
        with open(self.out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((self.out / "sweep_summary.json").read_text())
        if rc != 0:
            res.problems.append(f"exit status {rc}")
        if len(rows) != self.items or summary.get("points") != self.items:
            res.problems.append(
                f"{len(rows)} rows, summary says {summary.get('points')}, spec has {self.items}"
            )
        counts = dict.fromkeys(
            ["points", "valid", "error_rows", "blowup_rows", "no_blowup_rows"], 0
        )
        counts["points"] = len(rows)
        failed = 0
        for row in rows:
            bad = False
            if row["error"]:
                counts["error_rows"] += 1
                bad = True
            elif row["valid"] == "true":
                counts["valid"] += 1
                t_star = float(row["T_star"])
                t0 = horizon_end(*(self._param(row, "cosmology." + k) for k in ("n", "H", "sigma")))
                if not 0.0 < t_star <= t0:
                    res.problems.append(f"row {row['index']}: T_star {t_star!r} outside (0, {t0!r}]")
                    bad = True
                if self.with_ode:
                    if row["blowup_time"] == "":
                        counts["no_blowup_rows"] += 1
                        bad = True
                    elif not float(row["blowup_time"]) <= t_star:
                        res.problems.append(
                            f"row {row['index']}: blowup_time {row['blowup_time']} > T_star {t_star!r}"
                        )
                        bad = True
                    else:
                        counts["blowup_rows"] += 1
            failed += bad
        if summary.get("valid") != counts["valid"]:
            res.problems.append(f"summary valid {summary.get('valid')} != {counts['valid']} rows")
        counts["output_bytes"] = output_bytes(self.out)
        res.counts = counts
        # rows the spec asked for but the output lacks count as failed too
        res.failed = self.items if rc != 0 else failed + max(0, self.items - len(rows))
        return res


BASE_THEOREM = {"N": 2.0, "epsilon": 0.5, "theta": 0.5, "lambda": 1.0, "p": 3.0,
                "w0": 16.0, "w1": 1000.0}


class SweepCertificate(Sweep):
    """About 1,000 certificate-only points over n, H, sigma, N and w0."""

    name = "sweep_certificate"
    item = "sweep point"
    why = (
        "certificate, cone and cosmology do almost all the work, the RHS kernel "
        "and the integrator none; 63 backgrounds shared by 16 points each"
    )

    def spec(self, seed: int) -> dict:
        rng = random.Random(seed)
        u = rng.uniform
        # Bands keep every seed on the same branches: |H| in [0.4, 0.5] puts
        # the sigma = -1 growth-rate thresholds N = n|H| and n|H|/2 inside
        # the gaps between the N bands.  The fixed sigma values are the
        # special points -1 and -1 + 2/n (n = 3, 2, 1) as a user writes them.
        sigma = [-1.0, -0.3333333333333333, 0.0, 1.0,
                 u(-2.5, -1.5), u(-0.95, -0.8), u(0.3, 0.7)]
        return {
            "base": {
                "cosmology": {"n": 1, "c": 1.0, "a0": 1.0, "H": 0.0, "sigma": 0.0,
                              "m_squared": 0.0},
                "cone": {"r0": 1.0},
                "theorem": dict(BASE_THEOREM),
            },
            "axes": [
                {"path": "cosmology.n", "values": [1.0, 2.0, 3.0]},
                {"path": "cosmology.H", "values": [-u(0.4, 0.5), 0.0, u(0.4, 0.5)]},
                {"path": "cosmology.sigma", "values": sigma},
                {"path": "theorem.N",
                 "values": [0.0, u(0.05, 0.15), u(0.27, 0.37), u(1.6, 3.0)]},
                {"path": "theorem.w0", "values": sorted(10.0 ** u(0.0, 2.5) for _ in range(4))},
            ],
            "parallelism": 1,
        }


class SweepOde(Sweep):
    """9 points with the comparison ODE on flat and expanding backgrounds."""

    name = "sweep_ode"
    item = "sweep point"
    why = (
        "same integrator core as pde_blowup_fine but on a 2-element state with "
        "many cheap steps; p near 5 shows the p-dependent stop rule"
    )
    with_ode = True

    def spec(self, seed: int) -> dict:
        rng = random.Random(seed)
        u = rng.uniform
        # w1 = 1e6 certifies every point; narrow p bands keep the step
        # counts (which fall as p grows) nearly the same for every seed
        return {
            "base": {
                "cosmology": {"n": 1, "c": 1.0, "a0": 1.0, "H": 1.0, "sigma": -1.0,
                              "m_squared": 0.0},
                "cone": {"r0": 1.0},
                "theorem": dict(BASE_THEOREM, N=1.5, w1=1e6),
            },
            "axes": [
                {"path": "theorem.p", "values": [u(2.18, 2.22), u(2.95, 3.05), u(4.95, 5.05)]},
                {"path": "theorem.w0", "values": [u(20.0, 120.0)]},
                {"path": "cosmology.H", "values": [0.0, u(0.4, 0.6), u(0.9, 1.1)]},
            ],
            "parallelism": 1,
            "with_ode": True,
        }


WORKLOADS = {w.name: w for w in (PdeBlowupFine, SweepCertificate, SweepOde)}
