#!/usr/bin/env python3
"""Derive the reference blow-up time used by the ``pde_blowup_fine`` workload.

Runs ``kgblow pde`` on ``scenarios/minkowski_blowup.json`` at a ladder of
grid spacings, each half the previous one, and Richardson-extrapolates the
blow-up time from the two finest grids with the convergence order observed
on the three finest.  The result is written to ``kgbench/t_ref.json``,
which the benchmark reads; rerun only when the reference itself must be
rederived.  Run from the repository root:

    python3 kgbench/t_ref.py
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIO = ROOT / "scenarios" / "minkowski_blowup.json"
GRIDS = [1e-3, 5e-4, 2.5e-4, 1.25e-4]


def blowup_time(cli, grid_h: float, out: Path) -> float:
    argv = ["pde", "--scenario", str(SCENARIO), "--out", str(out), "--grid-h", repr(grid_h)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    report = json.loads((out / "pde_report.json").read_text())
    if rc != 0 or report["termination"] != "BlowupThreshold":
        raise SystemExit(f"grid_h={grid_h}: no blow-up (exit {rc}, {report['termination']})")
    return report["blowup_time"]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import kgblowup.cli as cli

    times = []
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for h in GRIDS:
            t0 = time.perf_counter()
            times.append(blowup_time(cli, h, Path(tmp)))
            print(f"grid_h={h!r}: blowup_time={times[-1]!r} ({time.perf_counter() - t0:.1f} s)")
    # successive differences shrink by 2^order when the grid is halved
    d1, d2 = times[-2] - times[-3], times[-1] - times[-2]
    order = math.log2(d1 / d2)
    t_ref = times[-1] + d2 / (2.0**order - 1.0)
    payload = {
        "scenario": "scenarios/minkowski_blowup.json",
        "grid_h": GRIDS,
        "blowup_time": times,
        "observed_order": order,
        "t_ref": t_ref,
        "derivation": (
            "order = log2((t[-2]-t[-3])/(t[-1]-t[-2])) over the three finest grids; "
            "t_ref = t[-1] + (t[-1]-t[-2])/(2^order - 1)"
        ),
    }
    (BENCH_DIR / "t_ref.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"observed order {order:.3f}, t_ref={t_ref!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
