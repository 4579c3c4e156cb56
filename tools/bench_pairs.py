#!/usr/bin/env python3
"""Alternating A/B pairs of the kgbench benchmark between two commits.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py BASE [CHANGE] --workload pde_blowup_fine \\
        --pairs 10 --seconds 6 --seed 1 --label kernel_identities

Both sides run from one temporary directory, so they have the same path.
The working tree's ``kgbench/`` and ``scenarios/`` are copied there once.
Each side's ``src/`` (BASE as ``parent``, CHANGE, default ``HEAD``, as
``change``) is extracted once with ``compare.extract`` next to it, and
renamed into place before each of that side's runs, so its
``__pycache__`` stays valid.  For each workload and seed,
``kgbench/run.py`` runs ``--pairs`` times per side, one process at a
time, and the side that runs first alternates from pair to pair.  The
directory is removed at the end.

From each run's ``REPORT`` line and result line it records the end-to-end
metrics (reference seconds), the raw median command time, the median
per-command calibration scale, the setup scale and raw setup time, and
whether the outputs checked.  Around each run it also reads
``getrusage(RUSAGE_CHILDREN)``: the run's CPU seconds (user plus system),
also per command (setup and calibration probes included), and its minor
page faults, where a calibration kernel that faults on one side only
shows.  Per workload and seed it summarises both sides: medians and
quartiles of ``cmd_s_p50`` and of the raw median, the ratio change/parent
of each, the pairs the change won, and whether the median gap exceeds
the parent's interquartile range.  With ``--trace`` the runs use
``--trace 1`` and the per-layer metrics are recorded instead.

The result is written to ``BENCH_<label>.json`` in the repository root;
an existing file of the same parent is extended, entry by entry.
"""

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare import extract

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
END_TO_END = ("cmd_s_p50", "items_per_s", "ok_frac", "peak_rss_mb", "setup_s")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree, workload, seed, seconds, trace):
    """One kgbench run in ``tree``: its REPORT and result lines, digested."""
    cmd = [sys.executable, "kgbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.splitlines()
    report = next((json.loads(ln[7:]) for ln in lines if ln.startswith("REPORT ")), None)
    if proc.returncode != 0 or report is None:
        raise RuntimeError(f"{' '.join(cmd)} in {tree}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    untraced, setup = report["untraced"], report["setup"]
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    run = {
        "correct": result["correct"],
        "commands": untraced["commands"],
        "raw_cmd_s_p50": statistics.median(untraced["cmd_s"]),
        "scale_p50": statistics.median(untraced["scale"]),
        "setup_raw_s": setup["raw_s"],
        "setup_scale": setup["scale"],
        "cpu_s": cpu_s,
        "cpu_s_per_command": cpu_s / untraced["commands"],
        "minflt": after.ru_minflt - before.ru_minflt,
        "digests": report["digests"],
    }
    run.update({k: v["value"] for k, v in result["metrics"].items()})
    return run


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarise(runs, trace):
    """Both sides' medians, the change/parent ratios and the pairs won."""
    by_side = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"])
               for s in SIDES}
    keys = ["raw_cmd_s_p50", "scale_p50", "setup_raw_s", "setup_scale",
            "cpu_s", "cpu_s_per_command", "minflt"]
    keys += [k for k in runs[0] if k.startswith(("kernels.", "integrate.", "pde."))] if trace \
        else list(END_TO_END)
    summary = {"correct": all(r["correct"] for r in runs),
               "same_digests": len({json.dumps(r["digests"], sort_keys=True) for r in runs}) == 1}
    for key in keys:
        values = {s: [r[key] for r in by_side[s]] for s in SIDES}
        med = {s: statistics.median(v) for s, v in values.items()}
        q = quartiles(values["parent"])
        summary[key] = {
            "parent_p50": med["parent"], "change_p50": med["change"],
            "ratio": med["change"] / med["parent"] if med["parent"] else None,
            "parent_quartiles": q, "change_quartiles": quartiles(values["change"]),
            "parent_iqr": q[2] - q[0],
            "change_lower_in_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
        }
    for key in ("cmd_s_p50", "raw_cmd_s_p50"):
        if key in summary:
            s = summary[key]
            s["gap_exceeds_parent_iqr"] = abs(s["change_p50"] - s["parent_p50"]) > s["parent_iqr"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("change", nargs="?", default="HEAD", help="the commit measured (HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seeds = args.seed or [1]

    revs = {"parent": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    out = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(out.read_text()) if out.is_file() else {}
    if bench and bench.get("parent") != revs["parent"]:
        raise SystemExit(f"{out.name} holds pairs against {bench.get('parent')}, not {revs['parent']}")
    bench.update({
        "label": args.label,
        "parent": revs["parent"],
        "change": revs["change"],
        "method": "alternating pairs from one directory: the working tree's kgbench/ and "
                  "scenarios/, and each commit's src/ (git archive) renamed into place before "
                  "its run, the first side alternating; one kgbench/run.py process at a time, "
                  "launched from tools/bench_pairs.py",
        "machine": {"python": platform.python_version(), "machine": platform.machine(),
                    "processor": platform.processor() or None},
    })
    entries = bench.setdefault("entries", {})

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    tree = tmp / "tree"
    try:
        for part in ("kgbench", "scenarios"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "_work"))
        for side in SIDES:
            (tmp / side).mkdir()
            extract(revs[side], tmp / side)
        for workload in args.workload:
            for seed in seeds:
                runs = []
                for pair in range(args.pairs):
                    for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                        (tmp / side / "src").rename(tree / "src")
                        try:
                            run = run_once(tree, workload, seed, args.seconds, args.trace)
                        finally:
                            (tree / "src").rename(tmp / side / "src")
                        runs.append({"side": side, "pair": pair + 1, **run})
                        print(f"{workload} seed {seed} pair {pair + 1} {side}: cmd_s_p50 "
                              f"{run.get('cmd_s_p50', float('nan')):.4f} raw "
                              f"{run['raw_cmd_s_p50']:.4f} scale {run['scale_p50']:.3f} "
                              f"minflt {run['minflt']}",
                              file=sys.stderr)
                name = f"{workload}_seed{seed}" + ("_trace" if args.trace else "")
                entries[name] = {
                    "command": f"python3 kgbench/run.py --workload {workload} --seed {seed} "
                               f"--seconds {args.seconds:g} --trace {int(args.trace)}",
                    "pairs": args.pairs,
                    "summary": summarise(runs, args.trace),
                    "runs": [{k: v for k, v in r.items() if k != "digests"} for r in runs],
                }
                out.write_text(json.dumps(bench, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
