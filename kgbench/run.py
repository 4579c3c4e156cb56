#!/usr/bin/env python3
"""kgblowup benchmark: one workload of ``kgblow`` commands, run in-process.

Run from the repository root:

    python3 kgbench/run.py --workload pde_blowup_fine --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each command is a call of
``kgblowup.cli.main([...])`` in this process, and the next starts only
after the previous one has returned and its outputs have been checked.
Sweeps run with ``--workers 1``; nothing starts a thread or a process.

Phases:

* set-up: import ``kgblowup.cli`` once, then three times generate the
  inputs from ``--seed`` and run one short warm-up command; ``setup_s`` is
  the import time plus the median of those three repetitions;
* timed: commands on the same inputs until the next one would end after
  ``--seconds`` (at least one runs);
* with ``--trace 1``: the timed phase is split in halves, untraced then
  traced, and the run reports the per-layer metrics of the traced half
  and the tracing overhead instead of the end-to-end metrics.

Times are reported in reference seconds (see ``calibrate.py``): each
command's wall time is scaled by the speed of a fixed kernel timed just
before, during and after it, so that drift in the shared machine's speed
does not read as a change in the program.  Raw wall times are in the
report.

Every output file is checked and hashed.  Human-readable lines and a
``REPORT`` JSON line go to stdout first; the last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer, layer_metrics, layer_table  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, file_digests  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def run_command(cli, argv, tracer=None, cmd_id=0, probe=None):
    """Run one command; returns (exit status or exception text, seconds).

    With a ``probe``, ``cli.certify`` is wrapped for the command and the
    probe's time is left out of the seconds returned."""
    sink = io.StringIO()
    certify = cli.certify
    if probe is not None:
        cli.certify = probe.wrap(certify)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.command(cmd_id, cli.main, argv)
    except (Exception, SystemExit) as exc:  # a failed command is a result, not a crash
        rc = f"raised {type(exc).__name__}: {exc}"
    finally:
        cli.certify = certify
    return rc, time.perf_counter() - t0 - (probe.spent if probe is not None else 0.0)


def closed_loop(cli, workload, budget, records, tracer=None):
    """Run commands until the next one would end after ``budget`` seconds.

    Untraced commands carry a speed probe; traced ones do not, so that its
    samples stay out of the spans (their speed comes from the samples
    taken around them)."""
    start = time.perf_counter()
    durations = []
    before = calibrate.batch()
    while True:
        shutil.rmtree(workload.out, ignore_errors=True)
        probe = calibrate.Probe() if tracer is None else None
        rc, seconds = run_command(cli, workload.argv(), tracer, len(records), probe)
        try:
            outcome = workload.check(rc)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = Outcome(workload.items, workload.items,
                              [f"exit status {rc}; outputs unreadable: {exc!r}"])
        after = calibrate.batch()
        scale = calibrate.reference_scale(before + after + (probe.samples if probe else []))
        records.append({"seconds": seconds, "ref_s": seconds * scale, "scale": scale,
                        "traced": tracer is not None, "rc": rc,
                        "outcome": outcome, "digests": file_digests(workload.out)})
        before = after
        durations.append(seconds)
        if time.perf_counter() - start + statistics.median(durations) > budget:
            return


def environment(seed, kernel_backend, numpy_version):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": metadata.version("scipy"),
        "kernel_backend": kernel_backend,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kgblowup" / "cli.py").is_file():
        print(f"kgbench: no kgblowup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import kgblowup
    import kgblowup.cli as cli
    import numpy

    import_s = time.perf_counter() - _T_START
    if not Path(kgblowup.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kgbench: imported kgblowup from {kgblowup.__file__}", file=sys.stderr)
        return 2

    work = BENCH_DIR / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](ROOT, work)
    env = environment(args.seed, kgblowup.kernel_backend, numpy.__version__)

    setup_calib = calibrate.batch()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare(args.seed)
        warm_rc, _ = run_command(cli, workload.warmup_argv())
        setup_times.append(time.perf_counter() - t0)
    setup_calib += calibrate.batch()
    setup_scale = calibrate.reference_scale(setup_calib)
    setup_raw_s = import_s + statistics.median(setup_times)

    records = []
    budget = args.seconds / 2 if args.trace else args.seconds
    closed_loop(cli, workload, budget, records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            closed_loop(cli, workload, budget, records, tracer)
        finally:
            tracer.uninstall()

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    attempted = sum(r["outcome"].items for r in records)
    failed = sum(r["outcome"].failed for r in records)
    problems = sorted({p for r in records for p in r["outcome"].problems})
    if warm_rc != 0:
        problems.append(f"warm-up command: exit status {warm_rc}")
    digests = records[0]["digests"]
    if any(r["digests"] != digests for r in records):
        problems.append("outputs differ between commands on the same inputs")
    recorded = json.loads((BENCH_DIR / "digests.json").read_text()).get(args.workload, {})
    comparable = recorded and (args.seed == DEFAULT_SEED or args.workload == "pde_blowup_fine")
    changed = sorted(f for f in set(digests) | set(recorded) if digests.get(f) != recorded.get(f)) \
        if comparable else None

    seconds = [r["seconds"] for r in untraced]
    ref_seconds = [r["ref_s"] for r in untraced]
    cmd_p50 = statistics.median(ref_seconds)
    ok_items = sum(r["outcome"].items - r["outcome"].failed for r in untraced)
    e2e_attempted = sum(r["outcome"].items for r in untraced)
    e2e_failed = sum(r["outcome"].failed for r in untraced)
    counts = untraced[-1]["outcome"].counts
    metrics = {
        "cmd_s_p50": (cmd_p50, "s"),
        "items_per_s": (ok_items / sum(ref_seconds), "1/s"),
        "ok_frac": (1.0 - e2e_failed / e2e_attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_raw_s * setup_scale, "s"),
    }
    report = {
        "workload": args.workload,
        "why": workload.why,
        "environment": env,
        "load_model": "closed loop, 1 client, in-process kgblowup.cli.main, --workers 1",
        "reference_kernel_s": calibrate.REFERENCE_S,
        "setup": {"import_s": import_s, "prepare_and_warmup_s": setup_times,
                  "raw_s": setup_raw_s, "scale": setup_scale},
        "untraced": {
            "commands": len(untraced),
            "cmd_s": seconds,
            "scale": [r["scale"] for r in untraced],
            "cmd_ref_s": ref_seconds,
            "cmd_ref_s_quartiles": quartiles(ref_seconds),
            "items_per_command": untraced[-1]["outcome"].items,
            "item": workload.item,
            "attempted": e2e_attempted,
            "failed": e2e_failed,
            "failed_frac": e2e_failed / e2e_attempted,
        },
        "work_counts": counts,
        "checks": {"passed": not problems, "problems": problems},
        "digests": digests,
        "digests_recorded_seed": DEFAULT_SEED,
        "digests_changed": changed,
    }
    if tracer is not None:
        # per-layer times in reference seconds, at the traced phase's speed
        scale = statistics.median(r["scale"] for r in traced)
        traced_s = [r["ref_s"] for r in traced]
        layer = layer_metrics(tracer, len(traced), counts.get("output_bytes", 0), scale)
        table = layer_table(tracer, len(traced), scale)
        self_sum = sum(row["self_s"] for row in table.values())
        wall = statistics.mean(r["seconds"] for r in traced) * scale
        overhead = statistics.median(traced_s) - cmd_p50
        layer.update({
            "trace.cmd_s_p50_traced": (statistics.median(traced_s), "s"),
            "trace.cmd_s_p50_untraced": (cmd_p50, "s"),
            "trace.overhead_s": (overhead, "s"),
            "trace.wall_s": (wall, "s"),
            "trace.self_sum_s": (self_sum, "s"),
            "trace.spans": (len(tracer.spans) / len(traced), "count"),
        })
        report["traced"] = {
            "commands": len(traced),
            "cmd_s": [r["seconds"] for r in traced],
            "cmd_ref_s": traced_s,
            "layers": table,
            "untraced_functions": tracer.missing,
            "self_sum_within_overhead": abs(wall - self_sum) <= max(overhead, 0.0),
        }
        (work / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
        metrics = layer

    print_report(report, metrics)
    (work / "report.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print("REPORT " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_report(report, metrics) -> None:
    env, un = report["environment"], report["untraced"]
    print(f"kgbench {report['workload']}: {report['why']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"load: {report['load_model']}")
    print(f"untraced: {un['commands']} commands of {un['items_per_command']} x {un['item']}; "
          f"raw cmd_s median {statistics.median(un['cmd_s']):.4f}, speed scale median "
          f"{statistics.median(un['scale']):.4f}; reference-second quartiles "
          + " / ".join(f"{q:.4f}" for q in un["cmd_ref_s_quartiles"]))
    print(f"failed: {un['failed']} of {un['attempted']} (failed_frac {un['failed_frac']:.4f})")
    print("work counts per command: " + ", ".join(f"{k}={v}" for k, v in report["work_counts"].items()))
    checks = report["checks"]
    print("output checks: " + ("all passed" if checks["passed"] else "; ".join(checks["problems"])))
    changed = report["digests_changed"]
    for name, digest in report["digests"].items():
        flag = "" if changed is None else (" CHANGED" if name in changed else " same as recorded")
        print(f"  sha256 {digest}  {name}{flag}")
    if changed is None:
        print(f"  (digests are recorded for seed {report['digests_recorded_seed']} only)")
    if "traced" in report:
        tr = report["traced"]
        print(f"traced: {tr['commands']} commands; self time per command by layer:")
        wall = metrics["trace.wall_s"][0]
        for layer, row in sorted(tr["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:<12} {row['self_s']:10.4f} s  {100 * row['self_s'] / wall:5.1f}%"
                  f"  {row['calls']:12.0f} calls")
        print(f"  {'sum':<12} {metrics['trace.self_sum_s'][0]:10.4f} s  of wall "
              f"{wall:.4f} s; tracing overhead {metrics['trace.overhead_s'][0]:.4f} s"
              f" (sum within overhead: {tr['self_sum_within_overhead']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
