#!/usr/bin/env python3
"""Run the regression corpus on two trees and list the outputs that differ.

Run from anywhere inside the repository:

    python3 tools/compare.py BASE [CHANGE]

BASE and CHANGE are git revisions; CHANGE defaults to the working tree.
Each entry of ``tools/compare.json`` is one ``kgblow`` argv without
``--out`` or ``--workers``.  For each side in turn, its ``src/`` is
extracted (``git archive REV src | tar -x``, or copied from the working
tree) into one temporary directory, the same path for both sides, and
every entry runs as ``python -W error::RuntimeWarning -m kgblowup.cli``
on it, in a directory of its own with ``--out out``.  The scenarios are
always read from the working tree, so a new input runs on an old tree
too.  A ``sweep`` entry runs at ``--workers 1`` and at ``--workers 2``.

The script lists each output file, stdout, stderr and exit code that
differs between the two sides: an output a change moves, which the
change should name.  It exits 1 only when a CHANGE-side run exits above
2, prints a ``Traceback``, or writes different bytes at the two worker
counts; a run that differs from BASE does not fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "compare.json"
WORKERS = (1, 2)


def manifest_runs():
    """(name, argv) per run: the entry's index, and a sweep once per
    worker count, named ``<index>-w<workers>``."""
    runs = []
    for i, argv in enumerate(json.loads(MANIFEST.read_text())):
        if argv[0] == "sweep":
            runs += [(f"{i:02d}-w{w}", argv + ["--workers", str(w)]) for w in WORKERS]
        else:
            runs.append((f"{i:02d}", argv))
    return runs


def extract(rev, dest: Path) -> None:
    """REV's ``src/`` into ``dest/src``; the working tree's for None."""
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_side(rev, tmp: Path, side: str, runs) -> None:
    """Every run on REV's ``src/``, each in ``tmp/side/<name>``: ``out/``
    holds what the command wrote, next to its stdout, stderr and exit."""
    extract(rev, tmp)
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
    for name, argv in runs:
        cwd = tmp / side / name
        cwd.mkdir(parents=True)
        # the scenario from the working tree; every other word as written
        argv = [str(ROOT / a) if k == "--scenario" else a for k, a in zip([""] + argv, argv)]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "kgblowup.cli", *argv,
             "--out", "out"], cwd=cwd, env=env, capture_output=True,
        )
        (cwd / "stdout").write_bytes(proc.stdout)
        (cwd / "stderr").write_bytes(proc.stderr)
        (cwd / "exit").write_text(f"{proc.returncode}\n")
    shutil.rmtree(tmp / "src")


def differing(a: Path, b: Path):
    """The files under ``a`` or ``b``, relative, that one lacks or whose
    bytes differ."""
    fa, fb = ({p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()} for d in (a, b))
    return sorted(f for f in fa | fb
                  if f not in fa & fb or (a / f).read_bytes() != (b / f).read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the reference tree")
    parser.add_argument("change", nargs="?", help="git revision (default: the working tree)")
    args = parser.parse_args(argv)
    runs = manifest_runs()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kgblow-compare-") as tmp:
        tmp = Path(tmp)
        run_side(args.base, tmp, "base", runs)
        run_side(args.change, tmp, "change", runs)
        label = {name: " ".join(argv) for name, argv in runs}
        changed = [(name, differing(tmp / "base" / name, tmp / "change" / name))
                   for name, _ in runs]
        changed = [(name, files) for name, files in changed if files]
        failures = []
        for name, _ in runs:
            run = tmp / "change" / name
            code = int((run / "exit").read_text())
            if code > 2:
                failures.append(f"`{label[name]}` exits {code}")
            if b"Traceback" in (run / "stderr").read_bytes():
                failures.append(f"`{label[name]}` prints a traceback")
            if name.endswith(f"-w{WORKERS[0]}"):
                other = name.replace(f"-w{WORKERS[0]}", f"-w{WORKERS[1]}")
                failures += [f"`{label[name]}` and `--workers {WORKERS[1]}` write {f} differently"
                             for f in differing(run, tmp / "change" / other)]
    change = args.change or "the working tree"
    print(f"### Outputs that differ between {args.base} and {change}")
    print(f"{len(runs)} runs on each side, {time.perf_counter() - start:.0f} s in all.")
    for name, files in changed:
        print(f"- `{label[name]}`: {', '.join(files)}")
    if not changed:
        print("None: every output is byte-identical.")
    if failures:
        print(f"### Runs of {change} that fail")
        print("\n".join(f"- {f}" for f in failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
