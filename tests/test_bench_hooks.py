"""The benchmark's hooks name functions that exist in the package.

``kgbench/tracer.py`` wraps layer functions by module and attribute name;
a name that no longer resolves is skipped, and every metric built on it
silently reads 0.  ``kgbench/calibrate.py``'s probe wraps ``cli.certify``
and expects one call per sweep point.  These tests fail on such a change
instead.
"""

import importlib
import importlib.util
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from kgblowup import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "kgbench" / "tracer.py"
# hooks whose function is gone from the package on purpose
DELETED = {("pde", "forcing_integral")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("kgbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only
    return module


HOOKS = [(mod, attr) for mod, attr, *_ in load_tracer().TARGETS]
HOOKS.append(("integrate", "dopri_integrate"))


@pytest.mark.parametrize("mod, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hook_resolves(mod, attr):
    found = callable(getattr(importlib.import_module(f"kgblowup.{mod}"), attr, None))
    assert found == ((mod, attr) not in DELETED)


def test_a_serial_sweep_calls_cli_certify_once_per_point(tmp_path, monkeypatch):
    """The benchmark's calibration probe wraps ``cli.certify`` and samples
    at its calls: a --workers 1 sweep makes exactly one per point, on
    flat, sloped and shared backgrounds alike."""
    calls = []
    original = cli.certify

    def counting(inputs, *args, **kwargs):
        calls.append((inputs.params.H, inputs.N, inputs.w0))
        return original(inputs, *args, **kwargs)

    monkeypatch.setattr(cli, "certify", counting)
    axes = [("cosmology.H", [0.0, 0.45]), ("cosmology.sigma", [0.0, -1.0]),
            ("theorem.N", [0.5, 2.0]), ("theorem.w0", [2.0, 16.0])]
    base = json.loads((ROOT / "scenarios" / "sweep_w0.json").read_text())["base"]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": base, "axes": [
        {"path": p, "values": v} for p, v in axes]}))
    argv = ["sweep", "--scenario", str(spec), "--out", str(tmp_path), "--workers", "1"]
    assert cli.main(argv) == 0
    # a flat point is built on its group's geometry, so its sigma is the group's
    points = [(H, N, w0) for H, _, N, w0 in itertools.product(*(v for _, v in axes))]
    assert len(calls) == len(points) == 16
    assert Counter(calls) == Counter(points)
