"""The benchmark tracer's hooks name functions that exist in the package.

``kgbench/tracer.py`` wraps layer functions by module and attribute name;
a name that no longer resolves is skipped, and every metric built on it
silently reads 0.  This test fails on such a rename instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "kgbench" / "tracer.py"
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
