"""In-memory span tracer for the traced benchmark run.

The tracer times kgblowup's layers from outside the package: ``install``
replaces each layer function listed in ``TARGETS`` with a timing wrapper,
in every ``kgblowup`` module that holds a reference to it, and
``uninstall`` puts the originals back.  Nothing in the package changes.

Two kinds of wrapper:

* a *span* records name, start, end, parent span, command id and self time
  (its duration minus the time covered by its children);
* an *aggregate* is for calls made thousands of times per command (RHS
  evaluations, certificate objective evaluations): it keeps only a call
  count, total time and self time per (enclosing span, name).

Self times partition each command's wall time exactly, apart from the
wrappers' own cost, which lands in the enclosing span's self time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

SPAN, AGG = "span", "agg"

# Floating-point operations and bytes per grid node of one radial_accel
# call, counted from the array expressions in _kernels/_reference.py:
# 8 per component for the stencil and mass terms (x2 for re/im), 7 for the
# semilinear term; bytes assume each array is read or written once per
# pass (stencil: u_re, u_im, cp, cm in, acc_re, acc_im out; semilinear:
# u_re, u_im in, acc_re read and written) and ignore NumPy temporaries.
KERNEL_OPS_PER_NODE = 23
KERNEL_BYTES_PER_NODE = 80


def _nodes(args, kwargs, result) -> Tuple[str, float]:
    return "kernels.node_updates", args[0].size


def _grid_nodes(args, kwargs, result) -> Tuple[str, float]:
    return "pde.grid_nodes", result.r.size


def _file_bytes(args, kwargs, result) -> Tuple[str, float]:
    return "pde.csv_bytes", os.path.getsize(args[0])


def _blowup_found(args, kwargs, result) -> Tuple[str, float]:
    return "ode.blowups_detected", result is not None


# (module, function, span name, kind, observer of the finished call)
TARGETS = [
    ("cli", "_write_json", "cli.json", SPAN, None),
    ("scenario", "load_scenario", "scenario.load", SPAN, None),
    ("scenario", "load_sweep_spec", "scenario.load", SPAN, None),
    ("scenario", "scenario_from_dict", "scenario.from_dict", AGG, None),
    ("certificate", "certify", "certificate.certify", SPAN, None),
    ("certificate", "compute_A", "certificate.compute_A", SPAN, None),
    ("certificate", "compute_B", "certificate.compute_B", SPAN, None),
    ("cone", "log_q_tilde_eval", "cone.log_q_tilde_eval", AGG, None),
    ("cone", "classify_q", "cone.classify_q", AGG, None),
    ("cone", "comoving_radius", "cone.comoving_radius", AGG, None),
    ("cosmology", "curved_mass_sq", "cosmology.curved_mass_sq", AGG, None),
    ("cosmology", "scale_eval", "cosmology.scale_eval", AGG, None),
    ("pde", "run_pde", "pde.run_pde", SPAN, None),
    ("pde", "make_field", "pde.make_field", SPAN, _grid_nodes),
    ("pde", "observable_w", "pde.observable_w", AGG, None),
    ("pde", "support_radius", "pde.support_radius", AGG, None),
    ("pde", "discrete_energy", "pde.discrete_energy", AGG, None),
    ("pde", "forcing_integral", "pde.forcing_integral", AGG, None),
    ("pde", "outside_cone_mass", "pde.outside_cone_mass", AGG, None),
    ("pde", "field_to_csv", "pde.csv", SPAN, _file_bytes),
    ("pde", "observables_to_csv", "pde.csv", SPAN, _file_bytes),
    ("_kernels", "radial_accel", "kernels.radial_accel", AGG, _nodes),
    ("ode", "integrate", "ode.integrate", SPAN, None),
    ("ode", "detect_blowup_time", "ode.detect_blowup_time", SPAN, _blowup_found),
]
# The observables evaluated by each PDE record; a record evaluates each once.
PDE_OBSERVABLES = [name for _, _, name, _, _ in TARGETS
                   if name.startswith("pde.") and name not in
                   ("pde.run_pde", "pde.make_field", "pde.csv")]


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (id, name, parent id, cmd, start, end, self_s)
        self.aggs: Dict[Tuple[int, str], List[float]] = {}  # -> [calls, total_s, self_s]
        self.counts: Dict[str, float] = defaultdict(float)
        self.cmd: Optional[int] = None
        # open calls, each [child_s, enclosing span id]; the bottom frame
        # stands for "outside any command" and is never popped
        self._stack: List[list] = [[0.0, 0]]
        self._next_id = 1
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []  # TARGETS not found in the package

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable, observe=None) -> Callable:
        stack, spans, counts, perf = self._stack, self.spans, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent[0] += t1 - t0
                spans.append((sid, name, parent[1], self.cmd, t0, t1, t1 - t0 - frame[0]))
            if observe is not None:
                key, value = observe(args, kwargs, result)
                counts[key] += value
            return result

        return wrapper

    def agg(self, name: str, fn: Callable, observe=None) -> Callable:
        stack, aggs, counts, perf = self._stack, self.aggs, self.counts, time.perf_counter
        push, pop = stack.append, stack.pop

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            push(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                pop()
                parent[0] += dur
                key = (frame[1], name)
                rec = aggs.get(key)
                if rec is None:
                    aggs[key] = [1, dur, dur - frame[0]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[0]
            if observe is not None:
                key, value = observe(args, kwargs, result)
                counts[key] += value
            return result

        return wrapper

    def dopri(self, prefix: str, fn: Callable) -> Callable:
        """Wrap dopri_integrate as called from ``prefix`` ("pde" or "ode"):
        its rhs and on_step arguments become aggregates under the call."""
        counts = self.counts

        def call(rhs, *args, on_step=None, **kwargs):
            rhs = self.agg(f"{prefix}.rhs", rhs)
            if on_step is not None:
                on_step = self.agg(f"{prefix}.on_step", on_step)
            res = fn(rhs, *args, on_step=on_step, **kwargs)
            counts[f"{prefix}.steps_accepted"] += res.n_steps
            counts[f"{prefix}.steps_rejected"] += res.n_rejected
            return res

        return self.span(f"integrate.dopri_integrate.{prefix}", call)

    def command(self, cmd: int, fn: Callable, *args):
        """Run one command under a root span named ``cli``."""
        self.cmd = cmd
        return self.span("cli", fn)(*args)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import kgblowup  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "kgblowup" or n.startswith("kgblowup.")]
        for mod_name, attr, name, kind, observe in TARGETS:
            original = getattr(sys.modules.get(f"kgblowup.{mod_name}"), attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                self.missing.append(f"{mod_name}.{attr}")
                continue
            make = self.span if kind == SPAN else self.agg
            self._replace(modules, original, make(name, original, observe))
        original = getattr(sys.modules["kgblowup.integrate"], "dopri_integrate", None)
        if original is None:
            self.missing.append("integrate.dopri_integrate")
            return
        for prefix in ("pde", "ode"):
            self._replace([sys.modules[f"kgblowup.{prefix}"]], original, self.dopri(prefix, original))

    def _replace(self, modules, original, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def by_name(self) -> Dict[str, List[float]]:
        """name -> [calls, total_s, self_s] over spans and aggregates."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, _, _, t0, t1, self_s in self.spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += self_s
        for (_, name), (calls, total, self_s) in self.aggs.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def calls_under(self, parent_name: str, name: str) -> int:
        """Aggregate calls of ``name`` whose enclosing span is ``parent_name``."""
        ids = {sid for sid, n, *_ in self.spans if n == parent_name}
        return sum(rec[0] for (sid, n), rec in self.aggs.items() if n == name and sid in ids)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "parent": s[2], "cmd": s[3],
                 "start": s[4], "end": s[5], "self_s": s[6]}
                for s in self.spans
            ],
            "aggregates": [
                {"parent": sid, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (sid, name), (c, t, s) in self.aggs.items()
            ],
            "counts": dict(self.counts),
        }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tr: Tracer, n_cmds: int, output_bytes: float,
                  scale: float = 1.0) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced command, as name -> (value, unit);
    times are multiplied by ``scale``."""
    t = tr.by_name()
    c = tr.counts

    def calls(n):
        return t[n][0] if n in t else 0

    def total(*names):
        return sum(t[n][1] for n in names if n in t) * scale

    def self_s(*names):
        return sum(t[n][2] for n in names if n in t) * scale

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    per = 1.0 / n_cmds
    acc = c["pde.steps_accepted"] + c["ode.steps_accepted"]
    rej = c["pde.steps_rejected"] + c["ode.steps_rejected"]
    ode_steps = c["ode.steps_accepted"] + c["ode.steps_rejected"]
    nodes = c["kernels.node_updates"]
    records = calls("pde.observable_w")
    certifies = calls("certificate.certify")
    objective = (tr.calls_under("certificate.compute_A", "cone.log_q_tilde_eval")
                 + tr.calls_under("certificate.compute_B", "cosmology.curved_mass_sq"))
    kernel = "kernels.radial_accel"
    m = {
        f"{kernel}.calls": (calls(kernel) * per, "count"),
        f"{kernel}.self_s": (self_s(kernel) * per, "s"),
        f"{kernel}.us_per_call": (ratio(self_s(kernel), calls(kernel), 1e6), "us"),
        f"{kernel}.node_updates": (nodes * per, "count"),
        f"{kernel}.ops_computed": (nodes * KERNEL_OPS_PER_NODE * per, "count"),
        f"{kernel}.bytes_computed": (nodes * KERNEL_BYTES_PER_NODE * per, "bytes"),
        "integrate.steps_accepted": (acc * per, "count"),
        "integrate.steps_rejected": (rej * per, "count"),
        "integrate.accept_ratio": (ratio(acc, acc + rej), "ratio"),
        "integrate.rhs_evals": ((calls("pde.rhs") + calls("ode.rhs")) * per, "count"),
        "integrate.rhs_s": (total("pde.rhs", "ode.rhs") * per, "s"),
        "integrate.on_step_s": (total("pde.on_step", "ode.on_step") * per, "s"),
        "integrate.self_s": (self_s("integrate.dopri_integrate.pde",
                                    "integrate.dopri_integrate.ode") * per, "s"),
        "integrate.us_per_step": (ratio(self_s("integrate.dopri_integrate.pde",
                                               "integrate.dopri_integrate.ode"),
                                        acc + rej, 1e6), "us"),
        "pde.grid_nodes": (c["pde.grid_nodes"] * per, "count"),
        "pde.rhs.self_s": (self_s("pde.rhs") * per, "s"),
        "pde.records": (records * per, "count"),
        "pde.observables_s": (total(*PDE_OBSERVABLES) * per, "s"),
        "pde.us_per_record": (ratio(total(*PDE_OBSERVABLES), records, 1e6), "us"),
        "pde.make_field_s": (total("pde.make_field") * per, "s"),
        "pde.csv_s": (total("pde.csv") * per, "s"),
        "pde.csv_bytes": (c["pde.csv_bytes"] * per, "bytes"),
        "certificate.certify.calls": (certifies * per, "count"),
        "certificate.certify.self_s": (self_s("certificate.certify") * per, "s"),
        "certificate.ms_per_certify": (ratio(total("certificate.certify"), certifies, 1e3), "ms"),
        "certificate.compute_A_s": (total("certificate.compute_A") * per, "s"),
        "certificate.compute_B_s": (total("certificate.compute_B") * per, "s"),
        "certificate.objective_evals": (objective * per, "count"),
        "certificate.objective_evals_per_certify": (ratio(objective, certifies), "count"),
        "cone.log_q_tilde_eval.self_s": (self_s("cone.log_q_tilde_eval") * per, "s"),
        "cone.classify_q.calls": (calls("cone.classify_q") * per, "count"),
        "cone.classify_q.self_s": (self_s("cone.classify_q") * per, "s"),
        "cone.comoving_radius.calls": (calls("cone.comoving_radius") * per, "count"),
        "cosmology.curved_mass_sq.calls": (calls("cosmology.curved_mass_sq") * per, "count"),
        "cosmology.curved_mass_sq.self_s": (self_s("cosmology.curved_mass_sq") * per, "s"),
        "cosmology.scale_eval.calls": (calls("cosmology.scale_eval") * per, "count"),
        "cosmology.scale_eval.self_s": (self_s("cosmology.scale_eval") * per, "s"),
        "ode.integrate.calls": (calls("ode.integrate") * per, "count"),
        "ode.rhs.self_s": (self_s("ode.rhs") * per, "s"),
        "ode.us_per_step": (ratio(total("integrate.dopri_integrate.ode"), ode_steps, 1e6), "us"),
        "ode.blowups_detected": (c["ode.blowups_detected"] * per, "count"),
        "ode.detect_blowup_time_s": (total("ode.detect_blowup_time") * per, "s"),
        "scenario.load_s": (total("scenario.load") * per, "s"),
        "scenario.from_dict.calls": (calls("scenario.from_dict") * per, "count"),
        "scenario.from_dict_s": (total("scenario.from_dict") * per, "s"),
        "cli.self_s": (self_s("cli") * per, "s"),
        "cli.json_s": (total("cli.json") * per, "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
    return m


def layer_table(tr: Tracer, n_cmds: int, scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    """layer -> {self_s, calls} per traced command, times multiplied by
    ``scale``; self times sum to the traced commands' wall time."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0.0})
    for name, (calls, _, self_s) in tr.by_name().items():
        row = table[layer_of(name)]
        row["self_s"] += self_s * scale / n_cmds
        row["calls"] += calls / n_cmds
    return dict(table)
