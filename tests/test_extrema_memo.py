"""Sweep points share A and B through an ExtremaMemo.

A memo hit must return exactly what a fresh ``compute_A``/``compute_B``
would, each distinct key must be computed once per command, no result may
outlive the ``kgblow sweep`` command that computed it, and the memo must
stay within ``MEMO_CAP`` entries.
"""

import itertools
import json
from collections import Counter

import pytest

from kgblowup import certificate, cli
from kgblowup.certificate import MEMO_CAP, ExtremaMemo, certify
from kgblowup.cli import main
from kgblowup.errors import DomainError
from kgblowup.scenario import load_sweep_spec, scenario_from_dict, set_by_path

BASE = {
    "cosmology": {"n": 1, "c": 1.0, "a0": 1.0, "H": 0.0, "sigma": 0.0, "m_squared": 0.0},
    "cone": {"r0": 1.0},
    "theorem": {
        "N": 2.0, "epsilon": 0.5, "theta": 0.5, "lambda": 1.0, "p": 3.0,
        "w0": 16.0, "w1": 1000.0,
    },
}


def write_spec(tmp_path, axes, name="sweep.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"base": BASE, "axes": [
        {"path": p, "values": v} for p, v in axes
    ]}))
    return path


def spec_inputs(path):
    """The TheoremInputs of every point of a sweep spec, in sweep order."""
    spec = load_sweep_spec(path)
    for combo in itertools.product(*(vals for _, vals in spec.axes)):
        data = json.loads(json.dumps(spec.base))
        for (p, _), value in zip(spec.axes, combo):
            set_by_path(data, p, value)
        yield scenario_from_dict(data).inputs


def outcome(inputs, memo=None):
    try:
        return repr(certify(inputs, memo=memo))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def key_of(inputs, third):
    """Distinct inputs of one extremum, with -0.0 and 0.0 kept apart."""
    p = inputs.params
    return tuple(
        float(v).hex()
        for v in (p.n, p.c, p.a0, p.H, p.sigma, p.m_squared, inputs.geom.r0, inputs.N, third)
    )


RAISING_H = 2.2e-311  # compute_A raises DomainError at this H under ``counted``


@pytest.fixture
def counted(monkeypatch):
    """Count compute_A / compute_B body runs per key, as certify makes them."""
    calls = {"A": [], "B": []}

    def counting(which, third):
        original = getattr(certificate, f"compute_{which}")

        def compute(inputs):
            calls[which].append(key_of(inputs, getattr(inputs, third)))
            if which == "A" and inputs.params.H == RAISING_H:
                raise DomainError(f"H={RAISING_H} raises by design")
            return original(inputs)

        return compute

    monkeypatch.setattr(certificate, "compute_A", counting("A", "epsilon"))
    monkeypatch.setattr(certificate, "compute_B", counting("B", "p"))
    return calls


def test_memoised_certificates_equal_fresh_ones(tmp_path):
    """Every axis a sweep can vary, signed zeros in H, sigma, N and m^2."""
    path = write_spec(tmp_path, [
        ("cosmology.H", [0.0, -0.0, 0.45, -0.45]),
        ("cosmology.sigma", [0.0, -0.0, -1.0]),
        ("cosmology.m_squared", [0.0, -0.0]),
        ("theorem.N", [0.0, -0.0, 2.0]),
        ("theorem.epsilon", [0.5, 0.25]),
        ("theorem.p", [3.0, 2.5]),
        ("theorem.lambda", [1.0, 2.0]),
        ("theorem.theta", [0.5, 0.75]),
        ("theorem.w1", [1000.0, 0.0]),
        ("theorem.w0", [16.0, 2.0]),
    ])
    memo = ExtremaMemo()
    n_points = 0
    for inputs in spec_inputs(path):
        assert outcome(inputs, memo) == outcome(inputs), inputs
        n_points += 1
    assert n_points == 4 * 3 * 2 * 3 * 2 * 2 * 16
    # at most one A per (background, N, epsilon) and one B per (background, N, p)
    assert 0 < len(memo) <= 2 * (4 * 3 * 2 * 3 * 2)


def test_signed_zeros_are_distinct_keys(tmp_path):
    path = write_spec(tmp_path, [("cosmology.H", [0.0, -0.0, 0.0, -0.0])])
    memo = ExtremaMemo()
    for inputs in spec_inputs(path):
        certify(inputs, memo=memo)
    assert len(memo) == 4  # A and B for +0.0 and for -0.0


def test_each_distinct_extremum_is_computed_once(tmp_path, counted):
    path = write_spec(tmp_path, [
        ("cosmology.H", [0.45, -0.0, 0.0, RAISING_H]),
        ("cosmology.sigma", [-1.0]),
        ("theorem.N", [1.5, 2.0]),
        ("theorem.w0", [40.0, 60.0, 80.0]),
        ("theorem.lambda", [1.0, 2.0]),
    ])
    for inputs in spec_inputs(path):
        outcome(inputs)
    fresh = {k: list(v) for k, v in counted.items()}
    for v in counted.values():
        v.clear()

    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--workers", "1"]) == 0

    # compute_A raises DomainError at RAISING_H; the error is not kept, so
    # each of those 12 points runs compute_A again
    raising = [k for k in fresh["A"] if k[3] == RAISING_H.hex()]
    assert len(raising) == 12
    kept = set(fresh["A"]) - set(raising)
    assert Counter(counted["A"]) == Counter(kept) + Counter(raising)
    assert Counter(counted["B"]) == Counter(set(fresh["B"]))
    assert len(set(kept)) == 3 * 2  # H = 0.45, -0.0, 0.0; two N
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert sum("DomainError" in r for r in rows) == 12


def test_no_state_survives_a_command(tmp_path, counted):
    x = write_spec(tmp_path, [("cosmology.H", [0.0, 0.45]), ("theorem.w0", [8.0, 16.0])], "x.json")
    y = write_spec(tmp_path, [("cosmology.H", [0.45, 0.5]), ("theorem.w0", [16.0, 32.0])], "y.json")

    def sweep(spec, out):
        for v in counted.values():
            v.clear()
        assert main(["sweep", "--scenario", str(spec), "--out", str(out), "--workers", "1"]) == 0
        files = {name: (out / name).read_bytes() for name in ("sweep.csv", "sweep_summary.json")}
        return files, {k: sorted(v) for k, v in counted.items()}

    alone = sweep(y, tmp_path / "alone")
    sweep(x, tmp_path / "x")
    after_x = sweep(y, tmp_path / "after_x")
    assert after_x == alone  # same bytes, and the shared H = 0.45 recomputed
    assert len(alone[1]["A"]) == 2


def test_memo_stays_within_its_cap(tmp_path, monkeypatch):
    """More distinct keys than the cap, cycled so evicted keys come back."""
    sizes = []

    class Watched(ExtremaMemo):
        def get(self, which, inputs):
            result = super().get(which, inputs)
            sizes.append(len(self))
            return result

    monkeypatch.setattr(cli, "ExtremaMemo", Watched)
    n_values = MEMO_CAP // 2 + 8  # each N gives one A key and one B key
    N = [0.5 + i / 256.0 for i in range(n_values)]
    path = write_spec(tmp_path, [("theorem.w0", [8.0, 16.0]), ("theorem.N", N)])
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path), "--workers", "1"]) == 0
    assert len(sizes) == 2 * 2 * n_values
    assert max(sizes) == MEMO_CAP
    assert sizes == sorted(sizes)  # one memo for the whole serial sweep

    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    for row, inputs in zip(rows, spec_inputs(path)):
        cert = certify(inputs)
        t_star = "" if cert.T_star is None else repr(cert.T_star)
        assert row.split(",")[3:6] == [cert.corollary_case or "none",
                                       "true" if cert.valid else "false", t_star]


def test_pool_chunks_match_the_serial_sweep(tmp_path):
    """Chunks of POOL_CHUNK points with a memo each give the serial bytes;
    the point count is not a multiple of the chunk."""
    path = write_spec(tmp_path, [
        ("cosmology.H", [0.0, 0.45, -0.45]),
        ("theorem.N", [0.3, 2.0]),
        ("theorem.w0", [2.0, 8.0, 16.0]),
    ])
    assert 18 % cli.POOL_CHUNK != 0
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--workers", workers]) == 0
        outs.append([(out / n).read_bytes() for n in ("sweep.csv", "sweep_summary.json")])
    assert outs[0] == outs[1]
