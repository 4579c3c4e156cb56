"""Sweep points share A and B through an ExtremaMemo, and their background
through a Background.

A memo hit must return exactly what a fresh ``compute_A``/``compute_B``
would, and a certificate that reads a shared Background what a fresh one
would.  A sweep visits its points by background and then by N, so each
distinct key must be computed once per command at any axis order, every
point must get the same row at any axis order, and an error must be that
of the point alone.  No result may outlive the ``kgblow sweep`` command
that computed it, and the memo must stay within ``MEMO_CAP`` entries.
"""

import csv
import itertools
import json
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgblowup import certificate, cli, ode
from kgblowup.certificate import MEMO_CAP, Background, BlowupCertificate, ExtremaMemo, certify
from kgblowup.cone import Monotonicity, classify_q
from kgblowup.cli import main
from kgblowup.errors import DomainError
from kgblowup.scenario import load_sweep_spec, scenario_from_dict, set_by_path

from conftest import make_inputs

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

        def compute(inputs, background=None):
            calls[which].append(key_of(inputs, getattr(inputs, third)))
            if which == "A" and inputs.params.H == RAISING_H:
                raise DomainError(f"H={RAISING_H} raises by design")
            return original(inputs, background)

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


@st.composite
def one_background(draw):
    """Inputs on one geom object that differ in N, epsilon, p and the data."""
    n = draw(st.integers(1, 4))
    gate = -1.0 + 1.0 / n
    kind = draw(st.sampled_from(["free", "special", "non_increasing"]))
    if kind == "non_increasing":  # H < 0, sigma >= -1 + 1/n, r0 >= -2c/(a0 H)
        H = -draw(st.floats(0.1, 2.0))
        sigma = draw(st.one_of(st.just(gate), st.floats(gate, 3.0)))
        r0 = -2.0 / H * draw(st.floats(1.0, 3.0))
    else:
        H = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)))
        special = st.sampled_from([-1.0, -1.0 + 2.0 / n, gate])
        sigma = draw(special if kind == "special" else st.floats(-3.0, 3.0))
        r0 = draw(st.floats(0.05, 5.0))
    m2 = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    geom = make_inputs(H, sigma, m2=m2, n=n, r0=r0).geom
    points = draw(st.lists(st.tuples(
        st.sampled_from([0.0, 0.1, 0.5, 2.0]), st.sampled_from([0.25, 0.5, 0.9]),
        st.sampled_from([1.5, 3.0, 7.0]), st.sampled_from([1.0, 16.0, 1e3]),
    ), min_size=1, max_size=6))
    return [replace(make_inputs(H, sigma, m2=m2, n=n, r0=r0, N=N, epsilon=eps, p=p, w0=w0,
                                w1=10.0 * w0), geom=geom)
            for N, eps, p, w0 in points]


def fields_of(inputs, memo=None):
    """repr of every certificate field (so -0.0 and nan compare), or the error."""
    try:
        cert = certify(inputs, memo=memo)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return {f: repr(getattr(cert, f)) for f in BlowupCertificate.__dataclass_fields__}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(points=one_background())
def test_shared_background_certifies_like_a_fresh_one(points):
    """Certificates that read one Background, through one memo per N,
    equal fresh ones field by field."""
    background = Background(points[0].geom)
    memos = {}
    for inputs in points:
        memo = memos.setdefault(inputs.N, ExtremaMemo(background))
        assert fields_of(inputs, memo) == fields_of(inputs)
        assert memo.background is background


def test_shared_background_sample_reaches_every_verdict():
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(points=one_background())
    def collect(points):
        try:
            seen.add(classify_q(points[0].geom))
        except DomainError:
            pass

    collect()
    assert seen == set(Monotonicity)


def test_a_shared_part_that_raised_raises_again():
    """a0 H rounds to 0, so classify_q raises: every certificate on the
    shared Background raises it afresh, and nothing of it is kept."""
    inputs = make_inputs(1e-320, -1.0, a0=1e-5)
    background = Background(inputs.geom)
    memo = ExtremaMemo(background)
    fresh = fields_of(inputs)
    assert fresh.startswith("DomainError: H=1e-320 is too small")
    for N in (0.5, 0.5, 2.0):
        assert fields_of(replace(inputs, N=N), memo) == fresh
    assert "verdict" not in vars(background)


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


def test_memo_stays_within_its_cap(counted):
    """One memo fed more distinct keys than the cap holds the newest
    ``MEMO_CAP`` of them, so an evicted key is computed again."""
    base = scenario_from_dict(BASE).inputs
    memo = ExtremaMemo()
    n_keys = MEMO_CAP + 8
    keys = [replace(base, N=0.5 + i / 256.0) for i in range(n_keys)]
    sizes = []
    for inputs in keys:
        memo.get("A", inputs)
        sizes.append(len(memo))
    assert sizes == [min(i + 1, MEMO_CAP) for i in range(n_keys)]
    assert len(counted["A"]) == n_keys
    memo.get("A", keys[-1])  # among the newest: kept
    assert len(counted["A"]) == n_keys
    memo.get("A", keys[0])  # the oldest: dropped, so computed again
    assert len(counted["A"]) == n_keys + 1
    assert len(memo) == MEMO_CAP


def test_extrema_computed_once_when_w0_comes_before_a_long_N_axis(tmp_path, counted):
    """Points are visited by (background, N), so a w0 axis before an N axis
    of more than MEMO_CAP / 2 values computes each extremum once."""
    n_values = 520
    assert 2 * n_values > MEMO_CAP
    N = [0.5 + i / 256.0 for i in range(n_values)]
    path = write_spec(tmp_path, [("theorem.w0", [8.0, 16.0]), ("theorem.N", N)])
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path), "--workers", "1"]) == 0
    for which in ("A", "B"):
        assert len(counted[which]) == n_values
        assert len(set(counted[which])) == n_values

    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    for row, inputs in zip(rows, spec_inputs(path)):
        cert = certify(inputs)
        t_star = "" if cert.T_star is None else repr(cert.T_star)
        assert row.split(",")[3:6] == [cert.corollary_case or "none",
                                       "true" if cert.valid else "false", t_star]


def sweep_rows(tmp_path, axes, name):
    """sweep.csv of a serial sweep, as {point's axis values: result cells}."""
    path = write_spec(tmp_path, axes, f"{name}.json")
    out = tmp_path / name
    assert main(["sweep", "--scenario", str(path), "--out", str(out), "--workers", "1"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    paths = [p for p, _ in axes]
    return {tuple(row[p] for p in paths): [v for k, v in row.items() if k not in paths
                                           and k != "index"] for row in rows}


def test_permuted_axes_give_every_point_the_same_row(tmp_path):
    axes = [
        ("cosmology.n", [1.0, 3.0]),
        ("cosmology.H", [-0.45, 0.0, -0.0, 0.45]),
        ("cosmology.sigma", [-1.0, -0.3333333333333333, 0.0, 1.0, -2.0]),
        ("cone.r0", [1.0, 3.0]),
        ("theorem.N", [0.0, 0.1, 2.0]),
        ("theorem.p", [3.0, 2.5]),
        ("theorem.w0", [2.0, 40.0]),
    ]
    reference = sweep_rows(tmp_path, axes, "axis_order")
    assert len(reference) == 2 * 4 * 5 * 2 * 3 * 2 * 2
    for k, order in enumerate([axes[::-1], axes[3:] + axes[:3], [axes[4], axes[6], axes[0],
                                                                 axes[5], axes[2], axes[1], axes[3]]]):
        rows = sweep_rows(tmp_path, order, f"permuted{k}")
        paths = [p for p, _ in order]
        position = [paths.index(p) for p, _ in axes]
        assert {tuple(key[i] for i in position): cells for key, cells in rows.items()} == reference


def test_errors_are_never_shared(tmp_path):
    """Each row of an invalid background carries the error that a fresh
    scenario_from_dict raises for its point; a point that breaks both a
    cosmology rule and a theorem rule reports the cosmology one."""
    axes = [
        ("cosmology.c", [1.0, -1.0, 0.0]),
        ("cone.r0", [1.0, 0.0, -2.0]),
        ("theorem.epsilon", [0.5, 1.5]),
        ("cosmology.H", [0.0, 1e200]),
        ("theorem.w0", [2.0, 16.0]),
    ]
    rows = sweep_rows(tmp_path, axes, "invalid")
    spec = load_sweep_spec(write_spec(tmp_path, axes, "invalid.json"))
    kinds = Counter()
    for key, cells in rows.items():
        data = json.loads(json.dumps(spec.base))
        for (p, _), value in zip(axes, key):
            set_by_path(data, p, float(value))
        try:
            scenario_from_dict(data)
            expected = ""
        except Exception as exc:
            expected = f"{type(exc).__name__}: {exc}"
        assert cells[-1] == expected, key
        kinds[expected.partition(" must")[0].partition(" support")[0]] += 1
        if key[0] != "1.0" and key[2] == "1.5":  # both a cosmology and a theorem rule
            assert "scenario.cosmology: speed of light" in cells[-1]
    # c <= 0 first, then H = 1e200 overflows (nH/2c)^2, then r0 <= 0, then epsilon
    assert kinds == {
        "ScenarioError: scenario.cosmology: speed of light c": 2 * 3 * 2 * 2 * 2,
        "OverflowError: (34, 'Numerical result out of range')": 3 * 2 * 2,
        "ScenarioError: scenario.cone.r0:": 2 * 2 * 2,
        "ScenarioError: scenario.theorem.epsilon:": 2,
        "": 2,
    }


def test_pool_chunks_match_the_serial_sweep(tmp_path):
    """Background groups sent to the pool POOL_CHUNK to a message give the
    serial bytes; the point count is not a multiple of the chunk."""
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


# values each axis may take: the special points, and values that break a rule
AXIS_VALUES = {
    "cosmology.n": [1.0, 2.0, 2.5],
    "cosmology.H": [0.0, -0.0, 0.45, -0.45, 1e200],
    "cone.r0": [1.0, 0.0, 3.0],
    "theorem.N": [0.0, 2.0, -1.0],
    "theorem.p": [3.0, 2.5, 1.0],
    "theorem.epsilon": [0.5, 0.25, 1.5],
    "theorem.w0": [16.0, 2.0, -0.0],
    "run.rel_tol": [1e-10, 1e-8, 0.0],
    "run.t_end": [0.05, 0.5, -1.0],
    "theorem.q": [1.0],
    "run.foo": [1.0],
}


@st.composite
def point_axes(draw):
    """Up to four axes of AXIS_VALUES, each with one to three of its values."""
    paths = draw(st.lists(st.sampled_from(sorted(AXIS_VALUES)), min_size=1, max_size=4,
                          unique=True))
    return [(p, draw(st.lists(st.sampled_from(AXIS_VALUES[p]), min_size=1, max_size=3)))
            for p in paths]


def lone_row(data, with_ode):
    """The result cells of one point: a fresh scenario_from_dict, certify
    with no memo, and the comparison ODE when asked."""
    try:
        scenario = scenario_from_dict(data)
        cert = certify(scenario.inputs)
        cells = [cert.corollary_case or "none", cli._format_cell(cert.valid),
                 cli._format_cell(cert.T_star)]
        if with_ode:
            blow = None
            if cert.valid:
                t_end = cli._resolve_t_end(scenario, cert, None)
                blow = ode.detect_blowup_time(ode.integrate(scenario.inputs, t_end, scenario.run))
            cells.append(cli._format_cell(blow))
        return cells + ["", ""]
    except Exception as exc:
        return [""] * (3 + with_ode) + [type(exc).__name__, f"{type(exc).__name__}: {exc}"]


@pytest.mark.parametrize("with_ode", [False, True])
def test_every_row_equals_the_lone_point(with_ode):
    """Each sweep row equals the row of its point built and certified alone,
    whatever its axes share and whichever rule it breaks."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(axes=point_axes(), base_run=st.sampled_from([None, {"rel_tol": 1e-9}]))
    # a run rule broken on a valid theorem, a theorem rule before a run rule,
    # an unknown key beside valid values
    @example(axes=[("run.rel_tol", [1e-10, 0.0]), ("run.t_end", [0.5, -1.0])], base_run=None)
    @example(axes=[("theorem.p", [1.0, 3.0]), ("run.rel_tol", [0.0, 1e-8])],
             base_run={"rel_tol": 1e-9})
    @example(axes=[("theorem.N", [2.0]), ("theorem.q", [1.0])], base_run=None)
    @example(axes=[("cosmology.H", [0.45]), ("run.foo", [1.0])], base_run={"rel_tol": 1e-9})
    def check(axes, base_run):
        base = json.loads(json.dumps(BASE))
        if base_run is not None:
            base["run"] = base_run
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            spec.write_text(json.dumps({"base": base, "with_ode": with_ode, "axes": [
                {"path": p, "values": v} for p, v in axes]}))
            assert main(["sweep", "--scenario", str(spec), "--out", tmp, "--workers", "1"]) == 0
            with open(Path(tmp) / "sweep.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        points = list(itertools.product(*(values for _, values in axes)))
        assert len(rows) == len(points)
        for row, values in zip(rows, points):
            data = json.loads(json.dumps(base))
            for (path, _), value in zip(axes, values):
                set_by_path(data, path, value)
            assert row[1 + len(axes):] == lone_row(data, with_ode), values

    check()
