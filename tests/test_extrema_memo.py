"""Sweep points share their background, and on it A, B and the rest of
what w0 and w1 do not change, through one Background.

A kept ``compute_A``/``compute_B`` result or ``Stem`` must be exactly what
a fresh one would be, and a certificate that reads a shared Background or
Stem what a fresh one would.  A sweep visits its points by background, so
each distinct key must be computed once per command at any axis order,
every point must get the same row at any axis order, and an error must be
that of the point alone.  No result may outlive the ``kgblow sweep``
command that computed it, and a Background keeps every key it was given.
"""

import csv
import itertools
import json
import math
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgblowup import certificate, cli, ode
from kgblowup.certificate import (
    Background,
    BlowupCertificate,
    background_key,
    certify,
    compute_A,
    compute_B,
)
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


def outcome(inputs, background=None):
    try:
        return repr(certify(inputs, background))
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
    backgrounds = {}  # one per background_key, as a sweep makes them
    n_points = 0
    for inputs in spec_inputs(path):
        background = backgrounds.setdefault(background_key(inputs.geom), Background(inputs.geom))
        assert outcome(inputs, background) == outcome(inputs), inputs
        n_points += 1
    assert n_points == 4 * 3 * 2 * 3 * 2 * 2 * 16
    # at most one A per (background, N, epsilon) and one B per (background, N, p)
    kept = sum(len(b.a_results) + len(b.b_results) for b in backgrounds.values())
    assert 0 < kept <= 2 * (4 * 3 * 2 * 3 * 2)


@st.composite
def one_background(draw):
    """Inputs on one geom object that differ in N, epsilon, p, theta,
    lambda and the data, each drawn on its own."""
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
        st.sampled_from([1.5, 3.0, 7.0]), st.sampled_from([0.25, 0.5, 0.75]),
        st.sampled_from([0.5, 1.0, 4.0]), st.sampled_from([0.0, 1.0, 16.0, 1e3]),
        st.sampled_from([0.0, 1.0, 160.0, 1e4]),
    ), min_size=1, max_size=6))
    return [replace(make_inputs(H, sigma, m2=m2, n=n, r0=r0, N=N, epsilon=eps, p=p,
                                theta=theta, lam=lam, w0=w0, w1=w1), geom=geom)
            for N, eps, p, theta, lam, w0, w1 in points]


def fields_of(inputs, background=None):
    """repr of every certificate field (so -0.0 and nan compare), or the error."""
    try:
        cert = certify(inputs, background)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return {f: repr(getattr(cert, f)) for f in BlowupCertificate.__dataclass_fields__}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(points=one_background())
def test_shared_background_certifies_like_a_fresh_one(points):
    """Certificates that read one Background, and the A, B and Stems it
    keeps, equal fresh ones field by field."""
    background = Background(points[0].geom)
    for inputs in points:
        assert fields_of(inputs, background) == fields_of(inputs)
    assert len(background.stems) <= len(points)


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
    fresh = fields_of(inputs)
    assert fresh.startswith("DomainError: H=1e-320 is too small")
    for N in (0.5, 0.5, 2.0):
        assert fields_of(replace(inputs, N=N), background) == fresh
    assert "verdict" not in vars(background) and not background.stems


def test_backgrounds_share_one_read_only_grid_per_T0():
    grids = {}
    flat, expanding = make_inputs(0.0, 0.0).geom, make_inputs(0.45, 1.0).geom
    contracting = make_inputs(-0.45, 1.0).geom
    first, second = Background(flat, grids), Background(expanding, grids)
    assert second.grid is first.grid  # both have T0 = inf
    assert Background(contracting, grids).grid is not first.grid
    assert len(grids) == 2 and not first.grid.flags.writeable
    assert Background(flat).grid is not first.grid  # no store given: its own
    with pytest.raises(ValueError):
        first.grid[0] = 1.0


def test_a_sweep_builds_each_time_grid_once(tmp_path, monkeypatch):
    built = []
    original = certificate._time_grid
    monkeypatch.setattr(certificate, "_time_grid",
                        lambda t_end, nodes: built.append(t_end) or original(t_end, nodes))
    path = write_spec(tmp_path, [
        ("cosmology.H", [0.45, -0.45, 0.0]),
        ("cosmology.sigma", [1.0, 0.5]),
        ("cone.r0", [5.0, 6.0]),  # q non-increasing at H < 0, so A reads the grid
        ("theorem.N", [0.1, 2.0]),
    ])
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path), "--workers", "1"]) == 0
    # T0 = inf at H > 0 and H = 0, and one finite T0 per sigma at H < 0
    assert sorted(Counter(built).values()) == [1, 1, 1]


def test_signed_zeros_are_distinct_keys(tmp_path):
    path = write_spec(tmp_path, [("cosmology.H", [0.0, -0.0, 0.0, -0.0]),
                                 ("theorem.N", [0.0, -0.0, 0.0])])
    backgrounds = {}
    for inputs in spec_inputs(path):
        background = backgrounds.setdefault(background_key(inputs.geom), Background(inputs.geom))
        certify(inputs, background)
    assert len(backgrounds) == 2  # H = +0.0 and H = -0.0
    for background in backgrounds.values():  # A, B and a Stem for N = +0.0 and for -0.0
        assert len(background.a_results) == len(background.b_results) == 2
        assert len(background.stems) == 2


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


# sigma at the special points, below -1 and at +-0.0, near the float range
# (where e = n(1+sigma)/2 overflows at n >= 2), and at -1 + 2/n for n 1-4
FLAT_SIGMAS = [-1.0, 1.0, 0.0, -0.3333333333333333, -0.5, -2.5, -0.0, -1.0 - 1e-12,
               1.7e308, -1.7e308]


def blowup_of(inputs, cert):
    """Where the comparison ODE of a certified point stops and why."""
    traj = ode.integrate(inputs, 1.05 * cert.T_star)
    return repr((traj.rk.status, traj.rk.blowup_time, ode.detect_blowup_time(traj),
                 traj.rk.n_steps, traj.rk.n_rejected))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), H=st.sampled_from([0.0, -0.0]),
       m2=st.one_of(st.floats(-0.5, 2.0), st.sampled_from([0.0, -0.0])),
       N=st.one_of(st.floats(0.05, 3.0), st.sampled_from([0.0, -0.0])),
       below=st.floats(-5.0, -1.0, exclude_max=True),
       data=st.tuples(st.sampled_from([0.25, 0.5, 0.9]), st.sampled_from([1.5, 3.0, 7.0]),
                      st.sampled_from([0.25, 0.5]), st.sampled_from([0.5, 1.0, 4.0]),
                      st.sampled_from([1e3, 1e5, 16.0, 0.0]), st.sampled_from([1e9, 1e4, 0.0])))
@example(n=1, H=-0.0, m2=-0.0, N=0.0, below=-2.0, data=(0.5, 3.0, 0.5, 1.0, 16.0, 1e4))
@example(n=1, H=0.0, m2=-0.0, N=2.0, below=-2.0, data=(0.5, 3.0, 0.5, 1.0, 16.0, 1e4))
def test_a_flat_point_is_the_same_at_every_sigma(n, H, m2, N, below, data):
    """Every certificate field, and the comparison ODE of a certified point,
    to the bit: alone, and on one Background whose geometry and Stem have
    another sigma."""
    eps, p, theta, lam, w0, w1 = data
    points = [make_inputs(H, sigma, m2=m2, N=N, n=n, epsilon=eps, p=p, theta=theta, lam=lam,
                          w0=w0, w1=w1) for sigma in FLAT_SIGMAS + [-1.0 + 2.0 / n, below]]
    assert len({background_key(inputs.geom) for inputs in points}) == 1
    reference = fields_of(points[0])
    background = Background(points[-1].geom)
    for inputs in points:
        assert fields_of(inputs) == reference, inputs.params.sigma
        assert fields_of(inputs, background) == reference, inputs.params.sigma
    if isinstance(reference, dict) and reference["valid"] == "True":
        ends = {blowup_of(inputs, certify(inputs)) for inputs in points}
        assert len(ends) == 1, ends


def test_a_flat_sigma_that_overflows_e_certifies_as_sigma_zero():
    """At n = 2 and |sigma| near the float range e = n(1+sigma)/2
    overflows, yet at H = +-0.0 the rates are the signed zeros of a finite
    e of its sign: the point has the key and every certificate field of
    sigma = 0.0."""
    for H in (0.0, -0.0):
        flat = make_inputs(H, 0.0, n=2, N=2.0, w0=16.0, w1=1000.0)
        for sigma in (1.7e308, -1.7e308):
            point = make_inputs(H, sigma, n=2, N=2.0, w0=16.0, w1=1000.0)
            finite = make_inputs(H, math.copysign(1e300, sigma), n=2).params
            assert math.isinf(point.params.e) and math.isfinite(finite.e)
            assert repr((point.params.eH, point.params.radius_rate)) == repr(
                (finite.eH, finite.radius_rate))
            assert background_key(point.geom) == background_key(flat.geom)
            assert fields_of(point) == fields_of(flat)
            assert fields_of(point, Background(flat.geom)) == fields_of(flat)
    assert certify(make_inputs(0.0, 1.7e308, n=2, N=2.0, w0=16.0, w1=1000.0)).valid
    assert background_key(make_inputs(-0.0, 0.0).geom) != background_key(make_inputs(0.0, 0.0).geom)


def test_a_background_of_another_key_raises():
    """certify refuses a Background whose key is not that of inputs.geom,
    and makes nothing on it; a flat geometry at another sigma has the key."""
    flat = make_inputs(0.0, 0.0, N=2.0, w0=16.0, w1=1000.0)
    background = Background(flat.geom)
    for other in (make_inputs(0.45, 0.0), make_inputs(-0.0, 0.0), make_inputs(0.0, 0.0, r0=2.0)):
        with pytest.raises(ValueError, match="its key differs from that of inputs.geom"):
            certify(other, background)
    assert not background.stems and not background.a_results
    at_another_sigma = make_inputs(0.0, -2.5, N=2.0, w0=16.0, w1=1000.0)
    assert fields_of(at_another_sigma, background) == fields_of(at_another_sigma)
    assert len(background.stems) == 1


def test_compute_A_and_B_refuse_a_background_of_another_key():
    """compute_A and compute_B make certify's check: on a flat Background
    a sloped point would get the flat extremum (A 0.9999999999999999 for
    0.9815893542455312, B 1.9999999999980003 for 2.012616456256303).  A
    flat geometry at another sigma has the key, and gets its own extremum."""
    sloped = make_inputs(0.45, 1.0, N=2.0)
    flat = make_inputs(0.0, 0.0, N=2.0)
    background = Background(flat.geom)
    for compute in (compute_A, compute_B):
        with pytest.raises(ValueError, match="its key differs from that of inputs.geom"):
            compute(sloped, background)
    assert compute_A(sloped).value == 0.9815893542455312
    assert compute_B(sloped).value == 2.012616456256303
    at_another_sigma = make_inputs(0.0, -2.5, N=2.0)
    for compute in (compute_A, compute_B):
        assert compute(at_another_sigma, background) == compute(at_another_sigma)


def test_flat_backgrounds_compute_once_for_every_sigma(tmp_path, counted, monkeypatch):
    """Across 7 sigma, H = +-0.0 makes each A, B and Stem once per (H bits,
    N); H = 0.45 once per (sigma, N), as far as a fresh certificate makes it."""
    stems = []

    class Counting(certificate.Stem):
        def __init__(self, inputs, bg):
            stems.append(key_of(inputs, inputs.p))
            super().__init__(inputs, bg)

    sigmas = [-1.0, 0.0, -2.5, 1.0, -0.3333333333333333, -0.0, -0.5]
    path = write_spec(tmp_path, [
        ("cosmology.sigma", sigmas),
        ("cosmology.H", [0.0, -0.0, 0.45]),
        ("theorem.N", [0.1, 2.0]),
        ("theorem.w0", [16.0, 2.0]),
    ])
    for inputs in spec_inputs(path):
        outcome(inputs)
    fresh = {k: set(v) for k, v in counted.items()}
    for v in counted.values():
        v.clear()
    monkeypatch.setattr(certificate, "Stem", Counting)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--workers", "1"]) == 0

    flat = Counter({(h.hex(), n.hex()): 1 for h in (0.0, -0.0) for n in (0.1, 2.0)})
    for made in (counted["A"], counted["B"], stems):
        # (H, N) of what was made at H = 0.0 or -0.0, whatever its sigma
        assert Counter((k[3], k[7]) for k in made if float.fromhex(k[3]) == 0.0) == flat
        sloped = [k for k in made if k[3] == (0.45).hex()]
        assert len(sloped) == len(set(sloped))
    for which in ("A", "B"):
        assert {k for k in counted[which] if k[3] == (0.45).hex()} == {
            k for k in fresh[which] if k[3] == (0.45).hex()}
    assert len({k for k in counted["A"] if k[3] == (0.45).hex()}) == 2 * len(sigmas)
    assert len({k for k in stems if k[3] == (0.45).hex()}) == 2 * len(sigmas)


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


def test_a_background_keeps_every_key(counted):
    """A Background fed more distinct keys than any sweep of the benchmark
    or CI holds keeps them all, so a repeat is never computed again, and
    stems that differ only in theta share one A and one B."""
    base = scenario_from_dict(BASE).inputs
    background = Background(base.geom)
    n_keys = 1032
    keys = [replace(base, N=0.5 + i / 256.0) for i in range(n_keys)]
    results = [background.A(inputs) for inputs in keys]
    assert len(background.a_results) == len(counted["A"]) == n_keys
    assert all(background.A(inputs) is result for inputs, result in zip(keys, results))
    assert len(counted["A"]) == n_keys

    # stems that differ only in theta share one A and one B
    background = Background(base.geom)
    keys = [replace(base, theta=0.25 + i / 4096.0) for i in range(n_keys)]
    stems = [background.stem(inputs) for inputs in keys]
    assert len(background.stems) == n_keys
    assert len(background.a_results) == len(background.b_results) == 1
    assert len(counted["A"]) == n_keys + 1 and len(counted["B"]) == 1
    assert background.stem(keys[0]) is stems[0]


def test_returned_certificates_share_no_mutable_state():
    """Changing one certificate's reasons and verdicts changes no later
    certificate on the same Background."""
    inputs = scenario_from_dict(BASE).inputs
    background = Background(inputs.geom)
    fresh = fields_of(inputs)
    first = certify(inputs, background)
    first.reasons.append("appended by the caller")
    first.verdicts["A_positive"] = not first.verdicts["A_positive"]
    for w0 in (16.0, 2.0, 16.0):
        point = replace(inputs, w0=w0)
        assert fields_of(point, background) == fields_of(point)
    assert fields_of(inputs, background) == fresh


def test_stem_parts_that_raise_are_made_where_certify_reads_them():
    """At a0 = 1e-8, n = 7 and p = 101, D divides by zero: a point with
    w0 > 0 raises, as a fresh certificate does, and a point with w0 <= 0,
    which never reads D, gets its certificate from the same Stem."""
    inputs = make_inputs(0.45, -0.5, m2=-0.7775, N=0.1, n=7, c=0.5, a0=1e-8, r0=1e5,
                         epsilon=0.25, theta=0.75, lam=2.0, p=101.0, w0=0.0, w1=-5.0)
    background = Background(inputs.geom)
    for w0 in (0.0, 16.0, -3.0, 16.0, 0.0):
        point = replace(inputs, w0=w0)
        assert fields_of(point, background) == fields_of(point)
    assert fields_of(replace(inputs, w0=16.0)) == "ZeroDivisionError: float division by zero"
    assert isinstance(fields_of(inputs), dict)
    assert len(background.stems) == 1 and "D" not in vars(background.stem(inputs))


# w0 outermost, then 12 epsilon x 12 p x 8 theta on one background: 2,304
# points, 1,152 stems, each stem's two points 1,152 points apart
MANY_STEMS = [
    ("theorem.w0", [8.0, 16.0]),
    ("theorem.epsilon", [0.05 * k for k in range(1, 13)]),
    ("theorem.p", [1.0 + 0.5 * k for k in range(1, 13)]),
    ("theorem.theta", [0.1 * k for k in range(1, 9)]),
]


def test_each_shared_part_is_computed_once_at_any_axis_order(tmp_path, counted, monkeypatch):
    """Each A, B and Stem is made once per key for the whole command,
    however far apart in axis order its points lie."""
    stems = []

    class Counting(certificate.Stem):
        def __init__(self, inputs, bg):
            stems.append(tuple(float(v).hex() for v in (
                inputs.N, inputs.epsilon, inputs.p, inputs.theta, inputs.lam)))
            super().__init__(inputs, bg)

    monkeypatch.setattr(certificate, "Stem", Counting)
    path = write_spec(tmp_path, MANY_STEMS)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path), "--workers", "1"]) == 0
    for made, n_keys in ((stems, 12 * 12 * 8), (counted["A"], 12), (counted["B"], 12)):
        assert len(made) == n_keys and set(Counter(made).values()) == {1}

    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 12 * 12 * 8
    for row, inputs in itertools.islice(zip(rows, spec_inputs(path)), 0, None, 37):
        cert = certify(inputs)
        t_star = "" if cert.T_star is None else repr(cert.T_star)
        assert row.split(",")[5:8] == [cert.corollary_case or "none",
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
    "cosmology.sigma": [-1.0, 0.0, -0.0, 1.0, -2.5, -0.3333333333333333, 1.7e308],
    "cosmology.m_squared": [0.0, -0.0, 1.0, -1.0],
    "cone.r0": [1.0, 0.0, 3.0],
    "theorem.N": [0.0, 2.0, -1.0],
    "theorem.p": [3.0, 2.5, 1.0],
    "theorem.epsilon": [0.5, 0.25, 1.5],
    "theorem.w0": [16.0, 2.0, -0.0],
    "theorem.theta": [0.5, 0.75, 1.0],
    "theorem.lambda": [1.0, 2.0, 0.0],
    "theorem.w1": [1000.0, 1.0, -5.0],  # the base's w1 threshold is about 64
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
    on a Background of its own, and the comparison ODE when asked."""
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
    # sloped backgrounds at three sigma, and flat ones at three with m^2 +-0.0
    @example(axes=[("cosmology.sigma", [1.0, -0.3333333333333333, -1.0]),
                   ("cosmology.H", [0.45, -0.45])], base_run=None)
    @example(axes=[("cosmology.sigma", [-2.5, 0.0, -0.0]), ("cosmology.H", [0.0, -0.0]),
                   ("cosmology.m_squared", [-0.0, 0.0]), ("cosmology.n", [2.0])],
             base_run={"rel_tol": 1e-9})
    # at n = 2 a sigma near the float range overflows e, yet shares the flat background
    @example(axes=[("cosmology.sigma", [0.0, 1.7e308]), ("cosmology.n", [2.0]),
                   ("cosmology.H", [0.0])], base_run=None)
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
