"""The array grid evaluation of A and B against the per-node scalar loop.

``compute_A``/``compute_B`` evaluate their log-objectives over the whole
time grid as one NumPy array and refine the best node on floats.  The
oracle below is the per-node loop that array evaluation replaced; with it
patched in, both must return the same ``ExtremumResult`` bit for bit.  The
property tests compare the array form of log q~ and M^2 with their float
form node by node.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgblowup import ConeGeometry, CosmologyParams, Monotonicity, compute_A, compute_B
from kgblowup import certificate
from kgblowup.certificate import _golden_minimize, _time_grid
from kgblowup.cone import classify_q, log_q_tilde_eval
from kgblowup.cosmology import curved_mass_sq
from kgblowup.errors import DomainError, PreconditionError

from conftest import make_inputs


def loop_optimize_log(f_log, grid, values):
    """Minimize f_log by calling it once per grid node, then refine; the
    array ``values`` are not read."""
    vals = np.array([f_log(t) for t in grid])
    i = int(np.nanargmin(vals))
    best_t, best_v = float(grid[i]), float(vals[i])
    if not math.isfinite(best_v):
        return best_t, best_v
    lo = float(grid[i - 1]) if i > 0 else float(grid[i])
    hi = float(grid[i + 1]) if i < grid.size - 1 else float(grid[i])
    if hi > lo:
        t_ref, v_ref = _golden_minimize(f_log, lo, hi)
        if v_ref < best_v:
            best_t, best_v = t_ref, v_ref
    return best_t, best_v


# (H, sigma, keyword overrides of make_inputs)
BACKGROUNDS = {
    "flat": (0.0, 0.0, dict(N=0.5)),
    "de_sitter_expanding": (1.0, -1.0, dict(N=1.5)),
    "de_sitter_contracting": (-1.0, -1.0, dict(N=1.5)),
    "power_law_expanding": (1.0, 1.0, dict(N=0.5)),
    "power_law_expanding_soft": (1.0, -0.5, dict(N=0.5)),
    "power_law_contracting": (-1.0, -2.0, dict(m2=1.0, N=0.5)),
    "power_law_contracting_n3": (-0.45, -1.5, dict(n=3, m2=2.0, N=1.0)),
    "coasting_n2": (1.0, 0.0, dict(n=2, N=0.5)),
    "coasting_n3_json": (0.45, -0.3333333333333333, dict(n=3, N=0.5)),
    "coasting_n6_exact": (0.5, -1.0 + 2.0 / 6, dict(n=6, N=3.0)),
    "non_increasing_q": (-1.0, 0.0, dict(r0=3.0, N=0.5)),
    "constant_objective_N0": (-1.0, 0.0, dict(r0=3.0, N=0.0)),
    "mass_vanishes_on_tail": (1.0, 1.0, dict(m2=-1e10, N=1e5)),
    "mass_vanishes_everywhere": (0.0, 0.0, dict(m2=-0.25, N=0.5)),
}


@pytest.mark.parametrize("nodes", [257, certificate.GRID_NODES])
@pytest.mark.parametrize("name", sorted(BACKGROUNDS))
def test_array_grid_matches_scalar_loop(name, nodes, monkeypatch):
    H, sigma, kw = BACKGROUNDS[name]
    inputs = make_inputs(H, sigma, **kw)
    monkeypatch.setattr(certificate, "GRID_NODES", nodes)
    fast = (compute_A(inputs), compute_B(inputs))
    monkeypatch.setattr(certificate, "_optimize_log", loop_optimize_log)
    slow = (compute_A(inputs), compute_B(inputs))
    assert fast == slow
    # every background reaches the optimizer in at least one extremum
    assert any(res.arg_t is not None for res in fast)


def test_background_table_reaches_the_special_branches():
    """The table covers partial and total vanishing of N^2 + M^2."""
    grid = _time_grid(math.inf, certificate.GRID_NODES)
    for name, expect in (("mass_vanishes_on_tail", "part"), ("mass_vanishes_everywhere", "all")):
        H, sigma, kw = BACKGROUNDS[name]
        inputs = make_inputs(H, sigma, **kw)
        dead = inputs.N**2 + curved_mass_sq(inputs.params, grid) <= 0.0
        assert dead.all() if expect == "all" else 0 < dead.sum() < dead.size
    res = compute_B(inputs)  # vanishes everywhere: B = 0 with no maximizer
    assert res.ok and res.value == 0.0 and res.arg_t is None


# ---------------------------------------------------------------------------
# property tests of the array evaluators
# ---------------------------------------------------------------------------


@st.composite
def backgrounds(draw):
    n = draw(st.integers(1, 4))
    H = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    special = [-1.0, -1.0 + 2.0 / n, -0.3333333333333333]
    sigma = draw(st.one_of(st.sampled_from(special), st.floats(-3.0, 3.0)))
    r0 = draw(st.floats(0.01, 10.0))
    m2 = draw(st.floats(-4.0, 4.0))
    return ConeGeometry(CosmologyParams(n, 1.0, 1.0, H, sigma, m2), r0)


def _scalar(fn, times):
    """Per-node scalar values, or the type of the first error raised."""
    try:
        return np.array([fn(float(t)) for t in times]), None
    except Exception as exc:  # compared with the array form's error below
        return None, type(exc)


def _array(fn, times):
    try:
        return fn(times), None
    except Exception as exc:
        return None, type(exc)


def _assert_same(scalar, array):
    (s_vals, s_err), (a_vals, a_err) = scalar, array
    assert a_err is s_err
    if s_err is None:
        # NaN only where the scalar form is NaN too (c t/a0 overflows on a
        # grid that reaches t ~ 1e308), so nanargmin skips no node the
        # scalar path keeps
        nan = np.isnan(s_vals)
        assert np.array_equal(np.isnan(a_vals), nan)
        tol = 16.0 * np.finfo(float).eps * (1.0 + np.abs(s_vals))
        with np.errstate(invalid="ignore"):  # inf - inf where both overflow
            close = (a_vals == s_vals) | (np.abs(a_vals - s_vals) <= tol)
        assert np.all(close | nan)


NODES = st.sampled_from([2, 5, 64, 257, certificate.GRID_NODES])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(geom=backgrounds(), nodes=NODES)
def test_log_q_tilde_array_matches_scalar(geom, nodes):
    grid = _time_grid(geom.params.t_last, nodes)
    verdict = classify_q(geom)
    _assert_same(
        _scalar(lambda t: log_q_tilde_eval(geom, t, verdict), grid),
        _array(lambda t: log_q_tilde_eval(geom, t, verdict), grid),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(geom=backgrounds(), nodes=NODES)
def test_curved_mass_sq_array_matches_scalar(geom, nodes):
    grid = _time_grid(geom.params.t_last, nodes)
    _assert_same(
        _scalar(lambda t: curved_mass_sq(geom.params, t), grid),
        _array(lambda t: curved_mass_sq(geom.params, t), grid),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(geom=backgrounds(), beyond=st.floats(1.0, 4.0), where=st.sampled_from(["last", "middle"]))
def test_rejected_grids_raise_like_the_scalar_path(geom, beyond, where):
    """A node past the horizon or before t = 0 raises, never becomes NaN."""
    end = geom.params.T0
    grid = _time_grid(geom.params.t_last, 9)
    if math.isfinite(end):
        bad = end * beyond
    else:
        bad = -beyond
    grid[-1 if where == "last" else 4] = bad
    verdict = classify_q(geom)
    for fn in (
        lambda t: log_q_tilde_eval(geom, t, verdict),
        lambda t: curved_mass_sq(geom.params, t),
    ):
        scalar, array = _scalar(fn, grid), _array(fn, grid)
        _assert_same(scalar, array)
        assert array[1] is DomainError


def test_not_monotone_q_raises_precondition(monkeypatch):
    # H < 0, sigma above the n = 1 gate 0, r0 below -2c/(a0 H) = 2
    inputs = make_inputs(-1.0, 0.5, n=1, r0=1.0)
    assert classify_q(inputs.geom) is Monotonicity.NOT_MONOTONE
    monkeypatch.setattr(certificate, "GRID_NODES", 16)
    for extremum in (compute_A, compute_B):
        with pytest.raises(PreconditionError):
            extremum(inputs)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0, 1.0],
    [NAN, 2.0, 1.0, 3.0],
    [2.0, 1.0, NAN, 1.0, 4.0],
    [INF, -INF, NAN, -INF, INF],
    [NAN, NAN, 5.0, NAN],
], ids=["no_nan", "leading_nan", "nan_between_equal_minima", "infinities", "one_finite"])
def test_optimize_log_picks_the_nanargmin_node(values):
    """The node _optimize_log refines is np.nanargmin's; an objective that
    is not finite there returns that node unrefined."""
    values = np.array(values)
    grid = np.linspace(1.0, 2.0, values.size)
    t, v = certificate._optimize_log(lambda t: INF, grid, values)
    assert (t, v) == (grid[np.nanargmin(values)], INF)


@st.composite
def objectives(draw):
    """Grid values of any length up to GRID_NODES, with NaN and +-inf at
    drawn nodes and not NaN everywhere."""
    size = draw(st.sampled_from([1, 2, 7, 64, 257, certificate.GRID_NODES]))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).choice([0.0, 1.0, -1.0, 0.5], size=size)
    for node, value in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                               st.sampled_from([NAN, INF, -INF])), max_size=8)):
        values[node] = value
    if np.isnan(values).all():
        values[draw(st.integers(0, size - 1))] = 2.0
    return values


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=objectives())
def test_optimize_log_node_is_nanargmin_at_any_length(values):
    grid = np.linspace(1.0, 2.0, values.size)
    t, _ = certificate._optimize_log(lambda t: INF, grid, values)
    assert t == grid[np.nanargmin(values)]


def test_optimize_log_rejects_an_all_nan_objective():
    message = ("the objective is NaN at every grid node: the closed forms overflow "
               "at these parameters")
    for size in (1, certificate.GRID_NODES):
        with pytest.raises(DomainError) as err:
            certificate._optimize_log(lambda t: 0.0, np.linspace(1.0, 2.0, size),
                                      np.full(size, NAN))
        assert str(err.value) == message
