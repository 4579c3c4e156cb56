"""Shared builders: corollary-case parameter sets and certified scenarios."""

import math
from dataclasses import replace

import pytest

from kgblowup import (
    ConeGeometry,
    CosmologyParams,
    TheoremInputs,
    certify,
    compute_A,
    compute_B,
    cone_ball_factor,
)
from oracles import data_thresholds

# one representative (H, sigma, m^2, N) per corollary case at n=1, c=a0=1.
# case (v) is omitted: its curved mass diverges at the finite horizon and
# the B-hypothesis genuinely fails there (see the certificate tests).
CASE_SEEDS = {
    "i": dict(H=0.0, sigma=0.0, m2=0.0, N=0.5),
    "ii": dict(H=1.0, sigma=1.0, m2=0.0, N=0.5),
    "iii": dict(H=1.0, sigma=-0.5, m2=0.0, N=0.5),
    "iv": dict(H=1.0, sigma=-1.0, m2=0.0, N=1.5),
    "vi": dict(H=-1.0, sigma=0.0, m2=0.0, N=0.5),
    "vii": dict(H=-1.0, sigma=-1.0, m2=0.0, N=1.5),
    "viii": dict(H=-1.0, sigma=-2.0, m2=1.0, N=0.5),
}

# (H, sigma) sign regions for all eight cases, used by sampling-based tests
CASE_REGIONS = {
    "i": (0.0, (-3.0, 3.0)),
    "ii": ((0.2, 2.0), (0.0, 3.0)),
    "iii": ((0.2, 2.0), (-0.95, -0.05)),
    "iv": ((0.2, 2.0), -1.0),
    "v": ((-2.0, -0.2), (0.05, 3.0)),
    "vi": ((-2.0, -0.2), 0.0),
    "vii": ((-2.0, -0.2), -1.0),
    "viii": ((-2.0, -0.2), (-3.0, -1.05)),
}


def make_inputs(
    H,
    sigma,
    m2=0.0,
    N=0.5,
    n=1,
    c=1.0,
    a0=1.0,
    r0=1.0,
    epsilon=0.5,
    theta=0.5,
    lam=1.0,
    p=3.0,
    w0=1.0,
    w1=1.0,
):
    params = CosmologyParams(n=n, c=c, a0=a0, H=H, sigma=sigma, m_squared=m2)
    geom = ConeGeometry(params, r0)
    return TheoremInputs(
        geom=geom, N=N, epsilon=epsilon, theta=theta, lam=lam, p=p, w0=w0, w1=w1
    )


def certified_inputs(case: str, w0_margin: float = 2.0, w1_margin: float = 1.2):
    """Inputs for a feasible corollary case with data above the thresholds."""
    seed = CASE_SEEDS[case]
    probe = make_inputs(seed["H"], seed["sigma"], m2=seed["m2"], N=seed["N"])
    a_res = compute_A(probe)
    b_res = compute_B(probe)
    assert a_res.ok and b_res.ok, f"case {case} should have A>0, B<inf"
    Q = cone_ball_factor(probe.params)
    thr0, _ = data_thresholds(probe, a_res.value, b_res.value, Q)
    w0 = w0_margin * thr0 if thr0 > 0 else 1.0
    probe = replace(probe, w0=w0)
    _, thr1 = data_thresholds(probe, a_res.value, b_res.value, Q)
    w1 = w1_margin * thr1 if thr1 > 0 else 1.0
    inputs = replace(probe, w1=w1)
    cert = certify(inputs)
    assert cert.valid or cert.inconclusive, f"case {case}: {cert.reasons}"
    return inputs, cert


@pytest.fixture(scope="session")
def minkowski_inputs():
    """The canonical certified flat benchmark: T* = 1/2 exactly."""
    return make_inputs(0.0, 0.0, m2=0.0, N=2.0, w0=16.0, w1=64.0)


@pytest.fixture(scope="session")
def minkowski_cert(minkowski_inputs):
    return certify(minkowski_inputs)


def region_samples(rng, case, count):
    """Draw (H, sigma) pairs from a case's sign region."""
    h_spec, s_spec = CASE_REGIONS[case]
    out = []
    for _ in range(count):
        H = h_spec if isinstance(h_spec, float) else rng.uniform(*h_spec)
        sigma = s_spec if isinstance(s_spec, float) else rng.uniform(*s_spec)
        out.append((float(H), float(sigma)))
    return out
