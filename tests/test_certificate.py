import math
from dataclasses import replace
from pathlib import Path

import pytest

from kgblowup import (
    certify,
    check_N,
    compute_A,
    compute_B,
    cone_ball_factor,
    corollary_case_check,
    data_thresholds,
    lifespan,
    unit_ball_volume,
)
from kgblowup import certificate
from kgblowup.certificate import rpow
from kgblowup.errors import PreconditionError
from kgblowup.scenario import load_scenario

from conftest import CASE_SEEDS, certified_inputs, make_inputs


class TestGeometryFactors:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_cone_ball_factor(self):
        inputs = make_inputs(0.0, 0.0)
        assert cone_ball_factor(inputs.params) == pytest.approx(4.0)


class TestCheckN:
    def test_flat_positive_mass(self):
        assert check_N(make_inputs(0.0, 0.0, m2=1.0, N=0.0))[0]

    def test_exponential_constant_mass(self):
        # M^2 = m^2 - (nH/2c)^2 = 10 - 9 = 1
        assert check_N(make_inputs(2.0, -1.0, m2=10.0, N=0.0, n=3))[0]

    def test_imaginary_curved_mass_uncovered(self):
        # M^2 = 0 - 4 = -4, N^2 = 1: sum negative
        ok, reason = check_N(make_inputs(2.0, -1.0, m2=0.0, N=1.0, n=2))
        assert not ok and "N^2" in reason

    def test_excluded_region(self):
        ok, reason = check_N(make_inputs(1.0, -2.0, N=5.0))
        assert not ok and "excluded" in reason

    @pytest.mark.parametrize("n, sigma", [(3, -1.0 / 3.0 + 1e-12), (1, -1.0)])
    def test_underflowing_shift_is_still_negative(self, n, sigma):
        # sigma (nH/2c)^2 rounds to -0.0 at H = 1e-300, so N^2 + inf M^2 is
        # 0.0 in floats while its exact value is negative
        inputs = make_inputs(1e-300, sigma, m2=0.0, N=0.0, n=n, p=1.5)
        ok, reason = check_N(inputs)
        assert not ok and "exactly" in reason
        with pytest.raises(PreconditionError, match="admissible N"):
            compute_B(inputs)
        cert = certify(inputs)
        assert not cert.verdicts["admissible_N"] and not cert.valid

    def test_underflowing_terms_keep_their_exact_sign(self):
        # N^2 = 1e-400 and the shift both round to 0; exactly, N^2 is larger
        assert check_N(make_inputs(1e-300, -1.0, N=1e-200))[0]
        # N^2 + m^2 = 0 exactly, so the underflowed shift decides
        assert not check_N(make_inputs(-1e-300, -1.0, m2=-1.0, N=1.0, n=2))[0]


class TestComputeA:
    def test_constant_objective(self):
        # non-increasing q: q~ = q0, N = 0 -> A = q0^{-n/2}
        inputs = make_inputs(-1.0, 1.0, N=0.0, r0=3.0)
        res = compute_A(inputs)
        assert res.ok and res.value == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_flat_calculus_oracle(self):
        # e^t / (1+t) has nonnegative derivative, minimum 1 at t -> 0
        inputs = make_inputs(0.0, 0.0, N=2.0)
        res = compute_A(inputs)
        assert res.ok and res.value == pytest.approx(1.0, rel=1e-9)

    def test_exponential_rate_failure(self):
        inputs = make_inputs(1.0, -1.0, N=1.0, n=2)
        res = compute_A(inputs)
        assert not res.ok and res.value == 0.0

    def test_polynomial_growth_needs_positive_N(self):
        res = compute_A(make_inputs(0.0, 0.0, N=0.0))
        assert not res.ok and res.value == 0.0

    @pytest.mark.parametrize("sigma", [-1.0 + 1e-12, -1.0 + 1e-6])
    def test_underflow_to_zero_is_not_positive(self, sigma):
        # q~ outgrows e^{cN(1-eps)t} only slowly near sigma = -1: the
        # infimum over the long time grid underflows to 0.0
        res = compute_A(make_inputs(1.0, sigma, m2=1.0, N=0.5))
        assert res.value == 0.0
        assert not res.ok and res.reason.startswith("A underflows to 0")

    @pytest.mark.parametrize("H, sigma, n, N", [
        (1e-300, -1.0 - 1e-12, 4, 2.0),  # e H = -2e-312: -1/(e H) overflows
        (1e-320, -1.0 - 1e-12, 4, 2.0),  # e H rounds to 0
        (-1e-310, -0.5, 2, 0.0),  # e = 1/2: q~ tends to ~1e620 at T0 = 2e310
    ])
    def test_overflowed_finite_horizon_is_not_positive(self, H, sigma, n, N):
        # sign(e) sign(H) = -1, so the horizon is finite, but its float
        # T0 is inf and the time grid cannot reach it: q~ diverges there,
        # or (e = 1/2) tends to a bound so large that the true A is 0
        inputs = make_inputs(H, sigma, n=n, N=N)
        assert math.isinf(inputs.params.T0)
        res = compute_A(inputs)
        assert not res.ok and res.value == 0.0
        assert res.reason == "q~ diverges with no exponential compensation"

    @pytest.mark.parametrize("H", [5e-324, -5e-324])
    def test_exponential_q_with_an_underflowing_rate_is_not_positive(self, H):
        # sigma = -1: q~ grows like e^(|H| t) with nothing to compensate it
        # at N = 0, though n/2 |H| rounds to 0 at n = 1
        res = compute_A(make_inputs(H, -1.0, n=1, N=0.0, r0=0.5))
        assert not res.ok and res.value == 0.0

    def test_interior_minimum(self):
        # N large enough that the exponential wins, minimum away from 0:
        # objective e^{cN(1-eps)t}/(1+t): derivative zero at t = 1/g - 1
        inputs = make_inputs(0.0, 0.0, N=1.0)  # growth 0.5, min at t=1
        res = compute_A(inputs)
        expected = math.exp(0.5 * 1.0) / 2.0
        assert res.value == pytest.approx(expected, rel=1e-9)
        assert res.arg_t == pytest.approx(1.0, abs=1e-4)


class TestComputeB:
    def test_flat_decreasing_objective(self):
        inputs = make_inputs(0.0, 0.0, N=1.0, p=2.0)
        res = compute_B(inputs)
        assert res.ok and res.value == pytest.approx(1.0, rel=1e-9)

    def test_vanishing_mass_gives_zero(self):
        # N = 0, m^2 = 0, sigma = 0: N^2 + M^2 is identically zero, so the
        # supremum is 0 (not +inf: the mass factor kills the growth of q~)
        inputs = make_inputs(0.0, 0.0, N=0.0, m2=0.0)
        res = compute_B(inputs)
        assert res.ok and res.value == 0.0

    @pytest.mark.parametrize("H, sigma", [(1e-300, -1.0), (0.0, 0.0)])
    def test_underflowing_objective_is_not_zero(self, H, sigma):
        # N^2 = 1e-400 rounds to 0.0, and so does the de Sitter shift at
        # H = 1e-300: the objective is 0.0 at every grid node, but the true
        # B is about 1e-200, so B = 0 would be an underestimate
        inputs = make_inputs(H, sigma, n=1, N=1e-200, m2=0.0, p=3.0)
        assert check_N(inputs)[0]
        res = compute_B(inputs)
        assert not res.ok and math.isinf(res.value)
        assert res.reason == "objective underflows to 0 but is not 0"

    def test_underflowing_mass_sum_is_not_a_vanishing_mass(self):
        # c N = 1e-400 and N^2 + m^2 = 1e-400 both round to 0.0, but they
        # are positive: e^(-cNt) tames the growth of q~ only at t ~ 1e400,
        # so the true B overflows any float, and B = 0 would be optimistic
        inputs = make_inputs(0.0, 0.0, n=1, N=1e-200, m2=0.0, c=1e-200)
        assert check_N(inputs)[0]
        res = compute_B(inputs)
        assert not res.ok and math.isinf(res.value)

    def test_positive_limit_mass_diverges(self):
        inputs = make_inputs(0.0, 0.0, N=0.0, m2=1.0)
        res = compute_B(inputs)
        assert not res.ok and math.isinf(res.value)

    def test_exponential_rate_gate(self):
        fast = compute_B(make_inputs(-1.0, -1.0, N=1.5, m2=1.0))
        slow = compute_B(make_inputs(-1.0, -1.0, N=0.4, m2=1.0))
        assert fast.ok
        assert not slow.ok and math.isinf(slow.value)

    def test_exponential_q_with_an_underflowing_rate_diverges(self):
        # n/2 |H| rounds to 0, but q~ still grows like e^(|H| t) at N = 0
        res = compute_B(make_inputs(5e-324, -1.0, n=1, N=0.0, m2=1.0))
        assert not res.ok and math.isinf(res.value)

    def test_finite_horizon_mass_divergence(self):
        # contracting with sigma > 0: curved mass blows up at T0 while q~ is
        # constant, so the supremum is infinite no matter how large N is
        inputs = make_inputs(-1.0, 1.0, N=50.0, r0=3.0)
        res = compute_B(inputs)
        assert not res.ok and math.isinf(res.value)


class TestThresholdsAndLifespan:
    def test_w0_threshold_arithmetic(self):
        inputs = make_inputs(0.0, 0.0, N=1.0, p=2.0, theta=0.5, lam=2.0)
        w0_thr, _ = data_thresholds(inputs, A=1.0, B=1.0, Q=4.0)
        assert w0_thr == pytest.approx(2.0, rel=1e-12)

    def test_w1_threshold_second_branch(self):
        inputs = make_inputs(0.0, 0.0, N=0.0, p=3.0, theta=0.5, lam=1.0, w0=2.0)
        _, w1_thr = data_thresholds(inputs, A=1.0, B=0.0, Q=4.0)
        assert w1_thr == pytest.approx(1.0, rel=1e-12)

    def test_w1_threshold_vanishes_with_theta(self):
        lo = make_inputs(0.0, 0.0, N=0.0, theta=1e-12, w0=2.0)
        _, w1_thr = data_thresholds(lo, A=1.0, B=0.0, Q=4.0)
        assert w1_thr == pytest.approx(0.0, abs=1e-5)

    def test_lifespan_benchmark(self):
        inputs = make_inputs(0.0, 0.0, N=2.0, w0=16.0)
        life = lifespan(inputs, A=1.0, Q=4.0)
        assert life.D == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert life.T_star == pytest.approx(0.5, rel=1e-12)
        assert certify(inputs).alpha == pytest.approx(1.5)

    def test_c_squared_matches_both_printed_forms(self):
        inputs, cert = certified_inputs("ii")
        p, eps, theta, lam = inputs.p, inputs.epsilon, inputs.theta, inputs.lam
        c = inputs.params.c
        direct = (
            2.0 * lam * c * c * theta / (p + 1.0)
            * rpow(inputs.w0 ** (1.0 - eps) / rpow(cert.Q, inputs.params.n / 2.0) * cert.A, p - 1.0)
        )
        assert cert.C_squared == pytest.approx(direct, rel=1e-10)

    def test_t_star_decreasing_in_w0(self):
        inputs = make_inputs(0.0, 0.0, N=2.0, w0=4.0)
        prev = math.inf
        for w0 in (4.0, 8.0, 16.0, 64.0):
            life = lifespan(replace(inputs, w0=w0), A=1.0, Q=4.0)
            assert life.T_star < prev
            prev = life.T_star


class TestCorollaryCases:
    def test_flat_case(self):
        res = corollary_case_check(make_inputs(0.0, 5.0, m2=0.0, N=1.0))
        assert res.case == "i"

    def test_excluded_region(self):
        res = corollary_case_check(make_inputs(1.0, -2.0, N=1.0))
        assert res.case is None and res.excluded
        assert "excluded region" in res.reason

    def test_case_vii_clauses(self):
        res = corollary_case_check(make_inputs(-1.0, -1.0, m2=1.0, N=2.0))
        assert res.case == "vii"
        assert all(res.clauses.values())

    @pytest.mark.parametrize("H, sigma, case", [
        (1e-300, -1.0 / 3.0 + 1e-12, "iii"), (1e-300, -1.0, "iv"), (-1e-300, -1.0, "vii"),
    ])
    def test_underflowing_shift_fails_the_mass_clause(self, H, sigma, case):
        # N^2 + m^2 = 0 and sigma (nH/2c)^2 rounds to -0.0
        res = corollary_case_check(make_inputs(H, sigma, m2=-1.0, N=1.0, n=3))
        assert res.case is None and f"candidate case ({case}) fails" in res.reason
        assert [k for k, v in res.clauses.items() if not v][0].startswith("N^2+m^2")

    def test_requires_positive_N(self):
        res = corollary_case_check(make_inputs(0.0, 0.0, m2=1.0, N=0.0))
        assert res.case is None and "N > 0" in res.reason

    def test_seed_cases_match_their_tags(self):
        for case, seed in CASE_SEEDS.items():
            res = corollary_case_check(
                make_inputs(seed["H"], seed["sigma"], m2=seed["m2"], N=seed["N"])
            )
            assert res.case == case, (case, res.reason)

    def test_case_v_tag_matches_but_B_fails(self):
        inputs = make_inputs(-1.0, 1.0, m2=0.0, N=1.0, r0=3.0)
        res = corollary_case_check(inputs)
        assert res.case == "v"
        b_res = compute_B(inputs)
        assert not b_res.ok and math.isinf(b_res.value)

    def test_feasible_cases_have_positive_A_finite_B(self):
        for case in CASE_SEEDS:
            seed = CASE_SEEDS[case]
            inputs = make_inputs(seed["H"], seed["sigma"], m2=seed["m2"], N=seed["N"])
            assert compute_A(inputs).ok, case
            assert compute_B(inputs).ok, case


class TestOptimizerConsistency:
    def test_ten_times_finer_grid_agreement(self, monkeypatch):
        for case in ("i", "ii", "iv", "vii", "viii"):
            seed = CASE_SEEDS[case]
            inputs = make_inputs(seed["H"], seed["sigma"], m2=seed["m2"], N=seed["N"])
            a1, b1 = compute_A(inputs), compute_B(inputs)
            with monkeypatch.context() as m:
                m.setattr(certificate, "GRID_NODES", 40960)
                a2, b2 = compute_A(inputs), compute_B(inputs)
            assert a1.value == pytest.approx(a2.value, rel=1e-6), case
            assert b1.value == pytest.approx(b2.value, rel=1e-6), case

    def test_scale_covariance_in_lambda(self):
        inputs = make_inputs(0.0, 0.0, N=2.0)
        b = compute_B(inputs).value
        base, _ = data_thresholds(inputs, 1.0, b, 4.0)
        for k in (0.5, 2.0, 10.0):
            scaled_inputs = replace(inputs, lam=k * inputs.lam)
            scaled, _ = data_thresholds(scaled_inputs, 1.0, b, 4.0)
            assert scaled == pytest.approx(base * k ** (-1.0 / (inputs.p - 1.0)), rel=1e-12)


class TestCertify:
    def test_minkowski_benchmark(self, minkowski_inputs, minkowski_cert):
        cert = minkowski_cert
        assert cert.valid and not cert.inconclusive
        assert cert.A == pytest.approx(1.0, rel=1e-9)
        assert cert.B == pytest.approx(2.0, rel=1e-9)
        assert cert.T_star == pytest.approx(0.5, rel=1e-9)
        assert cert.w0_threshold == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-9)
        assert cert.w1_threshold == pytest.approx(64.0, rel=1e-9)
        assert cert.corollary_case == "i"
        assert all(cert.verdicts.values())

    def test_flat_N0_variant_fails_via_A(self):
        cert = certify(make_inputs(0.0, 0.0, N=0.0, w0=16.0, w1=64.0))
        assert not cert.valid
        assert not cert.verdicts["A_positive"]

    def test_excluded_region_single_reason(self):
        cert = certify(make_inputs(1.0, -2.0, N=1.0, w0=100.0, w1=100.0))
        assert not cert.valid and cert.excluded_region
        assert not cert.verdicts["admissible_N"]
        assert any("excluded" in r for r in cert.reasons)

    def test_w0_below_threshold_pinpointed(self, minkowski_inputs):
        cert = certify(replace(minkowski_inputs, w0=1.0))
        assert not cert.valid
        assert not cert.verdicts["w0_above_threshold"]
        assert cert.verdicts["A_positive"] and cert.verdicts["B_finite"]

    def test_every_feasible_case_certifies_with_large_data(self):
        for case in CASE_SEEDS:
            inputs, cert = certified_inputs(case)
            for name in ("admissible_N", "q_monotone", "A_positive", "B_finite"):
                assert cert.verdicts[name], (case, name, cert.reasons)

    @pytest.mark.parametrize("sigma", [-1.0 + 1e-12, -1.0 + 1e-6])
    def test_underflowing_A_fails_its_verdict(self, sigma):
        cert = certify(make_inputs(1.0, sigma, m2=1.0, N=0.5))
        assert cert.A == 0.0 and not cert.verdicts["A_positive"]
        assert not cert.valid and not cert.inconclusive
        assert "A_positive: A underflows to 0" in " ".join(cert.reasons)

    @pytest.mark.parametrize("kw", [
        dict(H=1.0, sigma=-1.0 + 1e-12, m2=1.0, N=0.5),  # A underflows
        dict(H=0.0, sigma=0.0, N=0.0, w0=16.0, w1=64.0),  # A fails its gate
        dict(H=0.0, sigma=0.0, N=2.0, w0=0.0, w1=64.0),  # lifespan needs w0 > 0
        dict(H=0.0, sigma=0.0, N=2.0, w0=-1.0, w1=64.0),
        dict(H=1.0, sigma=-2.0, N=1.0, w0=100.0, w1=100.0),  # excluded region
        dict(H=-1.0, sigma=-0.9, n=2, N=1.0, r0=5.0, w0=10.0, w1=10.0),  # not monotone
        dict(H=-1.0, sigma=1.0, N=0.5, w0=10.0, w1=10.0),  # B diverges (case v)
        dict(H=0.0, sigma=0.0, N=2.0, w0=16.0, w1=1.0),  # w1 below its threshold
        dict(H=1.0, sigma=-1.0, N=1.5, w0=1e-3, w1=1e-3),  # T* beyond T0 or thresholds
    ])
    def test_every_false_verdict_has_a_reason(self, kw):
        cert = certify(make_inputs(**kw))
        failed = [name for name, ok in cert.verdicts.items() if not ok]
        assert failed and not cert.valid
        for name in failed:
            assert any(r.startswith(f"{name}: ") for r in cert.reasons), (name, cert.reasons)

    def test_not_monotone_reported(self):
        cert = certify(make_inputs(-1.0, -0.9, n=2, N=1.0, r0=5.0, w0=10.0, w1=10.0))
        assert not cert.valid
        assert not cert.verdicts["q_monotone"]


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NO_LIFESPAN = "lifespan_within_horizon: not computed, it needs A > 0 and w0 > 0"
NO_THRESHOLDS = [
    "w0_above_threshold: no threshold without a finite B",
    "w1_above_threshold: no threshold without a finite B",
]
A_DIVERGES = "A_positive: q~ diverges with no exponential compensation"

# (scenario file or make_inputs keywords, failed verdicts, reasons): the
# four shipped scenarios, then one input for each reason of the A and B gates
PINNED = {
    "minkowski_blowup": ("minkowski_blowup", [], []),
    "cubic_ode_benchmark": (
        "cubic_ode_benchmark",
        ["A_positive", "lifespan_within_horizon"],
        [A_DIVERGES, NO_LIFESPAN],
    ),
    "excluded_region": (
        "excluded_region",
        ["admissible_N", "A_positive", "B_finite", "w0_above_threshold",
         "w1_above_threshold", "lifespan_within_horizon"],
        ["admissible_N: excluded region: curved mass unbounded below", A_DIVERGES,
         "B_finite: not computed, N is not admissible", *NO_THRESHOLDS, NO_LIFESPAN],
    ),
    "desitter_expanding": ("desitter_expanding", [], []),
    "A_decay_rate": (
        dict(H=1.0, sigma=-1.0, N=1.0, n=2),
        ["A_positive", "lifespan_within_horizon"],
        ["A_positive: decay rate -0.5: exponential growth of q~ outruns e^(cN(1-eps)t)",
         NO_LIFESPAN],
    ),
    "A_q_diverges": (
        dict(H=0.0, sigma=0.0, N=0.0),
        ["A_positive", "lifespan_within_horizon"],
        [A_DIVERGES, NO_LIFESPAN],
    ),
    "B_mass_diverges": (
        dict(H=-1.0, sigma=1.0, N=50.0, r0=3.0),
        ["B_finite", "w0_above_threshold", "w1_above_threshold", "lifespan_within_horizon"],
        ["B_finite: curved mass diverges to +infinity at the finite horizon", *NO_THRESHOLDS,
         "lifespan_within_horizon: T*=23.999999999399996 exceeds T0=1.0 (inconclusive)"],
    ),
    "B_growth_rate": (
        dict(H=-1.0, sigma=-1.0, N=0.4, m2=1.0),
        ["A_positive", "B_finite", "w0_above_threshold", "w1_above_threshold",
         "lifespan_within_horizon"],
        ["A_positive: decay rate -0.3: exponential growth of q~ outruns e^(cN(1-eps)t)",
         "B_finite: growth rate 0.09999999999999998: q~^(n/2) outruns e^(cNt)",
         *NO_THRESHOLDS, NO_LIFESPAN],
    ),
    "B_positive_limit": (
        dict(H=0.0, sigma=0.0, N=0.0, m2=1.0),
        ["A_positive", "B_finite", "w0_above_threshold", "w1_above_threshold",
         "lifespan_within_horizon"],
        [A_DIVERGES, "B_finite: q~ unbounded and N^2 + M^2 has a positive limit",
         *NO_THRESHOLDS, NO_LIFESPAN],
    ),
    "B_vanishes": (
        dict(H=0.0, sigma=0.0, N=0.0, m2=0.0),
        ["A_positive", "lifespan_within_horizon"],
        [A_DIVERGES, NO_LIFESPAN],
    ),
    "B_degree": (
        dict(H=1.0, sigma=1.0, n=3, N=0.0, m2=0.0),
        ["A_positive", "B_finite", "w0_above_threshold", "w1_above_threshold",
         "lifespan_within_horizon"],
        [A_DIVERGES, "B_finite: polynomial degree comparison diverges", *NO_THRESHOLDS,
         NO_LIFESPAN],
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_verdicts_and_reasons(name):
    source, failed, reasons = PINNED[name]
    if isinstance(source, str):
        inputs = load_scenario(SCENARIOS / f"{source}.json").inputs
    else:
        inputs = make_inputs(**source)
    cert = certify(inputs)
    assert [k for k, ok in cert.verdicts.items() if not ok] == failed
    assert cert.reasons == reasons


@pytest.mark.parametrize("key, value, rule", [
    ("epsilon", 1.5, "epsilon: must lie in (0, 1)"),
    ("theta", 0.0, "theta: must lie in (0, 1)"),
    ("lam", -1.0, "lambda: must be positive"),
    ("p", 1.0, "p: must lie in (1, infinity)"),
    ("p", math.inf, "p: must lie in (1, infinity)"),
    ("N", -1.0, "N: must be nonnegative"),
    ("N", math.nan, "N: must be nonnegative"),
])
def test_theorem_range_rules(key, value, rule):
    """Each rule, NaN included, is a ValueError named by its scenario key;
    scenario_from_dict prefixes the block path to this text."""
    with pytest.raises(ValueError) as exc:
        replace(make_inputs(0.0, 0.0), **{key: value})
    assert str(exc.value) == rule


@pytest.mark.parametrize("r0", [0.0, -1.0, math.nan])
def test_cone_range_rule(r0):
    geom = make_inputs(0.0, 0.0).geom
    with pytest.raises(ValueError) as exc:
        replace(geom, r0=r0)
    assert str(exc.value) == "r0: support radius must be positive"
