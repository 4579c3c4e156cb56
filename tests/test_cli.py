import csv
import json
import math
from pathlib import Path

import pytest

from kgblowup import pde as pde_mod
from kgblowup.cli import main
from kgblowup.integrate import dopri_integrate
from kgblowup.scenario import ScenarioError, load_scenario, load_sweep_spec, scenario_from_dict

MINK = {
    "cosmology": {"n": 1, "c": 1.0, "a0": 1.0, "H": 0.0, "sigma": 0.0, "m_squared": 0.0},
    "cone": {"r0": 1.0},
    "theorem": {
        "N": 2.0, "epsilon": 0.5, "theta": 0.5, "lambda": 1.0, "p": 3.0,
        "w0": 16.0, "w1": 64.0,
    },
}


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestScenarioLoading:
    def test_minimal_valid_gets_run_defaults(self, tmp_path):
        sc = load_scenario(write(tmp_path, MINK))
        assert sc.run.grid_h == 1e-2
        assert sc.run.t_end is None
        assert sc.inputs.params.n == 1 and sc.inputs.lam == 1.0

    def test_epsilon_constraint_named(self, tmp_path):
        bad = json.loads(json.dumps(MINK))
        bad["theorem"]["epsilon"] = 1.5
        with pytest.raises(ScenarioError, match=r"epsilon.*\(0, 1\)"):
            load_scenario(write(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINK))
        bad["theorem"]["tau"] = 1.0
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(write(tmp_path, bad))

    def test_validation_never_writes_to_its_input(self, tmp_path):
        """load_sweep_spec validates ``base`` itself, not a copy, and keeps it."""
        base = json.loads(json.dumps(MINK))
        base["run"] = {"grid_h": 0.01, "t_end": None, "out": "elsewhere"}
        before = json.dumps(base)
        scenario_from_dict(base)
        assert json.dumps(base) == before
        spec = {"base": base, "axes": [{"path": "theorem.w0", "values": [1.0, 2.0]}]}
        assert load_sweep_spec(write(tmp_path, spec)).base == json.loads(before)

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"cosmology": }')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(path)

    def test_excluded_region_loads_but_fails_analysis(self, tmp_path, capsys):
        sc = json.loads(json.dumps(MINK))
        sc["cosmology"]["H"] = 1.0
        sc["cosmology"]["sigma"] = -2.0
        path = write(tmp_path, sc)
        load_scenario(path)  # loading itself succeeds
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["excluded_region"] is True


class TestAnalyze:
    def test_certified_benchmark(self, tmp_path, capsys):
        path = write(tmp_path, MINK)
        code = main(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["valid"] is True
        assert cert["T_star"] == pytest.approx(0.5, rel=1e-9)
        assert cert["corollary_case"] == "i"
        assert cert["verdicts"]["B_finite"] is True

    def test_coasting_background_certifies(self, tmp_path, capsys):
        """a ∝ t at n = 3 with sigma spelled as JSON writes -1 + 2/3."""
        sc = json.loads(json.dumps(MINK))
        sc["cosmology"].update(n=3, H=0.45, sigma=-0.3333333333333333)
        sc["theorem"].update(w0=40.0, w1=1000.0)
        code = main(["analyze", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["valid"] is True
        assert 0.0 < cert["T_star"] < math.inf

    @pytest.mark.parametrize("H, sigma", [(5e-324, 1.5), (2.2e-311, -1.0)])
    def test_subnormal_H_certifies_as_H_zero(self, tmp_path, capsys, H, sigma):
        """A subnormal H is within rounding of the flat background."""
        certs, codes = [], []
        for h in (H, 0.0):
            sc = json.loads(json.dumps(MINK))
            sc["cosmology"].update(H=h, sigma=sigma)
            sc["theorem"].update(N=1.5, w0=40.0, w1=450.0)
            out = tmp_path / repr(h)
            codes.append(main(["analyze", "--scenario", str(write(tmp_path, sc)),
                               "--out", str(out)]))
            assert "Traceback" not in capsys.readouterr().err
            certs.append(json.loads((out / "certificate.json").read_text()))
        assert codes[0] == codes[1]
        for key in ("A", "B", "T_star"):
            assert certs[0][key] == pytest.approx(certs[1][key], rel=1e-12)

    @pytest.mark.parametrize("command", ["analyze", "ode", "pde", "cone-check"])
    def test_tiny_a0_H_is_a_domain_error(self, tmp_path, capsys, command):
        """a0 = 1e-5 and a subnormal H: a0 H rounds to 0, H itself does not."""
        sc = json.loads(json.dumps(MINK))
        sc["cosmology"].update(a0=1e-5, H=1e-320, sigma=-1.0)
        sc["theorem"].update(N=1.5, w0=40.0, w1=450.0)
        sc["run"] = {"grid_h": 0.01, "t_end": 0.1}
        code = main([command, "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "a0 H rounds to 0" in err and "Traceback" not in err

    def test_below_threshold_exit_code(self, tmp_path):
        sc = json.loads(json.dumps(MINK))
        sc["theorem"]["w0"] = 1.0
        code = main(["analyze", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
        assert code == 2

    def test_deterministic_bytes(self, tmp_path):
        path = write(tmp_path, MINK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["analyze", "--scenario", str(path), "--out", str(out1)])
        main(["analyze", "--scenario", str(path), "--out", str(out2)])
        assert (out1 / "certificate.json").read_bytes() == (out2 / "certificate.json").read_bytes()


class TestFlags:
    @pytest.mark.parametrize(
        "command",
        [
            "pde --t-end nan",
            "pde --t-end inf",
            "ode --t-end nan",
            "ode --t-end -1",
            "ode --t-end 0",
            "pde --t-end -1",
            "cone-check --t-end 0",
            *(f"{cmd} --grid-h {v}" for cmd in ("pde", "cone-check")
              for v in ("0", "-0.01", "nan", "inf")),
            "sweep --workers 0",
            "sweep --workers -3",
        ],
    )
    def test_bad_flag_is_a_scenario_error(self, tmp_path, capsys, command):
        name, flag, value = command.split()
        sweep = {"base": MINK, "axes": [{"path": "theorem.w0", "values": [16.0]}]}
        path = write(tmp_path, sweep if name == "sweep" else MINK)
        out = tmp_path / "out"
        assert main([name, "--scenario", str(path), "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {flag}: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("t_end", [-1.0, 0.0])
    def test_run_t_end_must_be_positive(self, tmp_path, capsys, t_end):
        sc = dict(MINK, run={"t_end": t_end})
        out = tmp_path / "out"
        assert main(["ode", "--scenario", str(write(tmp_path, sc)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and "run.t_end: must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("interval", [0.0, -1.0, -0.0, "Infinity", "NaN"])
    def test_run_output_interval_must_be_positive(self, tmp_path, capsys, interval):
        path = write(tmp_path, dict(MINK, run={"output_interval": 0.0}))
        path.write_text(path.read_text().replace('"output_interval": 0.0',
                                                 f'"output_interval": {interval}'))
        out = tmp_path / "out"
        assert main(["pde", "--scenario", str(path), "--out", str(out), "--t-end", "0.05"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and "run.output_interval: must be" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "pde --scenario s.json --grid-h abc",
            "sweep --scenario s.json --workers abc",
            "pde --out out",  # --scenario missing
            "simulate --scenario s.json",  # no such subcommand
        ],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("analyze", "--t-end", "0.5"),
            ("analyze", "--grid-h", "1e-3"),
            ("analyze", "--workers", "2"),
            ("ode", "--grid-h", "1e-3"),
            ("ode", "--workers", "2"),
            ("pde", "--workers", "2"),
            ("cone-check", "--workers", "2"),
            ("sweep", "--t-end", "0.5"),
            ("sweep", "--grid-h", "1e-3"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_1(
        self, tmp_path, capsys, command, flag, value
    ):
        sweep = {"base": MINK, "axes": [{"path": "theorem.w0", "values": [16.0]}]}
        path = write(tmp_path, sweep if command == "sweep" else MINK)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(path), "--out", str(out), flag, value])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pde", "--help"])
        assert exc.value.code == 0


# (block, key, value, commands): float overflow or division by zero
ARITHMETIC = [
    *((block, key, value, ("analyze", "ode", "pde", "cone-check")) for block, key, value in (
        ("cosmology", "n", 171),
        ("cosmology", "n", 200),
        ("cosmology", "c", 1e300),
        ("theorem", "p", 1e300),
        ("theorem", "w0", 1e308),
        ("theorem", "lambda", 5e-324),
        ("cone", "r0", 1e-300),
    )),
    ("cosmology", "a0", 1e300, ("pde", "cone-check")),
    ("theorem", "epsilon", 1e-300, ("ode",)),
]


@pytest.mark.parametrize(
    "block, key, value, command",
    [(b, k, v, cmd) for b, k, v, cmds in ARITHMETIC for cmd in cmds],
)
def test_float_range_failure_exits_2(tmp_path, capsys, block, key, value, command):
    sc = json.loads(json.dumps(MINK))
    sc[block][key] = value
    sc["run"] = {"grid_h": 0.002}
    code = main([command, "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "OverflowError" in err or "ZeroDivisionError" in err


@pytest.mark.parametrize("command", ["ode", "pde"])
@pytest.mark.parametrize("forcing", [None, 1.0], ids=["forcing", "ode_forcing_const_1"])
def test_first_slope_past_the_float_range_ends_in_step_underflow(
    tmp_path, capsys, command, forcing
):
    """At p = 30 and w1 = 1e14 the first slope's norm overflows; the run
    starts at the step floor and ends in StepUnderflow at t = 0, since the
    blow-up lies below the floor (T* = 1.8e-79)."""
    sc = json.loads(json.dumps(MINK))
    sc["theorem"].update(N=0.5, p=30, w0=1e6, w1=1e14)
    sc["run"] = {"t_end": 1.0, "ode_forcing_const": forcing}
    code = main([command, "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"{command}: StepUnderflow at t=0.0\n")
    report = json.loads((tmp_path / f"{command}_report.json").read_text())
    assert report["termination"] == "StepUnderflow" and report["T_star"] < 1e-78
    assert report["n_steps"] == 0 and report["n_rhs"] == 1 + 6 * report["n_rejected"]


@pytest.mark.parametrize("command", ["pde", "cone-check"])
@pytest.mark.parametrize(
    "theorem, flags, message",
    [
        # T* near 1e300 sizes the domain for a cone radius near 1e300
        ({"epsilon": 1e-300}, [], "nodes, more than the 1048576 allowed"),
        ({}, ["--grid-h", "5e-324"], "is not finite"),
    ],
    ids=["epsilon_1e-300", "grid_h_5e-324"],
)
def test_oversized_grid_is_a_configuration_error(
    tmp_path, capsys, command, theorem, flags, message
):
    sc = json.loads(json.dumps(MINK))
    sc["theorem"].update(theorem)
    out = tmp_path / "out"
    code = main([command, "--scenario", str(write(tmp_path, sc)), "--out", str(out), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("hypothesis/configuration failure: grid: ") and message in err
    assert not any(out.iterdir())


class TestOdeCommand:
    def test_cubic_benchmark_csv(self, tmp_path):
        sc = {
            "cosmology": MINK["cosmology"],
            "cone": MINK["cone"],
            "theorem": {
                "N": 0.0, "epsilon": 0.5, "theta": 0.5, "lambda": 1.0, "p": 3.0,
                "w0": math.sqrt(2.0), "w1": math.sqrt(2.0),
            },
            "run": {"t_end": 1.2, "ode_mass_sq_const": 0.0, "ode_forcing_const": 1.0},
        }
        code = main(["ode", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,w,wdot,envelope,growth_bound"
        last_t = float(rows[-1].split(",")[0])
        assert last_t == pytest.approx(1.0, rel=0.01)
        report = json.loads((tmp_path / "ode_report.json").read_text())
        assert report["blowup_detected"] is True
        assert report["blowup_time_refined"] == pytest.approx(1.0, abs=1e-9)
        # the trajectory ends at the first sample past 1e8 max(1, |w0|); the
        # tail steps that settle the refined time are counted, not recorded
        assert report["n_samples"] == len(rows) - 1 < report["n_steps"] + 1
        # one leg in t and one in blow-up variables, each with a start slope
        # and an initial-step probe
        assert report["n_rhs"] == 4 + 6 * (report["n_steps"] + report["n_rejected"])
        # no step collapse: min_step is the least step in t
        assert 1e-6 < report["min_step"] < 1e-2

    def test_certified_run_includes_lemma_report(self, tmp_path):
        code = main(["ode", "--scenario", str(write(tmp_path, MINK)), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "ode_report.json").read_text())
        assert report["lemma_all_hold"] is True

    def test_excluded_region_exit_2(self, tmp_path):
        sc = json.loads(json.dumps(MINK))
        sc["cosmology"]["H"] = -1.0
        sc["cosmology"]["sigma"] = -0.5
        code = main(["ode", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
        assert code == 2

    def test_short_horizon_reaches_it(self, tmp_path):
        """T0 = 0.002 on a contracting background, w1 = 0: the first-step
        estimate 0.01 d0/d1 lies far past T0, and its probe used to evaluate
        the background there (exit 2, "at or beyond the horizon").  The
        probe is capped at the span, so the run reaches the horizon."""
        sc = json.loads(json.dumps(MINK))
        sc["cosmology"]["H"] = -1000.0
        sc["theorem"].update({"lambda": 1e-9, "w1": 0.0})
        code = main(["ode", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "ode_report.json").read_text())
        assert report["termination"] == "ReachedHorizon" and report["blowup_time"] is None
        assert report["n_steps"] == 15 and report["n_rejected"] == 11


class TestPdeCommands:
    def test_pde_outputs(self, tmp_path, monkeypatch):
        calls = []

        def counting(rhs, *args, **kwargs):
            def counted(t, y, out):
                calls.append(t)
                return rhs(t, y, out)

            return dopri_integrate(counted, *args, **kwargs)

        monkeypatch.setattr(pde_mod, "dopri_integrate", counting)
        sc = json.loads(json.dumps(MINK))
        sc["run"] = {"grid_h": 0.01}
        code = main([
            "pde", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path),
            "--t-end", "0.2",
        ])
        # at grid_h 0.01 the peak's neighbour holds 0.43 of it at the gate:
        # Unresolved, exit 2, with every output written
        assert code == 2
        for name in ("observables.csv", "field_initial.csv", "field_final.csv", "pde_report.json"):
            assert (tmp_path / name).exists()
        report = json.loads((tmp_path / "pde_report.json").read_text())
        assert report["termination"] == "Unresolved" and report["blowup_time"] is None
        assert report["certificate_valid"] is True
        assert report["n_rhs"] == len(calls) > 0
        assert 0.0 < report["min_step"] <= 0.2

    def test_cone_check_contained(self, tmp_path):
        sc = json.loads(json.dumps(MINK))
        sc["run"] = {"grid_h": 0.004, "pde_rel_tol": 1e-10}
        code = main([
            "cone-check", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path),
            "--t-end", "0.5",
        ])
        assert code == 0
        report = json.loads((tmp_path / "cone_report.json").read_text())
        assert report["all_contained"] is True
        assert all(report["contained"])

    def test_run_stopped_before_its_first_step_writes_no_negative_zero(self, tmp_path):
        """Negated bump data has a -0.0 tail, which the first step makes
        +0.0; a run too short for any step writes +0.0 there too."""
        sc = json.loads(json.dumps(MINK))
        sc["theorem"].update(w0=-16.0, w1=-64.0)
        sc["run"] = {"grid_h": 0.01}
        code = main([
            "pde", "--scenario", str(write(tmp_path, sc)), "--out", str(tmp_path),
            "--t-end", "1e-300",
        ])
        assert code == 0
        report = json.loads((tmp_path / "pde_report.json").read_text())
        assert report["n_steps"] == 0

        def values(name):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            return [v for row in rows for v in row.split(",")]

        assert "-0.0" in values("field_initial.csv")
        assert "-0.0" not in values("field_final.csv")


class TestSweep:
    def spec(self, tmp_path, **kw):
        payload = {
            "base": MINK,
            "axes": [{"path": "theorem.w0", "values": [2.0, 4.0, 5.5, 5.7, 8.0, 16.0]}],
        }
        payload.update(kw)
        return write(tmp_path, payload, name="sweep.json")

    def test_threshold_flip(self, tmp_path):
        code = main(["sweep", "--scenario", str(self.spec(tmp_path)), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        w0_i, valid_i = header.index("theorem.w0"), header.index("valid")
        verdicts = {
            float(r.split(",")[w0_i]): r.split(",")[valid_i] == "true" for r in rows[1:]
        }
        threshold = 4.0 * math.sqrt(2.0)  # 5.6568...
        for w0, ok in verdicts.items():
            assert ok == (w0 > threshold), (w0, ok)

    def test_error_class_column(self, tmp_path):
        """The exception's class name sits next to its message; both are
        empty on a row that ran."""
        spec = self.spec(tmp_path, axes=[{"path": "theorem.p", "values": [3.0, 0.5]}], with_ode=True)
        assert main(["sweep", "--scenario", str(spec), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-3:] == ["blowup_time", "error_class", "error"]
        assert rows[1][-2:] == ["", ""] and float(rows[1][-3]) > 0.0
        assert rows[2][-2] == "ScenarioError"
        assert rows[2][-1].startswith("ScenarioError: ")

    def test_ode_reads_each_point_run_block(self, tmp_path):
        """The comparison ODE of each sweep point runs at that point's
        run.rel_tol: every row holds the blow-up time kgblow ode reports."""
        axes = [{"path": "run.rel_tol", "values": [1e-10, 1e-6]}]
        spec = self.spec(tmp_path, axes=axes, with_ode=True)
        assert main(["sweep", "--scenario", str(spec), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        reported = []
        for row in rows:
            point = dict(MINK, run={"rel_tol": float(row["run.rel_tol"])})
            out = tmp_path / f"ode_{row['index']}"
            assert main(["ode", "--scenario", str(write(tmp_path, point)), "--out", str(out)]) == 0
            reported.append(json.loads((out / "ode_report.json").read_text())["blowup_time_refined"])
        assert [float(row["blowup_time"]) for row in rows] == reported
        assert reported[0] != reported[1]

    def test_worker_counts_agree_byte_for_byte(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["sweep", "--scenario", str(self.spec(tmp_path)), "--out", str(out1), "--workers", "1"])
        main(["sweep", "--scenario", str(self.spec(tmp_path)), "--out", str(out2), "--workers", "3"])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "sweep_summary.json").read_bytes() == (out2 / "sweep_summary.json").read_bytes()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("axis", None),
            ("axis", "abc"),
            ("axis", True),
            ("axis", 10**400),  # an integer literal beyond the float range
            ("parallelism", "abc"),
            ("max_points", None),
            ("with_ode", "no"),
        ],
    )
    def test_bad_spec_field_is_a_scenario_error(self, tmp_path, capsys, field, value):
        if field == "axis":
            path = self.spec(tmp_path, axes=[{"path": "theorem.w0", "values": [16.0, value]}])
        else:
            path = self.spec(tmp_path, **{field: value})
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "Traceback" not in err
        assert ("axes[0].values[1]" if field == "axis" else field) in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("field", ["parallelism", "max_points"])
    @pytest.mark.parametrize("value", [0, -2, 1.5])
    def test_counts_must_be_positive_integers(self, tmp_path, field, value):
        with pytest.raises(ScenarioError, match=f"{field}: must be a positive integer"):
            load_sweep_spec(self.spec(tmp_path, **{field: value}))

    @pytest.mark.parametrize(
        "cpus, spec_workers, cli_workers, expected",
        [
            (3, 4096, None, 3),  # the spec's parallelism, clamped
            (3, 1, "4096", 3),  # --workers, clamped
            (8, 1, "2", 2),
            (None, 4096, None, None),  # CPU count unknown: serial, no pool
            (2, 1, None, None),
        ],
    )
    def test_pool_never_exceeds_the_cpus(
        self, tmp_path, monkeypatch, cpus, spec_workers, cli_workers, expected
    ):
        import kgblowup.cli as cli

        sizes = []

        class FakePool:
            """Records max_workers and maps in this process: no fork."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["sweep", "--scenario", str(self.spec(tmp_path, parallelism=spec_workers)),
                "--out", str(tmp_path / "out")]
        if cli_workers is not None:
            argv += ["--workers", cli_workers]
        assert main(argv) == 0
        assert sizes == ([] if expected is None else [expected])
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 7

    def test_repeated_axis_path_rejected(self, tmp_path, capsys):
        axes = [
            {"path": "theorem.w0", "values": [1.0, 2.0]},
            {"path": "theorem.N", "values": [2.0]},
            {"path": "theorem.w0", "values": [300.0]},
        ]
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(self.spec(tmp_path, axes=axes)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error:")
        assert "axes[2].path: 'theorem.w0' repeats axes[0].path" in err
        assert not out.exists()

    def test_empty_axes_rejected(self, tmp_path):
        path = write(tmp_path, {"base": MINK, "axes": []}, name="bad.json")
        with pytest.raises(ScenarioError):
            load_sweep_spec(path)

    def test_per_point_failure_recorded(self, tmp_path):
        payload = {
            "base": MINK,
            "axes": [{"path": "cosmology.a0", "values": [1.0, -1.0]}],
        }
        path = write(tmp_path, payload, name="sweep.json")
        code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert "ScenarioError" in rows[2] or "error" in rows[0]
        assert len(rows) == 3

    def test_case_tags_across_H(self, tmp_path):
        payload = {
            "base": MINK,
            "axes": [{"path": "cosmology.H", "values": [-1.0, 0.0, 1.0]}],
        }
        path = write(tmp_path, payload, name="sweep.json")
        main(["sweep", "--scenario", str(path), "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        # sigma = 0: H=-1 -> case vi, H=0 -> case i, H=1 -> case ii
        assert summary["cases"] == {"i": 1, "ii": 1, "vi": 1}


class TestShippedScenarios:
    SCEN = "scenarios"

    def test_minkowski_certifies(self, tmp_path):
        code = main([
            "analyze", "--scenario", f"{self.SCEN}/minkowski_blowup.json",
            "--out", str(tmp_path),
        ])
        assert code == 0

    def test_desitter_certifies(self, tmp_path):
        code = main([
            "analyze", "--scenario", f"{self.SCEN}/desitter_expanding.json",
            "--out", str(tmp_path),
        ])
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["corollary_case"] == "iv"

    def test_excluded_scenario_rejected(self, tmp_path):
        code = main([
            "analyze", "--scenario", f"{self.SCEN}/excluded_region.json",
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_report_keys_in_order(self, tmp_path):
        scenario = f"{self.SCEN}/minkowski_blowup.json"
        counters = ["n_steps", "n_rejected", "n_rhs", "min_step"]
        expected = {
            "ode": ("ode_report.json", [
                "certificate_valid", "certificate_reasons", "T_star", "termination",
                "blowup_detected", "blowup_time", "blowup_time_refined", "n_samples",
                *counters, "benchmark_overrides", "lemma_properties", "lemma_all_hold",
            ]),
            "pde": ("pde_report.json", [
                "certificate_valid", "T_star", "termination", "blowup_time", *counters,
                "cone_contained", "final_W", "blowup_evidence",
            ]),
            "cone-check": ("cone_report.json", [
                "all_contained", "times", "support_radius", "cone_radius", "contained",
                "max_outside_mass",
            ]),
        }
        for command, (name, keys) in expected.items():
            out = tmp_path / command
            assert main([command, "--scenario", scenario, "--out", str(out)]) == 0
            assert list(json.loads((out / name).read_text())) == keys, command

    @pytest.mark.parametrize("grid_h, node", [(None, 499), ("5e-4", 1999)])
    def test_loose_tolerance_peak_is_unresolved(self, grid_h, node, tmp_path):
        """pde_rel_tol 0.1 grows a one-node peak at the bump's edge r0 = 1,
        whose T^ would settle near t = 0.05 (true blow-up 0.0956): the
        neighbour ratio at the gate rules it out, with exit 2."""
        sc = json.loads(Path(f"{self.SCEN}/minkowski_blowup.json").read_text())
        sc["run"]["pde_rel_tol"] = 0.1
        flags = [] if grid_h is None else ["--grid-h", grid_h]
        h = sc["run"]["grid_h"] if grid_h is None else float(grid_h)
        out = tmp_path / "out"
        assert main(["pde", "--scenario", str(write(tmp_path, sc)), "--out", str(out), *flags]) == 2
        report = json.loads((out / "pde_report.json").read_text())
        evidence = report["blowup_evidence"]
        assert report["termination"] == "Unresolved" and report["blowup_time"] is None
        assert evidence["neighbour_ratio_at_gate"] < 0.5
        assert evidence["peak_node"] == node and evidence["T_hat"] == []
        assert evidence["peak_r"] == node * h and 1.0 - 2.0 * h < node * h < 1.0

    def test_fine_grid_blowup_time_is_within_1e9_of_t_ref(self, tmp_path):
        """The fine-grid run of the benchmark, against the committed
        Richardson reference."""
        t_ref = json.loads(Path("kgbench/t_ref.json").read_text())["t_ref"]
        scenario = f"{self.SCEN}/minkowski_blowup.json"
        assert main(["pde", "--scenario", scenario, "--grid-h", "5e-4", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "pde_report.json").read_text())
        assert report["termination"] == "BlowupThreshold" and report["cone_contained"] is True
        assert abs(report["blowup_time"] - t_ref) <= 1e-9
        assert report["blowup_time"] < report["T_star"] and report["n_steps"] <= 300

    def test_sweep_spec_loads(self):
        spec = load_sweep_spec(f"{self.SCEN}/sweep_w0.json")
        assert spec.n_points == 8
