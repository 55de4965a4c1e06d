import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import crflow
import crflow.cli
import crflow.measure
from crflow.analysis import diagnostics
from crflow.cli import main
from crflow.dynamics import StepControl, integrate, picard_solve
from crflow.errors import ConfigError, ValidationError
from crflow.scenario import build_scenario, load_config, run, scenario_hash

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def washout_cfg():
    return load_config(SCENARIOS / "washout.json")


def write_cfg(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestScenarioBuilding:
    def test_washout_scenario_builds(self):
        sc = build_scenario(washout_cfg())
        assert sc.state0.space.size == 2
        assert sc.state0.S == 0.0
        assert sc.rates.clamp is not None

    def test_hash_is_content_addressed(self):
        cfg = washout_cfg()
        h1 = scenario_hash(cfg)
        cfg2 = json.loads(json.dumps(cfg))
        assert scenario_hash(cfg2) == h1
        cfg2["control"]["t_end"] = 2.0
        assert scenario_hash(cfg2) != h1

    def test_missing_section_rejected(self):
        cfg = washout_cfg()
        del cfg["rates"]
        with pytest.raises(ConfigError):
            build_scenario(cfg)

    def test_negative_initial_data_rejected(self):
        cfg = washout_cfg()
        cfg["initial"]["weights"] = [-0.1, 0.0]
        with pytest.raises(ConfigError):
            build_scenario(cfg)

    def test_zero_mortality_rejected(self):
        cfg = washout_cfg()
        cfg["rates"]["mortality"]["d0"] = 0.0
        with pytest.raises(ValidationError):
            build_scenario(cfg)

    def test_affine_coefficient_resolution(self):
        sc = build_scenario(load_config(SCENARIOS / "desk_chemostat.json"))
        # b = 0.8 + 0.4 * q over the grid q in {0, 0.5, 1}
        assert np.allclose(sc.rates.uptake.b, [0.8, 1.0, 1.2])

    def test_picard_method_is_kept_in_control(self):
        cfg = washout_cfg()
        cfg["control"]["method"] = "picard"
        sc = build_scenario(cfg)
        assert sc.control.method == "picard"
        with pytest.raises(ConfigError):
            integrate(sc.state0, 1.0, sc.control, sc.rates, sc.kernel)


def picard_washout_cfg():
    cfg = washout_cfg()
    cfg["control"]["method"] = "picard"
    return cfg


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestRun:
    @pytest.mark.parametrize("cfg", [
        load_config(SCENARIOS / "desk_chemostat.json"),
        load_config(SCENARIOS / "sweep_inflow.json"),
        washout_cfg(),
        picard_washout_cfg(),
    ], ids=["desk_chemostat", "sweep_inflow", "washout", "washout_picard"])
    def test_equals_integrator_plus_diagnostics(self, cfg):
        sc = build_scenario(cfg)
        traj, report = run(sc)
        if sc.control.method == "picard":
            ref = picard_solve(sc.state0, sc.control.t_end, sc.rates, sc.kernel,
                               **sc.picard_options)
        else:
            ref = integrate(sc.state0, sc.control.t_end, sc.control, sc.rates,
                            sc.kernel)
        for name in ("times", "S", "weights"):
            assert np.array_equal(bits(getattr(traj, name)), bits(getattr(ref, name)))
        assert traj.metadata == {**ref.metadata, "scenario_hash": sc.hash,
                                 "version": crflow.__version__}
        # repr prints every float exactly
        assert repr(report) == repr(diagnostics(ref, sc.rates))


class TestSimulate:
    def test_washout_matches_closed_form(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(SCENARIOS / "washout.json"),
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario_hash=")
        assert lines[1].split(",")[:3] == ["t", "S", "mass"]
        for row in lines[2:]:
            t, S = (float(v) for v in row.split(",")[:2])
            assert abs(S - (1.0 - math.exp(-t))) < 1e-6
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["endpoint"]["t"] == 1.0
        assert diag["endpoint"]["S"] == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-6
        )

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "simulate", "--scenario", str(SCENARIOS / "desk_chemostat.json"),
                "--out", str(out),
            ]) == 0
            outs.append(out)
        for fname in ("trajectory.csv", "diagnostics.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = washout_cfg()
        cfg["rates"]["mortality"]["d0"] = 0.0
        path = write_cfg(tmp_path, cfg)
        code = main(["simulate", "--scenario", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["exit_code"] == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out",
                     str(tmp_path / "out")]) == 2

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 4

    def test_picard_method_runs(self, tmp_path):
        cfg = washout_cfg()
        cfg["control"]["method"] = "picard"
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["metadata"]["integrator"] == "picard"
        assert diag["endpoint"]["S"] == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-6
        )


class TestCheck:
    def test_desk_scenario_passes(self, capsys):
        code = main(["check", "--scenario",
                     str(SCENARIOS / "desk_chemostat.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        for name in ("positivity", "mass_balance", "dissipativity",
                     "semiflow_law", "step_accuracy", "picard_vs_rk"):
            assert name in out

    def test_coarse_step_fails_accuracy(self, tmp_path, capsys):
        cfg = load_config(SCENARIOS / "desk_chemostat.json")
        cfg["control"]["dt"] = 0.5
        path = write_cfg(tmp_path, cfg)
        code = main(["check", "--scenario", str(path), "--tolerance", "1e-10"])
        out = capsys.readouterr().out
        assert code != 0
        assert "FAIL" in out

    def test_picard_options_reach_the_picard_check(self, tmp_path, capsys):
        cfg = washout_cfg()
        cfg["control"]["max_iter"] = 1
        path = write_cfg(tmp_path, cfg)
        code = main(["check", "--scenario", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConvergenceError"
        assert "did not converge in 1 steps" in err["message"]

    def test_empty_directory(self, tmp_path, capsys):
        code = main(["check", "--scenario", str(tmp_path)])
        assert code == 0
        assert "0 scenarios" in capsys.readouterr().out

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["check", "--scenario",
                     str(SCENARIOS / "desk_chemostat.json"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "check_report.json").read_text())
        rows = next(iter(report["results"].values()))
        assert all(r["ok"] for r in rows)


class TestFlatnorm:
    def test_dirac_pair(self, capsys):
        code = main(["flatnorm",
                     str(SCENARIOS / "measures" / "dirac_a.json"),
                     str(SCENARIOS / "measures" / "dirac_b.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.666666666667"

    def test_symmetry(self, capsys):
        main(["flatnorm",
              str(SCENARIOS / "measures" / "dirac_b.json"),
              str(SCENARIOS / "measures" / "dirac_a.json")])
        assert capsys.readouterr().out.strip() == "0.666666666667"

    def test_identical_measures(self, capsys):
        code = main(["flatnorm",
                     str(SCENARIOS / "measures" / "dirac_a.json"),
                     str(SCENARIOS / "measures" / "dirac_a.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.000000000000"

    def test_space_mismatch_exits_2(self, tmp_path, capsys):
        other = {
            "space": {"grid": {"dim": 1, "bounds": [[0.0, 2.0]],
                               "counts": [2]}},
            "weights": [[0, 1.0]],
        }
        path = write_cfg(tmp_path, other, "other.json")
        code = main(["flatnorm",
                     str(SCENARIOS / "measures" / "dirac_a.json"), str(path)])
        assert code == 2

    def test_failed_certificate_exits_3(self, monkeypatch, capsys):
        solve = crflow.measure.solve_lp

        def corrupted(*lp):
            value, x, y = solve(*lp)
            return value, x, 2.0 * y

        monkeypatch.setattr(crflow.measure, "solve_lp", corrupted)
        code = main(["flatnorm", str(SCENARIOS / "measures" / "dirac_a.json"),
                     str(SCENARIOS / "measures" / "dirac_b.json")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "NumericalError"
        assert "certificate failed" in err["message"]

    def test_parser_is_reused_and_commands_are_looked_up_per_call(
            self, monkeypatch, capsys):
        argv = ["flatnorm", str(SCENARIOS / "measures" / "dirac_a.json"),
                str(SCENARIOS / "measures" / "dirac_b.json")]
        assert main(argv) == 0
        parser = crflow.cli._build_parser()
        calls = []
        monkeypatch.setattr(crflow.cli, "cmd_flatnorm",
                            lambda args: calls.append(args.measure_b) or 0)
        assert main(argv) == 0
        assert crflow.cli._build_parser() is parser
        assert calls == [argv[2]]
        assert capsys.readouterr().out == "0.666666666667\n"


class TestSweep:
    def test_inflow_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario",
                     str(SCENARIOS / "sweep_inflow.json"),
                     "--out", str(out), "--jobs", "2"])
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["run", "rates.inflow"]
        assert len(lines) == 4
        masses = []
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[2] == "ok"
            inflow = float(cells[1])
            mass = float(cells[3])
            # eventual mass is bounded by inflow / min{dilution, 1, floor}
            assert mass <= inflow / 0.3 + 1e-6
            masses.append(mass)
        assert masses == sorted(masses)
        for i in range(3):
            assert (out / f"run_{i:04d}" / "trajectory.csv").exists()

    def test_single_point_sweep_matches_simulate(self, tmp_path):
        cfg = load_config(SCENARIOS / "washout.json")
        cfg["sweep"] = {"rates.inflow": [1.0]}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        direct = tmp_path / "direct"
        cfg2 = load_config(SCENARIOS / "washout.json")
        cfg2["rates"]["inflow"] = 1.0
        path2 = write_cfg(tmp_path, cfg2, "direct.json")
        assert main(["simulate", "--scenario", str(path2),
                     "--out", str(direct)]) == 0
        a = (out / "run_0000" / "trajectory.csv").read_text()
        b = (direct / "trajectory.csv").read_text()
        # same trajectory rows; the header hash differs because the sweep
        # template carries the extra sweep section
        assert a.splitlines()[1:] == b.splitlines()[1:]

    def test_sweep_without_section_exits_2(self, tmp_path):
        path = write_cfg(tmp_path, washout_cfg())
        assert main(["sweep", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_bad_child_propagates_worst_exit(self, tmp_path):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["sweep"] = {"rates.mortality.d0": [0.3, 0.0]}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 2
        lines = (out / "summary.csv").read_text().splitlines()
        statuses = [row.split(",")[2] for row in lines[1:]]
        assert statuses == ["ok", "validation-error"]

        # A renormalized 2x3 matrix passes build_kernel and fails inside
        # MutationKernel with a DimensionError; the good row is still kept.
        cfg["control"]["t_end"] = 1.0
        cfg["kernel"] = {"renormalize": True}
        cfg["sweep"] = {"kernel.matrix": [[[1.0, 0.0], [0.0, 1.0]],
                                          [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]}
        path = write_cfg(tmp_path, cfg, "matrix.json")
        out = tmp_path / "matrix"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 2
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert "ok" in rows[0].split(",")
        assert "validation-error" in rows[1].split(",")
        assert "kernel shape (2, 3) does not match 2 atoms" in rows[1]

    def test_list_valued_sweep_value_keeps_csv_well_formed(self, tmp_path):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["control"]["t_end"] = 1.0
        cfg["kernel"] = {"renormalize": True}
        matrices = [[[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.1], [0.2, 0.8]]]
        cfg["sweep"] = {"kernel.matrix": matrices}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 2
        for row, matrix in zip(rows, matrices):
            assert len(row) == len(header)
            cells = dict(zip(header, row))
            assert cells["status"] == "ok"
            assert json.loads(cells["kernel.matrix"]) == matrix

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_io_error_fails_only_its_row(self, tmp_path, jobs):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["control"]["t_end"] = 1.0
        cfg["sweep"] = {"rates.inflow": [0.5, 1.0]}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_0001").write_text("not a directory", encoding="utf-8")
        code = main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--jobs", jobs])
        assert code == 4
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        cells = [dict(zip(header, row)) for row in rows]
        assert [c["status"] for c in cells] == ["ok", "io-error"]
        assert "run_0001" in cells[1]["error"]
        assert (out / "run_0000" / "trajectory.csv").exists()


def off_grid_cfg():
    """washout with a horizon that is not a multiple of dt."""
    cfg = washout_cfg()
    cfg["control"]["t_end"] = 1.0005
    return cfg


class TestCheckSplitState:
    @pytest.mark.parametrize("cfg", [
        load_config(SCENARIOS / "desk_chemostat.json"),
        load_config(SCENARIOS / "sweep_inflow.json"),
        washout_cfg(),
        off_grid_cfg(),
    ])
    def test_stored_state_equals_separate_integration(self, cfg):
        # run_checks takes the semiflow split state from the recorded
        # trajectory instead of integrating to the split a second time.
        sc = build_scenario(cfg)
        control = StepControl(method="rk4", dt=sc.control.dt,
                              t_end=sc.control.t_end, record_every=1)
        traj = integrate(sc.state0, control.t_end, control, sc.rates, sc.kernel)
        n_steps = len(traj) - 1
        split = (n_steps // 2) * sc.control.dt
        separate = integrate(sc.state0, split, control, sc.rates, sc.kernel)
        stored = traj.state(n_steps // 2)
        assert len(separate) == n_steps // 2 + 1
        assert separate.times[-1] == traj.times[n_steps // 2]
        assert np.float64(stored.S).view(np.uint64) == np.float64(
            separate.endpoint().S).view(np.uint64)
        assert np.array_equal(stored.mu.weights.view(np.uint64),
                              separate.endpoint().mu.weights.view(np.uint64))


class TestConfigErrors:
    @pytest.mark.parametrize("edit,where", [
        (lambda cfg: cfg["control"].pop("t_end"), "control.t_end: "),
        (lambda cfg: cfg["rates"]["uptake"].update(b="abc"), "rates.uptake.b: "),
        (lambda cfg: cfg["rates"].pop("inflow"), "rates.inflow: "),
        (lambda cfg: cfg["space"]["grid"].pop("counts"), "space.grid.counts: "),
        (lambda cfg: cfg["initial"].update(S=None), "initial.S: "),
        (lambda cfg: cfg["control"].update(record_every="x"),
         "control.record_every: "),
        (lambda cfg: cfg.update(kernel=[]), "kernel: "),
        (lambda cfg: cfg["rates"].update(mortality=0.3), "rates.mortality: "),
        (lambda cfg: cfg["control"].update(dtt=0.1), "control.dtt: unknown key"),
        (lambda cfg: cfg["rates"]["uptake"].update(
            b={"affine": {"const": 0.8, "slop": [0.4]}}),
         "rates.uptake.b.affine.slop: unknown key"),
        (lambda cfg: cfg.update(truncaton=5.0), "scenario.truncaton: unknown key"),
        (lambda cfg: cfg["control"].update(method="adaptive", dt=0.0),
         "dt must be positive"),
        (lambda cfg: cfg["rates"]["uptake"].update(b={}),
         "rates.uptake.b: unknown coefficient form"),
        (lambda cfg: cfg.update(seed="x"), "seed: "),
        (lambda cfg: cfg["control"].update(method="picard", **{"lambda": "x"}),
         "control.lambda: "),
        (lambda cfg: cfg["control"].update(method="picard", nodes=0),
         "control.nodes: "),
        (lambda cfg: cfg["control"].update(record_every=0),
         "control.record_every: expected an integer >= 1, got 0"),
        (lambda cfg: cfg["control"].update(record_every=2.5),
         "control.record_every: expected an integer, got 2.5"),
        (lambda cfg: cfg["control"].update(dt=True), "control.dt: "),
        (lambda cfg: cfg["control"].update(method=["rk4"]), "control.method: "),
        (lambda cfg: cfg["initial"].update(weights="x"), "initial.weights: "),
        (lambda cfg: cfg.update(kernel={"family": "gauss"}), "kernel.family: "),
        (lambda cfg: cfg.update(kernel={"matrix": [[1.0, 0.0], [0.0, 1.0]],
                                        "renormalize": "false"}),
         "kernel.renormalize: "),
        (lambda cfg: cfg.update(kernel={"matrix": [[0.6, 0.5], [0.5, 0.5]]}),
         "kernel.matrix: row 0 sums to 1.1"),
        (lambda cfg: cfg.update(allow_invalid_rates="false"), "allow_invalid_rates: "),
    ])
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_exits_2_with_one_json_error(self, tmp_path, capsys, edit, where,
                                         command):
        cfg = washout_cfg()
        edit(cfg)
        path = write_cfg(tmp_path, cfg)
        argv = [command, "--scenario", str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert err["exit_code"] == 2
        assert err["message"].startswith(where)

    @pytest.mark.parametrize("key", [
        "rates.inflow", "rates.dilution", "initial.S", "control.dt",
        "control.t_end", "control.tolerance", "control.record_every",
        "control.picard_tol", "control.nodes", "control.max_iter", "kernel.width",
    ])
    def test_ill_typed_scalar_names_its_key(self, tmp_path, capsys, key):
        cfg = washout_cfg()
        cfg["kernel"] = {"family": "gaussian", "width": 0.5}
        cfg["control"]["t_end"] = 0.01
        bad = json.loads(json.dumps(cfg))
        section, name = key.split(".")
        bad[section][name] = "x"
        code = main(["simulate", "--scenario", str(write_cfg(tmp_path, bad)),
                     "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert err["message"].startswith(f"{key}: ")
        assert "'x'" in err["message"]

        cfg["sweep"] = {key: ["x"]}
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg, "sweep.json")),
                     "--out", str(out)]) == 2
        row = (out / "summary.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "validation-error"
        assert f'"{key}: ' in row

    @pytest.mark.parametrize("weights", [[[0, "x"]], 3, [[0]]])
    def test_bad_measure_file_exits_2(self, tmp_path, capsys, weights):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [2]}},
            "weights": weights,
        }), encoding="utf-8")
        code = main(["flatnorm", str(path), str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["message"].startswith(
            f"{path}: weights: ")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_measure_weight_exits_2(self, tmp_path, capsys, literal):
        path = tmp_path / "m.json"
        path.write_text(
            '{"space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [2]}},'
            ' "weights": [[0, 1.0], [1, %s]]}' % literal, encoding="utf-8")
        code = main(["flatnorm", str(path),
                     str(SCENARIOS / "measures" / "dirac_b.json")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert err["message"] == (
            f"{path}: weights[1][1]: non-finite number {literal}")

    @pytest.mark.parametrize("key, value, where", [
        ("inflow", math.nan, "rates.inflow: non-finite number NaN"),
        ("dilution", math.inf, "rates.dilution: non-finite number Infinity"),
        ("weights", [0.3, -math.inf],
         "initial.weights[1]: non-finite number -Infinity"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_non_finite_scenario_number_exits_2(self, tmp_path, capsys, key,
                                                value, where, command):
        cfg = washout_cfg()
        cfg["initial" if key == "weights" else "rates"][key] = value
        path = write_cfg(tmp_path, cfg)          # json writes NaN, Infinity
        argv = [command, "--scenario", str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert (err["type"], err["message"]) == ("ConfigError", where)

    def test_ill_typed_sweep_value_fails_its_row_only(self, tmp_path):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["control"]["t_end"] = 1.0
        cfg["sweep"] = {"rates.uptake.b": [1.0, "abc"]}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 2
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["ok", "validation-error"]
        assert "rates.uptake.b: " in rows[1]

    @pytest.mark.parametrize("value", [0.5, []])
    def test_sweep_value_that_is_not_a_list_exits_2_before_any_run(
            self, tmp_path, capsys, value):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["sweep"] = {"rates.dilution": [1.0], "rates.inflow": value}
        out = tmp_path / "out"
        code = main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert err["message"].startswith("sweep.rates.inflow: ")
        assert not out.exists()

    def test_misspelled_sweep_path_fails_every_row(self, tmp_path):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["control"]["t_end"] = 1.0
        cfg["sweep"] = {"rates.inflw": [0.5, 2.0]}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 2
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["validation-error"] * 2
        assert all("rates.inflw: unknown key" in row for row in rows)
