import contextlib
import csv
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crflow
import crflow.cli
import crflow.dynamics
import crflow.scenario
import crflow.measure
from crflow.analysis import diagnostics
from crflow.cli import main, run_checks
from crflow.dynamics import PICARD_NODES, StepControl, integrate, picard_solve
from crflow.errors import ConfigError, ValidationError
from crflow.rates import RATE_SAMPLES, VitalRates
from crflow.scenario import build_scenario, load_config, run, scenario_hash
from crflow.space import build_grid

from oracles import fmt17_csv

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
        solve = picard_solve if sc.control.method == "picard" else integrate
        ref = solve(sc.state0, sc.t_end, sc.control, sc.rates, sc.kernel)
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

    def test_csv_bytes_match_a_format_per_value(self, tmp_path):
        # -0.0, the least subnormal, 1e308 and 17-digit values, over more
        # rows than one chunk holds; no sum of a row's values overflows
        rng = np.random.default_rng(13)
        k, n = 2 * crflow.cli.CSV_CHUNK + 3, 4
        W = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-300, 300, (k, n))
        W[0] = [-0.0, 5e-324, -5e-324, 1e308]
        W[1] = [0.1, 1 / 3, 2 / 3, 123456789.01234567]
        W[-1] = [2.2250738585072014e-308, -1e308, 9007199254740993.0, 0.0]
        S = rng.random(k) * 10.0 ** rng.integers(-20, 20, k)
        S[:2] = [-0.0, 5e-324]
        traj = crflow.dynamics.Trajectory(
            build_grid(1, [(0.0, 1.0)], [n]), np.linspace(0.0, 1.0, k), S, W,
            {"scenario_hash": "abc", "version": "9"})
        path = tmp_path / "trajectory.csv"
        crflow.cli.write_trajectory_csv(path, traj)
        assert path.read_bytes() == fmt17_csv(traj).encode("utf-8")
        assert path.read_text().splitlines()[2] == (
            "0,-0,1e+308,-0,4.9406564584124654e-324,-4.9406564584124654e-324,1e+308")

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

    @pytest.mark.parametrize("k, rows", [(3, 513), (7, 221)])
    def test_picard_record_every_keeps_every_kth_node(self, tmp_path, k, rows):
        # picard_chemostat: 3 windows of 512 nodes, so nodes 0..1536; the
        # thinned table is rows 0, k, 2k, ... and the last, bit for bit, of
        # the record_every 1 table (17 digits round-trip a double)
        cfg = load_config(SCENARIOS / "picard_chemostat.json")
        tables = []
        for every in (1, k):
            cfg["control"]["record_every"] = every
            out = tmp_path / f"every_{every}"
            assert main(["simulate", "--scenario", str(write_cfg(tmp_path, cfg)),
                         "--out", str(out)]) == 0
            tables.append((out / "trajectory.csv").read_text().splitlines()[2:])
        full, thin = tables
        assert len(full) == 1537
        assert len(thin) == rows
        assert thin == full[:-1:k] + full[-1:]


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

    def test_picard_options_reach_the_picard_check(self, tmp_path, capsys,
                                                   monkeypatch):
        cfg = washout_cfg()
        cfg["control"]["lambda"] = 7.5
        solve, weights = crflow.cli.picard_solve, []
        monkeypatch.setattr(crflow.cli, "picard_solve",
                            lambda *args: weights.append(args[2].lam) or solve(*args))
        assert main(["check", "--scenario", str(write_cfg(tmp_path, cfg))]) == 0
        assert weights == [7.5]

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

    @pytest.mark.parametrize("doc, message", [
        ({"space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [2]}},
          "wieghts": [[0, 1.0]]}, "measure.wieghts: unknown key"),
        ({"space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [2]}},
          "weights": [[0, 1.0]], "wieghts": []}, "measure.wieghts: unknown key"),
        ({"space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [2]}}},
         "weights: required key is missing"),
        ([], "measure: expected a JSON object"),
    ], ids=["misspelled", "extra_key", "no_weights", "not_an_object"])
    def test_measure_file_keys_are_checked(self, tmp_path, capsys, doc, message):
        path = write_cfg(tmp_path, doc, "m.json")
        code = main(["flatnorm", str(path), str(SCENARIOS / "measures" / "dirac_a.json")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert err["message"] == f"{path}: {message}"

    @pytest.mark.parametrize("swap", [False, True], ids=["a_b", "b_a"])
    def test_given_metric_must_be_exactly_symmetric(self, tmp_path, capsys, swap):
        # within numpy's default rtol of 1e-5, but not symmetric
        space = {"points": [[0.0], [1.0]], "metric": [[0.0, 1.0], [1.000009, 0.0]]}
        a = write_cfg(tmp_path, {"space": space, "weights": [[0, 1.0]]}, "a.json")
        b = write_cfg(tmp_path, {"space": space, "weights": [[1, 1.0]]}, "b.json")
        first, second = (b, a) if swap else (a, b)
        code = main(["flatnorm", str(first), str(second)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "ConfigError", "exit_code": 2,
            "message": f"{first}: space.metric: must be symmetric"}

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


class TestRateSampling:
    """The rates are sampled on their RATE_SAMPLES grid once per run, when
    they are built, whatever reads their assumptions."""

    @pytest.mark.parametrize("command, name", [
        ("simulate", "desk_chemostat"),         # rk4
        ("simulate", "picard_chemostat"),
        ("check", "washout"),
    ])
    def test_rate_grid_is_sampled_once(self, tmp_path, monkeypatch, command, name):
        # a Picard window's PICARD_NODES + 1 points are not the rate grid
        assert PICARD_NODES + 1 != RATE_SAMPLES
        calls = []
        for method in ("uptake_values", "mortality_values"):
            def counted(rates, S, original=getattr(VitalRates, method), method=method):
                if np.shape(S) == (RATE_SAMPLES,):
                    calls.append(method)
                return original(rates, S)
            monkeypatch.setattr(VitalRates, method, counted)
        argv = [command, "--scenario", str(SCENARIOS / f"{name}.json")]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert sorted(calls) == ["mortality_values", "uptake_values"]


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
        for name in ("trajectory.csv", "diagnostics.json"):
            assert (out / "run_0000" / name).read_bytes() == (direct / name).read_bytes()

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

        # A 2x3 matrix passes build_kernel and fails inside MutationKernel
        # with a DimensionError; the good row is still kept.
        cfg["control"]["t_end"] = 1.0
        cfg["kernel"] = {}
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
        cfg["kernel"] = {}
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

    def test_jobs_are_capped_at_the_run_count(self, tmp_path, monkeypatch):
        # A fork pool starts all max_workers processes at its first submit.
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(crflow.cli, "ProcessPoolExecutor", SerialPool)
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["control"]["t_end"] = 0.1
        cfg["sweep"] = {"rates.inflow": [0.5, 1.0]}
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out), "--jobs", "5000"]) == 0
        assert pools == [2]
        assert len((out / "summary.csv").read_text().splitlines()) == 3

    def test_error_cell_quotes_as_every_cell(self, tmp_path, capsys):
        cfg = washout_cfg()
        cfg["control"]["t_end"] = 0.1
        cfg["sweep"] = {"rates.inflow": [1.0, "x"]}
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)]) == 2
        text = (out / "summary.csv").read_text(encoding="utf-8")
        assert text.splitlines()[1].endswith(',""')
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        errors = [dict(zip(header, row))["error"] for row in rows]

        del cfg["sweep"]
        cfg["rates"]["inflow"] = "x"
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(write_cfg(tmp_path, cfg, "x.json")),
                     "--out", str(tmp_path / "x")]) == 2
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == 'rates.inflow: expected a number, got "x"'
        assert errors == ["", message]

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
        # run_checks starts the semiflow relay from the recorded state at
        # the split, which is bitwise the endpoint of a separate
        # integration to the split.
        sc = build_scenario(cfg)
        control = StepControl(method="rk4", dt=sc.control.dt, record_every=1)
        traj = integrate(sc.state0, sc.t_end, control, sc.rates, sc.kernel)
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


def check_rows(sc):
    return {name: (ok, res) for name, ok, res in run_checks(sc, tol=1e-6)}


class TestCheckRelayAndReference:
    @pytest.mark.parametrize("name", ["desk_chemostat", "picard_chemostat",
                                      "sweep_inflow", "washout"])
    def test_semiflow_residual_is_not_trivially_zero(self, name):
        # The relay takes a different step sequence from the main run.
        ok, res = check_rows(build_scenario(load_config(
            SCENARIOS / f"{name}.json")))["semiflow_law"]
        assert ok and 0.0 < res <= 1e-6

    @pytest.mark.parametrize("name", ["desk_chemostat", "washout"])
    def test_semiflow_law_fails_when_short_steps_are_doubled(self, name,
                                                             monkeypatch):
        sc = build_scenario(load_config(SCENARIOS / f"{name}.json"))
        rk4, dt = crflow.dynamics._rk4, sc.control.dt

        def doubled(rhs, S, w, h, k1=None):
            return rk4(rhs, S, w, 2.0 * h if h < dt else h, k1)

        monkeypatch.setattr(crflow.dynamics, "_rk4", doubled)
        ok, res = check_rows(sc)["semiflow_law"]
        assert not ok and res > 1e-6

    def test_checks_integrate_each_state_once(self, monkeypatch):
        # desk_chemostat, dt 1e-3 to t_end 2: the main run (2000 steps), the
        # relay from step 1000 (a half step, 999 steps and a half step) and
        # the half-dt run (4000 steps); Picard reads the main run at t = 1.
        sc = build_scenario(load_config(SCENARIOS / "desk_chemostat.json"))
        steps = []
        real = crflow.cli.integrate

        def counted(*args):
            traj = real(*args)
            steps.append(len(traj) - 1)
            return traj

        monkeypatch.setattr(crflow.cli, "integrate", counted)
        monkeypatch.setattr(crflow.scenario, "integrate", counted)
        horizons = []
        solve = crflow.cli.picard_solve
        monkeypatch.setattr(crflow.cli, "picard_solve", lambda *args: (
            horizons.append(args[1]) or solve(*args)))
        rows = check_rows(sc)
        assert all(ok for ok, _ in rows.values())
        assert steps == [2000, 1, 1000, 4000]
        assert sum(steps) == 7001
        assert horizons == [1.0]

    @pytest.mark.parametrize("edit,horizon,picard_row,code", [
        ({"dt": 2.0, "t_end": 5.0}, 2.0, "FAIL", 1),     # one step in, dt > 1
        ({"dt": 0.3, "t_end": 0.2}, 0.2, "PASS", 1),     # the remainder step
        # the reference carries the run's own step error, 3.2e-5
        ({"dt": 0.3, "t_end": 2.0}, 3 * 0.3, "FAIL", 1),
        ({"dt": 0.01, "t_end": 0.035}, 3 * 0.01, "PASS", 0),
        ({"t_end": 0.0}, None, None, 2),                 # no run, no Picard call
    ])
    def test_picard_horizon_is_a_grid_time(self, tmp_path, capsys, monkeypatch,
                                           edit, horizon, picard_row, code):
        cfg = washout_cfg()
        cfg["control"].update(edit)
        horizons = []
        solve = crflow.cli.picard_solve
        monkeypatch.setattr(crflow.cli, "picard_solve", lambda *args: (
            horizons.append(args[1]) or solve(*args)))
        assert main(["check", "--scenario", str(write_cfg(tmp_path, cfg))]) == code
        assert horizons == ([] if horizon is None else [horizon])
        out = capsys.readouterr().out
        if picard_row is None:
            assert "t_end must be positive and finite, got 0.0" in out
        else:
            assert f"{picard_row} scenario.json picard_vs_rk" in out


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
         "rates.uptake.b.affine: required key is missing"),
        (lambda cfg: cfg.update(seed="x"), "seed: "),
        (lambda cfg: cfg["control"].update(method="picard", **{"lambda": "x"}),
         "control.lambda: "),
        # the Picard quadrature is a constant, not a setting
        (lambda cfg: cfg["control"].update(method="picard", nodes=512),
         "control.nodes: "),
        (lambda cfg: cfg["control"].update(method="picard", **{"lambda": -1}),
         "lambda must be a finite number >= 0 or None, got -1.0"),
        # a given metric is symmetric bit for bit, not within numpy's rtol
        (lambda cfg: cfg.update(space={"points": [[0.0], [1.0]],
                                       "metric": [[0.0, 1.0], [1.000009, 0.0]]}),
         "space.metric: must be symmetric"),
        (lambda cfg: cfg["space"]["grid"].update(counts=[2.5]),
         "space.grid.counts: expected an integer, got 2.5"),
        (lambda cfg: cfg["space"]["grid"].update(counts=True),
         "space.grid.counts: expected a list of integers, got true"),
        (lambda cfg: cfg["space"].update(points=[[0.0], [1.0]]),
         "space: give either 'grid' or 'points', not both"),
        (lambda cfg: cfg.update(space={"points": [[[0.0]], [[1.0]]]}),
         "space.points: expected a 2-D array"),
        (lambda cfg: cfg.update(kernel={"family": "gaussian", "width": 1e-300}),
         "kernel.width: mutation width 1e-300 is too small: 2 width^2 underflows to 0"),
        (lambda cfg: cfg["control"].update(record_every=0),
         "record_every must be an integer >= 1, got 0"),
        (lambda cfg: cfg["control"].update(record_every=2.5),
         "control.record_every: expected an integer, got 2.5"),
        (lambda cfg: cfg["control"].update(dt=True), "control.dt: "),
        (lambda cfg: cfg["control"].update(method=["rk4"]), "control.method: "),
        (lambda cfg: cfg["initial"].update(weights="x"), "initial.weights: "),
        (lambda cfg: cfg.update(kernel={"family": "gauss"}), "kernel.family: "),
        # kernel rows are checked, never rescaled
        (lambda cfg: cfg.update(kernel={"matrix": [[1.0, 0.0], [0.0, 1.0]],
                                        "renormalize": True}),
         "kernel.renormalize: unknown key"),
        (lambda cfg: cfg.update(kernel={"matrix": [[0.6, 0.5], [0.5, 0.5]]}),
         "kernel.matrix: row 0 sums to 1.1"),
        (lambda cfg: cfg.update(allow_invalid_rates=True),
         "scenario.allow_invalid_rates: unknown key"),
        # JSON numbers only: a string, true, false or null is no number,
        # alone or in an array
        (lambda cfg: cfg["rates"].update(inflow="1.5"),
         'rates.inflow: expected a number, got "1.5"'),
        (lambda cfg: cfg.update(seed="7"), 'seed: expected an integer, got "7"'),
        (lambda cfg: cfg.update(truncation="5"), 'truncation: expected a number, got "5"'),
        (lambda cfg: cfg["rates"]["uptake"].update(b=True),
         "rates.uptake.b: expected a number, got true"),
        (lambda cfg: cfg["rates"]["uptake"].update(b=[1.0, False]),
         "rates.uptake.b[1]: expected a number, got false"),
        (lambda cfg: cfg["rates"]["mortality"].update(d0="0.3"),
         'rates.mortality.d0: expected a number, got "0.3"'),
        (lambda cfg: cfg["rates"]["uptake"].update(
            b={"affine": {"const": 1.0, "slope": [None]}}),
         "rates.uptake.b.affine.slope[0]: expected a number, got null"),
        (lambda cfg: cfg["initial"].update(weights=[0.3, None]),
         "initial.weights[1]: expected a number, got null"),
        (lambda cfg: cfg["initial"].update(weights=[0.3, "0.3"]),
         'initial.weights[1]: expected a number, got "0.3"'),
        (lambda cfg: cfg["space"]["grid"].update(bounds=[[0.0, True]]),
         "space.grid.bounds[0][1]: expected a number, got true"),
        # a ragged array is named by its key, not by numpy's text
        (lambda cfg: cfg["space"]["grid"].update(bounds=[[0.0, [1.0]]]),
         "space.grid.bounds: expected a rectangular array, got a ragged one"),
        (lambda cfg: cfg["space"]["grid"].update(bounds=[[0.0, 1.0], [0.0]]),
         "space.grid.bounds: expected a rectangular array, got a ragged one"),
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

    @pytest.mark.parametrize("control", [
        {"t_end": 1e308}, {"dt": 1e-300}, {"method": "picard", "t_end": 1e308},
    ], ids=["rk4_t_end", "rk4_dt", "picard_t_end"])
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_step_budget_exits_2_at_once(self, tmp_path, capsys, control, command):
        cfg = washout_cfg()
        cfg["control"].update(control)
        argv = [command, "--scenario", str(write_cfg(tmp_path, cfg))]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1.0
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert "needs more than MAX_STEPS" in err["message"]

    # A control that breaks a rule of StepControl gets one verdict from every
    # command, whichever method it names.
    @pytest.mark.parametrize("scenario, control, message", [
        ("washout.json", {"method": "adaptive", "tolerance": -1.0},
         "tolerance must be positive, got -1.0"),
        ("washout.json", {"method": "rk4", "tolerance": 0.0},
         "tolerance must be positive, got 0.0"),
        ("picard_chemostat.json", {"dt": -1.0}, "dt must be positive"),
        ("picard_chemostat.json", {"dt": 0.0}, "dt must be positive"),
        ("picard_chemostat.json", {"lambda": -1},
         "lambda must be a finite number >= 0 or None, got -1.0"),
        # one horizon rule for both integrators
        ("washout.json", {"method": "rk4", "t_end": 0},
         "t_end must be positive and finite, got 0.0"),
        ("washout.json", {"method": "adaptive", "t_end": 0},
         "t_end must be positive and finite, got 0.0"),
        ("picard_chemostat.json", {"t_end": 0},
         "t_end must be positive and finite, got 0.0"),
    ], ids=["adaptive_tol", "rk4_tol", "picard_dt_negative", "picard_dt_zero",
            "picard_lambda_negative", "rk4_t_end_zero", "adaptive_t_end_zero", "picard_t_end_zero"])
    def test_one_verdict_per_control(self, tmp_path, capsys, scenario, control,
                                     message):
        cfg = load_config(SCENARIOS / scenario)
        cfg["control"].update(control)
        path = write_cfg(tmp_path, cfg)
        for argv in (["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")],
                     ["check", "--scenario", str(path)]):
            code = main(argv)
            lines = capsys.readouterr().out.splitlines()
            assert code == 2
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == {
                "type": "ConfigError", "message": message, "exit_code": 2}
        cfg["sweep"] = {"seed": [0]}
        sweep = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(sweep)]) == 2
        with open(sweep / "summary.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["status"], row["error"]) == ("validation-error", message)

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_inadmissible_rates_come_before_the_initial_state(self, tmp_path, capsys,
                                                              command):
        cfg = washout_cfg()
        cfg["rates"]["mortality"]["d0"] = 0
        cfg["initial"]["S"] = -1
        argv = [command, "--scenario", str(write_cfg(tmp_path, cfg))]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "ValidationError", "exit_code": 2,
            "message": "rate assumptions failed: mortality floor 0.0 is not positive"}

    # the default truncation level reads the dilution before the rates
    # check it, so it must not divide by it
    @pytest.mark.parametrize("dilution", [0, -1])
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_default_truncation_with_a_bad_dilution(self, tmp_path, capsys, command,
                                                    dilution):
        cfg = washout_cfg()
        assert cfg["truncation"] is None
        cfg["rates"]["dilution"] = dilution
        argv = [command, "--scenario", str(write_cfg(tmp_path, cfg))]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "type": "ConfigError", "exit_code": 2, "message": "dilution must be positive"}

    # A horizon shorter than every end tolerance of the integrators is still
    # a run to t_end, so simulate and check agree on it as well.
    @pytest.mark.parametrize("scenario, method", [
        ("washout.json", "rk4"), ("washout.json", "adaptive"),
        ("picard_chemostat.json", "picard")])
    def test_tiny_horizon_is_one_verdict(self, tmp_path, capsys, scenario, method):
        cfg = load_config(SCENARIOS / scenario)
        cfg["control"].update(method=method, t_end=1e-13)
        path, out = write_cfg(tmp_path, cfg), tmp_path / "out"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[2:]
        assert rows[-1].split(",")[0] == "1e-13"
        assert main(["check", "--scenario", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_check_tolerance_must_be_positive_and_finite(self, capsys, monkeypatch,
                                                         tolerance):
        def no_run(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(crflow.cli, "run_checks", no_run)
        code = main(["check", "--scenario", str(SCENARIOS), "--tolerance", tolerance])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        assert err["message"] == (f"--tolerance must be positive and finite, "
                                  f"got {float(tolerance)!r}")

    def test_adaptive_step_budget(self, tmp_path, capsys, monkeypatch):
        cfg = washout_cfg()
        cfg["control"].update(method="adaptive", dt=0.05, t_end=1.0)
        sc = build_scenario(cfg)
        steps = len(run(sc)[0]) - 1
        path = write_cfg(tmp_path, cfg)
        monkeypatch.setattr(crflow.dynamics, "MAX_STEPS", steps)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(crflow.dynamics, "MAX_STEPS", steps - 1)
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "b")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "NumericalError"
        assert err["message"].startswith("horizon 1.0 needs more than MAX_STEPS steps at t=")

    @pytest.mark.parametrize("key", [
        "rates.inflow", "rates.dilution", "initial.S", "control.dt",
        "control.t_end", "control.tolerance", "control.record_every",
        "control.lambda", "kernel.width",
    ])
    def test_ill_typed_scalar_names_its_key(self, tmp_path, capsys, key):
        expected = ("an integer, got" if key == "control.record_every"
                    else "a number, got")
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
        assert err["message"] == f'{key}: expected {expected} "x"'

        cfg["sweep"] = {key: ["x"]}
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg, "sweep.json")),
                     "--out", str(out)]) == 2
        row = (out / "summary.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "validation-error"
        assert f'"{key}: ' in row

    @pytest.mark.parametrize("weights, where", [
        ([[0, "x"]], 'weights[0][1]: expected a number, got "x"'),
        (3, "weights: "),
        ([[0]], "weights: "),
        ([[0.5, 1.0]], "weights[0][0]: expected an atom index in 0..1, got 0.5"),
        ([[1, 1.0], [2, 1.0]], "weights[1][0]: expected an atom index in 0..1, got 2"),
        ([[0, 1.0], [1, True]], "weights[1][1]: expected a number, got true"),
        ([[0, 1.0], [None, 1.0]], "weights[1][0]: expected a number, got null"),
    ], ids=["weights0", "3", "weights2", "fractional_index", "index_out_of_range",
            "bool_weight", "null_index"])
    def test_bad_measure_file_exits_2(self, tmp_path, capsys, weights, where):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "counts": [2]}},
            "weights": weights,
        }), encoding="utf-8")
        code = main(["flatnorm", str(path), str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["message"].startswith(f"{path}: {where}")

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
        shown = "Infinity" if literal == "1e999" else literal
        assert err["message"] == f"{path}: weights[1][1]: non-finite number {shown}"

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

    @pytest.mark.parametrize("sweep, message", [
        ({"rates.inflow": 0.5}, "expected a non-empty list of values"),
        ({"rates.inflow": []}, "expected a non-empty list of values"),
        ({"rates.inflw": [0.5, 2.0]}, "unknown key"),
        ({"initial.S.x": [0.5, 2.0]}, "initial.S is not an object"),
        # not in the template: the schema says it holds no keys
        ({"control.lambda.x": [0.5, 2.0]}, "control.lambda is not an object"),
        # b is a pass-through key, so the template decides
        ({"rates.uptake.b.affine.const": [0.5, 2.0]}, "rates.uptake.b is not an object"),
    ], ids=["not_a_list", "empty", "unknown_key", "through_a_number",
            "through_a_schema_number", "through_a_template_list"])
    def test_bad_sweep_exits_2_before_any_run(self, tmp_path, capsys, sweep, message):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["sweep"] = {"rates.dilution": [1.0], **sweep}
        out = tmp_path / "out"
        code = main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        (path,) = sweep
        assert (err["type"], err["message"]) == ("ConfigError", f"sweep.{path}: {message}")
        assert not out.exists()

    def test_sweep_path_into_a_pass_through_key_runs(self, tmp_path):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["control"]["t_end"] = 1.0
        cfg["rates"]["uptake"]["b"] = {"affine": {"const": 1.0, "slope": [0.2]}}
        cfg["sweep"] = {"rates.uptake.b.affine.const": [0.8, 1.2]}
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["ok"] * 2


def set_at(doc, where: str, value) -> None:
    """Set the entry at a key path such as "rates.uptake.b[1]" in doc."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", where)]
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


NON_FINITE = {"NaN": "NaN", "Infinity": "Infinity", "-Infinity": "-Infinity",
              "1e999": "Infinity"}
PLACEHOLDER = "@non-finite@"


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("literal", sorted(NON_FINITE))
    @pytest.mark.parametrize("document, where, before", [
        ("scenario", "space.grid.dim", []),
        ("scenario", "space.grid.bounds[0][1]", []),
        ("scenario", "space.grid.counts[0]", []),
        ("scenario", "space.points[1][0]", [("space", {"points": [[0.0], [1.0]]})]),
        ("scenario", "space.metric[0][1]", [
            ("space", {"points": [[0.0], [1.0]], "metric": [[0, 1], [1, 0]]})]),
        ("scenario", "kernel.width", []),
        ("scenario", "kernel.matrix[1][0]", [("kernel", {"matrix": [[1, 0], [0, 1]]})]),
        ("scenario", "rates.inflow", []),
        ("scenario", "rates.dilution", []),
        ("scenario", "rates.uptake.b", []),
        ("scenario", "rates.uptake.b[1]", [("rates.uptake.b", [1.0, 1.0])]),
        ("scenario", "rates.uptake.b.affine.const", [
            ("rates.uptake.b", {"affine": {"const": 1.0, "slope": [0.0]}})]),
        ("scenario", "rates.uptake.b.affine.slope[0]", [
            ("rates.uptake.b", {"affine": {"const": 1.0, "slope": [0.0]}})]),
        ("scenario", "rates.uptake.a", []),
        ("scenario", "rates.mortality.d0", []),
        ("scenario", "rates.mortality.c", [("rates.mortality.family", "decreasing")]),
        ("scenario", "initial.S", []),
        ("scenario", "initial.weights[1]", []),
        ("scenario", "control.dt", []),
        ("scenario", "control.t_end", []),
        ("scenario", "control.tolerance", []),
        ("scenario", "control.record_every", []),
        ("scenario", "control.lambda", [("control.method", "picard")]),
        ("scenario", "truncation", []),
        ("scenario", "seed", []),
        ("measure", "space.grid.bounds[0][0]", []),
        ("measure", "weights[1][0]", []),
        ("measure", "weights[1][1]", []),
    ])
    def test_exits_2_naming_its_key(self, tmp_path, capsys, document, where,
                                    before, literal):
        if document == "scenario":
            doc = washout_cfg()
        else:
            doc = {"space": {"grid": {"dim": 1, "bounds": [[0.0, 1.0]],
                                      "counts": [2]}},
                   "weights": [[0, 1.0], [1, 0.5]]}
        for key, value in before:
            set_at(doc, key, value)
        set_at(doc, where, PLACEHOLDER)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace(f'"{PLACEHOLDER}"', literal),
                        encoding="utf-8")
        if document == "scenario":
            argv, prefix = ["simulate", "--scenario", str(path),
                            "--out", str(tmp_path / "out")], ""
        else:
            argv, prefix = ["flatnorm", str(path), str(path)], f"{path}: "
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "ConfigError"
        # an array entry is named by its index, a grid count by the list
        key = "space.grid.counts" if where.startswith("space.grid.counts") else where
        assert err["message"] == (
            f"{prefix}{key}: non-finite number {NON_FINITE[literal]}")

    @pytest.mark.parametrize("literal", sorted(NON_FINITE))
    def test_fails_only_its_sweep_row(self, tmp_path, literal):
        cfg = load_config(SCENARIOS / "sweep_inflow.json")
        cfg["control"]["t_end"] = 1.0
        cfg["sweep"] = {"rates.inflow": [1.0, PLACEHOLDER]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg).replace(f'"{PLACEHOLDER}"', literal),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 2
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        cells = [dict(zip(header, row)) for row in rows]
        assert [c["status"] for c in cells] == ["ok", "validation-error"]
        assert cells[1]["error"] == (
            f"rates.inflow: non-finite number {NON_FINITE[literal]}")


def ragged_points_template():
    """A points-form template whose second value of space.points is 3-D."""
    cfg = washout_cfg()
    cfg["space"] = {"points": [[0.0], [1.0]]}
    cfg["sweep"] = {"space.points": [[[0.0], [1.0]], [[[0.0]], [[1.0]]]]}
    return cfg


class TestFailureTable:
    def test_points_that_are_not_2d_exit_2(self, tmp_path, capsys):
        cfg = ragged_points_template()
        cfg["space"]["points"] = cfg.pop("sweep")["space.points"][1]
        code = main(["simulate", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["message"].startswith("space.points: expected a 2-D array")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_points_that_are_not_2d_fail_only_their_sweep_row(self, tmp_path, jobs):
        path = write_cfg(tmp_path, ragged_points_template())
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--jobs", jobs]) == 2
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        cells = [dict(zip(header, row)) for row in rows]
        assert [c["status"] for c in cells] == ["ok", "validation-error"]
        assert cells[1]["error"].startswith("space.points: ")

    def test_other_exception_is_one_json_error(self, tmp_path, capsys, monkeypatch):
        def broken(sc):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(crflow.cli, "run", broken)
        code = main(["simulate", "--scenario", str(SCENARIOS / "washout.json"),
                     "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": {
            "type": "TypeError", "message": "unsupported operand", "exit_code": 1}}

        cfg = washout_cfg()
        cfg["sweep"] = {"rates.inflow": [0.5, 1.0]}
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        cells = [dict(zip(header, row)) for row in rows]
        assert [c["status"] for c in cells] == ["internal-error"] * 2
        assert cells[0]["error"] == "TypeError: unsupported operand"


# Single-key edits of scenarios/washout.json: every key path of the document
# paired with a value from a fixed menu. Its largest finite number, 2.5, as
# t_end at washout's dt of 1e-3 makes 2,500 steps, below the bound of 1e4.
WASHOUT = washout_cfg()


def key_paths(node, path=""):
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        yield where
        if isinstance(value, dict):
            yield from key_paths(value, where)


MENU = ["", "x", "picard", "gaussian", True, False, None, [], {},
        [[[0.0, 1.0]]], PLACEHOLDER + "NaN", PLACEHOLDER + "Infinity",
        PLACEHOLDER + "-Infinity", PLACEHOLDER + "1e999", 0, -1, 2.5]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(where=st.sampled_from(sorted(key_paths(WASHOUT))), value=st.sampled_from(MENU))
def test_single_key_edits_exit_by_the_error_contract(tmp_path_factory, where, value):
    doc = json.loads(json.dumps(WASHOUT))
    set_at(doc, where, value)
    text = json.dumps(doc)
    for literal in NON_FINITE:
        text = text.replace(f'"{PLACEHOLDER}{literal}"', literal)
    tmp = tmp_path_factory.mktemp("edit")
    path = tmp / "doc.json"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp / "out")])
    assert code in (0, 1, 2, 3, 4)
    if code != 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["exit_code"] == code
