import csv
import json
import math

import numpy as np
import pytest

from seqbounds import cli
from seqbounds.cli import (ConfigError, emit_plot_data, main, run,
                           validate_config)
from seqbounds.experiments import (bound_vs_n_records, default_ar1,
                                   default_scenario_program)
from seqbounds.processes import sample_marginal, simulate_sequence
from seqbounds.scenario import plan_n_margin


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"command": "plan", "seed": 1, "wurst": 2})

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"command": "transmogrify", "seed": 1})

    def test_seed_required(self):
        with pytest.raises(ConfigError):
            validate_config({"command": "plan"})


class TestRun:
    def test_plan_vc(self, tmp_path):
        config = {"command": "plan", "method": "vc", "epsilon": 0.1,
                  "delta": 1e-6, "d_vc": 5, "seed": 1}
        code = run(config, tmp_path / "out")
        assert code == 0
        summary = read_summary(tmp_path / "out")
        assert summary["summary"]["n"] == 2258
        assert summary["summary"]["violation_bound_at_n"] <= 0.1
        assert summary["config"]["seed"] == 1

    def test_unknown_field_exit_2_no_outputs(self, tmp_path):
        out = tmp_path / "out"
        config = {"command": "plan", "method": "vc", "epsilon": 0.1,
                  "delta": 1e-6, "d_vc": 5, "seed": 1, "zzz": True}
        assert run(config, out) == 2
        assert not (out / "summary.json").exists()

    def test_bound_report_carries_tag(self, tmp_path):
        config = {"command": "bound", "bound": "vc", "emp_risk": 0.0,
                  "n": 100000, "delta": 0.05, "d_vc": 4, "seed": 3}
        assert run(config, tmp_path / "out") == 0
        rep = read_summary(tmp_path / "out")["summary"]["report"]
        assert rep["theorem_tag"] == "vc-basic-dependent"
        assert rep["bound_value"] == pytest.approx(0.06385483072830438)

    def test_nan_emp_risk_is_config_error(self, tmp_path, capsys):
        config = {"command": "bound", "bound": "vc", "emp_risk": math.nan,
                  "n": 100, "delta": 0.05, "d_vc": 4, "seed": 3}
        assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
        assert "emp_risk" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_mixing_bound_inapplicable(self, tmp_path):
        config = {"command": "bound", "bound": "mixing", "emp_risk": 0.0,
                  "rad_mu": 0.0, "b": 1.0, "mu": 100, "a": 1,
                  "beta_a": 1e-3, "n": 200, "delta": 0.01, "seed": 3}
        assert run(config, tmp_path / "out") == 0
        assert read_summary(tmp_path / "out")["summary"]["applicable"] is False

    def test_simulate_writes_csv(self, tmp_path):
        config = {"command": "simulate", "seed": 5, "n": 50,
                  "process": {"kind": "ar1_threshold_labels", "a": 0.5,
                              "sigma": 1.0}}
        out = tmp_path / "out"
        assert run(config, out) == 0
        with open(out / "sequence.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51

    def test_rad_with_points(self, tmp_path):
        config = {"command": "rad", "seed": 7, "sign_draws": 32,
                  "class": {"kind": "linear_ball", "dim": 2, "radius": 2.0},
                  "points": [[3.0, 4.0]]}
        out = tmp_path / "out"
        assert run(config, out) == 0
        est = read_summary(out)["summary"]["estimate"]
        assert est["value"] == pytest.approx(10.0)

    def test_validate_writes_records(self, tmp_path):
        config = {"command": "validate", "experiment": "vc_coverage",
                  "process": {"kind": "ar1_threshold_labels", "a": 0.8,
                              "sigma": 0.6, "flip_p": 0.1},
                  "n": 2000, "replications": 200, "delta": 0.05, "seed": 11}
        out = tmp_path / "out"
        assert run(config, out) == 0
        with open(out / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert set(rows[0]) == {"replication", "seed", "statistic", "bound",
                                "holds"}
        assert read_summary(out)["summary"]["holds_fraction"] >= 0.95

    def test_validate_property_failure_exit_3(self, tmp_path, monkeypatch):
        from seqbounds.experiments import ExperimentResult

        def failing(*args, **kwargs):
            return ExperimentResult(name="vc_coverage",
                                    records=[{"replication": 0, "seed": 1,
                                              "statistic": 1.0, "bound": 0.5,
                                              "holds": False}],
                                    summary={"holds_fraction": 0.0},
                                    holds=False)

        monkeypatch.setattr(cli.xp, "vc_coverage", failing)
        config = {"command": "validate", "experiment": "vc_coverage",
                  "process": {"kind": "ar1_threshold_labels", "a": 0.8,
                              "sigma": 0.6}, "n": 100, "replications": 5,
                  "delta": 0.05, "seed": 1}
        out = tmp_path / "out"
        assert run(config, out) == 3
        # summary and records are still written for inspection
        assert (out / "summary.json").exists()
        assert (out / "records.csv").exists()

    def test_scenario_command(self, tmp_path):
        from seqbounds.scenario import one_dim_threshold_program
        config = {"command": "scenario", "seed": 9, "epsilon": 0.3,
                  "delta": 0.2, "method": "margin",
                  "program": one_dim_threshold_program(margin=1.0).to_dict(),
                  "process": {"kind": "ar1_threshold_labels", "a": 0.8,
                              "sigma": 0.6}}
        out = tmp_path / "out"
        assert run(config, out) == 0
        cert = read_summary(out)["summary"]["certificate"]
        assert cert["feasible"] is True
        assert cert["violation_bound"] <= 0.3

    def test_determinism_byte_identical(self, tmp_path):
        config = {"command": "validate", "experiment": "vc_coverage",
                  "process": {"kind": "ar1_threshold_labels", "a": 0.8,
                              "sigma": 0.6, "flip_p": 0.1},
                  "n": 300, "replications": 10, "delta": 0.05, "seed": 21}
        run(config, tmp_path / "a")
        run(dict(config), tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()
        assert (tmp_path / "a" / "records.csv").read_bytes() == \
            (tmp_path / "b" / "records.csv").read_bytes()


AR1 = {"kind": "ar1_threshold_labels", "a": 0.8, "sigma": 0.6, "flip_p": 0.1}


class TestValidateRegistry:
    def test_accepted_keys(self):
        assert cli._ALLOWED["validate"] == {
            "command", "seed", "threads", "experiment", "process", "n",
            "replications", "delta", "epsilon", "program", "instances",
            "gamma", "radius", "m_clip", "relative"}

    def test_unknown_experiment_exit_2(self, tmp_path, capsys):
        config = {"command": "validate", "experiment": "vc_coverag",
                  "seed": 1}
        assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
        assert "'vc_coverag'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, relative", [
        ("vc_coverage", False), ("relative_coverage", True)])
    def test_calls_patched_experiment(self, tmp_path, monkeypatch,
                                      experiment, relative):
        # the tracer of perfbench patches module attributes, so the CLI must
        # look the function up in ``experiments`` at call time
        from seqbounds import experiments
        calls = []

        def patched(spec, n, replications, delta, seed, relative, threads):
            calls.append((spec.kind, n, replications, delta, seed, relative,
                          threads))
            return experiments.ExperimentResult(name=experiment)

        monkeypatch.setattr(experiments, "vc_coverage", patched)
        config = {"command": "validate", "experiment": experiment,
                  "process": AR1, "n": 100, "replications": 5, "delta": 0.05,
                  "seed": 4}
        assert run(config, tmp_path / "out", threads=2) == 0
        assert calls == [("ar1_threshold_labels", 100, 5, 0.05, 4, relative,
                          2)]


_EMPTY_RUNS = [
    ("vc_coverage", "replications", 0,
     {"process": AR1, "n": 200, "delta": 0.05}),
    ("vc_coverage", "replications", -3,
     {"process": AR1, "n": 200, "delta": 0.05}),
    ("relative_coverage", "replications", 0,
     {"process": dict(AR1, flip_p=0.0), "n": 200, "delta": 0.05}),
    ("margin_rad_coverage", "replications", 0,
     {"process": AR1, "gamma": 0.5, "radius": 1.0, "n": 200, "delta": 0.05}),
    ("margin_rad_coverage", "replications", -3,
     {"process": AR1, "gamma": 0.5, "radius": 1.0, "n": 200, "delta": 0.05}),
    ("regression_coverage", "replications", 0,
     {"process": {"kind": "ar_d_linear_system", "coefficients": [0.5],
                  "sigma": 1.0}, "m_clip": 2.0, "radius": 1.0, "n": 200,
      "delta": 0.05}),
    ("symmetrization", "replications", 0,
     {"process": AR1, "n": 200, "epsilon": 0.2}),
    ("scenario_coverage", "replications", 0,
     {"program": default_scenario_program().to_dict(), "process": AR1,
      "epsilon": 0.15, "delta": 0.1}),
    ("kernel_rad_bound", "instances", 0,
     {"n": 16, "radius": 2.0, "m_clip": 1.0}),
    ("chaining_dominance", "instances", 0, {}),
]


@pytest.mark.parametrize("experiment, argument, count, config", _EMPTY_RUNS,
                         ids=[f"{e}-{c}" for e, _, c, _ in _EMPTY_RUNS])
def test_empty_run_rejected(tmp_path, capsys, experiment, argument, count,
                            config):
    config = {"command": "validate", "experiment": experiment, "seed": 1,
              argument: count, **config}
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    assert argument in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


class TestScenarioAcceptanceConfig:
    """At the acceptance config the 1-D program's optimum is max x + margin
    (plus the solver's 1e-9 tightening) on every path."""

    PROCESS = {"kind": "ar1_threshold_labels", "a": 0.8, "sigma": 0.6,
               "flip_p": 0.1}

    def setup_method(self):
        self.program = default_scenario_program()
        self.spec = default_ar1()
        self.n = plan_n_margin(0.15, 0.1, 1.0, 10.0)

    def optimum(self, seed, replication=0):
        path = simulate_sequence(self.spec, self.n, seed,
                                 replication=replication)
        return float(np.max(path.x)) + self.program.margin + 1e-9

    def test_scenario_command(self, tmp_path):
        config = {"command": "scenario", "seed": 888, "epsilon": 0.15,
                  "delta": 0.1, "method": "margin",
                  "program": self.program.to_dict(), "process": self.PROCESS}
        assert run(config, tmp_path / "out") == 0
        cert = read_summary(tmp_path / "out")["summary"]["certificate"]
        assert cert["n_used"] == self.n == 20_578
        assert cert["theta_hat"][0] == pytest.approx(self.optimum(888),
                                                     abs=1e-9)

    def test_validate_scenario_coverage(self, tmp_path):
        config = {"command": "validate", "experiment": "scenario_coverage",
                  "program": self.program.to_dict(), "process": self.PROCESS,
                  "epsilon": 0.15, "delta": 0.1, "replications": 200,
                  "seed": 888}
        assert run(config, tmp_path / "out") == 0
        with open(tmp_path / "out" / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        for r, row in enumerate(rows):
            ghost = sample_marginal(self.spec, 10_000, 888, replication=r)
            theta = self.optimum(888, replication=r)
            assert float(row["statistic"]) == np.mean(ghost.x > theta)


class TestNonFiniteOutputs:
    def test_summary_is_strict_json(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = {"a": -math.inf, "b": math.nan, "c": math.inf,
                   "d": np.float64(-np.inf), "e": np.array([np.nan, 1.0]),
                   "f": 0.5}
        cli._write_json(tmp_path / "summary.json", payload)
        back = json.loads((tmp_path / "summary.json").read_text(),
                          parse_constant=reject)
        assert back == {"a": "-inf", "b": "nan", "c": "inf", "d": "-inf",
                        "e": ["nan", 1.0], "f": 0.5}

    def test_records_round_trip(self, tmp_path):
        records = [{"replication": 0, "seed": 1, "statistic": -math.inf,
                    "bound": math.inf, "holds": True},
                   {"replication": 1, "seed": 1, "statistic": math.nan,
                    "bound": 0.25, "holds": False}]
        cli.write_records_csv(records, tmp_path / "records.csv")
        back = cli._read_records_csv(tmp_path / "records.csv")
        assert back[0]["statistic"] == -math.inf
        assert back[0]["bound"] == math.inf
        assert math.isnan(back[1]["statistic"])
        assert back[1]["bound"] == 0.25
        assert back[1]["replication"] == 1
        assert back[1]["holds"] == "False"


class TestEmitPlotData:
    def test_empty_records_header_only(self, tmp_path):
        out = tmp_path / "plot.csv"
        emit_plot_data([], "n", out)
        assert out.read_text().strip() == "n"

    def test_bound_vs_n_sorted_decreasing(self, tmp_path):
        records = bound_vs_n_records(4, 0.05, [10_000, 1000, 100_000])
        out = tmp_path / "plot.csv"
        emit_plot_data(records, "n", out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        ns = [int(r["n"]) for r in rows]
        bounds = [float(r["bound"]) for r in rows]
        assert ns == sorted(ns)
        assert bounds[0] > bounds[1] > bounds[2]

    def test_duplicates_preserved_stable(self, tmp_path):
        records = [{"n": 5, "v": "first"}, {"n": 1, "v": "x"},
                   {"n": 5, "v": "second"}]
        out = tmp_path / "plot.csv"
        emit_plot_data(records, "n", out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["v"] for r in rows] == ["x", "first", "second"]

    def test_missing_sweep_column_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plot_data([{"m": 1}], "n", tmp_path / "plot.csv")


class TestMain:
    def test_main_plan(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "plan", "method": "margin",
                                      "epsilon": 0.1, "delta": 0.36787944117144233,
                                      "gamma": 1.0, "tau_lambda_sum": 1.0,
                                      "seed": 1})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        assert read_summary(out)["summary"]["n"] == 900

    def test_main_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "plan", "method": "vc",
                                      "epsilon": 0.1, "delta": 1e-6,
                                      "d_vc": 5, "seed": 1})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "77"]) == 0
        assert read_summary(out)["config"]["seed"] == 77

    def test_main_missing_config(self):
        assert main([]) == 2

    def test_main_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_main_plot_data(self, tmp_path):
        records = bound_vs_n_records(3, 0.05, [100, 1000])
        src = tmp_path / "records.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)
        out = tmp_path / "out"
        assert main(["--plot-data", str(src), "--sweep", "n",
                     "--out", str(out)]) == 0
        assert (out / "plot.csv").exists()

    def test_main_plot_data_missing_sweep(self, tmp_path):
        src = tmp_path / "records.csv"
        src.write_text("a,b\n1,2\n")
        assert main(["--plot-data", str(src), "--sweep", "n",
                     "--out", str(tmp_path / "o")]) == 2

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEQBOUNDS_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, {"command": "plan", "method": "vc",
                                      "epsilon": 0.1, "delta": 1e-6,
                                      "d_vc": 5, "seed": 1})
        assert main(["--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "summary.json").exists()

    def test_io_failure_exit_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        config = {"command": "plan", "method": "vc", "epsilon": 0.1,
                  "delta": 1e-6, "d_vc": 5, "seed": 1}
        assert run(config, blocker / "out") == 4
