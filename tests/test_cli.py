import contextlib
import csv
import inspect
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digest_outputs import AR1, AR2_SYSTEM, COMMAND_CONFIGS, CONFIGS
from seqbounds import cli
from seqbounds.cli import ConfigError, main, run, validate_config
from seqbounds.experiments import default_ar1, default_scenario_program
from seqbounds import experiments as xp
from seqbounds.processes import (process_from_dict, sample_marginal,
                                 simulate_sequence)
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
                  "beta_a": 1e-3, "delta": 0.01, "seed": 3}
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

        def failing(process, n, replications, delta, seed, relative,
                    threads=1):
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
    @pytest.mark.parametrize("experiment", cli._EXPERIMENTS)
    def test_every_option_is_fixed_or_threads(self, experiment):
        # a check's config keys are its parameters: an option with a default
        # that its entry does not fix would be a key no config needs to set
        attr, fixed = cli._EXPERIMENTS[experiment]
        params = inspect.signature(getattr(xp, attr)).parameters.values()
        assert {p.name for p in params if p.default is not p.empty} <= \
            {*fixed, "threads"}

    def test_every_experiment_has_a_digest_config(self):
        # the digest is the equivalence gate: a check without a config there
        # could change its outputs unseen
        assert set(cli._EXPERIMENTS) == set(CONFIGS)

    @pytest.mark.parametrize("experiment", cli._EXPERIMENTS)
    def test_records_hold_python_scalars(self, experiment, tmp_path):
        # the records writer passes such columns to csv as they are (a
        # passing quarter_lemma keeps no record)
        _, records, _ = cli._run_validate(_validate_base(experiment),
                                          tmp_path)
        assert {type(v) for rec in records for v in rec.values()} <= \
            {int, float, bool}

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

        def patched(process, n, replications, delta, seed, relative,
                    threads=1):
            calls.append((process.kind, n, replications, delta, seed,
                          relative, threads))
            return experiments.ExperimentResult(name=experiment)

        monkeypatch.setattr(experiments, "vc_coverage", patched)
        config = {"command": "validate", "experiment": experiment,
                  "process": AR1, "n": 100, "replications": 5, "delta": 0.05,
                  "seed": 4, "threads": 2}
        assert run(config, tmp_path / "out") == 0
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
        with open(tmp_path / "records.csv", newline="") as fh:
            back = list(csv.DictReader(fh))
        assert float(back[0]["statistic"]) == -math.inf
        assert float(back[0]["bound"]) == math.inf
        assert math.isnan(float(back[1]["statistic"]))
        assert float(back[1]["bound"]) == 0.25
        assert back[1]["replication"] == "1"
        assert back[1]["holds"] == "False"


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

    def test_main_missing_config(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err == "config error: --config is required\n"

    def test_main_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_main_config_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"a":1}')
        assert main(["--config", str(bad),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_main_threads_override(self, tmp_path):
        config = {"command": "validate", "experiment": "symmetrization",
                  **CONFIGS["symmetrization"], "replications": 20,
                  "threads": 1}
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "--threads", "2"]) == 0
        assert read_summary(out)["config"]["threads"] == 2

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


class TestOutputFiles:
    """Output files are rewritten in place and cut to the written length."""

    def test_shorter_payload_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "summary.json"
        cli._write_json(path, {"values": list(range(500))})
        short = {"values": [1.5, math.inf], "name": "short"}
        cli._write_json(path, short)
        assert path.read_bytes() == (json.dumps(
            cli._plain(short), sort_keys=True, indent=2) + "\n").encode()

    def test_records_rewrite_leaves_no_stale_tail(self, tmp_path):
        record = {"replication": 0, "seed": 1, "statistic": 0.25,
                  "bound": np.float64(0.5), "holds": np.bool_(True)}
        path = tmp_path / "records.csv"
        cli.write_records_csv([record] * 300, path)
        cli.write_records_csv([record], path)
        assert path.read_bytes() == (
            b"replication,seed,statistic,bound,holds\r\n"
            b"0,1,0.25,0.5,True\r\n")

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_is_that_of_open_w(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            cli._write_json(tmp_path / "written", {})
        finally:
            os.umask(old)
        assert (tmp_path / "written").stat().st_mode == \
            (tmp_path / "reference").stat().st_mode

    def test_devnull_accepts_the_write(self):
        cli._write_json(os.devnull, {"a": 1})

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_receives_the_text(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        cli._write_json(fifo, {"a": 1})
        reader.join(10)
        assert not reader.is_alive()
        assert received == [b'{\n  "a": 1\n}\n']

    def test_rerun_into_one_directory_writes_the_same_files(self, tmp_path):
        config = dict(_validate_base("symmetrization"), replications=20)
        out = tmp_path / "out"
        files = ("summary.json", "records.csv")
        assert run(config, out) == cli.EXIT_OK
        first = [(out / name).read_bytes() for name in files]
        assert run(config, out) == cli.EXIT_OK
        assert [(out / name).read_bytes() for name in files] == first


# ---------------------------------------------------------------------------
# Fuzz: one numeric value of a config replaced by an out-of-range value

_SHRUNK = {"n": 200, "replications": 3, "instances": 3}


def _numeric_paths(value, path=()):
    """Paths of the numeric leaves of a config, through nested objects and
    lists; threads is left out so that no drawn value can ask for many
    threads."""
    if isinstance(value, dict):
        for key, v in value.items():
            if key != "threads":
                yield from _numeric_paths(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _numeric_paths(v, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


_FUZZ_CASES = [(name, path) for name in CONFIGS
               for path in _numeric_paths(CONFIGS[name])]


def _all_finite(obj):
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    # the writer spells a non-finite float as one of these strings
    return obj not in ("nan", "inf", "-inf")


# 10**400 is an int past the float range, and "abc" a number as text
_FUZZ_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 1e308, 10 ** 400, "abc"]


def _validate_base(name):
    """The validate config of ``name`` with its sizes shrunk."""
    return {"command": "validate", "experiment": name,
            **{k: min(v, _SHRUNK[k]) if k in _SHRUNK else v
               for k, v in CONFIGS[name].items()}}


def _replaced(config, path, value):
    """A copy of ``config`` with the value at ``path`` replaced, and the
    innermost key of the path."""
    config = json.loads(json.dumps(config))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config, [key for key in path if isinstance(key, str)][-1]


def _check_case(config, path, value):
    """Run ``config`` with the value at ``path`` replaced: the run either
    stops with exit 2 and a message that starts with the innermost key of
    the path, or writes a strict JSON summary with only finite numbers."""
    config, name = _replaced(config, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = run(config, Path(tmp) / "out")
        summary = (Path(tmp) / "out" / "summary.json")
        text = summary.read_text() if summary.exists() else None
    if code == cli.EXIT_CONFIG:
        assert re.match(rf"config error: {re.escape(name)}\b", err.getvalue())
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_PROPERTY)

        def reject(constant):
            raise AssertionError(f"summary.json holds {constant}")

        assert _all_finite(json.loads(text, parse_constant=reject))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(_FUZZ_CASES), value=st.sampled_from(_FUZZ_VALUES))
def test_out_of_range_value_named_or_finite(case, value):
    """Every numeric config value is range-checked: the run either stops
    with exit 2 and a message that starts with the key, or writes a strict
    JSON summary with only finite numbers in it."""
    name, path = case
    _check_case(_validate_base(name), path, value)


# The other commands: every bound kind, both planners, simulate, rad on
# points and on a process, and scenario on box and ball programs (epsilon
# 0.5 keeps the planned path short).  No size is drawn as a huge Python
# int: n = 10**12 would allocate terabytes before any check could apply.
_COMMAND_BASES = {
    "bound_vc": COMMAND_CONFIGS["bound"],
    **{name: COMMAND_CONFIGS[name] for name in (
        "bound_vc_growth", "bound_vc_relative", "bound_regression",
        "bound_rademacher_two_sided", "bound_rademacher_marginal",
        "bound_mixing", "plan_vc")},
    "plan_margin": COMMAND_CONFIGS["plan"],
    "simulate_ar1": {"command": "simulate", "process": AR1, "n": 200,
                     "seed": 3},
    "simulate_ar2": {"command": "simulate", "process": AR2_SYSTEM, "n": 200,
                     "seed": 3},
    **{name: dict(COMMAND_CONFIGS[name], n=200) for name in (
        "simulate_iid_normal", "simulate_iid_uniform")},
    "rad_points": {"command": "rad", "sign_draws": 32, "seed": 7,
                   "class": {"kind": "linear_ball", "dim": 2, "radius": 1.5},
                   "points": [[3.0, 4.0], [1.0, -2.0], [0.5, 0.1]]},
    "rad_process": {"command": "rad", "sign_draws": 32, "seed": 7,
                    "class": {"kind": "kernel_ball", "radius": 2.0,
                              "bandwidth": 0.8},
                    "process": AR1, "n": 200},
    "scenario_box": dict(COMMAND_CONFIGS["scenario_box"], epsilon=0.5),
    "scenario_ball": dict(COMMAND_CONFIGS["scenario_ball"], epsilon=0.5),
    "scenario_box_vc": dict(COMMAND_CONFIGS["scenario_box"], epsilon=0.5,
                            method="vc"),
    "scenario_box_domain": dict(COMMAND_CONFIGS["scenario_box_domain"],
                                epsilon=0.5),
}


_COMMAND_CASES = [(name, path) for name, config in _COMMAND_BASES.items()
                  for path in _numeric_paths(config)]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.sampled_from(_COMMAND_CASES), value=st.sampled_from(_FUZZ_VALUES))
def test_command_out_of_range_value_named_or_finite(case, value):
    """The validate fuzz above for every other command, nested program,
    process, class, point and rad_terms numbers included."""
    name, path = case
    _check_case(_COMMAND_BASES[name], path, value)


# ---------------------------------------------------------------------------
# Fuzz: one config object replaced by a value that is not an object

def _object_paths(value, path=()):
    """Paths of the objects nested in a config, at keys and in lists."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, v in items:
        if isinstance(v, dict):
            yield path + (key,)
        yield from _object_paths(v, path + (key,))


_SHAPE_CASES = [
    pytest.param(config, path, value,
                 id=f"{name}-{'.'.join(map(str, path))}-{value!r}")
    for name, config in [*((name, _validate_base(name)) for name in CONFIGS),
                         *_COMMAND_BASES.items()]
    for path in _object_paths(config)
    for value in ([], "x", 1, None)
    # a null x domain is valid: the program has none
    if value is not None or path[-1] != "x_domain"
]


@pytest.mark.parametrize("config, path, value", _SHAPE_CASES)
def test_non_object_exit_2_names_the_key(config, path, value):
    """Every object of a config (process, class, program, theta_set,
    x_domain, each of the pieces, psi, eta) given as a list, a string, a
    number or null stops the run with exit 2 and a message naming its key."""
    config, name = _replaced(config, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        assert run(config, Path(tmp) / "out") == cli.EXIT_CONFIG
    assert err.getvalue().startswith(f"config error: {name} must be an object")


# a program of one theta read through psi(x) = (1, ..., 1) . x on 17-D x
_WIDE_DOMAIN_PROGRAM = dict(
    COMMAND_CONFIGS["scenario_box"]["program"],
    x_domain={"kind": "box", "lo": [-1.0] * 17, "hi": [1.0] * 17},
    pieces=[{"psi": {"matrix": [[1.0] * 17], "offset": [-1.0]},
             "eta": {"matrix": [[0.0] * 17], "offset": [0.0]}}])


@pytest.mark.parametrize("config, name", [
    ({"command": "scenario", "method": "margin", "epsilon": 0.5,
      "delta": 0.1, "process": AR1, "seed": 1,
      "program": dict(COMMAND_CONFIGS["scenario_box"]["program"],
                      x_domain={"kind": "ball", "radius": 3.0})}, "x_domain"),
    ({"command": "rad", "sign_draws": 8, "seed": 7,
      "class": {"kind": "linear_ball", "dim": 1, "radius": 1.0},
      "points": [1.0, 1e308]}, "points"),
    # integers past the float range; no array is sized before the check
    (dict(_COMMAND_BASES["plan_vc"], d_vc=10 ** 400), "d_vc"),
    (dict(COMMAND_CONFIGS["bound"], n=10 ** 400), "n"),
    # a missing required key, and a number given as a string
    (dict(_COMMAND_BASES["rad_points"],
          **{"class": {"kind": "linear_ball", "radius": 1.5}}), "dim"),
    (dict(COMMAND_CONFIGS["simulate"], process={"kind": "markov_binary"}),
     "rho"),
    (dict(COMMAND_CONFIGS["scenario_ball"],
          program=dict(COMMAND_CONFIGS["scenario_ball"]["program"],
                       theta_set={"kind": "ball", "radius": "10"})), "radius"),
    (dict(COMMAND_CONFIGS["scenario_box"],
          program=dict(COMMAND_CONFIGS["scenario_box"]["program"],
                       margin="1.0")), "margin"),
    # points of another dimension than the class's
    (dict(_COMMAND_BASES["rad_points"],
          **{"class": {"kind": "linear_ball", "dim": 3, "radius": 1.5}}),
     "points"),
    (dict(_COMMAND_BASES["rad_points"], **{"class": {"kind": "threshold1d"}}),
     "points"),
    # program lists given as a number and as an object
    (dict(COMMAND_CONFIGS["scenario_box"],
          program=dict(COMMAND_CONFIGS["scenario_box"]["program"],
                       pieces=1)), "pieces"),
    (dict(COMMAND_CONFIGS["scenario_box"],
          program=dict(COMMAND_CONFIGS["scenario_box"]["program"],
                       objective={"a": 1})), "objective"),
    # a key that the command reads and the config lacks
    ({"command": "simulate", "process": AR1, "seed": 1}, "n is missing"),
    ({k: v for k, v in _COMMAND_BASES["bound_mixing"].items()
      if k != "beta_a"}, "beta_a is missing"),
    ({"command": "validate", "experiment": "symmetrization", "process": AR1,
      "n": 200, "replications": 3, "seed": 1}, "epsilon is missing"),
    ({"command": "plan", "method": "vc", "seed": 1}, "epsilon is missing"),
    # a program of 2-D x certified on a path of scalar x
    (dict(COMMAND_CONFIGS["scenario_box_2d"], process=AR1), "process"),
    # i.i.d. locations whose draws or variance overflow
    *((dict(_COMMAND_BASES[f"simulate_iid_{dist}"], process={
        "kind": "iid_baseline", "dist": dist, **process}), name)
      for dist, process, name in [
          ("uniform", {"low": -1e308, "high": 1e308}, "low"),
          ("uniform", {"low": -1.0, "high": 1e308}, "high"),
          ("uniform", {"low": -1e200, "high": 1e200}, "low"),
          ("normal", {"mean": 1e300}, "mean")]),
    # a process or x domain that the command cannot score: an AR(3) model
    # grid, margin coverage off AR(1), no threshold risk oracle, a clipped
    # system, and vertex enumeration past 16 dimensions
    (dict(_validate_base("regression_coverage"), process=dict(
        AR2_SYSTEM, coefficients=[0.3, 0.2, 0.1])), "process "),
    (dict(_validate_base("margin_rad_coverage"), process=AR2_SYSTEM),
     "process "),
    (dict(_validate_base("vc_coverage"),
          process={"kind": "markov_binary", "rho": 0.6}), "process "),
    (dict(_validate_base("regression_coverage"),
          process=dict(AR2_SYSTEM, clip_radius=5.0)), "process "),
    (dict(COMMAND_CONFIGS["scenario_box"], program=_WIDE_DOMAIN_PROGRAM),
     "x_domain "),
])
def test_exit_2_names_the_value(tmp_path, capsys, config, name):
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {name}")


@pytest.mark.parametrize("config, key", [
    # 46,299,966,981 planned scenarios: 345 GiB of path
    (dict(COMMAND_CONFIGS["scenario_box"], epsilon=1e-4), "epsilon"),
    (dict(_COMMAND_BASES["simulate_ar1"], n=10 ** 12), "n"),
    (dict(_COMMAND_BASES["rad_points"], sign_draws=10 ** 12), "sign_draws"),
    (dict(_validate_base("vc_coverage"), n=10 ** 12), "n"),
    # a 10**7 x 10**7 x 2 array of point differences
    (dict(_validate_base("kernel_rad_bound"), n=10 ** 7), "n"),
    # a 10**6 x 10**6 x 1 array of path point differences: n sized it
    (dict(_COMMAND_BASES["rad_process"], n=10 ** 6, sign_draws=4), "n"),
    # the 345 GiB path of the scenario case, planned for each replication
    (dict(_validate_base("scenario_coverage"), epsilon=1e-4), "epsilon"),
], ids=["scenario", "simulate", "rad", "validate_vc_coverage",
        "validate_kernel_rad_bound", "rad_kernel_process",
        "validate_scenario_coverage"])
def test_out_of_memory_config_exit_2(tmp_path, capsys, config, key):
    # each asks for far more memory than a machine holds (345 GiB to
    # 1.4 PiB), so numpy refuses it at once; the message starts with the
    # key that sized the arrays
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} sizes arrays ")
    assert "Unable to allocate " in err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("config, key", [
    (dict(_COMMAND_BASES["simulate_ar1"], n=10 ** 19), "n"),
    (dict(_validate_base("vc_coverage"), n=10 ** 19), "n"),
    (dict(_COMMAND_BASES["rad_process"], n=10 ** 19), "n"),
    (dict(_COMMAND_BASES["rad_points"], sign_draws=10 ** 19), "sign_draws"),
    # about 1.6e25 planned scenarios
    ({"command": "scenario", "method": "margin", "epsilon": 0.5,
      "delta": 0.1, "seed": 1,
      "process": {"kind": "ar1_threshold_labels", "a": 0.5, "sigma": 1.0},
      "program": dict(COMMAND_CONFIGS["scenario_box"]["program"],
                      theta_set={"kind": "box", "lo": [-1e12],
                                 "hi": [1e12]})}, "epsilon"),
], ids=["simulate", "validate_vc_coverage", "rad_process", "rad_points",
        "scenario"])
def test_past_index_range_config_exit_2(tmp_path, capsys, config, key):
    # numpy cannot index an array of 10**19 entries, and says so at once
    # with a ValueError; the message starts with the key that sized it
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} sizes arrays that numpy "
                          f"cannot make (")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_threshold_rad_on_a_long_path(tmp_path):
    # the threshold supremum sweeps the sorted points: no (n+1) x n matrix
    config = {"command": "rad", "sign_draws": 4, "seed": 7,
              "class": {"kind": "threshold1d"}, "process": AR1, "n": 200_000}
    assert run(config, tmp_path / "out") == cli.EXIT_OK
    estimate = read_summary(tmp_path / "out")["summary"]["estimate"]
    assert 0.0 < estimate["value"] < 1.0


@pytest.mark.parametrize("config", [
    dict(COMMAND_CONFIGS["bound"], delta=1e-310),
    dict(COMMAND_CONFIGS["plan_vc"], delta=1e-310),
], ids=["bound_vc", "plan_vc"])
def test_subnormal_delta_exit_0(tmp_path, config):
    # 2 / delta and 4 / delta overflow; the bound and the plan stay finite
    assert run(config, tmp_path / "out") == cli.EXIT_OK
    assert _all_finite(read_summary(tmp_path / "out")["summary"])


@pytest.mark.parametrize("config, what", [
    ({"command": "rad", "sign_draws": 8, "seed": 7, "points": [1.0, 2.0],
      "class": {"kind": "linear_ball", "dim": 1, "radius": 1.0,
                "bandwidth": 2.0}}, "class"),
    (dict(COMMAND_CONFIGS["simulate"], process=dict(AR1, drift=0.1)),
     "process"),
])
def test_unknown_fields_exit_2(tmp_path, capsys, config, what):
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: unknown {what} fields [")


# ---------------------------------------------------------------------------
# Each command reads the keys of the bound kind, plan method or experiment
# that it runs, besides command, seed and threads

_OWN_KEYS = {
    # a bound kind or a plan method reads its function's parameters
    ("bound", "bound_vc"): "bound emp_risk n delta d_vc growth_2n",
    ("bound", "bound_vc_relative"):
        "bound emp_risk n delta d_vc growth_2n stationary",
    ("bound", "bound_regression"): "bound emp_risk n d_vc delta b",
    ("bound", "bound_rademacher_marginal"):
        "bound variant emp_risk rad_terms b n delta",
    ("bound", "bound_mixing"): "bound emp_risk rad_mu b mu a beta_a delta",
    ("plan", "plan_vc"): "method epsilon delta d_vc",
    ("plan", "plan_margin"): "method epsilon delta gamma tau_lambda_sum",
    # rad reads a process and its length only when given no points
    ("rad", "rad_points"): "class sign_draws points",
    ("rad", "rad_process"): "class sign_draws process n",
    ("simulate", "simulate_ar1"): "process n",
    ("scenario", "scenario_box"): "program process epsilon delta method",
    **{("validate", name): "experiment " + keys for name, keys in {
        "vc_coverage": "process n replications delta",
        "relative_coverage": "process n replications delta",
        "margin_rad_coverage": "process gamma radius n replications delta",
        "regression_coverage": "process m_clip radius n replications delta",
        "symmetrization": "process n epsilon replications",
        "scenario_coverage": "program process epsilon delta replications",
        "kernel_rad_bound": "instances n radius m_clip",
        "chaining_dominance": "instances",
        "concentration_exactness": "",
        "quarter_lemma": "",
        "relative_rate_scaling": "",
        "mixing_tightness": ""}.items()},
}


def _key_base(command, name):
    return _validate_base(name) if command == "validate" else \
        _COMMAND_BASES[name]


def _other_keys(command, name):
    """The keys that only the other choices of ``command`` read."""
    return sorted({key for (c, other), keys in _OWN_KEYS.items()
                   if c == command and other != name
                   for key in keys.split()} - set(_OWN_KEYS[command, name]
                                                   .split()))


@pytest.mark.parametrize("command, name", _OWN_KEYS,
                         ids=[name for _, name in _OWN_KEYS])
def test_own_keys_accepted(command, name):
    base = _key_base(command, name)
    for key in _OWN_KEYS[command, name].split() + ["seed", "threads"]:
        config = dict(base, **{key: base.get(key, 1)})
        assert validate_config(config) is config


# (points given to rad_process pick the points run, which reads neither the
# process nor n: test_rad_points_and_process_exit_2)
_OTHER_KEY_CASES = [(command, name, key) for command, name in _OWN_KEYS
                    for key in _other_keys(command, name)
                    if (name, key) != ("rad_process", "points")]


@pytest.mark.parametrize("command, name, key", _OTHER_KEY_CASES,
                         ids=[f"{name}-{key}"
                              for _, name, key in _OTHER_KEY_CASES])
def test_other_choice_key_exit_2(tmp_path, capsys, command, name, key):
    config = dict(_key_base(command, name), **{key: 1})
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"config error: unknown config fields [{key!r}]\n"
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("experiment", ["vc_coverage", "relative_coverage"])
def test_relative_key_exit_2(tmp_path, capsys, experiment):
    # the experiment name alone picks the relative bound
    config = dict(_validate_base(experiment), relative=False)
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: unknown config fields ['relative']\n"


def test_rad_points_and_process_exit_2(tmp_path, capsys):
    config = dict(_COMMAND_BASES["rad_points"], process=AR1)
    assert run(config, tmp_path / "out") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: unknown config fields ['process']\n"


@pytest.mark.parametrize("config, code", [
    (_validate_base("vc_coverage"), cli.EXIT_OK),
    (_validate_base("kernel_rad_bound"), cli.EXIT_CONFIG),
    (COMMAND_CONFIGS["plan"], cli.EXIT_CONFIG),
], ids=["vc_coverage", "kernel_rad_bound", "plan"])
def test_replications_option_is_a_config_key(tmp_path, capsys, config, code):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out),
                 "--replications", "2"]) == code
    if code == cli.EXIT_OK:
        assert read_summary(out)["config"]["replications"] == 2
    else:
        assert capsys.readouterr().err == \
            "config error: unknown config fields ['replications']\n"


# ---------------------------------------------------------------------------
# Deferred scipy imports, each checked in a fresh interpreter

SRC = Path(cli.__file__).resolve().parents[1]
HEAVY_SCIPY = ("scipy.signal", "scipy.stats", "scipy.optimize",
               "scipy.spatial", "scipy.linalg")


def fresh_python(code, *args):
    """Standard output (bytes) of ``code`` run in a new interpreter that
    imports seqbounds from this tree."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           *map(str, args)],
                          env=env, check=True, capture_output=True).stdout


def test_import_and_grid_validates_load_no_heavy_scipy(tmp_path):
    loaded = json.loads(fresh_python("""
        import json, sys
        heavy = sys.argv[2:]
        import seqbounds, seqbounds.cli
        loaded = {"import": [m for m in heavy if m in sys.modules]}
        for name in ("concentration_exactness", "quarter_lemma"):
            config = {"command": "validate", "experiment": name, "seed": 0}
            code = seqbounds.cli.run(config, sys.argv[1] + "/" + name)
            loaded[name] = [code] + [m for m in heavy if m in sys.modules]
        print(json.dumps(loaded))
        """, tmp_path, *HEAVY_SCIPY))
    assert loaded == {"import": [], "concentration_exactness": [cli.EXIT_OK],
                      "quarter_lemma": [cli.EXIT_OK]}


def test_path_draws_load_no_heavy_scipy(tmp_path):
    # the runs go one after another in one interpreter; scipy.linalg is
    # left out of the list, since an AR(2) draw needs its covariance
    runs = {"simulate_ar1": _COMMAND_BASES["simulate_ar1"],
            "simulate_ar2": _COMMAND_BASES["simulate_ar2"],
            "vc_coverage": _validate_base("vc_coverage")}
    loaded = json.loads(fresh_python("""
        import json, sys
        runs, heavy = json.loads(sys.argv[2]), sys.argv[3:]
        import seqbounds.cli
        loaded = {}
        for name, config in runs.items():
            code = seqbounds.cli.run(config, sys.argv[1] + "/" + name)
            loaded[name] = [code] + [m for m in heavy if m in sys.modules]
        print(json.dumps(loaded))
        """, tmp_path, json.dumps(runs), "scipy.signal", "scipy.stats",
        "scipy.optimize", "scipy.spatial", "scipy.interpolate"))
    assert loaded == {name: [cli.EXIT_OK] for name in runs}


NO_SCIPY_RUNS = [name for name, config in COMMAND_CONFIGS.items()
                 if config["command"] in ("plan", "bound")]


def test_import_plan_and_bound_load_no_scipy(tmp_path):
    # the runs go one after another, so each is checked with the modules
    # that the runs before it left behind
    loaded = json.loads(fresh_python("""
        import json, sys
        runs = json.loads(sys.argv[2])
        scipy = lambda: [m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")]
        import seqbounds, seqbounds.cli
        loaded = {"import": scipy()}
        for name, config in runs.items():
            code = seqbounds.cli.run(config, sys.argv[1] + "/" + name)
            loaded[name] = [code] + scipy()
        print(json.dumps(loaded))
        """, tmp_path, json.dumps({name: COMMAND_CONFIGS[name]
                                   for name in NO_SCIPY_RUNS})))
    assert {"plan", "plan_vc", "bound", "bound_rademacher_two_sided",
            "bound_mixing"} <= set(NO_SCIPY_RUNS)
    assert loaded == {"import": [],
                      **{name: [cli.EXIT_OK] for name in NO_SCIPY_RUNS}}


def test_scenario_solves_load_no_scipy_optimize(tmp_path):
    # every program of the digest whose solve goes past the closed form
    runs = {name: COMMAND_CONFIGS[name] for name in (
        "scenario_coupled", "scenario_infeasible", "scenario_ball_cuts",
        "scenario_hull", "scenario_hull_3d")}
    loaded = json.loads(fresh_python("""
        import json, sys
        runs = json.loads(sys.argv[2])
        import seqbounds.cli
        loaded = {}
        for name, config in runs.items():
            code = seqbounds.cli.run(config, sys.argv[1] + "/" + name)
            loaded[name] = [code, "scipy.optimize" in sys.modules]
        print(json.dumps(loaded))
        """, tmp_path, json.dumps(runs)))
    assert loaded == {name: [cli.EXIT_OK, False] for name in runs}


def test_binomial_tail_grid_loads_scipy_special_alone(tmp_path):
    loaded = json.loads(fresh_python("""
        import json, sys
        heavy = sys.argv[2:]
        import seqbounds.cli
        loaded = {"import": "scipy.special" in sys.modules}
        config = {"command": "validate", "experiment":
                  "concentration_exactness", "seed": 0}
        code = seqbounds.cli.run(config, sys.argv[1])
        loaded["run"] = [code, "scipy.special" in sys.modules] + [
            m for m in heavy if m in sys.modules]
        print(json.dumps(loaded))
        """, tmp_path / "out", *HEAVY_SCIPY))
    assert loaded == {"import": False, "run": [cli.EXIT_OK, True]}


def test_first_import_in_two_worker_threads():
    # scipy's compiled linear filter is first loaded by the path
    # simulations of both workers at once (scipy.special by the risk
    # oracle, before the workers start); the records match those of one
    # thread
    records = pickle.loads(fresh_python("""
        import json, pickle, sys
        from seqbounds.experiments import vc_coverage
        from seqbounds.processes import process_from_dict
        assert "scipy.signal" not in sys.modules
        assert "scipy.special" not in sys.modules
        spec = process_from_dict(json.loads(sys.argv[1]))
        result = vc_coverage(spec, 500, 16, 0.05, 12345, threads=2)
        sys.stdout.buffer.write(pickle.dumps(result.records))
        """, json.dumps(AR1)))
    one = xp.vc_coverage(process_from_dict(AR1), 500, 16, 0.05, 12345,
                         threads=1)
    assert records == one.records
