"""Config-driven command line entry point.

Reads a JSON experiment config, runs the requested command and writes a
deterministic ``summary.json`` (plus ``records.csv`` for experiments and a
``meta.json`` with the timestamp).  Exit codes: 0 success, 2 invalid
config or malformed records, 3 a validation experiment's acceptance
property failed, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import experiments as xp
from . import scenario as scn
from .classes import (FunctionClassDescriptor, kernel_ball_class,
                      linear_ball_class, threshold_class)
from .estimators import empirical_rademacher
from .processes import (process_from_dict, sequence_to_csv, simulate_sequence)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROPERTY = 3
EXIT_IO = 4

ENV_OUT = "SEQBOUNDS_OUT"

COMMANDS = ("bound", "plan", "simulate", "rad", "validate", "scenario")

_COMMON_KEYS = {"command", "seed", "threads"}

# validate experiment -> (function name in ``experiments``, whether it takes
# ``threads``, config keys passed positionally); the function is looked up at
# call time, so a patched ``experiments`` attribute is the one that runs
_EXPERIMENTS = {
    "vc_coverage": ("vc_coverage", True,
                    "process n replications delta seed relative"),
    "relative_coverage": ("vc_coverage", True,
                          "process n replications delta seed relative"),
    "margin_rad_coverage": ("margin_rad_coverage", True,
                            "process gamma radius n replications delta seed"),
    "regression_coverage": ("regression_coverage", True,
                            "process m_clip radius n replications delta seed"),
    "symmetrization": ("symmetrization", True,
                       "process n epsilon replications seed"),
    "scenario_coverage": ("scenario_pac_coverage", True,
                          "program process epsilon delta replications seed"),
    "kernel_rad_bound": ("kernel_rad_bound", True,
                         "instances n radius m_clip seed"),
    "chaining_dominance": ("chaining_dominance", True, "instances seed"),
    "concentration_exactness": ("concentration_exactness", False, ""),
    "quarter_lemma": ("quarter_lemma_grid", False, ""),
}

_ALLOWED = {
    "bound": _COMMON_KEYS | {"bound", "emp_risk", "n", "delta", "d_vc",
                             "growth_2n", "b", "variant", "rad_terms",
                             "stationary", "rad_mu", "mu", "a", "beta_a"},
    "plan": _COMMON_KEYS | {"method", "epsilon", "delta", "d_vc", "gamma",
                            "tau_lambda_sum"},
    "simulate": _COMMON_KEYS | {"process", "n"},
    "rad": _COMMON_KEYS | {"class", "points", "process", "n", "sign_draws"},
    "validate": _COMMON_KEYS | {"experiment"} | {
        key for _, _, keys in _EXPERIMENTS.values() for key in keys.split()},
    "scenario": _COMMON_KEYS | {"program", "process", "epsilon", "delta",
                                "method"},
}

_CLASS_KEYS = {
    "threshold1d": {"kind"},
    "linear_ball": {"kind", "dim", "radius", "with_offset"},
    "kernel_ball": {"kind", "radius", "bandwidth"},
}


class ConfigError(ValueError):
    pass


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    unknown = set(config) - _ALLOWED[command]
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    if "seed" not in config:
        raise ConfigError("config needs a seed")
    return config


def _class_from_dict(d: dict) -> FunctionClassDescriptor:
    kind = d.get("kind")
    if kind not in _CLASS_KEYS:
        raise ConfigError(f"unsupported class kind {kind!r} in config")
    unknown = set(d) - _CLASS_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown class fields {sorted(unknown)}")
    if kind == "threshold1d":
        return threshold_class()
    if kind == "linear_ball":
        return linear_ball_class(d["dim"], d["radius"],
                                 with_offset=d.get("with_offset", False))
    return kernel_ball_class(d["radius"], bandwidth=d.get("bandwidth", 1.0))


# ---------------------------------------------------------------------------
# Command handlers: each returns (summary_dict, records_or_None, holds)

def _run_bound(config):
    kind = config.get("bound")
    emp = config.get("emp_risk", 0.0)
    delta = config["delta"]
    if kind == "vc":
        rep = bnd.vc_bound(emp, config["n"], delta, d_vc=config.get("d_vc"),
                           growth_2n=config.get("growth_2n"))
    elif kind == "vc_relative":
        rep = bnd.vc_relative_bound(emp, config["n"], delta,
                                    d_vc=config.get("d_vc"),
                                    growth_2n=config.get("growth_2n"),
                                    stationary=config.get("stationary", False))
    elif kind == "regression":
        rep = bnd.regression_vc_bound(emp, config["n"], config["d_vc"], delta,
                                      config["b"])
    elif kind == "rademacher":
        rep = bnd.rademacher_risk_bound(config["variant"], emp,
                                        config["rad_terms"], config["b"],
                                        config["n"], delta)
    elif kind == "mixing":
        rep = bnd.mixing_reference_bound(emp, config["rad_mu"], config["b"],
                                         config["mu"], config["a"],
                                         config["beta_a"], delta)
        if rep is None:
            return {"report": None, "applicable": False}, None, True
    else:
        raise ConfigError(f"unknown bound kind {kind!r}")
    return {"report": rep.to_dict()}, None, True


def _run_plan(config):
    method = config["method"]
    eps, delta = config["epsilon"], config["delta"]
    if method == "vc":
        n = scn.plan_n_vc(eps, delta, config["d_vc"])
        vb = scn.violation_bound("vc", n, delta, d_vc=config["d_vc"])
    elif method == "margin":
        n = scn.plan_n_margin(eps, delta, config["gamma"],
                              config["tau_lambda_sum"])
        vb = scn.violation_bound("margin", n, delta, gamma=config["gamma"],
                                 tau_lambda_sum=config["tau_lambda_sum"])
    else:
        raise ConfigError(f"unknown planning method {method!r}")
    return {"n": n, "violation_bound_at_n": vb, "method": method}, None, True


def _run_simulate(config, out_dir):
    spec = process_from_dict(config["process"])
    sample = simulate_sequence(spec, config["n"], config["seed"])
    path = out_dir / "sequence.csv"
    sequence_to_csv(sample, path)
    x = np.asarray(sample.x, dtype=float)
    summary = {
        "n": len(sample),
        "x_mean": float(np.mean(x)),
        "x_var": float(np.var(x)),
        "file": path.name,
    }
    return summary, None, True


def _run_rad(config):
    cls = _class_from_dict(config["class"])
    if "points" in config:
        points = np.asarray(config["points"], dtype=float)
    elif "process" in config:
        spec = process_from_dict(config["process"])
        points = simulate_sequence(spec, config["n"], config["seed"]).x
    else:
        raise ConfigError("rad needs either points or a process")
    est = empirical_rademacher(cls, points, config.get("sign_draws", 256),
                               config["seed"])
    return {"estimate": est.to_dict()}, None, True


def _run_validate(config, threads):
    name = config["experiment"]
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    attr, threaded, keys = _EXPERIMENTS[name]
    parse = {
        "process": lambda: process_from_dict(config["process"]),
        "program": lambda: scn.ScenarioProgramSpec.from_dict(config["program"]),
        "relative": lambda: (name == "relative_coverage"
                             or config.get("relative", False)),
    }
    args = [parse[key]() if key in parse else config[key]
            for key in keys.split()]
    kwargs = {"threads": threads} if threaded else {}
    result = getattr(xp, attr)(*args, **kwargs)
    summary = {"experiment": result.name, "holds": result.holds,
               **result.summary}
    return summary, result.records, result.holds


def _run_scenario(config):
    program = scn.ScenarioProgramSpec.from_dict(config["program"])
    spec = process_from_dict(config["process"])
    cert = scn.certify(program, spec, config["epsilon"], config["delta"],
                       config["method"], config["seed"])
    return {"certificate": cert.to_dict()}, None, True


def run(config: dict, out_dir, threads: int = 1) -> int:
    """Validate and execute one config; write outputs under ``out_dir``."""
    try:
        config = validate_config(config)
    except (ConfigError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    command = config["command"]
    try:
        records = None
        if command == "bound":
            summary, records, holds = _run_bound(config)
        elif command == "plan":
            summary, records, holds = _run_plan(config)
        elif command == "simulate":
            summary, records, holds = _run_simulate(config, out_dir)
        elif command == "rad":
            summary, records, holds = _run_rad(config)
        elif command == "validate":
            summary, records, holds = _run_validate(config,
                                                    config.get("threads", threads))
        else:
            summary, records, holds = _run_scenario(config)
    except (ConfigError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    payload = {"config": config, "summary": summary}
    try:
        _write_json(out_dir / "summary.json", payload)
        _write_json(out_dir / "meta.json",
                    {"written_at": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat()})
        if records is not None:
            write_records_csv(records, out_dir / "records.csv")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if holds else EXIT_PROPERTY


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)     # "inf", "-inf" or "nan": strict JSON has no such numbers
    return obj


RECORD_COLUMNS = ["replication", "seed", "statistic", "bound", "holds"]


def write_records_csv(records, path):
    columns = RECORD_COLUMNS if all(
        set(r) == set(RECORD_COLUMNS) for r in records
    ) else sorted({k for r in records for k in r})
    if not records:
        columns = RECORD_COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _plain(v) for k, v in rec.items()})


def emit_plot_data(records, sweep: str, path):
    """Plot-ready CSV: the input rows stably sorted by the sweep column.

    Column layout: the sweep column first, then the remaining columns in
    their original order.  Malformed records (missing the sweep column or
    inconsistent keys) raise ConfigError.
    """
    records = list(records)
    if not records:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow([sweep])
        return
    keys = list(records[0].keys())
    for rec in records:
        if list(rec.keys()) != keys:
            raise ConfigError("records have inconsistent columns")
    if sweep not in keys:
        raise ConfigError(f"records lack the sweep column {sweep!r}")
    columns = [sweep] + [k for k in keys if k != sweep]
    ordered = sorted(records, key=lambda r: r[sweep])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for rec in ordered:
            writer.writerow({k: _plain(v) for k, v in rec.items()})


def _read_records_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [{k: _parse_cell(v) for k, v in row.items()} for row in reader]


def _parse_cell(v):
    # int first, so "3" stays an int; float also reads "inf", "-inf", "nan"
    for cast in (int, float):
        try:
            return cast(v)
        except (ValueError, TypeError):
            pass
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqbounds",
        description="Risk bounds, scenario planners and validation "
                    "experiments for dependent data sequences.",
    )
    parser.add_argument("--config", type=Path, help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", type=Path,
                        default=Path(os.environ.get(ENV_OUT, "seqbounds_out")),
                        help=f"output directory (default ${ENV_OUT} or ./seqbounds_out)")
    parser.add_argument("--replications", type=int,
                        help="override the config replication count")
    parser.add_argument("--threads", type=int, default=1,
                        help="replication fan-out width")
    parser.add_argument("--plot-data", type=Path, dest="plot_data",
                        help="turn a records CSV into plot-ready CSV")
    parser.add_argument("--sweep", type=str, default="n",
                        help="sweep column for --plot-data")
    args = parser.parse_args(argv)

    if args.plot_data is not None:
        try:
            records = _read_records_csv(args.plot_data)
            args.out.mkdir(parents=True, exist_ok=True)
            emit_plot_data(records, args.sweep, args.out / "plot.csv")
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        return EXIT_OK

    if args.config is None:
        print("config error: --config (or --plot-data) is required",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = json.loads(args.config.read_text())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        config["seed"] = args.seed
    if args.replications is not None and "replications" in config:
        config["replications"] = args.replications
    return run(config, args.out, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
