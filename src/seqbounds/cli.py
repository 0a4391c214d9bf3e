"""Config-driven command line entry point.

Reads a JSON experiment config, runs the requested command and writes a
deterministic ``summary.json`` (plus ``records.csv`` for experiments and a
``meta.json`` with the timestamp).  Output files are rewritten in place
and then cut to their length, so a rerun into the same directory leaves
no stale bytes; the JSON files and ``records.csv`` take one write each.
As with any rewrite, a crash during a write can leave a partial file.
Every check of ``experiments``, the fixed-grid ones included, is one
``validate`` experiment, and its config keys are that function's
parameters.
Exit codes: 0 success, 2 invalid config, 3 a validation experiment's
acceptance property failed, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import experiments as xp
from . import scenario as scn
from .bounds import (_as_floats, _check, _from_dict, _from_kind_dict,
                     _parameters, _sized)
from .classes import kernel_ball_class, linear_ball_class, threshold_class
from .estimators import _sign_average, _sup_rows
from .processes import (_write_text, process_from_dict, sequence_to_csv,
                         simulate_sequence)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROPERTY = 3
EXIT_IO = 4

ENV_OUT = "SEQBOUNDS_OUT"

# every command reads these; ``threads`` is only checked and echoed (each
# check runs its replications in order)
_COMMON_KEYS = {"command", "seed", "threads"}

# bound kind -> function in ``bounds``, plan method -> planner in
# ``scenario``; a validate experiment is the function of its name in
# ``experiments`` (``experiments.CHECKS``).  The config keys of each are its
# function's parameters plus the common keys.  Every function is looked up
# by name at call time, so a patched module attribute is the one that runs.
_BOUNDS = {"vc": "vc_bound", "vc_relative": "vc_relative_bound",
           "regression": "regression_vc_bound",
           "rademacher": "rademacher_risk_bound",
           "mixing": "mixing_reference_bound"}
_PLANNERS = {"vc": "plan_n_vc", "margin": "plan_n_margin"}
# readers of the config objects that a validate experiment takes
_READERS = {"process": lambda d, key: process_from_dict(d),
            "program": lambda d, key: scn.ScenarioProgramSpec.from_dict(d)}

_CLASSES = {"threshold1d": threshold_class, "linear_ball": linear_ball_class,
            "kernel_ball": kernel_ball_class}


class ConfigError(ValueError):
    pass


def _choice(names, config, key, what):
    """``config[key]``, which must be one of ``names``."""
    choice = config.get(key)
    if choice is None:
        raise ConfigError(f"{key} is missing")
    if not isinstance(choice, str) or choice not in names:
        raise ConfigError(f"unknown {what} {choice!r}")
    return choice


def _bound_function(config):
    return getattr(bnd, _BOUNDS[_choice(_BOUNDS, config, "bound",
                                        "bound kind")])


def _planner(config):
    return getattr(scn, _PLANNERS[_choice(_PLANNERS, config, "method",
                                          "planning method")])


def _experiment(config):
    """The check that ``config`` names and its parameters: the keys that
    it reads."""
    function = getattr(xp, _choice(xp.CHECKS, config, "experiment",
                                   "experiment"))
    return function, _parameters(function)[0]


def _arguments(config, choice):
    """The keys of ``config`` that its function reads: all but the common
    ones and the ``choice`` key that picks the function."""
    return {k: v for k, v in config.items()
            if k not in _COMMON_KEYS and k != choice}


# ---------------------------------------------------------------------------
# Command handlers: each takes (config, out_dir) and returns
# (summary_dict, records_or_None, holds)

def _run_bound(config, out_dir):
    rep = _from_dict(_bound_function(config),
                     {"emp_risk": 0.0, **_arguments(config, "bound")}, "bound")
    if rep is None:     # the mixing bound does not apply at this delta
        return {"report": None, "applicable": False}, None, True
    return {"report": rep.to_dict()}, None, True


def _run_plan(config, out_dir):
    args = _arguments(config, "method")
    n = _from_dict(_planner(config), args, "plan")
    capacity = {k: v for k, v in args.items() if k not in ("epsilon", "delta")}
    vb = scn.violation_bound(config["method"], n, config["delta"], **capacity)
    return {"n": n, "violation_bound_at_n": vb, "method": config["method"]}, \
        None, True


def _run_simulate(config, out_dir):
    spec = process_from_dict(config["process"])
    sample = _sized("n", simulate_sequence, spec, config["n"], config["seed"])
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


def _run_rad(config, out_dir):
    cls = _from_kind_dict(_CLASSES, config["class"], "class")
    if "points" in config:
        key, points = "points", _as_floats("points", config["points"])
    else:
        spec = process_from_dict(config["process"])
        key, points = "n", _sized("n", simulate_sequence, spec, config["n"],
                                  config["seed"]).x
    # empirical_rademacher in two steps: the point count sizes the class's
    # arrays on the points, and sign_draws the estimate's
    sup = _sized(key, _sup_rows, cls, points)
    est = _sized("sign_draws", _sign_average, sup, len(points),
                 config.get("sign_draws", 256), config["seed"])
    return {"estimate": est.to_dict()}, None, True


def _run_validate(config, out_dir):
    function, keys = _experiment(config)
    experiment = functools.partial(
        _from_dict, function, {k: v for k, v in config.items() if k in keys},
        "experiment", **_READERS)
    # a check that takes n draws paths or points of that length; certify
    # names the key that sizes the path it plans (scenario_coverage)
    result = _sized("n", experiment) if "n" in keys else experiment()
    summary = {"experiment": result.name, "holds": result.holds,
               **result.summary}
    return summary, result.records, result.holds


def _run_scenario(config, out_dir):
    program = scn.ScenarioProgramSpec.from_dict(config["program"])
    spec = process_from_dict(config["process"])
    cert = scn.certify(program, spec, config["epsilon"], config["delta"],
                       config["method"], config["seed"])
    return {"certificate": cert.to_dict()}, None, True


# command -> (the keys of a config that it reads besides the common ones,
# its handler); rad reads a process and its length only without points
_COMMANDS = {
    "bound": (lambda c: {"bound", *_parameters(_bound_function(c))[0]},
              _run_bound),
    "plan": (lambda c: {"method", *_parameters(_planner(c))[0]}, _run_plan),
    "simulate": (lambda c: {"process", "n"}, _run_simulate),
    "rad": (lambda c: {"class", "sign_draws", *(
        ("points",) if "points" in c else ("process", "n"))}, _run_rad),
    "validate": (lambda c: {"experiment", *_experiment(c)[1]},
                 _run_validate),
    "scenario": (lambda c: {"program", "process", "epsilon", "delta",
                            "method"}, _run_scenario),
}


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    keys, _ = _COMMANDS[_choice(_COMMANDS, config, "command", "command")]
    unknown = config.keys() - _COMMON_KEYS - keys(config)
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    if "seed" not in config:
        raise ConfigError("config needs a seed")
    _check("seed", config["seed"], integer=True)
    _check("threads", config.get("threads", 1), 1, integer=True)
    return config


def _config_error(exc):
    # a KeyError is a key that the command reads and the config lacks
    message = f"{exc.args[0]} is missing" if isinstance(exc, KeyError) else exc
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def run(config: dict, out_dir) -> int:
    """Validate and execute one config; write outputs under ``out_dir``."""
    try:
        config = validate_config(config)
    except (ValueError, TypeError) as exc:
        return _config_error(exc)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    _, handler = _COMMANDS[config["command"]]
    try:
        summary, records, holds = handler(config, out_dir)
    except (ValueError, KeyError, TypeError, MemoryError) as exc:
        # a MemoryError is a config whose arrays no machine holds (_sized)
        return _config_error(exc)
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
    """Write what ``json.dumps(payload, sort_keys=True, indent=2)`` and a
    newline would, once numpy scalars and arrays are Python numbers and
    lists, an np.bool_ a bool, and a float that is not finite its text
    ("inf", "-inf" or "nan": strict JSON has no such numbers).  It is one
    walk: ``json.dumps`` with an indent runs the pure-Python encoder (the C
    one does not indent), and would need a plain copy of the payload first.
    Every key is a string (config keys are checked by name); another key,
    or a value that JSON cannot encode, raises a TypeError before writing."""
    out = []
    _encode(payload, out, "\n")
    out.append("\n")
    _write_text(path, ["".join(out)])


def _encode(obj, out, newline):
    """Append the JSON text of ``obj`` to ``out``; ``newline`` begins each
    line inside it, indented as ``json.dumps`` does."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, float):    # np.float64 too, whose repr is a float's
        out.append(float.__repr__(obj) if math.isfinite(obj)
                   else _quote(str(obj)))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, start = newline + "  ", "["
        for value in obj:
            out.append(start + inner)
            _encode(value, out, inner)
            start = ","
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, start = newline + "  ", "{"
        for key, value in sorted(obj.items()):
            out.append(f"{start}{inner}{_quote(key)}: ")
            _encode(value, out, inner)
            start = ","
        out.append(newline + "}")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif (isinstance(obj, (np.floating, np.integer, np.ndarray))
          and type(plain := obj.tolist()) is not type(obj)):
        # Python numbers and lists; an np.longdouble stays itself
        _encode(plain, out, newline)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        f"is not JSON serializable")


# the escaper of json.dumps at its default ensure_ascii
_quote = json.encoder.encode_basestring_ascii


def write_records_csv(records, path):
    """Write a check's ``records``, its columns of Python scalars, as CSV."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(xp.RECORD_COLUMNS)
    writer.writerows(zip(*(records[k] for k in xp.RECORD_COLUMNS)))
    _write_text(path, [text.getvalue()])


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
    args = parser.parse_args(argv)

    if args.config is None:
        print("config error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = json.loads(args.config.read_text())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:     # not UTF-8, or not JSON
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(config, dict):    # run names any other value
        config.update((key, value) for key, value in (
            ("seed", args.seed), ("replications", args.replications))
            if value is not None)
    return run(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
