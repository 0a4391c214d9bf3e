"""The benchmark's three workloads, each a fixed, ordered list of operations.

An operation is one call a user makes: a ``seqbounds.cli.run`` config run
in-process at the CLI default of one thread, or a direct call into a public
library function where the CLI has no path for it.  A pass runs every
operation of the list once; a run repeats passes with the same seed, so every
pass must write byte-identical outputs.

Building the operations imports only ``seqbounds`` and numpy, because a
fresh interpreter doing exactly that is what ``setup_s`` times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from seqbounds import bounds, classes, cli, estimators, scenario

AR1 = {"kind": "ar1_threshold_labels", "a": 0.8, "sigma": 0.6, "flip_p": 0.1}
# the fast-rate check of the acceptance suite uses noiseless labels
AR1_NOISELESS = {"kind": "ar1_threshold_labels", "a": 0.8, "sigma": 0.6,
                 "flip_p": 0.0}
AR2 = {"kind": "ar_d_linear_system", "coefficients": [0.5, 0.2], "sigma": 1.0}

# certificates per pass: at least 100 one-dimensional ones per run for a p90
CERTIFY_COUNTS = {"1d": 20, "2d": 3, "ball": 12}
SCENARIO_COVERAGE_REPLICATIONS = 40
BINOMIAL_FAULT_NS = range(1030, 1101)


@dataclass
class Op:
    """One operation of a pass.

    ``metric`` names the per-operation metric the call's time feeds; ``check``
    names the method of ``checks.Checker`` that verifies its output.  An op
    with a ``fault`` is a call known to raise that exception: it is counted
    as failed and its time enters no metric.
    """

    name: str
    metric: str
    check: str
    call: Callable[[], object]
    config: dict = None
    out_dir: Path = None
    params: dict = field(default_factory=dict)
    fault: type | tuple = ()


def _cli_op(name, metric, check, config, out_root, **params):
    out_dir = out_root / name
    return Op(name=name, metric=metric, check=check, config=config,
              out_dir=out_dir, params=params,
              call=lambda: cli.run(config, out_dir))


def one_dim_program(theta_set):
    """x - theta <= -margin over the given theta set (margin 1)."""
    piece = scenario.one_dim_threshold_program().pieces[0]
    return scenario.ScenarioProgramSpec(objective=[1.0], pieces=(piece,),
                                        theta_set=theta_set, margin=1.0)


def two_dim_program():
    """Two pieces x_k - theta_k <= -1 over theta in [-10, 10]^2."""
    pieces = tuple(
        scenario.ConstraintPiece(
            psi=scenario.AffineMap(matrix=np.zeros((2, 2)),
                                   offset=-np.eye(2)[k]),
            eta=scenario.AffineMap(matrix=np.eye(2)[k:k + 1], offset=[0.0]))
        for k in range(2))
    return scenario.ScenarioProgramSpec(
        objective=[1.0, 1.0], pieces=pieces,
        theta_set=scenario.Box(lo=[-10.0, -10.0], hi=[10.0, 10.0]), margin=1.0)


def coverage_mc(seed, out_root):
    common = {"command": "validate", "seed": seed, "n": 2000,
              "replications": 200, "delta": 0.05}
    return [
        _cli_op("vc_coverage", "vc_coverage", "vc_coverage",
                {**common, "experiment": "vc_coverage", "process": AR1},
                out_root),
        _cli_op("relative_coverage", "relative_coverage", "relative_coverage",
                {**common, "experiment": "relative_coverage",
                 "process": AR1_NOISELESS}, out_root),
        _cli_op("margin_rad_coverage", "margin_rad_coverage",
                "margin_rad_coverage",
                {**common, "experiment": "margin_rad_coverage", "process": AR1,
                 "gamma": 0.5, "radius": 1.0}, out_root),
        _cli_op("regression_coverage", "regression_coverage",
                "regression_coverage",
                {**common, "experiment": "regression_coverage", "process": AR2,
                 "m_clip": 4.0, "radius": 2.0}, out_root),
        _cli_op("symmetrization", "symmetrization", "symmetrization",
                {"command": "validate", "experiment": "symmetrization",
                 "seed": seed, "process": AR1, "n": 200, "epsilon": 0.2,
                 "replications": 500}, out_root),
        _cli_op("simulate", "simulate_csv", "simulate_csv",
                {"command": "simulate", "seed": seed, "process": AR2,
                 "n": 100_000}, out_root),
    ]


def scenario_pac(seed, out_root):
    box_1d = one_dim_program(scenario.Box(lo=[-10.0], hi=[10.0]))
    programs = {
        "1d": (box_1d, AR1, 0.15),
        "2d": (two_dim_program(), AR2, 0.3),
        "ball": (one_dim_program(scenario.Ball(radius=10.0)), AR1, 0.15),
    }
    ops = [_cli_op("scenario_coverage", "scenario_coverage",
                   "scenario_coverage",
                   {"command": "validate", "experiment": "scenario_coverage",
                    "seed": seed, "process": AR1, "program": box_1d.to_dict(),
                    "replications": SCENARIO_COVERAGE_REPLICATIONS,
                    "epsilon": 0.15, "delta": 0.1}, out_root)]
    for kind, count in CERTIFY_COUNTS.items():
        program, process, epsilon = programs[kind]
        program_dict = program.to_dict()
        for j in range(count):
            ops.append(_cli_op(
                f"certify_{kind}_{j}", f"certify_{kind}", "certificate",
                {"command": "scenario", "seed": 1000 * seed + j,
                 "process": process, "program": program_dict,
                 "epsilon": epsilon, "delta": 0.1, "method": "margin"},
                out_root, program=kind))
    return ops


def capacity_calc(seed, out_root):
    ops = [
        _cli_op("concentration_exactness", "concentration_oracles",
                "concentration_exactness",
                {"command": "validate", "experiment": "concentration_exactness",
                 "seed": seed}, out_root),
        _cli_op("quarter_lemma", "concentration_oracles", "quarter_lemma",
                {"command": "validate", "experiment": "quarter_lemma",
                 "seed": seed}, out_root),
        _cli_op("chaining_dominance", "chaining_dominance",
                "chaining_dominance",
                {"command": "validate", "experiment": "chaining_dominance",
                 "seed": seed, "instances": 50}, out_root),
    ]
    points = np.random.default_rng([seed, 16]).standard_normal((16, 3))
    ball = classes.linear_ball_class(3, 1.0)
    ops.append(Op(name="rademacher_exact", metric="rademacher_exact",
                  check="rademacher_exact", params={"points": points},
                  call=lambda: estimators.empirical_rademacher_exact(ball,
                                                                     points)))
    ops.append(Op(name="planner_grid", metric="planner_grid",
                  check="planner_grid", call=planner_grid))
    for n in BINOMIAL_FAULT_NS:
        ops.append(Op(
            name=f"exact_binomial_mean_tail_{n}", metric="binomial_tail",
            check="binomial_tail", params={"n": n, "p": 0.5, "epsilon": 0.01},
            fault=OverflowError,
            call=lambda n=n: bounds.exact_binomial_mean_tail(n, 0.5, 0.01)))
    return ops


def planner_grid():
    """The planner values and the planner/violation-bound grid of the
    acceptance suite, as ((method, epsilon, delta, capacity), n, bound)."""
    rows = [(("vc", 0.1, 1e-6, 5), scenario.plan_n_vc(0.1, 1e-6, 5), None),
            (("margin", 0.1, math.exp(-1.0), 1.0),
             scenario.plan_n_margin(0.1, math.exp(-1.0), 1.0, 1.0), None)]
    for eps in (0.05, 0.1, 0.2):
        for delta in (0.1, 0.01, 1e-6):
            for d in range(1, 11):
                n = scenario.plan_n_vc(eps, delta, d)
                rows.append((("vc", eps, delta, d), n,
                             scenario.violation_bound("vc", n, delta, d_vc=d)))
            for gamma in (0.1, 0.5, 1.0):
                n = scenario.plan_n_margin(eps, delta, gamma, 1.0)
                rows.append((("margin", eps, delta, gamma), n,
                             scenario.violation_bound(
                                 "margin", n, delta, gamma=gamma,
                                 tau_lambda_sum=1.0)))
    return rows


BUILDERS = {"coverage_mc": coverage_mc, "scenario_pac": scenario_pac,
            "capacity_calc": capacity_calc}

# per-operation metrics printed for each workload: (name, unit, op metric, statistic)
REPORTED = {
    "coverage_mc": [
        ("vc_coverage_s", "s", "vc_coverage", "pass"),
        ("relative_coverage_s", "s", "relative_coverage", "pass"),
        ("margin_rad_coverage_s", "s", "margin_rad_coverage", "pass"),
        ("regression_coverage_s", "s", "regression_coverage", "pass"),
        ("symmetrization_s", "s", "symmetrization", "pass"),
        ("simulate_csv_s", "s", "simulate_csv", "pass"),
    ],
    "scenario_pac": [
        ("scenario_coverage_s", "s", "scenario_coverage", "pass"),
        ("certify_1d_p50_ms", "ms", "certify_1d", "p50"),
        ("certify_1d_p90_ms", "ms", "certify_1d", "p90"),
        ("certify_2d_p50_ms", "ms", "certify_2d", "p50"),
        ("certify_ball_p50_ms", "ms", "certify_ball", "p50"),
    ],
    "capacity_calc": [
        ("concentration_oracles_s", "s", "concentration_oracles", "pass"),
        ("chaining_dominance_s", "s", "chaining_dominance", "pass"),
        ("rademacher_exact_s", "s", "rademacher_exact", "pass"),
        ("planner_grid_ms", "ms", "planner_grid", "pass"),
    ],
}


def build(workload, seed, out_root):
    return BUILDERS[workload](seed, Path(out_root))
