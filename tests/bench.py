"""Time one benchmark suite of seqbounds and record the numbers in
``BENCH_<suite>.json`` at the repo root.

    PYTHONPATH=<parent checkout>/src python tests/bench.py SUITE --label parent
    PYTHONPATH=src python tests/bench.py SUITE --label change

Each run is stored under its ``--label`` next to the labels already in the
file, so one file holds a before and an after; the header (the suite's
config and ``repeats``) is written only when the file is new.  Every timing
is the best of ``REPEATS``; every run records the cores and the Python,
numpy and scipy versions.  The suites:

- ``import``: what a CLI user pays before any work, each the wall time of a
  new ``python`` process: ``import_s`` (``python -c "import seqbounds"``),
  ``cli_plan_s`` (a ``plan`` by method ``vc``, which needs no scipy),
  ``cli_concentration_exactness_s`` (which loads ``scipy.special`` for its
  binomial tails), ``cli_vc_coverage_s`` (``validate vc_coverage`` at its
  acceptance config) and ``cli_simulate_ar1_s``/``cli_simulate_ar2_s`` (a
  ``simulate`` of 100 steps of an AR(1) and an AR(2) process, which load the
  path filter).  All include the interpreter's start-up, timed alone as
  ``interpreter_s`` (``python -c pass``).
- ``scenario``: the mean time per call of library
  ``certify`` (margin method) of the 1-D box program on AR(1) paths
  (epsilon 0.15, 20,578 scenarios), of the two-piece 2-D box program on
  AR(2) paths (epsilon 0.3, 37,489 scenarios) and of the 1-D program over a
  ball of radius 10 (epsilon 0.15); ``scenario_coverage`` of the 1-D
  box program (``scenario_pac_coverage_s``, the check's former name); ``solve_margin_program`` of a five-piece program whose
  psi is constant, with the rows it handed to the solver; the LP calls
  (``wide_box_lp_calls``) and their total time (``wide_box_lp_s``, one
  pass) over the wide-box programs of ``tests/test_scenario.py`` (seeds 0
  to 1,499, sides cycling, both modes); the mean time per solve of the
  ball programs that ``TestBallPrograms`` draws, rebuilt from seeds 0 to
  149 (``ball_solve_ms``); and the wall time of a ``pytest`` run of the
  ``tests/test_scenario.py`` next to the ``seqbounds`` imported
  (``test_scenario_s``), so that each tree runs its own tests.  The LP is
  the scenario module's ``_incremental_lp``.
- ``regression_sweep``: ``_clipped_ray_risks`` on the config's AR(2) paths
  (simulated once, untimed) and ``regression_coverage``.
- ``capacity``: the mean time per call of
  ``chaining_dominance`` at its ``tests/digest_outputs.py`` config,
  ``empirical_rademacher_exact`` of a 3-D linear ball on 16 normal points
  and ``concentration_exactness`` over its fixed grid.
- ``cli``: what a ``cli.run`` adds to the work it wraps, as the mean time
  per call: the ``scenario`` run of the 1-D box certificate
  at its ``tests/digest_outputs.py`` config rerun into one directory (the
  output files are rewritten) and run into a new directory each call, the
  library ``certify`` call that the run makes, alone, and ``validate
  vc_coverage`` at its acceptance config, rerun into one directory.
- ``rad``: the Rademacher estimate of the threshold class on an AR(1) path
  of 8,000 points with 256 sign draws: the whole ``cli.run`` of its config
  (``cli_rad_s``), the library ``empirical_rademacher`` call on that path,
  simulated once untimed (``empirical_rademacher_s``), and the most memory
  that call holds at once, as ``tracemalloc`` counts it
  (``empirical_rademacher_peak_mib``).

Not collected by pytest (no ``test_`` prefix).
"""
import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from digest_outputs import (AR1, AR2_SYSTEM, COMMAND_CONFIGS,
                            CONFIGS as DIGEST_CONFIGS)
from seqbounds import cli, scenario
from seqbounds.classes import linear_ball_class, threshold_class
from seqbounds.estimators import (empirical_rademacher,
                                  empirical_rademacher_exact)
from seqbounds.experiments import (_clipped_ray_risks, _linear_model_grid,
                                   chaining_dominance, concentration_exactness,
                                   regression_coverage, scenario_coverage)
from seqbounds.processes import (ar1_process, ar_process, process_from_dict,
                                 simulate_sequence)
from seqbounds.scenario import (AffineMap, Ball, Box, ConstraintPiece,
                                ScenarioProgramSpec, certify,
                                solve_margin_program)

REPEATS = 5
ROOT = Path(__file__).resolve().parent.parent


def best_of(run, number=1):
    """The least mean time per call of ``number`` calls of ``run``, over
    ``REPEATS`` repeats."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            run()
        times.append((time.perf_counter() - start) / number)
    return min(times)


IMPORT_CONFIGS = {
    "plan": {"command": "plan", "method": "vc", "epsilon": 0.1,
             "delta": 1e-6, "d_vc": 5, "seed": 1},
    "concentration_exactness": {"command": "validate",
                                "experiment": "concentration_exactness",
                                "seed": 0},
    "vc_coverage": {"command": "validate", "experiment": "vc_coverage",
                    **DIGEST_CONFIGS["vc_coverage"]},
    "simulate_ar1": {"command": "simulate", "process": AR1, "n": 100,
                     "seed": 1},
    "simulate_ar2": {"command": "simulate", "process": AR2_SYSTEM, "n": 100,
                     "seed": 1},
}


def measure_import():
    def process(*argv):
        return best_of(lambda: subprocess.run(
            [sys.executable, *argv], check=True, stdout=subprocess.DEVNULL))

    times = {"interpreter_s": process("-c", "pass"),
             "import_s": process("-c", "import seqbounds")}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in IMPORT_CONFIGS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(config))
            times[f"cli_{name}_s"] = process(
                "-m", "seqbounds.cli", "--config", str(path),
                "--out", str(Path(tmp) / name))
    return times


SCENARIO_CONFIG = {"ar1": {"a": 0.8, "sigma": 0.6, "flip_p": 0.1},
                   "ar2": {"coefficients": [0.5, 0.2], "sigma": 1.0},
                   "delta": 0.1, "seed": 17, "calls": 20, "replications": 40,
                   "constant_psi_scenarios": 20_000, "wide_box_seeds": 1500,
                   "ball_programs": 150}


def x_bounds_program(theta_set, dim):
    """x_k - theta_k <= -1 for each coordinate k of x (margin 1)."""
    pieces = tuple(ConstraintPiece(psi=AffineMap(np.zeros((dim, dim)),
                                                 -np.eye(dim)[k]),
                                   eta=AffineMap(np.eye(dim)[k:k + 1], [0.0]))
                   for k in range(dim))
    return ScenarioProgramSpec(objective=np.ones(dim), pieces=pieces,
                               theta_set=theta_set, margin=1.0)


def measure_scenario():
    c = SCENARIO_CONFIG
    ar1 = ar1_process(**c["ar1"])
    ar2 = ar_process(**c["ar2"])
    box_1d = x_bounds_program(Box([-10.0], [10.0]), 1)
    certificates = {
        "certify_1d_ms": (box_1d, ar1, 0.15),
        "certify_2d_ms": (x_bounds_program(Box([-10.0] * 2, [10.0] * 2), 2),
                          ar2, 0.3),
        "certify_ball_ms": (x_bounds_program(Ball(10.0), 1), ar1, 0.15),
    }
    out = {}
    for name, (program, spec, epsilon) in certificates.items():
        def run(program=program, spec=spec, epsilon=epsilon):
            certify(program, spec, epsilon, c["delta"], "margin", c["seed"])
        run()
        out[name] = 1e3 * best_of(run, c["calls"])

    def coverage():
        scenario_coverage(box_1d, ar1, 0.15, c["delta"], c["replications"],
                          c["seed"])

    coverage()
    out["scenario_pac_coverage_s"] = best_of(coverage)

    program = x_bounds_program(Box([-10.0] * 5, [10.0] * 5), 5)
    xs = np.random.default_rng(c["seed"]).normal(
        size=(c["constant_psi_scenarios"], 5))
    out["constant_psi_5d_rows"] = solve_margin_program(program, xs).rows_solved
    out["constant_psi_5d_ms"] = 1e3 * best_of(
        lambda: solve_margin_program(program, xs), c["calls"])
    out.update(measure_lp(c["wide_box_seeds"], c["ball_programs"]))
    return out


def measure_lp(wide_box_seeds, ball_programs):
    from test_scenario import (TestCoupledRowsInAHugeBox, random_box_program,
                               random_cloud)
    lp = scenario._incremental_lp
    calls, spent = 0, 0.0

    def timed(*args, **kwargs):
        nonlocal calls, spent
        start = time.perf_counter()
        try:
            return lp(*args, **kwargs)
        finally:
            calls, spent = calls + 1, spent + time.perf_counter() - start

    scenario._incremental_lp = timed
    try:
        for seed in range(wide_box_seeds):
            rng = np.random.default_rng(seed)
            program = TestCoupledRowsInAHugeBox.wide_box_program(
                rng, ("both", "positive", "negative")[seed % 3])
            xs = rng.uniform(0.0, 2.0, 3)
            for mode in ("optimize", "feasibility"):
                solve_margin_program(program, xs, mode=mode)
    finally:
        scenario._incremental_lp = lp
    # the draws of TestBallPrograms.test_kkt_certificate, less p = 1
    solves = []
    for seed in range(ball_programs):
        rng = np.random.default_rng(seed)
        dim_x, n = int(rng.integers(1, 4)), int(rng.integers(1, 41))
        boxed = random_box_program(rng, dim_x, int(rng.integers(1, 4)),
                                   bool(rng.integers(0, 2)))
        program = ScenarioProgramSpec(
            objective=boxed.objective, pieces=boxed.pieces,
            theta_set=Ball(10.0 ** rng.uniform(-6.0, 50.0)),
            margin=boxed.margin)
        xs = random_cloud(rng, n, dim_x, rng.choice(
            ["general", "duplicates", "collinear"]))
        if program.objective.size >= 2:
            solves.append((program, xs, rng.choice(["optimize",
                                                    "feasibility"])))

    def balls():
        for program, xs, mode in solves:
            solve_margin_program(program, xs, mode=mode)

    tests = Path(scenario.__file__).resolve().parents[2] / "tests"
    return {"wide_box_lp_calls": calls, "wide_box_lp_s": spent,
            "ball_solve_ms": 1e3 * best_of(balls) / len(solves),
            "test_scenario_s": best_of(lambda: subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider", str(tests / "test_scenario.py")],
                cwd=tests.parent, check=True, stdout=subprocess.DEVNULL))}


SWEEP_CONFIG = {"coefficients": [0.5, 0.2], "sigma": 1.0, "m_clip": 4.0,
                "radius": 2.0, "n": 2000, "replications": 200, "delta": 0.05,
                "seed": 909}


def measure_regression_sweep():
    c = SWEEP_CONFIG
    spec = ar_process(c["coefficients"], c["sigma"])
    directions, radii = _linear_model_grid(len(c["coefficients"]), c["radius"])
    paths = [simulate_sequence(spec, c["n"], c["seed"], replication=r)
             for r in range(c["replications"])]

    def sweep():
        for path in paths:
            _clipped_ray_risks(path.x, path.y, directions, radii, c["m_clip"])

    def experiment():
        regression_coverage(spec, c["m_clip"], c["radius"], c["n"],
                            c["replications"], c["delta"], c["seed"])

    return {"ray_risks_s": best_of(sweep),
            "regression_coverage_s": best_of(experiment)}


CAPACITY_CONFIG = {"chaining_dominance": DIGEST_CONFIGS["chaining_dominance"],
                   "rademacher_points": 16, "rademacher_dim": 3,
                   "seed": 16, "calls": 5}


def measure_capacity():
    c = CAPACITY_CONFIG
    points = np.random.default_rng(c["seed"]).standard_normal(
        (c["rademacher_points"], c["rademacher_dim"]))
    ball = linear_ball_class(c["rademacher_dim"], 1.0)
    runs = {
        "chaining_dominance_ms": lambda: chaining_dominance(
            **c["chaining_dominance"]),
        "rademacher_exact_ms": lambda: empirical_rademacher_exact(ball,
                                                                  points),
        "concentration_exactness_ms": concentration_exactness,
    }
    out = {}
    for name, run in runs.items():
        run()
        out[name] = 1e3 * best_of(run, c["calls"])
    return out


CLI_CONFIG = {"certificate": COMMAND_CONFIGS["scenario_box"],
              "vc_coverage": IMPORT_CONFIGS["vc_coverage"],
              "certificate_calls": 200, "vc_coverage_calls": 5}


def measure_cli():
    c = CLI_CONFIG
    cert = c["certificate"]
    program = ScenarioProgramSpec.from_dict(cert["program"])
    spec = process_from_dict(cert["process"])
    fresh = itertools.count()
    with tempfile.TemporaryDirectory() as tmp:
        def run(config, out):
            if cli.run(config, Path(tmp) / out) != cli.EXIT_OK:
                raise SystemExit(f"{out}: run failed")

        runs = {
            "certificate_rerun_ms": (lambda: run(cert, "rerun"),
                                     c["certificate_calls"]),
            "certificate_fresh_dir_ms": (
                lambda: run(cert, f"fresh{next(fresh)}"),
                c["certificate_calls"]),
            "certify_ms": (lambda: certify(
                program, spec, cert["epsilon"], cert["delta"],
                cert["method"], cert["seed"]), c["certificate_calls"]),
            "validate_vc_coverage_ms": (lambda: run(c["vc_coverage"], "vc"),
                                        c["vc_coverage_calls"]),
        }
        out = {}
        for name, (call, number) in runs.items():
            call()
            out[name] = 1e3 * best_of(call, number)
    return out


RAD_CONFIG = {"command": "rad", "class": {"kind": "threshold1d"},
              "process": AR1, "n": 8000, "sign_draws": 256, "seed": 5}


def measure_rad():
    c = RAD_CONFIG
    points = simulate_sequence(process_from_dict(c["process"]), c["n"],
                               c["seed"]).x

    def estimate():
        empirical_rademacher(threshold_class(), points, c["sign_draws"],
                             c["seed"])

    with tempfile.TemporaryDirectory() as tmp:
        def run():
            if cli.run(c, Path(tmp) / "rad") != cli.EXIT_OK:
                raise SystemExit("rad: run failed")

        run()
        out = {"cli_rad_s": best_of(run)}
    estimate()
    out["empirical_rademacher_s"] = best_of(estimate)
    tracemalloc.start()
    estimate()
    out["empirical_rademacher_peak_mib"] = \
        tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    return out


# suite -> (the header of its file, less "repeats" and "runs"; its timings)
SUITES = {
    "import": ({"configs": IMPORT_CONFIGS}, measure_import),
    "scenario": ({"config": SCENARIO_CONFIG}, measure_scenario),
    "regression_sweep": ({"config": SWEEP_CONFIG}, measure_regression_sweep),
    "capacity": ({"config": CAPACITY_CONFIG}, measure_capacity),
    "cli": ({"config": CLI_CONFIG}, measure_cli),
    "rad": ({"config": RAD_CONFIG}, measure_rad),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_<suite>.json at the repo root")
    args = parser.parse_args()
    header, measure = SUITES[args.suite]
    out = args.out or ROOT / f"BENCH_{args.suite}.json"
    bench = (json.loads(out.read_text()) if out.exists()
             else {**header, "repeats": REPEATS, "runs": {}})
    bench["runs"][args.label] = {
        **measure(),
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps(bench["runs"][args.label], indent=2))


if __name__ == "__main__":
    main()
