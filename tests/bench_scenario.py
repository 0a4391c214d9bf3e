"""Time scenario certificates at the benchmark's programs and record the
numbers in ``BENCH_scenario.json``.

Each timing is the best of five repeats of the mean time per call, at one
thread:

- ``certify_1d_ms``, ``certify_2d_ms``, ``certify_ball_ms``: library
  ``certify`` (margin method, delta 0.1) of the 1-D box program on AR(1)
  paths (epsilon 0.15, 20,578 scenarios), of the two-piece 2-D box program
  on AR(2) paths (epsilon 0.3, 37,489 scenarios) and of the 1-D program
  over a ball of radius 10 (epsilon 0.15);
- ``scenario_pac_coverage_s``: ``scenario_pac_coverage`` of the 1-D box
  program at 40 replications;
- ``constant_psi_5d_ms`` and ``constant_psi_5d_rows``: ``solve_margin_program``
  of a five-piece program whose psi is constant, over 20,000 scenarios of
  5-D x, and the rows it handed to the solver.

Each run is stored under its ``--label``, next to the labels already in the
file, so one file holds a before and an after:

    PYTHONPATH=<parent checkout>/src python tests/bench_scenario.py --label parent
    PYTHONPATH=src python tests/bench_scenario.py --label change

Not collected by pytest (no ``test_`` prefix).
"""
import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from seqbounds.experiments import scenario_pac_coverage
from seqbounds.processes import ar1_process, ar_process
from seqbounds.scenario import (AffineMap, Ball, Box, ConstraintPiece,
                                ScenarioProgramSpec, certify,
                                solve_margin_program)

CONFIG = {"ar1": {"a": 0.8, "sigma": 0.6, "flip_p": 0.1},
          "ar2": {"coefficients": [0.5, 0.2], "sigma": 1.0},
          "delta": 0.1, "seed": 17, "calls": 20, "replications": 40,
          "constant_psi_scenarios": 20_000}
REPEATS = 5


def x_bounds_program(theta_set, dim):
    """x_k - theta_k <= -1 for each coordinate k of x (margin 1)."""
    pieces = tuple(ConstraintPiece(psi=AffineMap(np.zeros((dim, dim)),
                                                 -np.eye(dim)[k]),
                                   eta=AffineMap(np.eye(dim)[k:k + 1], [0.0]))
                   for k in range(dim))
    return ScenarioProgramSpec(objective=np.ones(dim), pieces=pieces,
                               theta_set=theta_set, margin=1.0)


def best_of(run, number):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            run()
        times.append((time.perf_counter() - start) / number)
    return min(times)


def measure():
    c = CONFIG
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
        scenario_pac_coverage(box_1d, ar1, 0.15, c["delta"],
                              c["replications"], c["seed"])

    coverage()
    out["scenario_pac_coverage_s"] = best_of(coverage, 1)

    program = x_bounds_program(Box([-10.0] * 5, [10.0] * 5), 5)
    xs = np.random.default_rng(c["seed"]).normal(
        size=(c["constant_psi_scenarios"], 5))
    out["constant_psi_5d_rows"] = solve_margin_program(program, xs).rows_solved
    out["constant_psi_5d_ms"] = 1e3 * best_of(
        lambda: solve_margin_program(program, xs), c["calls"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_scenario.json")
    args = parser.parse_args()
    bench = (json.loads(args.out.read_text()) if args.out.exists()
             else {"config": CONFIG, "repeats": REPEATS, "runs": {}})
    bench["runs"][args.label] = {
        **measure(),
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps(bench["runs"][args.label], indent=2))


if __name__ == "__main__":
    main()
