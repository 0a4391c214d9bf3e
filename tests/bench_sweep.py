"""Time the regression grid sweep at the digest's ``regression_coverage``
config and record the numbers in ``BENCH_regression_sweep.json``.

Two timings, each the best of five runs at one thread:

- ``ray_risks_s``: ``_clipped_ray_risks`` on the config's 200 AR(2) paths
  (the paths are simulated once, outside the timing);
- ``regression_coverage_s``: the whole ``regression_coverage`` experiment.

Each run is stored under its ``--label``, next to the labels already in the
file, so one file holds a before and an after:

    PYTHONPATH=<parent checkout>/src python tests/bench_sweep.py --label parent
    PYTHONPATH=src python tests/bench_sweep.py --label change

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

from seqbounds.experiments import (_clipped_ray_risks, _linear_model_grid,
                                   regression_coverage)
from seqbounds.processes import ar_process, simulate_sequence

CONFIG = {"coefficients": [0.5, 0.2], "sigma": 1.0, "m_clip": 4.0,
          "radius": 2.0, "n": 2000, "replications": 200, "delta": 0.05,
          "seed": 909}
REPEATS = 5


def best_of(run):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def measure():
    c = CONFIG
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_regression_sweep.json")
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
