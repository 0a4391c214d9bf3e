"""Time the cheap replicated ``validate`` experiments at one and at two
threads and record the numbers in ``BENCH_threads.json``.

Each timing is the best of five whole ``cli.run`` calls at the digest's
config (``tests/digest_outputs.py``), outputs written to a temporary
directory.  The experiments are the five that spread replications over
threads and finish in well under a second: ``vc_coverage``,
``relative_coverage``, ``margin_rad_coverage``, ``regression_coverage`` and
``symmetrization`` (``scenario_coverage`` is left out: its LP solves take
seconds).  Each experiment is run once before it is timed, so that the
first imports fall outside the timings.

Each run is stored under its ``--label``, next to the labels already in the
file, so one file holds a before and an after:

    PYTHONPATH=<parent checkout>/src python tests/bench_threads.py --label parent
    PYTHONPATH=src python tests/bench_threads.py --label change

Not collected by pytest (no ``test_`` prefix).
"""
import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from digest_outputs import CONFIGS
from seqbounds import cli

EXPERIMENTS = ("vc_coverage", "relative_coverage", "margin_rad_coverage",
               "regression_coverage", "symmetrization")
THREADS = (1, 2)
REPEATS = 5


def best_of(run):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def measure():
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in EXPERIMENTS:
            for threads in THREADS:
                config = dict(CONFIGS[name], command="validate",
                              experiment=name, threads=threads)
                out = Path(tmp) / f"{name}_{threads}"

                def run():
                    if cli.run(config, out) != cli.EXIT_OK:
                        raise SystemExit(f"{name}: run failed")

                run()
                times[f"{name}_threads{threads}_s"] = best_of(run)
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_threads.json")
    args = parser.parse_args()
    bench = (json.loads(args.out.read_text()) if args.out.exists()
             else {"configs": {name: CONFIGS[name] for name in EXPERIMENTS},
                   "repeats": REPEATS, "runs": {}})
    bench["runs"][args.label] = {
        **measure(),
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps(bench["runs"][args.label], indent=2))


if __name__ == "__main__":
    main()
