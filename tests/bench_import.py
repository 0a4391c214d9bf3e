"""Time what a CLI user pays before any work: ``import seqbounds`` and
whole CLI runs of two closed-form commands, each in a fresh interpreter, and
record the numbers in ``BENCH_import.json``.

Three timings, each the wall time of a new ``python`` process, best of five:

- ``import_s``: ``python -c "import seqbounds"``;
- ``cli_plan_s``: ``python -m seqbounds.cli --config <plan config> --out
  <temporary directory>``, a ``plan`` by method ``vc``, which needs no scipy;
- ``cli_concentration_exactness_s``: the same for the
  ``concentration_exactness`` config, which loads ``scipy.special`` for its
  binomial tails.

All include the interpreter's own start-up, timed alone as
``interpreter_s`` (``python -c pass``).  Each run is stored under its
``--label``, next to the labels already in the file, so one file holds a
before and an after:

    PYTHONPATH=<parent checkout>/src python tests/bench_import.py --label parent
    PYTHONPATH=src python tests/bench_import.py --label change

Not collected by pytest (no ``test_`` prefix).
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

CONFIGS = {
    "plan": {"command": "plan", "method": "vc", "epsilon": 0.1,
             "delta": 1e-6, "d_vc": 5, "seed": 1},
    "concentration_exactness": {"command": "validate",
                                "experiment": "concentration_exactness",
                                "seed": 0},
}
REPEATS = 5


def best_of(argv):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return min(times)


def measure():
    times = {"interpreter_s": best_of([sys.executable, "-c", "pass"]),
             "import_s": best_of([sys.executable, "-c", "import seqbounds"])}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(config))
            times[f"cli_{name}_s"] = best_of(
                [sys.executable, "-m", "seqbounds.cli", "--config", str(path),
                 "--out", str(Path(tmp) / name)])
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_import.json")
    args = parser.parse_args()
    bench = (json.loads(args.out.read_text()) if args.out.exists()
             else {"configs": CONFIGS, "repeats": REPEATS, "runs": {}})
    bench["runs"][args.label] = {
        **measure(),
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps(bench["runs"][args.label], indent=2))


if __name__ == "__main__":
    main()
