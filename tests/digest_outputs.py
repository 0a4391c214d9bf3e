"""Print the SHA-256 of every output file of the CLI ``validate`` runs at the
acceptance configs of ``tests/test_acceptance.py``, plus ``regression_coverage``
on an AR(2) system.

Two trees give the same outputs when this prints the same lines for both:

    PYTHONPATH=src python tests/digest_outputs.py > after.txt
    git stash; PYTHONPATH=src python tests/digest_outputs.py > before.txt
    git stash pop; diff before.txt after.txt

Only ``summary.json`` and ``records.csv`` are digested: ``meta.json`` holds
the time of the run.  Not collected by pytest (no ``test_`` prefix).
"""
import hashlib
import sys
import tempfile
from pathlib import Path

from seqbounds import cli
from seqbounds.experiments import default_scenario_program

AR1 = {"kind": "ar1_threshold_labels", "a": 0.8, "sigma": 0.6,
       "b_star": 0.0, "flip_p": 0.1}
AR1_NOISELESS = dict(AR1, flip_p=0.0)
AR2_SYSTEM = {"kind": "ar_d_linear_system", "coefficients": [0.5, 0.2],
              "sigma": 1.0}

CONFIGS = {
    "vc_coverage": {"process": AR1, "n": 2000, "replications": 200,
                    "delta": 0.05, "seed": 12345},
    "relative_coverage": {"process": AR1_NOISELESS, "n": 2000,
                          "replications": 200, "delta": 0.05, "seed": 777},
    "kernel_rad_bound": {"instances": 50, "n": 64, "radius": 2.0,
                         "m_clip": 1.0, "seed": 31},
    "margin_rad_coverage": {"process": AR1, "gamma": 0.5, "radius": 1.0,
                            "n": 2000, "replications": 200, "delta": 0.05,
                            "seed": 555},
    "concentration_exactness": {"seed": 0},
    "quarter_lemma": {"seed": 0},
    "symmetrization": {"process": AR1, "n": 200, "epsilon": 0.2,
                       "replications": 500, "seed": 2024},
    "scenario_coverage": {"program": default_scenario_program().to_dict(),
                          "process": AR1, "epsilon": 0.15, "delta": 0.1,
                          "replications": 200, "seed": 888},
    "chaining_dominance": {"instances": 50, "seed": 17},
    "regression_coverage": {"process": AR2_SYSTEM, "m_clip": 4.0,
                            "radius": 2.0, "n": 2000, "replications": 200,
                            "delta": 0.05, "seed": 909},
}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            out = Path(tmp) / name
            code = cli.run({"command": "validate", "experiment": name,
                            **config}, out)
            if code != cli.EXIT_OK:
                sys.exit(f"{name}: exit code {code}")
            for fname in ("summary.json", "records.csv"):
                digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
                print(f"{digest}  {name}/{fname}")


if __name__ == "__main__":
    main()
