"""Print the SHA-256 of every output file of the CLI ``validate`` runs at the
acceptance configs of ``tests/test_acceptance.py``, one per experiment
(``CONFIGS``), plus ``regression_coverage`` on an AR(2) system and
``vc_coverage`` with ``threads`` 2 in its config (an inert key: its
``records.csv`` must equal the plain run's, or the script stops), and of the
``scenario`` runs on the
acceptance 1-D box program by both planning methods, on a variant whose psi
depends on x over an x domain box, on the 1-D program over a ball, on a
two-piece 2-D box program on the AR(2) system and on that program over a 2-D
ball of radius 10, on programs that reach each solver path (a coupled row
that the incremental LP solves, an infeasible pair that falls back to the
min-slack LP, a ball whose optimum lies on the sphere, and the hulls of a 2-D
and of a 3-D path), ``plan`` by both
methods, ``bound`` of every kind (``vc`` by VC dimension and by growth value,
``rademacher`` of two variants, ``mixing`` where it applies and where it does
not), ``rad`` on a threshold, a linear-ball and a kernel-ball class (the last
on a simulated path), and ``simulate`` runs of every process kind (an AR(2)
path of 100,000 rows, as the benchmark's coverage_mc workload writes it, and
a clipped AR(2) path): every command whose output is deterministic, through
every config object reader and every dispatch table of the CLI.  One more
``validate`` run goes through the argument parser, ``cli.main``, from a
config file with ``--seed`` and ``--replications`` overrides.

Two trees give the same outputs when this script prints the same lines with
either tree's ``src`` on the path (``parent`` being, say, a ``git archive``
of the parent commit):

    PYTHONPATH=src python tests/digest_outputs.py > after.txt
    PYTHONPATH=parent/src python tests/digest_outputs.py > before.txt
    diff before.txt after.txt

Only ``summary.json``, ``records.csv`` and ``sequence.csv`` (where the command
writes them) are digested: ``meta.json`` holds the time of the run.  Not collected by pytest (no ``test_`` prefix).
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from seqbounds import cli, scenario

AR1 = {"kind": "ar1_threshold_labels", "a": 0.8, "sigma": 0.6,
       "b_star": 0.0, "flip_p": 0.1}
AR1_NOISELESS = dict(AR1, flip_p=0.0)
AR2_SYSTEM = {"kind": "ar_d_linear_system", "coefficients": [0.5, 0.2],
              "sigma": 1.0}
AR3_SYSTEM = {"kind": "ar_d_linear_system", "coefficients": [0.4, 0.2, 0.1],
              "sigma": 1.0}
# the acceptance 1-D box program
BOX_PROGRAM = scenario.one_dim_threshold_program(-10.0, 10.0).to_dict()

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
    "scenario_coverage": {"program": BOX_PROGRAM,
                          "process": AR1, "epsilon": 0.15, "delta": 0.1,
                          "replications": 200, "seed": 888},
    "chaining_dominance": {"instances": 50, "seed": 17},
    "regression_coverage": {"process": AR2_SYSTEM, "m_clip": 4.0,
                            "radius": 2.0, "n": 2000, "replications": 200,
                            "delta": 0.05, "seed": 909},
    "relative_rate_scaling": {"seed": 0},
    "mixing_tightness": {"seed": 0},
}

# full configs of the other deterministic commands
BALL_PROGRAM = dict(BOX_PROGRAM, theta_set={"kind": "ball", "radius": 10.0})
# (0.05 x - 1) theta + x <= 0: psi depends on x, so tau is bounded over the
# x domain box
DOMAIN_PROGRAM = dict(
    BOX_PROGRAM, x_domain={"kind": "box", "lo": [-8.0], "hi": [8.0]},
    pieces=[{"psi": {"matrix": [[0.05]], "offset": [-1.0]},
             "eta": {"matrix": [[1.0]], "offset": [0.0]}}])
# x_k - theta_k <= -1 for k = 1, 2 over theta in [-10, 10]^2
BOX_2D_PROGRAM = {
    "objective": [1.0, 1.0], "margin": 1.0,
    "theta_set": {"kind": "box", "lo": [-10.0, -10.0], "hi": [10.0, 10.0]},
    "pieces": [{"psi": {"matrix": [[0.0, 0.0], [0.0, 0.0]],
                        "offset": [-float(j == k) for j in range(2)]},
                "eta": {"matrix": [[float(j == k) for j in range(2)]],
                        "offset": [0.0]}} for k in range(2)],
}
BALL_2D_PROGRAM = dict(BOX_2D_PROGRAM,
                       theta_set={"kind": "ball", "radius": 10.0})
# x - theta_1 - theta_2 <= -1 over theta in [-10, 10]^2 on 1-D x: a row that
# couples both coordinates, so the incremental LP solves the program
COUPLED_PROGRAM = {
    "objective": [1.0, 0.5], "margin": 1.0,
    "theta_set": {"kind": "box", "lo": [-10.0, -10.0], "hi": [10.0, 10.0]},
    "pieces": [{"psi": {"matrix": [[0.0], [0.0]], "offset": [-1.0, -1.0]},
                "eta": {"matrix": [[1.0]], "offset": [0.0]}}],
}
# ... and theta_1 + theta_2 - x - 1 <= -1 as well: no theta meets both rows
# on a path, so the solver falls back to the min-slack LP
INFEASIBLE_PROGRAM = dict(COUPLED_PROGRAM, pieces=COUPLED_PROGRAM["pieces"] + [
    {"psi": {"matrix": [[0.0], [0.0]], "offset": [1.0, 1.0]},
     "eta": {"matrix": [[-1.0]], "offset": [-1.0]}}])
# x - theta_1 / 2 - theta_2 <= -0.2 over the ball of radius 4: the optimum
# lies on the sphere, where the row binds
BALL_CUTS_PROGRAM = dict(
    COUPLED_PROGRAM, margin=0.2, theta_set={"kind": "ball", "radius": 4.0},
    pieces=[{"psi": {"matrix": [[0.0], [0.0]], "offset": [-0.5, -1.0]},
             "eta": {"matrix": [[1.0]], "offset": [0.0]}}])
# (0.05 x - 1) . theta + x_1 + x_2 / 2 <= -1 on the AR(2) system: psi depends
# on 2-D x, so the solver gets the rows of the path's hull vertices
HULL_PROGRAM = dict(
    COUPLED_PROGRAM, x_domain={"kind": "box", "lo": [-6.0, -6.0],
                               "hi": [6.0, 6.0]},
    pieces=[{"psi": {"matrix": [[0.05, 0.0], [0.0, 0.05]],
                     "offset": [-1.0, -1.0]},
             "eta": {"matrix": [[1.0, 0.5]], "offset": [0.0]}}])
# (0.05 x - 1) . theta + x_1 + x_2 / 2 + x_3 / 4 <= -1 on the AR(3) system:
# psi reads 3-D x, so Qhull runs in 3-D, and the rows of the hull vertices
# couple 3 theta coordinates
HULL_3D_PROGRAM = {
    "objective": [1.0, 0.5, 0.25], "margin": 1.0,
    "theta_set": {"kind": "box", "lo": [-10.0] * 3, "hi": [10.0] * 3},
    "x_domain": {"kind": "box", "lo": [-6.0] * 3, "hi": [6.0] * 3},
    "pieces": [{"psi": {"matrix": [[0.05 * (j == k) for j in range(3)]
                                   for k in range(3)],
                        "offset": [-1.0] * 3},
                "eta": {"matrix": [[1.0, 0.5, 0.25]], "offset": [0.0]}}]}
COMMAND_CONFIGS = {
    "scenario_box": {"command": "scenario", "method": "margin",
                     "epsilon": 0.15, "delta": 0.1, "program": BOX_PROGRAM,
                     "process": AR1, "seed": 888},
    "scenario_box_domain": {"command": "scenario", "method": "margin",
                            "epsilon": 0.15, "delta": 0.1,
                            "program": DOMAIN_PROGRAM, "process": AR1,
                            "seed": 888},
    "scenario_ball": {"command": "scenario", "method": "margin",
                      "epsilon": 0.15, "delta": 0.1, "program": BALL_PROGRAM,
                      "process": AR1, "seed": 888},
    "scenario_box_2d": {"command": "scenario", "method": "margin",
                        "epsilon": 0.3, "delta": 0.1,
                        "program": BOX_2D_PROGRAM, "process": AR2_SYSTEM,
                        "seed": 888},
    "scenario_ball_2d": {"command": "scenario", "method": "margin",
                         "epsilon": 0.3, "delta": 0.1,
                         "program": BALL_2D_PROGRAM, "process": AR2_SYSTEM,
                         "seed": 888},
    "plan": {"command": "plan", "method": "margin", "epsilon": 0.1,
             "delta": 0.05, "gamma": 1.0, "tau_lambda_sum": 1.0, "seed": 1},
    "plan_vc": {"command": "plan", "method": "vc", "epsilon": 0.1,
                "delta": 1e-6, "d_vc": 5, "seed": 1},
    "bound": {"command": "bound", "bound": "vc", "emp_risk": 0.02,
              "n": 100000, "delta": 0.05, "d_vc": 4, "seed": 1},
    "bound_vc_growth": {"command": "bound", "bound": "vc", "emp_risk": 0.1,
                        "n": 1000, "delta": 0.05, "growth_2n": 100.0,
                        "seed": 1},
    "bound_vc_relative": {"command": "bound", "bound": "vc_relative",
                          "emp_risk": 0.1, "n": 1000, "delta": 0.05,
                          "d_vc": 3, "stationary": True, "seed": 1},
    "bound_regression": {"command": "bound", "bound": "regression",
                         "emp_risk": 0.1, "n": 1000, "delta": 0.05,
                         "d_vc": 6, "b": 4.0, "seed": 1},
    "bound_rademacher_two_sided": {"command": "bound", "bound": "rademacher",
                                   "variant": "two_sided", "emp_risk": 0.1,
                                   "rad_terms": [0.1, 0.2], "b": 1.0,
                                   "n": 1000, "delta": 0.05, "seed": 1},
    "bound_rademacher_marginal": {"command": "bound", "bound": "rademacher",
                                  "variant": "marginal", "emp_risk": 0.1,
                                  "rad_terms": 0.1, "b": 1.0, "n": 1000,
                                  "delta": 0.05, "seed": 1},
    # delta above 4 (mu - 1) beta_a, and below it: no bound
    "bound_mixing": {"command": "bound", "bound": "mixing", "emp_risk": 0.1,
                     "rad_mu": 0.05, "b": 1.0, "mu": 100, "a": 2,
                     "beta_a": 1e-4, "delta": 0.1, "seed": 1},
    "bound_mixing_inapplicable": {"command": "bound", "bound": "mixing",
                                  "emp_risk": 0.0, "rad_mu": 0.0, "b": 1.0,
                                  "mu": 100, "a": 1, "beta_a": 1e-3,
                                  "delta": 0.01, "seed": 3},
    "simulate": {"command": "simulate", "process": AR2_SYSTEM, "n": 100_000,
                 "seed": 1},
    "simulate_markov": {"command": "simulate", "n": 1000, "seed": 2,
                        "process": {"kind": "markov_binary", "rho": 0.6}},
    "simulate_iid_normal": {"command": "simulate", "n": 1000, "seed": 3,
                            "process": {"kind": "iid_baseline",
                                        "dist": "normal", "mean": 0.5,
                                        "sigma": 2.0, "flip_p": 0.1}},
    "simulate_iid_uniform": {"command": "simulate", "n": 1000, "seed": 4,
                             "process": {"kind": "iid_baseline",
                                         "dist": "uniform", "low": -1.0,
                                         "high": 3.0, "b_star": 0.5}},
    "rad_threshold": {"command": "rad", "sign_draws": 512, "seed": 5,
                      "class": {"kind": "threshold1d"},
                      "points": [0.3, -1.2, 2.5, 0.0, 0.7, -0.4]},
    "rad_linear_ball": {"command": "rad", "sign_draws": 512, "seed": 6,
                        "class": {"kind": "linear_ball", "dim": 2,
                                  "radius": 1.5, "with_offset": True},
                        "points": [[3.0, 4.0], [1.0, -2.0], [0.5, 0.1]]},
    "rad_kernel_ball": {"command": "rad", "sign_draws": 256, "seed": 7,
                        "class": {"kind": "kernel_ball", "radius": 2.0,
                                  "bandwidth": 0.8},
                        "process": AR1, "n": 300},
    # the VC-planned certificate: 310 scenarios
    "scenario_box_vc": {"command": "scenario", "method": "vc",
                        "epsilon": 0.15, "delta": 0.1, "program": BOX_PROGRAM,
                        "process": AR1, "seed": 888},
    "scenario_coupled": {"command": "scenario", "method": "margin",
                         "epsilon": 0.3, "delta": 0.1,
                         "program": COUPLED_PROGRAM, "process": AR1,
                         "seed": 888},
    "scenario_infeasible": {"command": "scenario", "method": "margin",
                            "epsilon": 0.3, "delta": 0.1,
                            "program": INFEASIBLE_PROGRAM, "process": AR1,
                            "seed": 888},
    "scenario_ball_cuts": {"command": "scenario", "method": "margin",
                           "epsilon": 0.3, "delta": 0.1,
                           "program": BALL_CUTS_PROGRAM, "process": AR1,
                           "seed": 888},
    "scenario_hull": {"command": "scenario", "method": "margin",
                      "epsilon": 0.3, "delta": 0.1, "program": HULL_PROGRAM,
                      "process": AR2_SYSTEM, "seed": 888},
    "scenario_hull_3d": {"command": "scenario", "method": "margin",
                         "epsilon": 0.3, "delta": 0.1,
                         "program": HULL_3D_PROGRAM, "process": AR3_SYSTEM,
                         "seed": 888},
    # threads is checked and echoed only: its records.csv must equal that of
    # the plain vc_coverage run
    "vc_coverage_threads_2": {"command": "validate",
                              "experiment": "vc_coverage",
                              **CONFIGS["vc_coverage"], "threads": 2},
    "simulate_clipped": {"command": "simulate", "n": 1000, "seed": 8,
                         "process": dict(AR2_SYSTEM, clip_radius=1.5)},
}


def print_digests(name, out):
    for fname in ("summary.json", "records.csv", "sequence.csv"):
        if (out / fname).exists():
            digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
            print(f"{digest}  {name}/{fname}")


def main():
    runs = {**{name: {"command": "validate", "experiment": name, **config}
               for name, config in CONFIGS.items()}, **COMMAND_CONFIGS}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in runs.items():
            out = Path(tmp) / name
            code = cli.run(config, out)
            if code != cli.EXIT_OK:
                sys.exit(f"{name}: exit code {code}")
            print_digests(name, out)
        if ((Path(tmp) / "vc_coverage_threads_2" / "records.csv").read_bytes()
                != (Path(tmp) / "vc_coverage" / "records.csv").read_bytes()):
            sys.exit("vc_coverage_threads_2: records differ from vc_coverage's")
        # the argument parser's path: a config file and two overrides
        name = "main_symmetrization"
        path, out = Path(tmp) / f"{name}.json", Path(tmp) / name
        path.write_text(json.dumps(runs["symmetrization"]))
        code = cli.main(["--config", str(path), "--out", str(out),
                         "--seed", "99", "--replications", "100"])
        if code != cli.EXIT_OK:
            sys.exit(f"{name}: exit code {code}")
        print_digests(name, out)


if __name__ == "__main__":
    main()
