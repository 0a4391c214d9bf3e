"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""
import math

import numpy as np

from seqbounds.bounds import vc_bound
from seqbounds.classes import linear_ball_class
from seqbounds.estimators import empirical_rademacher, empirical_rademacher_exact
from seqbounds.experiments import (chaining_dominance, concentration_exactness,
                                   kernel_rad_bound, margin_rad_coverage,
                                   mixing_tightness, quarter_lemma,
                                   relative_coverage, relative_rate_scaling,
                                   scenario_coverage, symmetrization,
                                   vc_coverage)
from seqbounds.processes import ar1_process, stream
from seqbounds.scenario import (one_dim_threshold_program, plan_n_margin,
                                plan_n_vc, violation_bound)

AR1 = ar1_process(a=0.8, sigma=0.6, b_star=0.0, flip_p=0.1)


def report(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_linear_classification_ceiling():
    worst_margin = math.inf
    ok = True
    for d in range(3, 11):
        slack = vc_bound(0.0, 10 ** 5, 0.05, d_vc=d + 1).bound_value
        ceiling = 0.031 * math.sqrt(d + 1) + 0.015
        ok &= slack < ceiling
        worst_margin = min(worst_margin, ceiling - slack)
    at3 = vc_bound(0.0, 10 ** 5, 0.05, d_vc=4).bound_value
    ok &= abs(at3 - 0.0639) < 5e-4
    assert report(1, "linear-classification ceiling", ok,
                  f"slack(d=3)={at3:.6f} vs 0.077, min margin {worst_margin:.4f}")


def test_02_vc_coverage_on_dependent_paths():
    result = vc_coverage(AR1, n=2000, replications=200, delta=0.05,
                         seed=12345)
    frac = result.summary["holds_fraction"]
    assert report(2, "VC bound coverage", result.holds,
                  f"coverage {frac:.3f} >= 0.95, slack {result.summary['slack']:.4f}")


def test_03_fast_rate_coverage_and_scaling():
    spec = ar1_process(0.8, 0.6, b_star=0.0, flip_p=0.0)
    cover = relative_coverage(spec, n=2000, replications=200, delta=0.05,
                              seed=777)
    scaling = relative_rate_scaling()
    ok = cover.holds and scaling.holds
    worst = max(abs(s - 1.0) for s in scaling.records["statistic"])
    assert report(3, "fast-rate coverage and log(n)/n scaling", ok,
                  f"coverage {cover.summary['holds_fraction']:.3f}, "
                  f"worst ratio deviation {worst:.3f} <= 0.2")


def test_04a_linear_ball_closed_form_exact():
    ok = True
    worst = 0.0
    for i in range(50):
        rng = stream(4040, i, "points")
        n = int(rng.integers(1, 13))
        dim = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.5, 3.0))
        x = rng.standard_normal((n, dim))
        cls = linear_ball_class(dim, lam)
        bits = np.arange(1 << n)
        signs = np.where((bits[:, None] >> np.arange(n)) & 1, 1.0, -1.0)
        z = signs @ x                                     # (2^n, dim)
        closed = lam * np.linalg.norm(z, axis=1) / n
        # the ball supremum: random candidates never exceed the closed form
        # and the aligned boundary point attains it
        w_cand = rng.standard_normal((256, dim))
        w_cand *= lam / np.linalg.norm(w_cand, axis=1, keepdims=True)
        cand_vals = np.max(z @ w_cand.T, axis=1) / n
        ok &= bool(np.all(cand_vals <= closed + 1e-10))
        norms = np.maximum(np.linalg.norm(z, axis=1), 1e-300)
        attained = np.einsum("ij,ij->i", z, lam * z / norms[:, None]) / n
        worst = max(worst, float(np.max(np.abs(attained - closed))))
        ok &= worst <= 1e-10
        # enumeration mean equals the exact estimator
        exact = empirical_rademacher_exact(cls, x)
        ok &= abs(exact - float(np.mean(closed))) <= 1e-12
        est = empirical_rademacher(cls, x, 200, 4040 + i)
        ok &= abs(est.value - exact) <= 3 * est.std_error + 1e-12
    assert report(4, "linear-ball supremum vs exhaustive signs (a)", ok,
                  f"worst attainment gap {worst:.2e}")


def test_04b_kernel_ball_below_closed_form():
    result = kernel_rad_bound(instances=50, n=64, radius=2.0, m_clip=1.0,
                              seed=31)
    assert report(4, "kernel-ball estimates below 4 M radius/sqrt(n) (b)",
                  result.holds,
                  f"max estimate {result.summary['max_estimate']:.4f} "
                  f"<= {result.summary['bound']:.4f}")


def test_04c_marginal_rademacher_coverage():
    result = margin_rad_coverage(AR1, gamma=0.5, radius=1.0,
                                 n=2000, replications=200, delta=0.05,
                                 seed=555)
    assert report(4, "marginal Rademacher coverage (c)", result.holds,
                  f"coverage {result.summary['holds_fraction']:.3f} >= 0.95")


def test_05_concentration_oracles():
    hoeff = concentration_exactness()
    quarter = quarter_lemma()
    ok = hoeff.holds and quarter.holds
    assert report(5, "Hoeffding dominance and quarter lemma", ok,
                  f"{hoeff.summary['cells']} tail cells, "
                  f"{quarter.summary['cells']} lemma cells, all exact")


def test_06_symmetrization_inequality():
    result = symmetrization(AR1, n=200, epsilon=0.2,
                            replications=500, seed=2024)
    s = result.summary
    assert report(6, "ghost-sample symmetrization", result.holds,
                  f"lhs {s['lhs_freq']:.4f} <= 2*rhs {2 * s['rhs_freq']:.4f} "
                  f"+ 3se {3 * s['combined_se']:.4f}")


def test_07_scenario_planners():
    ok = plan_n_vc(0.1, 1e-6, 5) == 2258
    ok &= plan_n_margin(0.1, math.exp(-1.0), 1.0, 1.0) == 900
    for eps in (0.05, 0.1, 0.2):
        for delta in (0.1, 0.01, 1e-6):
            for d in range(1, 11):
                n = plan_n_vc(eps, delta, d)
                ok &= violation_bound("vc", n, delta, d_vc=d) <= eps
            for gamma in (0.1, 0.5, 1.0):
                n = plan_n_margin(eps, delta, gamma, 1.0)
                ok &= violation_bound("margin", n, delta, gamma=gamma,
                                      tau_lambda_sum=1.0) <= eps
    assert report(7, "scenario planners", ok,
                  "n(0.1,1e-6,5)=2258, n(0.1,e^-1,1,1)=900, grid consistent")


def test_08_scenario_pac_coverage():
    result = scenario_coverage(one_dim_threshold_program(-10.0, 10.0), AR1,
                               epsilon=0.15, delta=0.1, replications=200,
                               seed=888)
    s = result.summary
    assert report(8, "scenario PAC coverage", result.holds,
                  f"exceed freq {s['exceed_frequency']:.3f} "
                  f"<= {s['threshold']:.3f}, infeasible {s['infeasible']}")


def test_09_marginal_tighter_than_mixing():
    result = mixing_tightness()
    s = result.summary
    assert report(9, "marginal bound vs mixing reference", result.holds,
                  f"{s['cells']} grid cells, delta=1e-9 applicable in "
                  f"{s['tiny_delta_applicable']} cells (want 0)")


def test_10_chaining_dominates_rademacher():
    result = chaining_dominance(instances=50, seed=17)
    assert report(10, "chaining dominance on finite classes", result.holds,
                  f"{len(result.records['statistic'])} instances, all "
                  f"dominated")
