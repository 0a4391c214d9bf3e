import ctypes
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from seqbounds import cli, scenario
from seqbounds.bounds import (chaining_rad_upper, mixing_reference_bound,
                              rademacher_risk_bound, regression_vc_bound,
                              vc_bound, vc_relative_bound)
from seqbounds.estimators import violation_rate
from seqbounds.processes import (ar1_process, ar_process, sample_marginal,
                                 simulate_sequence)
from seqbounds.scenario import (_HULL_MAX_DIM, AffineMap, Ball, Box,
                                ConstraintPiece, ScenarioProgramSpec, certify,
                                one_dim_threshold_program, plan_n_margin,
                                plan_n_vc, solve_margin_program, tau_lambda,
                                violation_bound)


def two_dim_program(margin=0.5):
    # f(x, theta) = x * theta_1 + theta_2, minimize theta_1 + theta_2
    piece = ConstraintPiece(psi=AffineMap([[1.0], [0.0]], [0.0, 1.0]),
                            eta=AffineMap([[0.0]], [0.0]))
    return ScenarioProgramSpec(objective=[1.0, 1.0], pieces=(piece,),
                               theta_set=Box([-5.0, -5.0], [5.0, 5.0]),
                               margin=margin, x_domain=Box([-2.0], [2.0]))


class TestPlanners:
    def test_plan_vc_frozen(self):
        assert plan_n_vc(0.1, 1e-6, 5) == 2258
        assert plan_n_vc(0.01, 1e-9, 10) == 52526

    def test_plan_margin_frozen(self):
        assert plan_n_margin(0.1, math.exp(-1.0), 1.0, 1.0) == 900
        assert plan_n_margin(0.05, 0.1, 0.5, 2.0) == 36233

    def test_monotone_in_epsilon(self):
        for delta in (0.1, 1e-3):
            for d in (1, 4, 9):
                assert plan_n_vc(0.05, delta, d) > plan_n_vc(0.1, delta, d)
        assert plan_n_margin(0.05, 0.1, 1.0, 1.0) > plan_n_margin(0.1, 0.1, 1.0, 1.0)

    def test_margin_large_gamma_limit(self):
        eps, delta = 0.1, 0.1
        limit = math.ceil(math.log(1.0 / delta) / eps ** 2)
        assert plan_n_margin(eps, delta, 1e12, 1.0) == limit

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            plan_n_vc(0.0, 0.1, 3)
        with pytest.raises(ValueError):
            plan_n_vc(0.1, 1.0, 3)
        with pytest.raises(ValueError):
            plan_n_margin(0.1, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            plan_n_margin(0.1, 0.1, 1.0, 0.0)


class TestViolationBound:
    def test_vc_frozen(self):
        assert violation_bound("vc", 2258, 1e-6, d_vc=5) == pytest.approx(
            0.07587275694233535, rel=1e-12)

    def test_margin_frozen(self):
        got = violation_bound("margin", 900, math.exp(-1.0), gamma=1.0,
                              tau_lambda_sum=1.0)
        assert got == pytest.approx(0.09023689270621825, rel=1e-12)

    def test_planner_consistency_vc_grid(self):
        for eps in (0.05, 0.1, 0.2):
            for delta in (0.1, 0.01, 1e-6):
                for d in range(1, 11):
                    n = plan_n_vc(eps, delta, d)
                    assert violation_bound("vc", n, delta, d_vc=d) <= eps

    def test_planner_consistency_margin_grid(self):
        for eps in (0.05, 0.1, 0.2):
            for delta in (0.1, 0.01, 1e-6):
                for gamma in (0.1, 0.5, 1.0):
                    n = plan_n_margin(eps, delta, gamma, 1.0)
                    got = violation_bound("margin", n, delta, gamma=gamma,
                                          tau_lambda_sum=1.0)
                    assert got <= eps

    # the planners are conservative, so only the plan's own epsilon is
    # asserted, not that n - 1 misses it
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(eps=st.floats(1e-4, 0.999), delta=st.floats(1e-12, 0.999),
           d=st.integers(1, 50))
    def test_planned_vc_meets_its_epsilon(self, eps, delta, d):
        n = plan_n_vc(eps, delta, d)
        assert violation_bound("vc", n, delta, d_vc=d) <= eps

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(eps=st.floats(1e-4, 0.999), delta=st.floats(1e-12, 0.999),
           gamma=st.floats(1e-3, 10.0), tau_lambda_sum=st.floats(1e-3, 100.0))
    def test_planned_margin_meets_its_epsilon(self, eps, delta, gamma,
                                              tau_lambda_sum):
        n = plan_n_margin(eps, delta, gamma, tau_lambda_sum)
        assert violation_bound("margin", n, delta, gamma=gamma,
                               tau_lambda_sum=tau_lambda_sum) <= eps

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(d=st.integers(1, 50), n_extra=st.integers(0, 10 ** 9),
           n_step=st.integers(0, 10 ** 6),
           delta=st.floats(0, 1, exclude_min=True, exclude_max=True),
           delta_up=st.floats(0, 1), gamma=st.floats(1e-300, 1e50),
           tau_lambda_sum=st.floats(1e-300, 1e300))
    def test_nonnegative_and_nonincreasing_in_n_and_delta(
            self, d, n_extra, n_step, delta, delta_up, gamma, tau_lambda_sum):
        n = d + n_extra             # the vc form needs n >= d
        delta_2 = delta + (1.0 - delta) * delta_up
        assume(delta_2 < 1.0)
        margin = {"gamma": gamma, "tau_lambda_sum": tau_lambda_sum}
        for method, capacity in (("vc", {"d_vc": d}), ("margin", margin)):
            got = violation_bound(method, n, delta, **capacity)
            assert got >= 0.0
            assert violation_bound(method, n + n_step, delta,
                                   **capacity) <= got
            assert violation_bound(method, n, delta_2, **capacity) <= got

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(d=st.integers(1, 50), n_extra=st.integers(0, 10 ** 9),
           n_step=st.integers(0, 10 ** 6),
           delta=st.floats(0, 1, exclude_min=True, exclude_max=True),
           delta_up=st.floats(0, 1), emp=st.floats(0, 1e6),
           b=st.floats(1e-300, 1e100), rad=st.floats(0, 1e100),
           growth=st.floats(1, 1e300), beta_share=st.floats(0, 1),
           eps=st.floats(1e-4, 0.999), gamma=st.floats(1e-3, 10.0),
           tau_lambda_sum=st.floats(1e-3, 100.0),
           diameter=st.floats(0, 1e300), depth=st.integers(1, 1023),
           log_cov=st.floats(0, 1e6))
    def test_bounds_keep_the_bits_of_their_written_out_forms(
            self, d, n_extra, n_step, delta, delta_up, emp, b, rad, growth,
            beta_share, eps, gamma, tau_lambda_sum, diameter, depth, log_cov):
        """Every bound, planner and chaining value equals, bit for bit, its
        formula written out by hand wherever c / delta is finite; a risk
        bound is the sum of its terms in the report's order, and every
        bound is nonincreasing in n and in delta (to a relative 1e-12)."""
        n = d + n_extra             # the VC forms need n >= d
        delta_2 = delta + (1.0 - delta) * delta_up
        assume(delta_2 < 1.0)
        finite = {c: c / delta < math.inf for c in (1.0, 2.0, 4.0)}
        sauer = d * math.log(2.0 * math.e * n / d)
        beta_a = beta_share * delta / (4.0 * n)
        slack = delta - 4.0 * (n - 1) * beta_a

        def vc_terms(cap, scale):
            joint = scale * math.sqrt(2.0 * (cap + math.log(2.0 / delta)) / n)
            conc = scale * math.sqrt(2.0 * math.log(2.0 / delta) / n)
            return joint - conc, conc

        def relative_terms():
            c = (sauer + math.log(4.0 / delta)) / n
            c0 = math.log(4.0 / delta) / n
            conc = 2.0 * math.sqrt(emp * c0) + 4.0 * c0
            return 2.0 * math.sqrt(emp * c) + 4.0 * c - conc, conc

        # name -> (the bound at (n, delta), its written-out (complexity,
        # concentration) terms where c / delta is finite)
        risk_bounds = {
            "vc": (lambda n, delta: vc_bound(emp, n, delta, d_vc=d),
                   finite[2.0] and (lambda: vc_terms(sauer, 2.0))),
            "vc_growth": (
                lambda n, delta: vc_bound(emp, n, delta, growth_2n=growth),
                finite[2.0] and (lambda: vc_terms(math.log(growth), 2.0))),
            "vc_relative": (
                lambda n, delta: vc_relative_bound(emp, n, delta, d_vc=d,
                                                   stationary=True),
                finite[4.0] and relative_terms),
            "regression": (
                lambda n, delta: regression_vc_bound(emp, n, d, delta, b),
                finite[2.0] and (lambda: vc_terms(sauer, 2.0 * b))),
            "rademacher": (
                lambda n, delta: rademacher_risk_bound("marginal", emp, rad,
                                                       b, n, delta),
                finite[1.0] and (lambda: (2.0 * rad, b * math.sqrt(
                    math.log(1.0 / delta) / (2.0 * n))))),
            "mixing": (
                lambda n, delta: mixing_reference_bound(emp, rad, b, n, 1,
                                                        beta_a, delta),
                slack > 0 and 1.0 / slack < math.inf and (lambda: (
                    2.0 * rad, b * math.sqrt(
                        math.log(1.0 / slack) / (2.0 * n))))),
        }
        for name, (bound, written_out) in risk_bounds.items():
            rep = bound(n, delta)
            if rep is None:         # the mixing bound below its delta floor
                assert name == "mixing" and slack <= 0
                continue
            assert rep.bound_value == (rep.empirical_risk_term
                                       + rep.complexity_term
                                       + rep.concentration_term)
            if written_out:
                assert (rep.complexity_term,
                        rep.concentration_term) == written_out(), name
            top = rep.bound_value * (1.0 + 1e-12)
            later = bound(n, delta_2)
            assert later is None or later.bound_value <= top, name
            if name != "mixing" or beta_a == 0.0:
                assert bound(n + n_step, delta).bound_value <= top, name

        def planned(val):
            return int(math.ceil(val - 1e-9 * max(1.0, abs(val))))

        plans = {
            "vc": (lambda delta: plan_n_vc(eps, delta, d),
                   finite[4.0] and (lambda: planned((5.0 / eps) * (
                       d * math.log(40.0 / eps) + math.log(4.0 / delta))))),
            "margin": (
                lambda delta: plan_n_margin(eps, delta, gamma, tau_lambda_sum),
                finite[1.0] and (lambda: planned(
                    ((2.0 / gamma) * tau_lambda_sum
                     + math.sqrt(math.log(1.0 / delta))) ** 2 / eps ** 2))),
        }
        for name, (plan, written_out) in plans.items():
            got = plan(delta)
            if written_out:
                assert got == written_out(), name
            assert plan(delta_2) <= got, name

        if finite[4.0]:
            assert violation_bound("vc", n, delta, d_vc=d) == (
                4.0 * sauer + math.log(4.0 / delta)) / n
        if finite[1.0]:
            assert violation_bound(
                "margin", n, delta, gamma=gamma,
                tau_lambda_sum=tau_lambda_sum) == (
                (2.0 / gamma) * tau_lambda_sum / math.sqrt(n)
                + math.sqrt(math.log(1.0 / delta) / (2.0 * n)))

        total = diameter / 2.0 ** depth
        for j in range(1, depth + 1):
            total += 6.0 * diameter * 2.0 ** -j * math.sqrt(log_cov / n)
        assert chaining_rad_upper(diameter, depth, lambda eps: log_cov,
                                  n) == (1.0 * total if diameter else 0.0)

    def test_vc_rejects_n_below_d_vc(self):
        with pytest.raises(ValueError, match="^n must"):
            violation_bound("vc", 1, 0.1, d_vc=100)
        assert violation_bound("vc", 100, 0.1, d_vc=100) > 0.0

    def test_finite_at_extreme_delta_gamma_and_tau_lambda_sum(self):
        # 4 / delta, 1 / delta and (2 / gamma) tau_lambda_sum overflow here
        got = violation_bound("vc", 10, 1e-310, d_vc=1)
        assert got == pytest.approx(
            (4.0 * math.log(2.0 * math.e * 10) + math.log(4.0)
             - math.log(1e-310)) / 10, rel=1e-14)
        got = violation_bound("margin", 10, 1e-310, gamma=1.0,
                              tau_lambda_sum=1.0)
        assert got == pytest.approx(
            2.0 / math.sqrt(10) + math.sqrt(-math.log(1e-310) / 20), rel=1e-14)
        for delta, gamma in ((1e-310, 1e-300), (0.1, 1e-50)):
            got = violation_bound("margin", 10, delta, gamma=gamma,
                                  tau_lambda_sum=1e300)
            assert got == sys.float_info.max
        # a term inside the float range keeps its value when 2 / gamma
        # overflows
        got = violation_bound("margin", 10, 0.1, gamma=1e-315,
                              tau_lambda_sum=1e-10)
        assert got == pytest.approx(2e-10 / 1e-315 / math.sqrt(10), rel=1e-12)

    def test_method_validation(self):
        with pytest.raises(ValueError, match="d_vc"):
            violation_bound("vc", 100, 0.1)
        with pytest.raises(ValueError):
            violation_bound("other", 100, 0.1, d_vc=1)


class TestTauLambda:
    def test_constant_psi(self):
        prog = one_dim_threshold_program()
        report = tau_lambda(prog)
        assert report.taus == (1.0,)

    def test_ball_lambda(self):
        prog = ScenarioProgramSpec(
            objective=[1.0], pieces=one_dim_threshold_program().pieces,
            theta_set=Ball(3.0), margin=0.5)
        assert tau_lambda(prog).lambdas == (3.0,)

    def test_affine_psi_on_interval(self):
        report = tau_lambda(two_dim_program())
        assert report.taus[0] == pytest.approx(math.sqrt(5.0))

    def test_box_lambda_is_farthest_corner(self):
        prog = ScenarioProgramSpec(
            objective=[1.0, 1.0], pieces=two_dim_program().pieces,
            theta_set=Box([-1.0, -3.0], [2.0, 1.0]), margin=0.5,
            x_domain=Box([-2.0], [2.0]))
        assert tau_lambda(prog).lambdas[0] == pytest.approx(math.sqrt(4 + 9))

    def test_unbounded_domain_rejected(self):
        prog = ScenarioProgramSpec(
            objective=[1.0, 1.0], pieces=two_dim_program().pieces,
            theta_set=Box([-5.0, -5.0], [5.0, 5.0]), margin=0.5, x_domain=None)
        with pytest.raises(ValueError, match="bounded"):
            tau_lambda(prog)


class TestSolver:
    def test_one_dim_analytic_optimum(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=0.1)
        res = solve_margin_program(prog, np.array([0.2, 0.5]))
        assert res.feasible
        assert res.theta[0] == pytest.approx(0.6, abs=1e-4)
        assert res.max_violation <= 0.0

    def test_one_dim_ball_set(self):
        prog = ScenarioProgramSpec(
            objective=[1.0], pieces=one_dim_threshold_program().pieces,
            theta_set=Ball(3.0), margin=0.1)
        res = solve_margin_program(prog, np.array([0.2, 0.5]))
        assert res.feasible
        assert res.theta[0] == pytest.approx(0.6, abs=1e-4)

    def test_two_dim_analytic_optimum(self):
        # theta_2 <= -gamma - |theta_1| on scenarios {1, -1}:
        # min theta_1 + theta_2 = (gamma - 5) - 5 at theta = (gamma - 5, -5)
        gamma = 0.5
        prog = two_dim_program(margin=gamma)
        res = solve_margin_program(prog, np.array([1.0, -1.0]))
        assert res.feasible
        assert res.theta[0] == pytest.approx(gamma - 5.0, abs=1e-4)
        assert res.theta[1] == pytest.approx(-5.0, abs=1e-4)

    def test_feasibility_mode_slack_point(self):
        prog = one_dim_threshold_program(margin=0.1)
        res = solve_margin_program(prog, np.array([-3.0, -2.5]),
                                   mode="feasibility")
        assert res.feasible
        assert res.max_violation <= 0.0

    def test_contradictory_scenarios_report_residual(self):
        up = ConstraintPiece(psi=AffineMap([[0.0]], [-1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0]], [1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0], pieces=(up, down),
                                   theta_set=Box([-10.0], [10.0]), margin=0.1)
        res = solve_margin_program(prog, np.array([1.0]))
        assert not res.feasible
        # best achievable max f + gamma is exactly the margin
        assert res.max_violation == pytest.approx(0.1, abs=1e-6)

    def test_feasible_flag_is_posthoc(self):
        prog = one_dim_threshold_program(margin=0.1)
        res = solve_margin_program(prog, np.array([0.0]))
        vals = prog.constraint_values(np.array([0.0]), res.theta)
        assert res.feasible == bool(np.max(vals) <= -0.1)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError):
            solve_margin_program(one_dim_threshold_program(), np.array([]))

    @pytest.mark.parametrize("cost", [1e20, 1e50])
    def test_huge_objective_is_still_minimized(self, cost):
        # HiGHS reads a cost of 1e20 or more as infinite
        xs = np.random.default_rng(0).standard_normal(100)
        prog = ScenarioProgramSpec(
            objective=[cost], pieces=one_dim_threshold_program().pieces,
            theta_set=Box([-10.0], [10.0]), margin=1.0)
        res = solve_margin_program(prog, xs)
        assert res.feasible and not res.used_fallback
        assert res.theta[0] == pytest.approx(np.max(xs) + 1.0, abs=1e-6)

    @pytest.mark.parametrize("value", [1e20, 1e30, 1e50])
    def test_huge_scenario_reports_its_residual(self, value):
        # HiGHS reads a right-hand side of 1e20 or more as infinite
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=0.1)
        res = solve_margin_program(prog, [value, 0.0])
        assert res.used_fallback and not res.feasible
        assert res.theta[0] == 10.0
        assert res.max_violation == value

    @pytest.mark.parametrize("lo, hi", [(-1e20, 1e20), (-1e30, 1e30),
                                        (-1e50, 1e50), (1e30, 1e50)])
    def test_feasibility_mode_in_a_huge_box(self, lo, hi):
        # HiGHS reads a theta bound of 1e20 or more as infinite, which left
        # the min-slack LP unbounded
        prog = one_dim_threshold_program(margin=0.1, theta_lo=lo, theta_hi=hi)
        res = solve_margin_program(prog, [0.0, 1.0], mode="feasibility")
        assert res.feasible and res.used_fallback
        assert np.all(np.isfinite(res.theta)) and lo <= res.theta[0] <= hi
        optimum = solve_margin_program(prog, [0.0, 1.0])
        assert optimum.solver == "closed_form"
        assert optimum.theta[0] == max(lo, 1.0 + 0.1 + 1e-9)

    @pytest.mark.parametrize("bound", [10.0, 1e20, 1e30, 1e50])
    def test_min_slack_point_in_a_huge_box_keeps_its_value(self, bound):
        # theta >= 1.1 and theta <= 0.9 cannot both hold; the least
        # worst-case slack is 0.1, at theta = 1
        up = ConstraintPiece(psi=AffineMap([[0.0]], [-1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0]], [1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0], pieces=(up, down),
                                   theta_set=Box([-bound], [bound]),
                                   margin=0.1)
        for mode in ("optimize", "feasibility"):
            res = solve_margin_program(prog, np.array([1.0]), mode=mode)
            assert not res.feasible and res.used_fallback
            assert res.theta[0] == pytest.approx(1.0, abs=1e-9)
            assert res.max_violation == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("scenarios, margin, name", [
        ([0.0, 1.0], math.nan, "margin"),
        ([0.0, 1.0], math.inf, "margin"),
        ([0.0, 1.0], -0.1, "margin"),
        ([math.nan, 1.0], None, "scenarios"),
        ([math.inf, 1.0], None, "scenarios"),
        ([0.0, -math.inf], None, "scenarios"),
        # x of another width than the program reads
        (np.zeros((5, 2)), None, "scenarios"),
        (np.zeros((5, 1, 1)), None, "scenarios"),
        (0.5, None, "scenarios"),
    ])
    def test_inputs_rejected_by_name(self, scenarios, margin, name):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=0.1)
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            solve_margin_program(prog, scenarios, margin=margin)

    @pytest.mark.parametrize("draw", [math.nan, math.inf, -math.inf])
    def test_violation_rate_draws_rejected_by_name(self, draw):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10)
        with pytest.raises(ValueError, match=r"^draws\b"):
            violation_rate(np.array([0.0]), prog, np.array([draw, 1.0]))

    def test_violation_rate_draws_of_another_width(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10)
        with pytest.raises(ValueError, match=r"^draws\b"):
            violation_rate(np.array([0.0]), prog, np.zeros((5, 2)))
        with pytest.raises(ValueError, match=r"^draws\b"):
            violation_rate(np.array([0.0, 0.0]),
                           x_bounds_program(Box([-1.0] * 2, [1.0] * 2), 2),
                           sample_marginal(ar1_process(0.5, 1.0), 5, 1))

    def test_certified_process_of_another_width(self):
        prog = x_bounds_program(Box([-10.0] * 2, [10.0] * 2), 2)
        with pytest.raises(ValueError, match=r"^process\b"):
            certify(prog, ar1_process(0.8, 0.6), 0.3, 0.1, "margin", seed=1)
        with pytest.raises(ValueError, match=r"^process\b"):
            certify(one_dim_threshold_program(), ar_process([0.5, 0.2], 1.0),
                    0.3, 0.1, "margin", seed=1)

    @pytest.mark.parametrize("psi_cols, eta_cols, domain, name", [
        (2, 1, None, "pieces"),
        (1, 2, None, "pieces"),
        (1, 1, 2, "x_domain"),
    ])
    def test_program_widths_agree(self, psi_cols, eta_cols, domain, name):
        piece = ConstraintPiece(psi=AffineMap(np.zeros((1, psi_cols)), [-1.0]),
                                eta=AffineMap(np.ones((1, eta_cols)), [0.0]))
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            ScenarioProgramSpec(
                objective=[1.0], pieces=(piece,), theta_set=Box([-1.0], [1.0]),
                margin=1.0,
                x_domain=None if domain is None else Box([-1.0] * domain,
                                                         [1.0] * domain))

    @pytest.mark.parametrize("matrix, x", [
        (np.zeros((1, 2)), np.zeros((4, 3))),     # constant: its offset
        (np.ones((1, 1)), np.zeros((4, 2))),      # one column: broadcast
        (np.ones((1, 2)), np.zeros((4, 3))),
        (np.ones((1, 2)), np.zeros(3)),
    ])
    def test_affine_map_reads_its_width(self, matrix, x):
        with pytest.raises(ValueError, match=r"^x\b"):
            AffineMap(matrix, [0.0])(x)

    def test_coupled_rows_go_to_the_incremental_lp(self):
        res = solve_margin_program(two_dim_program(), np.array([1.0, -1.0]))
        assert res.solver == "seidel" and not res.used_fallback

    def test_result_says_how_theta_was_reached(self):
        # closed form on a box
        res = solve_margin_program(one_dim_threshold_program(margin=0.1),
                                   np.array([0.2, 0.5]))
        assert res.solver == "closed_form" and not res.used_fallback
        # the min-slack LP gave theta
        up = ConstraintPiece(psi=AffineMap([[0.0]], [-1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0]], [1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0], pieces=(up, down),
                                   theta_set=Box([-10.0], [10.0]), margin=0.1)
        res = solve_margin_program(prog, np.array([1.0]))
        assert res.used_fallback and res.solver == "seidel"

    def test_interior_ball_optimum_is_closed_form(self):
        # x_k - theta_k <= -1: the optimum max(x) + 1 of the box [-r, r]^p
        # lies inside the ball, so it is kept
        xs = np.array([[0.5, -0.2], [0.1, 0.3]])
        res = solve_margin_program(x_bounds_program(Ball(10.0), 2), xs)
        assert res.solver == "closed_form" and res.feasible
        assert np.array_equal(res.theta, np.max(xs, axis=0) + 1.0 + 1e-9)

    def test_ball_optimum_on_the_sphere(self):
        # 0.5 theta_1 + theta_2 <= -0.5 does not bind at -3 (1, 1) / sqrt 2,
        # the least c.theta over the ball of radius 3
        prog = ScenarioProgramSpec(objective=[1.0, 1.0],
                                   pieces=two_dim_program().pieces,
                                   theta_set=Ball(3.0), margin=0.5)
        res = solve_margin_program(prog, np.array([0.5]))
        assert res.solver == "seidel" and res.feasible
        assert not res.used_fallback
        assert res.theta == pytest.approx(-3.0 / math.sqrt(2.0) * np.ones(2),
                                          rel=1e-12)


def random_box_program(rng, dim_x, pieces, x_dependent):
    """Random program over a box of theta, with 1 to 3 theta coordinates."""
    p = int(rng.integers(1, 4))
    made = []
    for _ in range(pieces):
        psi_matrix = (rng.normal(size=(p, dim_x)) if x_dependent
                      else np.zeros((p, dim_x)))
        made.append(ConstraintPiece(
            psi=AffineMap(psi_matrix, rng.normal(size=p)),
            eta=AffineMap(rng.normal(size=(1, dim_x)), rng.normal(size=1))))
    half = rng.uniform(0.5, 4.0, size=p)
    return ScenarioProgramSpec(objective=rng.normal(size=p), pieces=made,
                               theta_set=Box(-half, half),
                               margin=float(rng.uniform(0.01, 2.0)))


def random_cloud(rng, n, dim_x, kind):
    if kind == "duplicates":
        pool = rng.normal(size=(int(rng.integers(1, 4)), dim_x))
        return pool[rng.integers(0, pool.shape[0], size=n)]
    if kind == "collinear":
        return rng.normal(size=dim_x) + np.outer(rng.normal(size=n),
                                                 rng.normal(size=dim_x))
    return rng.normal(size=(n, dim_x)) * rng.uniform(0.1, 3.0)


def full_row_solve(program, xs, mode):
    """Every scenario row handed to HiGHS, as before the hull reduction:
    (used_fallback, objective, max_violation, feasible)."""
    used_fallback, theta = full_row_theta(program, xs, mode)
    gamma = program.margin
    resid = float(np.max(program.constraint_values(xs, theta)) + gamma)
    feasible = resid <= 0.0 and program.theta_set.contains(theta)
    return used_fallback, float(program.objective @ theta), resid, feasible


def every_row(program, xs):
    """(Psi, h): the rows psi_k(x_i) and values eta_k(x_i) of every piece
    at every scenario, stacked piece by piece."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    return (np.vstack([piece.psi(xs) for piece in program.pieces]),
            np.concatenate([piece.eta(xs)[:, 0] for piece in program.pieces]))


def full_row_theta(program, xs, mode):
    """(used_fallback, theta) of HiGHS on every scenario row."""
    psi, h = every_row(program, xs)
    gamma, p = program.margin, program.dim_theta
    bounds = list(zip(program.theta_set.lo, program.theta_set.hi))
    res = None
    if mode == "optimize":
        res = optimize.linprog(program.objective, A_ub=psi,
                               b_ub=-gamma - h - 1e-9, bounds=bounds,
                               method="highs")
    used_fallback = res is None or res.status != 0
    if used_fallback:
        res = optimize.linprog(
            np.eye(p + 1)[-1], A_ub=np.hstack([psi, -np.ones((len(h), 1))]),
            b_ub=-gamma - h, bounds=bounds + [(None, None)], method="highs")
        assert res.status == 0
    return used_fallback, res.x[:p]


def coupled_row_program(rng):
    """Random program over the box [-B, B]^p, B from 10 to 1e50 (less where
    B beta would pass 1e50, the largest offset a program takes), whose
    constant psi rows each couple theta_1 and theta_2 and whose rows hold
    with room at the scale of the box: either A phi <= beta for a phi0 with
    slack 0.05 to 1, or a cone A phi <= 0 that holds at phi0 with slack 0.1.
    eta = x - B beta, so the scenarios and the margin add offsets of order
    1.  Returns the program, A, beta and B."""
    p, k = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    a = rng.normal(size=(k, p))
    if rng.random() < 0.5:
        a = np.round(2.0 * a)           # small integers, with exact ties
    a[:, :2] = np.where(a[:, :2] == 0.0, 1.0, a[:, :2])
    phi0 = rng.uniform(0.2, 0.5, p) * rng.choice([-1.0, 1.0], p)
    if rng.random() < 0.5:
        beta = a @ phi0 + rng.uniform(0.05, 1.0, k)
    else:
        a = a - np.outer(a @ phi0 + 0.1, phi0) / (phi0 @ phi0)
        beta = np.zeros(k)
    big = 10.0 ** rng.uniform(1.0, 50.0)
    big = min(big, 1e50 / max(1.0, np.max(np.abs(beta))))
    objective = rng.normal(size=p)
    objective[rng.integers(p)] *= rng.random() >= 0.3
    pieces = [ConstraintPiece(psi=AffineMap(np.zeros((p, 1)), row),
                              eta=AffineMap([[1.0]], [-big * b]))
              for row, b in zip(a, beta)]
    program = ScenarioProgramSpec(objective=objective, pieces=pieces,
                                  theta_set=Box(-big * np.ones(p),
                                                big * np.ones(p)),
                                  margin=1.0)
    return program, a, beta, big


def random_lp_program(rng):
    """1 to 40 constant-psi rows, each coupling 1 to 3 theta coordinates,
    over a box within +-1e3.  Half of the programs hold at a point of the
    box with room 0 to 10^U(0, 3) per row; the others have random offsets
    of that size, and most of them are infeasible."""
    p, k = int(rng.integers(1, 4)), int(rng.integers(1, 41))
    ends = np.sort(rng.uniform(-1e3, 1e3, (p, 2)), axis=1)
    rows, margin = rng.normal(size=(k, p)), float(rng.uniform(0.01, 2.0))
    spread = 10.0 ** rng.uniform(0.0, 3.0, k)
    if rng.random() < 0.5:
        offsets = rng.normal(size=k) * spread
    else:
        inside = rng.uniform(ends[:, 0], ends[:, 1])
        offsets = -rows @ inside - margin - rng.uniform(0.0, 1.0, k) * spread
    pieces = [ConstraintPiece(psi=AffineMap(np.zeros((p, 1)), row),
                              eta=AffineMap([[0.0]], [offset]))
              for row, offset in zip(rows, offsets)]
    return ScenarioProgramSpec(objective=rng.normal(size=p), pieces=pieces,
                               theta_set=Box(ends[:, 0], ends[:, 1]),
                               margin=margin)


class TestIncrementalLP:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           mode=st.sampled_from(["optimize", "feasibility"]))
    def test_matches_linprog(self, seed, mode):
        # linprog (HiGHS) is the reference: the same verdict, the same
        # optimum or least worst-case value to 1e-7 relative
        prog = random_lp_program(np.random.default_rng(seed))
        psi, h = every_row(prog, [0.0])
        gamma, c = prog.margin, prog.objective
        bounds = list(zip(prog.theta_set.lo, prog.theta_set.hi))
        res = solve_margin_program(prog, [0.0], mode=mode)
        assert res.rows_solved == len(h)
        assert prog.theta_set.contains(res.theta, tol=0.0)
        slack = optimize.linprog(
            np.eye(c.size + 1)[-1],
            A_ub=np.hstack([psi, -np.ones((len(h), 1))]), b_ub=-h,
            bounds=bounds + [(None, None)], method="highs")
        assert slack.status == 0
        assert res.feasible == (slack.fun + gamma <= 0.0)
        if mode == "feasibility":
            assert res.max_violation == pytest.approx(slack.fun + gamma,
                                                      rel=1e-7, abs=1e-7)
            return
        ref = optimize.linprog(c, A_ub=psi, b_ub=-gamma - h - 1e-9,
                               bounds=bounds, method="highs")
        assert ref.status in (0, 2)
        assert res.used_fallback == (ref.status == 2)
        if ref.status == 0:
            assert res.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)


class TestCoupledRowsInAHugeBox:
    """Box programs whose rows couple theta coordinates go to the incremental
    LP; HiGHS, which solved them before, stalled (or read the box as
    infinite) when the box was far larger than the right-hand sides."""

    @staticmethod
    def program(bound):
        # x - theta_1 - theta_2 <= -1 with margin 1: theta_1 + theta_2 >= 2
        # at x = 1; minimize theta_1
        piece = ConstraintPiece(psi=AffineMap([[0.0], [0.0]], [-1.0, -1.0]),
                                eta=AffineMap([[1.0]], [0.0]))
        return ScenarioProgramSpec(objective=[1.0, 0.0], pieces=(piece,),
                                   theta_set=Box([-bound, -bound],
                                                 [bound, bound]),
                                   margin=1.0)

    def test_module_attribute_optimize_is_never_read(self, monkeypatch):
        # the module attribute is scipy.optimize, imported on use, for a
        # tracer to wrap; a proxy put in for it is not touched by a solve
        assert scenario.optimize is optimize

        class Recording:
            names = []

            def __getattr__(self, name):
                Recording.names.append(name)
                return getattr(optimize, name)

        expected = solve_margin_program(self.program(10.0), [0.0, 1.0])
        monkeypatch.setattr(scenario, "optimize", Recording())
        for mode in ("optimize", "feasibility"):
            res = solve_margin_program(self.program(10.0), [0.0, 1.0],
                                       mode=mode)
        assert Recording.names == [] and res.solver == "seidel"
        assert np.array_equal(
            solve_margin_program(self.program(10.0), [0.0, 1.0]).theta,
            expected.theta)
        with pytest.raises(AttributeError, match="linprog"):
            scenario.linprog

    @pytest.mark.parametrize("bound", [10.0, 1e17, 1e19, 1e30, 1e50])
    def test_optimum_not_the_min_slack_point(self, bound):
        # at 1e19 the optimize LP stalled and theta was the min-slack point
        # (1e19, 1e19).  From 1e17 on 2 - B rounds to -B, so max_violation
        # is 2.0: within the feasibility rule's tolerance of the row's
        # scale 2 B, as the rows themselves hold at theta_1 + theta_2 = 2
        res = solve_margin_program(self.program(bound), [0.0, 1.0])
        assert res.solver == "seidel" and not res.used_fallback
        assert res.max_violation <= scenario._FEASIBLE_TOL * (
            np.sum(np.abs(res.theta)) + 1.0 + 1.0)
        assert res.theta[1] == pytest.approx(bound, rel=1e-9)
        assert res.objective == pytest.approx(2.0 + 1e-9 - bound, rel=1e-9)

    @pytest.mark.parametrize("bound", [10.0, 1e17, 1e19, 1e30, 1e50])
    def test_infeasible_rows_give_the_min_slack_point(self, bound):
        # theta_1 + theta_2 >= 1.1 and <= 0.9 cannot both hold; at 1e17 and
        # 1e19 the min-slack LP stalled and raised
        up = ConstraintPiece(psi=AffineMap([[0.0], [0.0]], [-1.0, -1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0], [0.0]], [1.0, 1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0, 0.0], pieces=(up, down),
                                   theta_set=Box([-bound, -bound],
                                                 [bound, bound]),
                                   margin=0.1)
        for mode in ("optimize", "feasibility"):
            res = solve_margin_program(prog, np.array([1.0]), mode=mode)
            assert res.used_fallback and not res.feasible
            assert prog.theta_set.contains(res.theta, tol=0.0)
            assert res.max_violation <= 0.1 + 1e-7 * bound

    @staticmethod
    def wide_box_program(rng, sides):
        """Coupled rows over a box whose coordinates each have their own
        ends, from 10 to 1e50 apart, so one unit cannot resolve every
        coordinate; rows and offsets are random, so most programs are
        infeasible."""
        p, k = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        ends = np.sort(10.0 ** rng.uniform(1.0, 50.0, (p, 2)), axis=1)
        lo, hi = {"both": (-ends[:, 1], ends[:, 1]),
                  "positive": (ends[:, 0], ends[:, 1]),
                  "negative": (-ends[:, 1], -ends[:, 0])}[sides]
        rows = rng.normal(size=(k, p))
        rows[:, :2] = np.where(rows[:, :2] == 0.0, 1.0, rows[:, :2])
        offsets = rng.normal(size=k) * 10.0 ** rng.uniform(0.0, 49.0, k)
        pieces = [ConstraintPiece(psi=AffineMap(np.zeros((p, 1)), row),
                                  eta=AffineMap([[1.0]], [offset]))
                  for row, offset in zip(rows, offsets)]
        return ScenarioProgramSpec(objective=rng.normal(size=p),
                                   pieces=pieces, theta_set=Box(lo, hi),
                                   margin=1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sides=st.sampled_from(["both", "positive", "negative"]))
    def test_theta_stays_in_a_wide_box(self, seed, sides):
        rng = np.random.default_rng(seed)
        prog = self.wide_box_program(rng, sides)
        for mode in ("optimize", "feasibility"):
            res = solve_margin_program(prog, rng.uniform(0.0, 2.0, 3),
                                       mode=mode)
            assert prog.theta_set.contains(res.theta, tol=0.0)

    def test_cli_run_writes_nothing_to_stdout(self, capfd, tmp_path):
        # the VC-planned certificate of the same program, whose LP made
        # HiGHS print through C's stdout
        program = self.wide_box_program(np.random.default_rng(0), "both")
        config = {"command": "scenario", "method": "vc", "epsilon": 0.3,
                  "delta": 0.1, "seed": 1,
                  "program": {**program.to_dict(), "indicator_vc_dim": 3},
                  "process": {"kind": "ar1_threshold_labels", "a": 0.8,
                              "sigma": 0.6, "flip_p": 0.1}}
        assert cli.run(config, tmp_path / "out") == cli.EXIT_OK
        ctypes.CDLL(None).fflush(None)
        assert capfd.readouterr().out == ""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_rescaled_reference(self, seed):
        # the reference solves the same LP in the unit B, where the box is
        # [-1, 1]^p, and scales back; values are compared at the box scale
        rng = np.random.default_rng(seed)
        program, a, beta, big = coupled_row_program(rng)
        xs = rng.uniform(0.0, 2.0, 3)
        c = program.objective
        reference = optimize.linprog(
            c / np.max(np.abs(c)), A_ub=a,
            b_ub=beta - (np.max(xs) + 1.0 + 1e-9) / big,
            bounds=[(-1.0, 1.0)] * len(c), method="highs")
        assert reference.status == 0
        tol = 1e-7 * big
        for mode in ("optimize", "feasibility"):
            res = solve_margin_program(program, xs, mode=mode)
            assert res.used_fallback is (mode == "feasibility")
            assert np.all(np.abs(res.theta) <= big)
            assert np.all(a @ res.theta - big * beta
                          <= tol * np.sum(np.abs(a), axis=1))
        res = solve_margin_program(program, xs)
        assert abs(res.objective - big * (c @ reference.x)) <= \
            tol * np.sum(np.abs(c))


class TestHullReduction:
    def test_acceptance_program_solves_one_row(self):
        # psi is constant: the piece collapses to its largest eta
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=1.0)
        n = plan_n_margin(0.15, 0.1, 1.0, 10.0)
        path = simulate_sequence(ar1_process(0.8, 0.6, flip_p=0.1), n, 888)
        res = solve_margin_program(prog, path.x)
        assert n == 20_578
        assert res.rows_solved == 1
        assert not res.used_fallback
        assert res.feasible
        assert res.theta[0] == pytest.approx(np.max(path.x) + 1.0 + 1e-9,
                                             abs=1e-9)

    def test_square_cloud_keeps_its_corners(self):
        corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        inner = np.random.default_rng(0).uniform(-0.9, 0.9, size=(50, 2))
        prog = random_box_program(np.random.default_rng(1), 2, 2, True)
        res = solve_margin_program(prog, np.vstack([inner, corners]))
        assert res.rows_solved == 4 * 2

    @pytest.mark.parametrize("xs", [
        np.outer(np.arange(10.0), [1.0, 2.0]),        # collinear: Qhull fails
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),  # n <= d + 1
        np.random.default_rng(2).normal(size=(30, _HULL_MAX_DIM + 1)),
    ])
    def test_degenerate_clouds_solve_every_row(self, xs):
        prog = random_box_program(np.random.default_rng(3), xs.shape[1], 1,
                                  True)
        assert solve_margin_program(prog, xs).rows_solved == xs.shape[0]

    @pytest.mark.parametrize("mode", ["optimize", "feasibility"])
    def test_constant_psi_above_the_hull_dimension(self, mode):
        # every scenario would reach the solver through the hull step
        rng = np.random.default_rng(4)
        prog = random_box_program(rng, _HULL_MAX_DIM + 1, 3, False)
        xs = rng.normal(size=(500, _HULL_MAX_DIM + 1))
        res = solve_margin_program(prog, xs, mode=mode)
        assert res.rows_solved == len(prog.pieces)
        used_fallback, objective, resid, feasible = full_row_solve(prog, xs,
                                                                   mode)
        assert (res.used_fallback, res.feasible) == (used_fallback, feasible)
        assert res.max_violation == pytest.approx(resid, abs=1e-7)
        if not used_fallback:
            assert res.objective == pytest.approx(objective, abs=1e-7)

    def test_constant_psi_never_builds_a_hull(self, monkeypatch):
        from scipy import spatial

        def no_hull(*args, **kwargs):
            raise AssertionError("a hull was built")

        monkeypatch.setattr(spatial, "ConvexHull", no_hull)
        xs = simulate_sequence(ar_process([0.5, 0.2], 1.0), 2000, 5).x
        prog = x_bounds_program(Box([-10.0] * 2, [10.0] * 2), 2)
        res = solve_margin_program(prog, xs)
        assert res.rows_solved == 2 and res.feasible
        assert np.array_equal(res.theta, np.max(xs, axis=0) + 1.0 + 1e-9)
        # a psi that reads x still needs the hull
        with pytest.raises(AssertionError, match="a hull was built"):
            solve_margin_program(
                random_box_program(np.random.default_rng(5), 2, 1, True), xs)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim_x=st.sampled_from([1, 2, 3, _HULL_MAX_DIM + 1]),
           n=st.integers(1, 40), pieces=st.integers(1, 3),
           x_dependent=st.booleans(),
           mode=st.sampled_from(["optimize", "feasibility"]),
           cloud=st.sampled_from(["general", "duplicates", "collinear"]))
    def test_matches_full_row_solve(self, seed, dim_x, n, pieces, x_dependent,
                                    mode, cloud):
        rng = np.random.default_rng(seed)
        prog = random_box_program(rng, dim_x, pieces, x_dependent)
        xs = random_cloud(rng, n, dim_x, cloud)
        res = solve_margin_program(prog, xs, mode=mode)
        used_fallback, objective, resid, feasible = full_row_solve(prog, xs,
                                                                   mode)
        assert res.rows_solved <= n * pieces
        assert res.used_fallback == used_fallback
        assert res.feasible == feasible
        if used_fallback:
            # the min-slack value is unique, its point need not be
            assert res.max_violation == pytest.approx(resid, abs=1e-7)
        else:
            assert res.objective == pytest.approx(objective, abs=1e-7)


def x_bounds_program(theta_set, dim):
    """x_k - theta_k <= -1 for each coordinate k, as in the benchmark."""
    pieces = tuple(ConstraintPiece(psi=AffineMap(np.zeros((dim, dim)),
                                                 -np.eye(dim)[k]),
                                   eta=AffineMap(np.eye(dim)[k:k + 1], [0.0]))
                   for k in range(dim))
    return ScenarioProgramSpec(objective=np.ones(dim), pieces=pieces,
                               theta_set=theta_set, margin=1.0)


def no_scipy_solver(*args, **kwargs):
    raise AssertionError("a scipy solver was called")


def random_bound_program(rng):
    """Random program whose constant psi rows each bound at most one of 1
    to 3 theta coordinates, with exact zeros in the objective.  eta and the
    margin scale with the coefficients, so that the bounds b/a land near
    the box; about half of the programs are infeasible on a normal cloud."""
    p = int(rng.integers(1, 4))
    pieces, sizes = [], []
    for _ in range(int(rng.integers(1, 4))):
        size = 10.0 ** rng.uniform(-3.0, 3.0)
        offset = np.zeros(p)
        # one piece in eight is all-zero: it holds or fails for every theta
        offset[rng.integers(p)] = rng.choice([-1.0, 1.0]) * size * (
            rng.random() >= 0.125)
        pieces.append(ConstraintPiece(
            psi=AffineMap(np.zeros((p, 1)), offset),
            eta=AffineMap(size * rng.normal(0.0, 0.2, size=(1, 1)),
                          size * rng.normal(0.0, 0.5, size=1))))
        sizes.append(size)
    lo = rng.uniform(-5.0, 1.0, size=p)
    objective = rng.normal(size=p) * (rng.random(size=p) < 0.7)
    return ScenarioProgramSpec(
        objective=objective, pieces=pieces,
        theta_set=Box(lo, lo + rng.uniform(0.0, 8.0, p)),
        margin=float(rng.uniform(0.01, 0.5) * min(sizes)))


class TestClosedForm:
    @pytest.mark.parametrize("kind", ["1d", "2d", "ball"])
    def test_acceptance_programs_skip_scipy(self, kind, monkeypatch):
        monkeypatch.setattr(optimize, "linprog", no_scipy_solver)
        monkeypatch.setattr(optimize, "minimize", no_scipy_solver)
        prog, spec, eps = {
            "1d": (x_bounds_program(Box([-10.0], [10.0]), 1),
                   ar1_process(0.8, 0.6, flip_p=0.1), 0.15),
            "2d": (x_bounds_program(Box([-10.0] * 2, [10.0] * 2), 2),
                   ar_process([0.5, 0.2], 1.0), 0.3),
            "ball": (x_bounds_program(Ball(10.0), 1),
                     ar1_process(0.8, 0.6, flip_p=0.1), 0.15),
        }[kind]
        n = plan_n_margin(eps, 0.1, 1.0, tau_lambda(prog).sum)
        xs = simulate_sequence(spec, n, 888).x.reshape(n, -1)
        res = solve_margin_program(prog, xs)
        assert res.solver == "closed_form"
        assert res.feasible and not res.used_fallback
        assert np.array_equal(res.theta, np.max(xs, axis=0) + 1.0 + 1e-9)

    @pytest.mark.parametrize("xs, feasible, theta", [
        ([0.2, 0.5], True, 0.5 + 0.1 + 1e-9),
        ([-2.0, 2.5], True, 2.5 + 0.1 + 1e-9),
        # no feasible point: the min-slack point is the ball's right end
        ([5.0], False, 3.0),
    ])
    def test_one_dim_ball_is_an_interval(self, xs, feasible, theta,
                                         monkeypatch):
        monkeypatch.setattr(optimize, "minimize", no_scipy_solver)
        prog = ScenarioProgramSpec(
            objective=[1.0], pieces=one_dim_threshold_program().pieces,
            theta_set=Ball(3.0), margin=0.1)
        res = solve_margin_program(prog, np.array(xs))
        assert res.feasible == feasible
        assert res.theta[0] == theta
        if not feasible:
            assert res.max_violation == 2.1

    @pytest.mark.parametrize("lo, hi", [(-4.0, 4.0), (-4.0, 3.0), (-3.0, 4.0)])
    @pytest.mark.parametrize("psi", [0.0, -1.0])
    def test_zero_cost_takes_the_highs_vertex(self, lo, hi, psi):
        # x - 10 - psi.theta <= -gamma holds on the whole box, so only the
        # tie-break decides theta
        piece = ConstraintPiece(psi=AffineMap([[0.0]], [psi]),
                                eta=AffineMap([[1.0]], [-10.0]))
        prog = ScenarioProgramSpec(objective=[0.0], pieces=(piece,),
                                   theta_set=Box([lo], [hi]), margin=0.1)
        xs = np.array([-1.0, 1.0])
        res = solve_margin_program(prog, xs)
        assert res.solver == "closed_form"
        assert np.array_equal(res.theta,
                              full_row_theta(prog, xs[:, None], "optimize")[1])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
    def test_matches_linprog(self, seed, n):
        rng = np.random.default_rng(seed)
        prog = random_bound_program(rng)
        xs = rng.normal(size=n)
        res = solve_margin_program(prog, xs)
        used_fallback, objective, resid, feasible = full_row_solve(
            prog, xs[:, None], "optimize")
        assert res.used_fallback == used_fallback
        assert res.feasible == feasible
        if used_fallback:
            assert res.max_violation == pytest.approx(resid, abs=1e-9)
        else:
            # a zero cost leaves theta_j free: HiGHS's vertex is matched too
            _, theta = full_row_theta(prog, xs[:, None], "optimize")
            assert res.solver == "closed_form"
            assert res.objective == pytest.approx(objective, abs=1e-9)
            assert res.theta == pytest.approx(theta, abs=1e-9)


def ball_kkt_residual(program, xs, res):
    """Residual of the KKT certificate of res.theta, found by nnls over
    every scenario row: c + A_S^T lam + mu theta = 0 in optimize mode, with
    S the rows within tolerance of -margin; sum lam = 1 and A_S^T lam +
    mu theta = 0 in min-slack mode, with S the rows tied at the largest
    value; lam, mu >= 0, and mu = 0 unless theta is on the sphere.  The
    residual is relative to the size of c (optimize) or of the rows."""
    a, h = every_row(program, xs)
    theta, radius = res.theta, program.theta_set.radius
    values = a @ theta + h
    tol = 1e-9 * (radius * np.abs(a).sum(axis=1) + np.abs(h) + program.margin)
    norm = np.linalg.norm(theta)
    sphere = (theta / norm if norm >= radius * (1.0 - 1e-9)
              else np.zeros_like(theta))[:, None]
    if res.used_fallback:
        rows = a[values >= np.max(values) - tol]
        m = np.vstack([np.hstack([rows.T, sphere]),
                       np.append(np.ones(rows.shape[0]), 0.0)])
        rhs, size = np.append(np.zeros(theta.size), 1.0), np.max(np.abs(rows))
    else:
        rows = a[values >= -program.margin - 1e-9 - tol]
        m = np.hstack([rows.T, sphere])
        rhs, size = -program.objective, np.linalg.norm(program.objective)
    return optimize.nnls(m, rhs)[1] / max(size, 1.0)


class TestBallPrograms:
    """Balls of dim theta >= 2, solved by the incremental LP unless the
    box [-r, r]^p's optimum lies in the ball."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim_x=st.sampled_from([1, 2, 3]),
           n=st.integers(1, 40), pieces=st.integers(1, 3),
           x_dependent=st.booleans(), log_radius=st.floats(-6.0, 50.0),
           mode=st.sampled_from(["optimize", "feasibility"]),
           cloud=st.sampled_from(["general", "duplicates", "collinear"]))
    def test_kkt_certificate(self, seed, dim_x, n, pieces, x_dependent,
                             log_radius, mode, cloud):
        rng = np.random.default_rng(seed)
        boxed = random_box_program(rng, dim_x, pieces, x_dependent)
        assume(boxed.dim_theta >= 2)
        radius = 10.0 ** log_radius
        prog = ScenarioProgramSpec(objective=boxed.objective,
                                   pieces=boxed.pieces,
                                   theta_set=Ball(radius),
                                   margin=boxed.margin)
        xs = random_cloud(rng, n, dim_x, cloud)
        res = solve_margin_program(prog, xs, mode=mode)
        assert res.solver in ("closed_form", "seidel")
        assert np.linalg.norm(res.theta) <= radius * (1.0 + 1e-12)
        assert ball_kkt_residual(prog, xs, res) <= 1e-9

    @pytest.mark.parametrize("seed", [161, 266, 390])
    def test_feasible_programs_found_feasible(self, seed):
        # the box generator over a ball of radius 0.5 to 4 and a cloud of 5
        # to 200 points; the optimize programs of these seeds are feasible,
        # so the solve must reach their optimum, not the min-slack point
        rng = np.random.default_rng(seed)
        dim_x = int(rng.integers(1, 4))
        boxed = random_box_program(rng, dim_x, int(rng.integers(1, 4)),
                                   bool(rng.integers(0, 2)))
        prog = ScenarioProgramSpec(objective=boxed.objective,
                                   pieces=boxed.pieces,
                                   theta_set=Ball(float(rng.uniform(0.5, 4.0))),
                                   margin=boxed.margin)
        xs = random_cloud(rng, int(rng.integers(5, 201)), dim_x, "general")
        res = solve_margin_program(prog, xs)
        assert prog.dim_theta >= 2
        assert res.feasible and not res.used_fallback
        assert ball_kkt_residual(prog, xs, res) <= 1e-9


def small_ball_program(rng, radius):
    """1 to 7 constant-psi rows on 2 or 3 theta coordinates over a ball,
    whose offsets and margin scale with the radius."""
    p, k = int(rng.integers(2, 4)), int(rng.integers(1, 8))
    pieces = [ConstraintPiece(psi=AffineMap(np.zeros((p, 1)),
                                            rng.normal(size=p)),
                              eta=AffineMap([[0.0]], [rng.normal() * radius]))
              for _ in range(k)]
    return ScenarioProgramSpec(objective=rng.normal(size=p), pieces=pieces,
                               theta_set=Ball(radius),
                               margin=float(rng.uniform(0.01, 1.0)) * radius)


class TestSmallBalls:
    """Below r = 1e-3 the cut loop that solved balls before stalled: with
    r = 10^U(-6, -3), its last LP point lay up to 9.9% outside the ball,
    and 27 of 800 solves missed the KKT conditions, by up to 0.39.  It
    missed them in 6 of the 18 cases below."""

    @pytest.mark.parametrize("radius", [1e-6, 1e-4, 1e-3])
    @pytest.mark.parametrize("mode", ["optimize", "feasibility"])
    @pytest.mark.parametrize("seed", [46, 60, 123])
    def test_kkt_point_in_the_ball(self, seed, mode, radius):
        prog = small_ball_program(np.random.default_rng(seed), radius)
        xs = np.zeros((1, 1))
        res = solve_margin_program(prog, xs, mode=mode)
        assert prog.theta_set.contains(res.theta, tol=0.0)
        assert ball_kkt_residual(prog, xs, res) <= 1e-9


class TestCertify:
    def test_margin_certificate(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=1.0)
        spec = ar1_process(0.8, 0.6)
        cert = certify(prog, spec, 0.15, 0.1, "margin", seed=99)
        assert cert.feasible
        assert cert.violation_bound <= 0.15
        assert cert.n_used == plan_n_margin(0.15, 0.1, 1.0, 10.0)
        # the certificate's point really satisfies the margin constraints
        path = simulate_sequence(spec, cert.n_used, 99)
        vals = prog.constraint_values(path.x, np.asarray(cert.theta_hat))
        assert np.max(vals) <= -1.0

    def test_vc_certificate(self):
        prog = one_dim_threshold_program(theta_lo=-10, theta_hi=10, margin=1.0)
        spec = ar1_process(0.8, 0.6)
        cert = certify(prog, spec, 0.15, 0.1, "vc", seed=101)
        assert cert.feasible
        assert cert.n_used == plan_n_vc(0.15, 0.1, 1)
        assert cert.violation_bound <= 0.15
        ghost = sample_marginal(spec, 10_000, 101)
        assert violation_rate(np.asarray(cert.theta_hat), prog, ghost) <= 0.15

    def test_infeasible_program_certificate(self):
        up = ConstraintPiece(psi=AffineMap([[0.0]], [-1.0]),
                             eta=AffineMap([[1.0]], [0.0]))
        down = ConstraintPiece(psi=AffineMap([[0.0]], [1.0]),
                               eta=AffineMap([[-1.0]], [0.0]))
        prog = ScenarioProgramSpec(objective=[1.0], pieces=(up, down),
                                   theta_set=Box([-10.0], [10.0]), margin=0.5,
                                   indicator_vc_dim=1)
        cert = certify(prog, ar1_process(0.5, 1.0), 0.2, 0.1, "vc", seed=4)
        assert not cert.feasible
        assert cert.violation_bound is None

    def test_parameter_errors(self):
        prog = one_dim_threshold_program()
        spec = ar1_process(0.5, 1.0)
        with pytest.raises(ValueError):
            certify(prog, spec, 1.5, 0.1, "margin", seed=1)
        with pytest.raises(ValueError):
            certify(prog, spec, 0.1, 0.1, "other", seed=1)
        bare = ScenarioProgramSpec(objective=[1.0], pieces=prog.pieces,
                                   theta_set=Box([-5.0], [5.0]), margin=1.0)
        with pytest.raises(ValueError, match="VC dimension"):
            certify(bare, spec, 0.1, 0.1, "vc", seed=1)


class TestSerialization:
    def test_program_json_roundtrip(self):
        prog = two_dim_program()
        back = ScenarioProgramSpec.from_dict(
            json.loads(json.dumps(prog.to_dict())))
        assert np.array_equal(back.objective, prog.objective)
        assert back.margin == prog.margin
        xs = np.array([[0.5], [-1.0]])
        theta = np.array([0.7, -0.3])
        assert np.allclose(back.constraint_values(xs, theta),
                           prog.constraint_values(xs, theta))

    def test_program_unknown_fields_rejected(self):
        d = one_dim_threshold_program().to_dict()
        d["surprise"] = 1
        with pytest.raises(ValueError):
            ScenarioProgramSpec.from_dict(d)

    def test_integer_margin_and_radius_read_as_floats(self):
        d = one_dim_threshold_program().to_dict()
        d.update(margin=2, theta_set={"kind": "ball", "radius": 10})
        prog = ScenarioProgramSpec.from_dict(d)
        assert type(prog.margin) is float and prog.margin == 2.0
        assert type(prog.theta_set.radius) is float
        assert prog.theta_set.to_dict() == {"kind": "ball", "radius": 10.0}

    def test_certificate_json(self):
        prog = one_dim_threshold_program(margin=1.0)
        cert = certify(prog, ar1_process(0.8, 0.6), 0.3, 0.2, "margin", seed=2)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["feasible"] is True
        assert payload["method"] == "margin"
        assert payload["n_used"] == cert.n_used


class TestProgramNumbersRejectedByName:
    """Each malformed program number fails when the program is built (or,
    for tau, when it is certified) with a ValueError naming it."""

    @staticmethod
    def program(**changes):
        d = one_dim_threshold_program(theta_lo=-10.0, theta_hi=10.0).to_dict()
        for path, value in changes.items():
            target = d
            keys = path.split(".")
            for key in keys[:-1]:
                target = target[int(key) if key.isdigit() else key]
            target[keys[-1]] = value
        return ScenarioProgramSpec.from_dict(d)

    @pytest.mark.parametrize("path, value, name", [
        ("objective", [math.nan], "objective"),
        ("objective", [math.inf], "objective"),
        ("objective", [1e308], "objective"),
        ("pieces.0.psi.matrix", [[math.nan]], "matrix"),
        ("pieces.0.eta.offset", [math.nan], "offset"),
        ("pieces.0.eta.matrix", [[1e308]], "matrix"),
        ("theta_set", {"kind": "box", "lo": [-1e308], "hi": [10.0]}, "lo"),
        ("theta_set", {"kind": "box", "lo": [-10.0], "hi": [math.inf]}, "hi"),
        ("x_domain", {"kind": "ball", "radius": 3.0}, "x_domain"),
        ("indicator_vc_dim", math.nan, "indicator_vc_dim"),
        ("indicator_vc_dim", 0, "indicator_vc_dim"),
    ])
    def test_spec(self, path, value, name):
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            self.program(**{path: value})

    @pytest.mark.parametrize("path, value, name", [
        # psi = 0: the constraint does not depend on theta
        ("pieces.0.psi.offset", [0.0], "offset"),
        # psi depends on x, and there is no x domain to bound tau over
        ("pieces.0.psi.matrix", [[-1.0]], "matrix"),
    ])
    def test_tau(self, path, value, name):
        prog = self.program(**{path: value})
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            certify(prog, ar1_process(0.8, 0.6), 0.3, 0.1, "margin", seed=1)
